//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! Every workload measures every layer, at the workload's own sizes:
//! its program through the front end, its dataset through the data
//! layer, its training job through the engine phase by phase, its
//! partials through Sigma and both wires, the director stream of its
//! seed, and the launcher job of its seed. What each layer metric
//! should move, and where it should stay put, is in `README.md`.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use cosmic_core::cosmic_arch::{AcceleratorSpec, Geometry, Machine};
use cosmic_core::cosmic_compiler::{self, CompileOptions};
use cosmic_core::cosmic_dfg::{self, DimEnv};
use cosmic_core::cosmic_director::{Director, JobCheckpointStore, Journal};
use cosmic_core::cosmic_dsl;
use cosmic_core::cosmic_ml::data::Dataset;
use cosmic_core::cosmic_ml::sgd;
use cosmic_core::cosmic_planner;
use cosmic_core::cosmic_runtime::engine::membership::{self, model_bits_equal};
use cosmic_core::cosmic_runtime::engine::{checkpoint_phase, compute, rounds, ScheduleCache};
use cosmic_core::cosmic_runtime::{
    fold, node::chunk_vector, AggregateOutcome, Chunk, ClusterTrainer, Engine, FaultPlan,
    LinkConfig, RetryPolicy, RoundCtx, RunObserver, RunState, SigmaAggregator, SimTransport,
    TcpTransport, TrainOutcome, Transport, TransportStats, WireRepr, CHUNK_WORDS,
    DEFAULT_RING_CAPACITY,
};
use cosmic_core::cosmic_telemetry::TraceSink;

use crate::e2e::{check_against_references, check_machine, director_setup, same_run};
use crate::report::{median, quantile, Report};
use crate::spans::{self, Span, Tracer};
use crate::workloads::{self, journal_cut, Kind, LaunchSpec, TrainJob};

/// Repeats of each standalone layer call; the median is reported.
const REPS: usize = 5;
/// Launcher runs in the traced run (each spawns four processes).
const LAUNCHES: usize = 3;
/// Share of `--seconds` spent on traced and untraced engine jobs.
const ENGINE_SHARE: f64 = 0.5;

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    launcher: &Path,
    spans_out: Option<&Path>,
) -> Result<Report, String> {
    let spec = LaunchSpec::new(seed);
    let scenario = workloads::scenario(seed);
    let job = match kind {
        Kind::NarrowTcp => TrainJob::narrow_tcp(seed),
        Kind::WideSim => TrainJob::wide_sim(seed),
        Kind::DirectorRecovery => TrainJob::director_job(&scenario, seed),
        Kind::LauncherProc => TrainJob::launcher_twin(&spec),
    };
    let mut t = Traced { tracer: Tracer::new(), next_id: 0, r: Report::default() };
    t.front_end(&job)?;
    t.data(&job);
    t.engine(&job, seconds * ENGINE_SHARE)?;
    let sigma = SigmaAggregator::with_ring_capacity(4, 4, DEFAULT_RING_CAPACITY);
    t.sigma(&job, &sigma);
    t.wire(&job, &sigma)?;
    t.control_plane(&scenario, seed)?;
    t.launcher(launcher, &spec)?;
    t.r.attempted = t.next_id;
    if let Some(path) = spans_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans::to_json(&t.tracer.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(t.r)
}

struct Traced {
    tracer: Tracer,
    next_id: u64,
    r: Report,
}

/// Durations (ms) of every span named `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ms).collect()
}

/// Per job: the summed duration (ms) of spans named in `names`.
fn per_job_sum(spans: &[Span], jobs: &[u64], names: &[&str]) -> Vec<f64> {
    jobs.iter()
        .map(|&j| {
            spans.iter().filter(|s| s.job == j && names.contains(&s.name)).map(Span::dur_ms).sum()
        })
        .collect()
}

impl Traced {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn median_ms(&self, name: &str) -> f64 {
        median(&durations(&self.tracer.spans(), name))
    }

    /// DSL parse → lower → plan → compile → one record on the cycle
    /// machine: the chain that building a `CosmicStack` and
    /// `compile()` run, called stage by stage.
    fn front_end(&mut self, job: &TrainJob) -> Result<(), String> {
        let src = job.alg.dsl_source(job.cfg.minibatch);
        let env = job.alg.dim_bindings().into_iter().fold(DimEnv::new(), |e, (n, s)| e.with(n, s));
        let chip = AcceleratorSpec::fpga_vu9p();
        let record = job.alg.dfg_record(&job.data.records()[0]).into_owned();
        let view = job.alg.gather_model_view(&job.data.records()[0], &job.init);
        for _ in 0..REPS {
            let id = self.id();
            let tr = &self.tracer;
            let root = tr.open("frontend", id);
            let program =
                tr.time("dsl.parse", id, || cosmic_dsl::parse(&src)).map_err(|e| e.to_string())?;
            let dfg = tr
                .time("dfg.lower", id, || cosmic_dfg::lower(&program, &env))
                .map_err(|e| e.to_string())?;
            let plan = tr
                .time("planner.plan", id, || cosmic_planner::plan(&dfg, &chip, job.cfg.minibatch));
            let geometry = Geometry::new(plan.best.point.rows_per_thread, chip.columns);
            let compiled = tr.time("compiler.compile", id, || {
                cosmic_compiler::compile(&dfg, geometry, &CompileOptions::default())
            });
            let run = tr
                .time("arch.machine_run", id, || {
                    Machine::new(geometry, geometry.columns as f64).run(
                        &compiled.program,
                        &record,
                        &view,
                    )
                })
                .map_err(|e| e.to_string())?;
            tr.close(root);
            let expected = cosmic_dfg::interp::evaluate(&dfg, &record, &view);
            let err =
                run.gradients.iter().zip(&expected).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            check_machine(&mut self.r, err, run.cycles);
            self.r.check(run.gradients.len() == expected.len(), || "machine gradient count".into());
        }
        for (metric, span) in [
            ("dsl.parse_ms", "dsl.parse"),
            ("dfg.lower_ms", "dfg.lower"),
            ("planner.plan_ms", "planner.plan"),
            ("compiler.compile_ms", "compiler.compile"),
            ("arch.machine_run_ms", "arch.machine_run"),
        ] {
            let v = self.median_ms(span);
            self.r.metric(metric, v, "ms");
        }
        let cycles =
            self.r.fingerprint.iter().find(|(k, _)| k == "arch.machine_cycles").map_or(0, |c| c.1);
        self.r.metric("arch.machine_cycles", cycles as f64, "count");
        Ok(())
    }

    /// The dataset copies `Engine::new` makes, the loss pass, and the
    /// plain single-worker run of the same job (the baseline).
    fn data(&mut self, job: &TrainJob) {
        let (nodes, threads) = (job.cfg.nodes, job.cfg.threads_per_node);
        let mut bytes = 0;
        for _ in 0..REPS {
            let id = self.id();
            let parts: Vec<Vec<Dataset>> = self.tracer.time("ml.partition", id, || {
                job.data.partition(nodes).iter().map(|p| p.partition(threads)).collect()
            });
            bytes = job.data.bytes() + parts.iter().flatten().map(Dataset::bytes).sum::<usize>();
            drop(black_box(parts));
            let loss = self
                .tracer
                .time("ml.mean_loss", id, || sgd::mean_loss(&job.alg, &job.data, &job.init));
            black_box(loss);
        }
        for _ in 0..3 {
            let id = self.id();
            let cfg = job.train_config(1);
            let out = self.tracer.time("ml.sequential_job", id, || {
                sgd::train_parallel(&job.alg, &job.data, job.init.clone(), &cfg)
            });
            black_box(out);
        }
        self.r.metric("ml.partition_ms", self.median_ms("ml.partition"), "ms");
        self.r.metric("ml.partition_bytes", bytes as f64, "count");
        self.r.metric("ml.mean_loss_ms", self.median_ms("ml.mean_loss"), "ms");
        self.r.metric("ml.sequential_job_ms", self.median_ms("ml.sequential_job"), "ms");
    }

    /// Traced jobs driven phase by phase, alternating with untraced
    /// `ClusterTrainer::train` jobs on the same inputs.
    fn engine(&mut self, job: &TrainJob, seconds: f64) -> Result<(), String> {
        let trainer = ClusterTrainer::new(job.cfg.clone()).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (mut jobs, mut untraced) = (Vec::new(), Vec::new());
        let mut reference: Option<TrainOutcome> = None;
        while jobs.len() < 3 || Instant::now() < deadline {
            let init = job.init.clone();
            let t = Instant::now();
            let plain =
                trainer.train(&job.alg, &job.data, init).map_err(|e| format!("train: {e}"))?;
            untraced.push(t.elapsed().as_secs_f64() * 1e3);

            let id = self.id();
            let counters = Counters::default();
            let out = self.phase_job(id, job, &trainer, &counters)?;
            jobs.push(id);
            let same = out == plain && same_run(&out, &plain);
            self.r.check(same, || "phase-by-phase job diverged from ClusterTrainer::train".into());
            self.r.check(out.faults.is_clean(), || "traced job degraded".into());
            let c = counters.wire.get();
            self.r.count("engine.rounds", out.iterations as u64);
            self.r.count("engine.chunks_sent", counters.chunks.get());
            self.r.count("engine.frames_sent", c.frames_sent);
            self.r.count("engine.bytes_sent", c.bytes_sent);
            if reference.is_none() {
                check_against_references(&mut self.r, job, &out);
                reference = Some(out);
            }
        }
        let spans = self.tracer.spans();
        let job_ms = per_job_sum(&spans, &jobs, &["engine.job"]);
        let sum = |names: &[&str]| median(&per_job_sum(&spans, &jobs, names));
        let share = |names: &[&str]| {
            let parts = per_job_sum(&spans, &jobs, names);
            median(&parts.iter().zip(&job_ms).map(|(p, j)| p / j).collect::<Vec<_>>())
        };
        let rounds = durations(&spans, "engine.round");
        // Named spans cover a job's wall time except its own self time.
        let self_ms = spans::self_times_ms(&spans);
        let (mut uncovered, mut total) = (0.0, 0.0);
        for (s, own) in spans.iter().zip(&self_ms).filter(|(s, _)| s.name == "engine.job") {
            uncovered += own;
            total += s.dur_ms();
        }
        let coverage = 1.0 - uncovered / total;
        self.r.check(coverage >= 0.9, || {
            format!("named spans cover only {coverage:.3} of traced jobs")
        });
        let iterations = reference.map_or(0, |o| o.iterations);
        let r = &mut self.r;
        r.metric("engine.job_ms", median(&job_ms), "ms");
        r.metric("engine.new_ms", sum(&["engine.new"]), "ms");
        r.metric("engine.loss_ms", sum(&["engine.record_loss"]), "ms");
        r.metric(
            "engine.membership_ms",
            sum(&["engine.plan_phase", "engine.detector_sweep", "engine.process_rejoins"]),
            "ms",
        );
        r.metric("engine.compute_ms", sum(&["engine.fan_out", "engine.absorb_panics"]), "ms");
        r.metric("engine.admission_ms", sum(&["engine.admission_barrier"]), "ms");
        r.metric("engine.collective_ms", sum(&["engine.collective_round"]), "ms");
        r.metric(
            "engine.update_ms",
            sum(&["engine.apply_update", "engine.maybe_checkpoint"]),
            "ms",
        );
        r.metric("engine.teardown_ms", sum(&["engine.teardown"]), "ms");
        r.metric("engine.round_ms_p50", quantile(&rounds, 0.5), "ms");
        r.metric("engine.round_ms_p90", quantile(&rounds, 0.9), "ms");
        r.metric("engine.rounds", iterations as f64, "count");
        r.metric("engine.setup_share", share(&["engine.new", "engine.run_state"]), "share");
        r.metric("engine.round_share", share(&["engine.round"]), "share");
        r.metric("trace.overhead_share", median(&job_ms) / median(&untraced) - 1.0, "share");
        r.metric("trace.span_coverage", coverage, "share");
        Ok(())
    }

    /// One job through `Engine::new`, `RunState::new` and the public
    /// phase functions, in `Engine::run`'s order, a span around each
    /// call.
    fn phase_job(
        &self,
        id: u64,
        job: &TrainJob,
        trainer: &ClusterTrainer,
        counters: &Counters,
    ) -> Result<TrainOutcome, String> {
        let e = |err: cosmic_core::cosmic_runtime::RuntimeError| err.to_string();
        let tr = &self.tracer;
        let steps = job.steps();
        let root = tr.open("engine.job", id);
        let topology = trainer.topology().clone();
        let init = job.init.clone();
        let eng = tr
            .time("engine.new", id, || {
                Engine::new(&job.cfg, &job.alg, &job.data, init.len(), Counting(counters))
            })
            .map_err(e)?;
        let mut st = tr.time("engine.run_state", id, || RunState::new(&job.cfg, topology, init));
        for _ in 0..job.cfg.epochs {
            tr.time("engine.record_loss", id, || st.record_loss(&job.alg, &job.data));
            for step in 0..steps {
                let round = tr.open("engine.round", id);
                tr.time("engine.plan_phase", id, || membership::plan_phase(&eng, &mut st))
                    .map_err(e)?;
                tr.time("engine.detector_sweep", id, || membership::detector_sweep(&eng, &mut st))
                    .map_err(e)?;
                let mut partials =
                    tr.time("engine.fan_out", id, || compute::fan_out(&eng, &st, step));
                tr.time("engine.absorb_panics", id, || {
                    compute::absorb_panics(&eng, &mut st, &partials)
                })
                .map_err(e)?;
                // The barrier's `t0` only stamps observer events; the engine
                // passes its observer's clock, which is 0 for one that
                // keeps no virtual time.
                let (contributions, round_cost) = tr.time("engine.admission_barrier", id, || {
                    compute::admission_barrier(&eng, &mut st, &mut partials, 0.0)
                });
                let senders: Vec<usize> =
                    (0..job.cfg.nodes).filter(|&n| contributions[n].is_some()).collect();
                if !senders.is_empty() {
                    let out = tr
                        .time("engine.collective_round", id, || {
                            rounds::collective_round(&eng, &mut st, &contributions, &senders)
                        })
                        .map_err(e)?;
                    if let Some(out) = out {
                        tr.time("engine.apply_update", id, || {
                            checkpoint_phase::apply_update(&eng, &mut st, out.sum, out.active_total)
                        });
                        tr.time("engine.maybe_checkpoint", id, || {
                            checkpoint_phase::maybe_checkpoint(&eng, &mut st)
                        });
                    }
                }
                tr.time("engine.process_rejoins", id, || {
                    membership::process_rejoins(&eng, &mut st)
                })
                .map_err(e)?;
                st.vclock += round_cost;
                st.iter_idx += 1;
                tr.close(round);
            }
        }
        tr.time("engine.record_loss", id, || st.record_loss(&job.alg, &job.data));
        let out = st.into_outcome();
        tr.time("engine.teardown", id, || drop(eng));
        tr.close(root);
        Ok(out)
    }

    /// Chunking, checksums, the fold, and the validated Sigma pipeline,
    /// standalone on the job's partial size and node count.
    fn sigma(&mut self, job: &TrainJob, sigma: &SigmaAggregator) {
        let parts = partials(job);
        let words = job.init.len();
        let mut chunks_per_partial = 0;
        for _ in 0..REPS {
            let id = self.id();
            let tr = &self.tracer;
            let streams: Vec<Vec<Chunk>> = tr
                .time("node.chunk_vector", id, || parts.iter().map(|p| chunk_vector(p)).collect());
            chunks_per_partial = streams[0].len();
            let sums = tr.time("node.checksum_of", id, || {
                parts
                    .iter()
                    .flat_map(|p| (0..p.len()).step_by(CHUNK_WORDS).map(move |o| (o, p)))
                    .map(|(o, p)| Chunk::checksum_of(o, &p[o..(o + CHUNK_WORDS).min(p.len())]))
                    .fold(0u64, |a, c| a ^ c)
            });
            let expected = streams.iter().flatten().fold(0u64, |a, c| a ^ c.checksum);
            self.r.check(sums == expected, || "checksum_of disagrees with chunk_vector".into());
            let refs: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
            let mut folded = vec![0.0; words];
            tr.time("fold.fold_parts", id, || fold::fold_parts(&mut folded, &refs));
            let incoming = streams
                .into_iter()
                .map(|stream| {
                    let (tx, rx) = crossbeam::channel::unbounded();
                    for c in stream {
                        tx.send(c).expect("receiver is held");
                    }
                    rx
                })
                .collect();
            let out: AggregateOutcome = tr.time("sigma.aggregate_validated", id, || {
                sigma.aggregate_validated(words, incoming)
            });
            let same = out.quarantined.is_empty() && model_bits_equal(&out.sum, &folded);
            self.r.check(same, || "Sigma pipeline and fold_parts disagree".into());
            self.r.count("node.chunks_per_partial", chunks_per_partial as u64);
        }
        let bytes = (parts.len() * words * 8) as f64;
        let checksum_ms = self.median_ms("node.checksum_of");
        let pipeline_ms =
            self.median_ms("node.chunk_vector") + self.median_ms("sigma.aggregate_validated");
        let r_fold = bytes / (self.median_ms("fold.fold_parts") * 1e3);
        self.r.metric("sigma.aggregate_ms", self.median_ms("sigma.aggregate_validated"), "ms");
        self.r.metric("sigma.checksum_mb_per_s", bytes / (checksum_ms * 1e3), "MB/s");
        // The send-side checksums run inside `chunk_vector` on the
        // caller's thread; the receive side re-checks them on the
        // aggregation pool in parallel, so the serial share is the one
        // a faster checksum removes from every round for sure.
        self.r.metric("sigma.checksum_share", checksum_ms / pipeline_ms, "share");
        self.r.metric("fold.fold_mb_per_s", r_fold, "MB/s");
        self.r.metric("node.chunks_per_partial", chunks_per_partial as f64, "count");
    }

    /// One `Transport::round` on each backend over the job's partials.
    fn wire(&mut self, job: &TrainJob, sigma: &SigmaAggregator) -> Result<(), String> {
        let parts = partials(job);
        let refs: Vec<Option<&[f64]>> = parts.iter().map(|p| Some(p.as_slice())).collect();
        let senders: Vec<usize> = (0..parts.len()).collect();
        let (plan, retry) = (FaultPlan::none(), RetryPolicy::default());
        let tcp = TcpTransport::bind(LinkConfig::default()).map_err(|e| e.to_string())?;
        let mut stats = TransportStats::default();
        for rep in 0..REPS {
            let id = self.id();
            let ctx = RoundCtx {
                iteration: rep,
                model_len: job.init.len(),
                plan: &plan,
                retry: &retry,
                senders: &senders,
                repr: WireRepr::DenseF64,
            };
            let tr = &self.tracer;
            let sim = tr.time("transport.sim_round", id, || SimTransport.round(&ctx, sigma, &refs));
            let tcp = tr.time("transport.tcp_round", id, || tcp.round(&ctx, sigma, &refs));
            let (sim, tcp) = (sim.map_err(|e| e.to_string())?, tcp.map_err(|e| e.to_string())?);
            let same = tcp.dead.is_empty() && model_bits_equal(&tcp.outcome.sum, &sim.outcome.sum);
            self.r.check(same, || "TCP and sim rounds disagree".into());
            self.r.count("transport.frames_per_round", tcp.stats.frames_sent);
            self.r.count("transport.bytes_per_round", tcp.stats.bytes_sent);
            stats.merge(&tcp.stats);
        }
        let (tcp_ms, sim_ms) =
            (self.median_ms("transport.tcp_round"), self.median_ms("transport.sim_round"));
        let r = &mut self.r;
        r.metric("transport.round_ms", tcp_ms, "ms");
        r.metric("transport.sim_round_ms", sim_ms, "ms");
        r.metric("transport.tcp_over_sim", tcp_ms / sim_ms, "ratio");
        r.metric("transport.frames_per_round", (stats.frames_sent / REPS as u64) as f64, "count");
        r.metric("transport.bytes_per_round", (stats.bytes_sent / REPS as u64) as f64, "count");
        r.metric("transport.reconnects", stats.reconnects as f64, "count");
        r.metric("transport.links_dead", stats.links_dead as f64, "count");
        Ok(())
    }

    /// The director over its seeded stream, journal encode and decode,
    /// the checkpoint store's decode, and recovery from a seeded cut.
    fn control_plane(&mut self, sc: &workloads::Scenario, seed: u64) -> Result<(), String> {
        let reference = director_setup(sc)?;
        let empty_store = JobCheckpointStore::new().to_bytes();
        let mut replayed = Vec::new();
        for rep in 0..REPS {
            let id = self.id();
            let (sink, rsink) = (TraceSink::new(), TraceSink::new());
            let tr = &self.tracer;
            let run = tr
                .time("director.run_journaled", id, || {
                    Director::run_journaled(&sc.cfg, &sc.plan, &sc.faults, &sink)
                })
                .map_err(|e| e.to_string())?;
            let (records, _) = tr
                .time("journal.decode", id, || Journal::decode(&run.journal))
                .map_err(|e| e.to_string())?;
            let journal = tr.time("journal.append", id, || {
                let mut j = Journal::new();
                for rec in &records {
                    j.append(rec);
                }
                j
            });
            let store = tr
                .time("checkpoints.from_bytes", id, || {
                    JobCheckpointStore::from_bytes(&run.checkpoints)
                })
                .map_err(|e| e.to_string())?;
            black_box(store);
            let (_, cut) = journal_cut(seed, rep as u64, &reference.offsets);
            let rec = tr
                .time("director.recover", id, || {
                    Director::recover(
                        &sc.cfg,
                        &sc.plan,
                        &sc.faults,
                        &run.journal[..cut],
                        &empty_store,
                        &rsink,
                    )
                })
                .map_err(|e| e.to_string())?;
            let same = journal.bytes() == run.journal.as_slice()
                && run.journal == reference.run.journal
                && rec.journal == run.journal
                && rec.report == run.report;
            self.r.check(same, || format!("director recovery {rep} diverged"));
            replayed.push(rec.recovery.map_or(0, |s| s.replayed_records) as f64);
            self.r.count("journal.records", records.len() as u64);
            self.r.count("journal.bytes", run.journal.len() as u64);
            self.r.count("director.events", run.report.events);
            self.r.count("cache.hits", run.report.cache.hits);
            self.r.count("cache.misses", run.report.cache.misses);
        }
        let records = (reference.offsets.len() - 1) as f64;
        let report = &reference.run.report;
        let lookups = (report.cache.hits + report.cache.misses).max(1) as f64;
        let append_us = self.median_ms("journal.append") * 1e3 / records;
        let decode_us = self.median_ms("journal.decode") * 1e3 / records;
        let (schedule_ms, recover_ms) =
            (self.median_ms("director.run_journaled"), self.median_ms("director.recover"));
        let checkpoints_ms = self.median_ms("checkpoints.from_bytes");
        let r = &mut self.r;
        r.metric("director.schedule_ms", schedule_ms, "ms");
        r.metric("director.recover_ms", recover_ms, "ms");
        r.metric("director.events", report.events as f64, "count");
        r.metric("director.decisions", records, "count");
        r.metric("journal.bytes_per_record", reference.run.journal.len() as f64 / records, "bytes");
        r.metric("journal.append_us_per_record", append_us, "us");
        r.metric("journal.decode_us_per_record", decode_us, "us");
        r.metric("checkpoints.decode_ms", checkpoints_ms, "ms");
        r.metric("director.replayed_records", median(&replayed), "count");
        r.metric("collectives.cache_hit_ratio", report.cache.hits as f64 / lookups, "share");
        Ok(())
    }

    /// The launcher job of this seed, from its JSON summary.
    fn launcher(&mut self, bin: &Path, spec: &LaunchSpec) -> Result<(), String> {
        let mut runs = Vec::new();
        for _ in 0..LAUNCHES {
            let id = self.id();
            let (_, s) = self.tracer.time("launcher.run", id, || workloads::launch(bin, spec))?;
            self.r.check(s.links_dead == 0 && s.workers_matched == spec.nodes as u64, || {
                format!("launcher run degraded: {s:?}")
            });
            self.r.count("launcher.model_hash", s.final_checksum);
            runs.push(s);
        }
        let iters = spec.iterations as f64;
        let m = |f: fn(&workloads::LaunchSummary) -> u64| {
            median(&runs.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        let run_ms = self.median_ms("launcher.run");
        let r = &mut self.r;
        r.metric("launcher.run_ms", run_ms, "ms");
        r.metric("launcher.frames_per_iter", m(|s| s.frames_sent) / iters, "count");
        r.metric("launcher.bytes_per_iter", m(|s| s.bytes_sent) / iters, "bytes");
        r.metric("launcher.heartbeats", m(|s| s.heartbeats), "count");
        r.metric("launcher.reconnects", m(|s| s.reconnects), "count");
        Ok(())
    }
}

/// Distinct per-node partials the size of the job's model.
fn partials(job: &TrainJob) -> Vec<Vec<f64>> {
    (0..job.cfg.nodes)
        .map(|n| job.init.iter().map(|w| w * (n + 1) as f64 + n as f64 * 1e-3).collect())
        .collect()
}

/// Counts an engine run books at its layer boundaries.
#[derive(Default)]
struct Counters {
    chunks: std::cell::Cell<u64>,
    wire: std::cell::Cell<TransportStats>,
}

/// A watching-only observer that books chunk and wire counts.
struct Counting<'c>(&'c Counters);

impl RunObserver for Counting<'_> {
    fn aggregated(
        &self,
        _cache: &ScheduleCache,
        _strategy: &str,
        senders: usize,
        chunks: usize,
        _outcome: &AggregateOutcome,
    ) {
        self.0.chunks.set(self.0.chunks.get() + (senders * chunks) as u64);
    }

    fn transported(&self, stats: &TransportStats) {
        let mut w = self.0.wire.get();
        w.merge(stats);
        self.0.wire.set(w);
    }
}
