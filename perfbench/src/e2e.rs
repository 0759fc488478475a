//! The untraced run: each workload's ops in a closed loop with one
//! caller, timed end to end, with every output checked.

use std::path::Path;
use std::time::{Duration, Instant};

use cosmic_core::cosmic_director::{Director, DirectorRun, JobCheckpointStore, Journal};
use cosmic_core::cosmic_ml::sgd;
use cosmic_core::cosmic_runtime::engine::membership::model_bits_equal;
use cosmic_core::cosmic_runtime::{model_checksum, ClusterTrainer, TrainOutcome};
use cosmic_core::cosmic_telemetry::TraceSink;

use crate::affinity::CpuRotation;
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::workloads::{self, journal_cut, Kind, LaunchSpec, Scenario, TrainJob};

/// Set-up runs again whenever set-ups have used less than this share
/// of the elapsed time, so its samples span the whole run as the ops do
/// (the host's speed drifts over seconds); and at least `MIN_SETUPS`
/// times in all. The median is reported.
const SETUP_SHARE: f64 = 0.05;
const MIN_SETUPS: usize = 5;

/// What one closed loop measured.
struct Measured<S> {
    /// The first set-up's product, which every op uses.
    first: S,
    /// Median set-up wall seconds.
    setup_s: f64,
    /// Op latencies in ms, in the order the ops ran.
    lat: Vec<f64>,
}

/// Runs `setup`, then `op` in a closed loop for `seconds` (at least
/// twice), interleaving further timed set-ups.
fn closed_loop<S>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(&S, u64) -> Duration,
) -> Result<Measured<S>, String> {
    let mut setups = Vec::new();
    let mut timed_setup = |setups: &mut Vec<f64>| -> Result<S, String> {
        let t = Instant::now();
        let out = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        Ok(out)
    };
    let start = Instant::now();
    let first = timed_setup(&mut setups)?;
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut lat = Vec::new();
    while lat.len() < 2 || Instant::now() < deadline {
        lat.push(op(&first, lat.len() as u64).as_secs_f64() * 1e3);
        let spent: f64 = setups.iter().sum();
        if spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            drop(timed_setup(&mut setups)?);
        }
    }
    while setups.len() < MIN_SETUPS {
        drop(timed_setup(&mut setups)?);
    }
    Ok(Measured { first, setup_s: median(&setups), lat })
}

/// The gated latency is the 5th percentile: what an op costs when the
/// shared host leaves it alone. The host's interference comes and goes
/// over seconds to minutes and moves the mean, median and tail of a
/// whole run by up to 1.8×; the fast end of a run moves far less (see
/// `perfbench/README.md`). The mean and the tail are printed for a
/// reader.
fn latency_metrics<S>(r: &mut Report, m: &Measured<S>, failed: u64) {
    r.attempted = m.lat.len() as u64;
    r.failed = failed;
    r.metric("setup_s", m.setup_s, "s");
    r.metric("op_ms_p05", quantile(&m.lat, 0.05), "ms");
    r.note("op_ms_mean", m.lat.iter().sum::<f64>() / m.lat.len() as f64, "ms");
    r.note("failed_ratio", failed as f64 / m.lat.len() as f64, "share");
}

pub fn run(kind: Kind, seed: u64, seconds: f64, launcher: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    match kind {
        Kind::NarrowTcp => train_workload(&mut r, &TrainJob::narrow_tcp(seed), seconds)?,
        Kind::WideSim => train_workload(&mut r, &TrainJob::wide_sim(seed), seconds)?,
        Kind::DirectorRecovery => director_workload(&mut r, seed, seconds)?,
        Kind::LauncherProc => launcher_workload(&mut r, seed, seconds, launcher)?,
    }
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(r)
}

/// narrow-tcp and wide-sim: one `ClusterTrainer::train` job per op.
fn train_workload(r: &mut Report, job: &TrainJob, seconds: f64) -> Result<(), String> {
    let mut machine = Vec::new();
    let mut first: Option<TrainOutcome> = None;
    let mut failed = 0;
    let m = closed_loop(
        seconds,
        || {
            let s = workloads::set_up(job)?;
            machine.push((s.machine_max_err, s.machine_cycles));
            Ok(s.trainer)
        },
        |trainer, _| {
            let init = job.init.clone();
            let t = Instant::now();
            let res = trainer.train(&job.alg, &job.data, init);
            let wall = t.elapsed();
            match res {
                Ok(out) if out.faults.is_clean() => match &first {
                    None => first = Some(out),
                    Some(f) => same_model(r, f, &out, "a later job of the run"),
                },
                _ => failed += 1,
            }
            wall
        },
    )?;
    latency_metrics(r, &m, failed);
    for (err, cycles) in machine {
        check_machine(r, err, cycles);
    }
    let Some(out) = first else {
        r.check(false, || "no job of the run succeeded".into());
        return Ok(());
    };
    let records = job.data.len() * job.cfg.epochs;
    r.note("train_ms_p50", quantile(&m.lat, 0.5), "ms");
    r.note("train_ms_p90", quantile(&m.lat, 0.9), "ms");
    r.note("samples_per_s", records as f64 / (median(&m.lat) / 1e3), "1/s");
    r.note("final_loss", *out.loss_history.last().unwrap_or(&f64::NAN), "loss");
    check_against_references(r, job, &out);
    Ok(())
}

pub fn check_machine(r: &mut Report, max_err: f64, cycles: u64) {
    r.check(max_err <= 1e-9, || format!("machine gradients differ from interp by {max_err:e}"));
    r.count("arch.machine_cycles", cycles);
}

/// Whether two jobs trained the same model and loss history, bit for
/// bit.
pub fn same_run(a: &TrainOutcome, b: &TrainOutcome) -> bool {
    model_bits_equal(&a.model, &b.model) && model_bits_equal(&a.loss_history, &b.loss_history)
}

fn same_model(r: &mut Report, a: &TrainOutcome, b: &TrainOutcome, what: &str) {
    r.check(same_run(a, b), || format!("{what} trained a different model (bits)"));
}

/// The job's model against the plain parallel optimizer (within 1e-9)
/// and, for a TCP job, against the same job on the in-process wire (bit
/// for bit). Records the model's hash for the cross-run check.
pub fn check_against_references(r: &mut Report, job: &TrainJob, out: &TrainOutcome) {
    let workers = job.cfg.nodes * job.cfg.threads_per_node;
    let reference =
        sgd::train_parallel(&job.alg, &job.data, job.init.clone(), &job.train_config(workers));
    let worst =
        out.model.iter().zip(&reference.model).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    r.check(worst <= 1e-9 && out.model.len() == reference.model.len(), || {
        format!("model differs from sgd::train_parallel by {worst:e}")
    });
    r.note("model_vs_train_parallel", worst, "abs");
    if job.cfg.transport != job.on_sim().transport {
        let sim = ClusterTrainer::new(job.on_sim())
            .and_then(|t| t.train(&job.alg, &job.data, job.init.clone()))
            .map_err(|e| format!("sim twin: {e}"));
        match sim {
            Ok(sim) => same_model(r, &sim, out, "the same job on Sim"),
            Err(e) => r.check(false, || e),
        }
    }
    r.count("model.hash", model_checksum(&out.model));
    r.count("model.iterations", out.iterations as u64);
}

/// The director's reference run and its journal's record offsets.
pub struct DirectorRef {
    pub run: DirectorRun,
    pub offsets: Vec<usize>,
}

/// Set-up of the director workload: the seeded stream and fault plan,
/// the unkilled reference run every op must reproduce, and the record
/// boundaries its journal is cut at.
pub fn director_setup(sc: &Scenario) -> Result<DirectorRef, String> {
    let run = Director::run_journaled(&sc.cfg, &sc.plan, &sc.faults, &TraceSink::new())
        .map_err(|e| format!("reference director run: {e}"))?;
    let (records, _) =
        Journal::decode(&run.journal).map_err(|e| format!("reference journal: {e}"))?;
    let mut journal = Journal::new();
    let mut offsets = vec![0];
    for rec in &records {
        journal.append(rec);
        offsets.push(journal.bytes().len());
    }
    if journal.bytes() != run.journal.as_slice() {
        return Err("re-encoded journal differs from the reference".into());
    }
    Ok(DirectorRef { run, offsets })
}

/// director-recovery: each op is one `run_journaled` over the stream,
/// then one `recover` from a seeded cut of the reference journal. The op
/// is single-threaded, so it runs on each allowed CPU in turn.
fn director_workload(r: &mut Report, seed: u64, seconds: f64) -> Result<(), String> {
    let empty_store = JobCheckpointStore::new().to_bytes();
    let cpus = CpuRotation::new();
    let (mut schedule, mut recover) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let setup = || {
        let sc = workloads::scenario(seed);
        let reference = director_setup(&sc)?;
        Ok((sc, reference))
    };
    let m = closed_loop(seconds, setup, |(sc, reference), i| {
        let (sink, rsink) = (TraceSink::new(), TraceSink::new());
        let (_, cut) = journal_cut(seed, i, &reference.offsets);
        if let Some(cpus) = &cpus {
            cpus.pin(i);
        }
        let t = Instant::now();
        let run = Director::run_journaled(&sc.cfg, &sc.plan, &sc.faults, &sink);
        let t_schedule = t.elapsed();
        let t = Instant::now();
        let journal = &reference.run.journal[..cut];
        let rec = Director::recover(&sc.cfg, &sc.plan, &sc.faults, journal, &empty_store, &rsink);
        let t_recover = t.elapsed();
        schedule.push(t_schedule.as_secs_f64() * 1e3);
        recover.push(t_recover.as_secs_f64() * 1e3);
        match (run, rec) {
            (Ok(run), Ok(rec)) => {
                for (what, got) in [("run", &run), ("recovery", &rec)] {
                    let same =
                        got.report == reference.run.report && got.journal == reference.run.journal;
                    r.check(same, || format!("director {what} {i} (cut at byte {cut}) diverged"));
                }
            }
            _ => failed += 1,
        }
        t_schedule + t_recover
    })?;
    latency_metrics(r, &m, failed);
    r.note("schedule_ms_p50", quantile(&schedule, 0.5), "ms");
    r.note("schedule_ms_p90", quantile(&schedule, 0.9), "ms");
    r.note("recover_ms_p50", quantile(&recover, 0.5), "ms");
    r.note("recover_ms_p90", quantile(&recover, 0.9), "ms");
    let reference = &m.first.1;
    r.count("journal.records", reference.offsets.len() as u64 - 1);
    r.count("journal.bytes", reference.run.journal.len() as u64);
    r.count("director.events", reference.run.report.events);
    r.count("cache.hits", reference.run.report.cache.hits);
    r.count("cache.misses", reference.run.report.cache.misses);
    Ok(())
}

/// launcher-proc: each op is one `cosmic-launcher` run as a child
/// process. Set-up is the stack's front end for the launcher's
/// program plus the in-process twin's trainer; the twin's model is the
/// launcher's expected result.
fn launcher_workload(r: &mut Report, seed: u64, seconds: f64, bin: &Path) -> Result<(), String> {
    let spec = LaunchSpec::new(seed);
    let twin = TrainJob::launcher_twin(&spec);
    let expected = ClusterTrainer::new(twin.on_sim())
        .and_then(|t| t.train(&twin.alg, &twin.data, twin.init.clone()))
        .map_err(|e| format!("launcher twin: {e}"))?;
    let expected = model_checksum(&expected.model);

    let mut machine = Vec::new();
    let mut failed = 0;
    let setup = || {
        let s = workloads::set_up(&twin)?;
        machine.push((s.machine_max_err, s.machine_cycles));
        Ok(())
    };
    let m = closed_loop(seconds, setup, |(), i| {
        let t = Instant::now();
        let res = workloads::launch(bin, &spec);
        let wall = t.elapsed();
        match res {
            Ok((_, s)) if s.links_dead == 0 => {
                r.check(s.workers_matched == spec.nodes as u64, || {
                    format!("launch {i}: {} of {} workers matched", s.workers_matched, spec.nodes)
                });
                r.check(s.iterations == spec.iterations as u64, || {
                    format!("launch {i}: {} of {} iterations", s.iterations, spec.iterations)
                });
                r.check(s.final_checksum == expected, || {
                    format!(
                        "launch {i}: model {:#x}, in-process twin {expected:#x}",
                        s.final_checksum
                    )
                });
            }
            Ok(_) => failed += 1,
            Err(e) => {
                eprintln!("launch {i} failed: {e}");
                failed += 1;
            }
        }
        wall
    })?;
    latency_metrics(r, &m, failed);
    for (err, cycles) in machine {
        check_machine(r, err, cycles);
    }
    r.note("train_ms_p50", quantile(&m.lat, 0.5), "ms");
    r.note("train_ms_p90", quantile(&m.lat, 0.9), "ms");
    let records = spec.samples * spec.iterations;
    r.note("samples_per_s", records as f64 / (median(&m.lat) / 1e3), "1/s");
    r.count("model.hash", expected);
    Ok(())
}
