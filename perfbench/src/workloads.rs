//! The inputs of the four workloads, generated from the seed.
//!
//! Every workload owns the same three components, so the traced run can
//! measure every layer on every workload at that workload's own sizes:
//! a training job (with the front-end program it is compiled from), a
//! director stream, and a launcher job. The untraced run times only the
//! component the workload is about; see `perfbench/README.md` for why
//! each workload exists.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use cosmic_core::cosmic_arch::Machine;
use cosmic_core::cosmic_dfg::interp;
use cosmic_core::cosmic_director::{DirectorConfig, FairnessPolicy, JobSpec};
use cosmic_core::cosmic_ml::data::{self, Dataset};
use cosmic_core::cosmic_ml::sgd::TrainConfig;
use cosmic_core::cosmic_ml::{Aggregation, Algorithm};
use cosmic_core::cosmic_runtime::{
    layout, ClusterConfig, ClusterTrainer, RetryPolicy, TransportKind,
};
use cosmic_core::cosmic_sim::{
    ArrivalProfile, DirectorFaultPlan, DirectorFaultRates, JobArrivalPlan,
};
use cosmic_core::CosmicStack;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NarrowTcp,
    WideSim,
    DirectorRecovery,
    LauncherProc,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "narrow-tcp" => Some(Kind::NarrowTcp),
            "wide-sim" => Some(Kind::WideSim),
            "director-recovery" => Some(Kind::DirectorRecovery),
            "launcher-proc" => Some(Kind::LauncherProc),
            _ => None,
        }
    }
}

/// One training job: the algorithm, its generated inputs, and the
/// cluster it runs on.
pub struct TrainJob {
    pub alg: Algorithm,
    pub data: Dataset,
    pub init: Vec<f64>,
    pub cfg: ClusterConfig,
}

impl TrainJob {
    fn new(alg: Algorithm, records: usize, seed: u64, cfg: ClusterConfig) -> TrainJob {
        TrainJob {
            data: data::generate(&alg, records, seed),
            init: data::init_model(&alg, seed),
            alg,
            cfg,
        }
    }

    /// SVM, 64 features, 1,024 records, 4 nodes × 2 threads,
    /// minibatch 64 (16 rounds), over loopback TCP.
    pub fn narrow_tcp(seed: u64) -> TrainJob {
        let cfg = ClusterConfig {
            nodes: 4,
            threads_per_node: 2,
            minibatch: 64,
            transport: TransportKind::Tcp,
            ..ClusterConfig::default()
        };
        TrainJob::new(Algorithm::Svm { features: 64 }, 1024, seed, cfg)
    }

    /// SVM, 16,384 features, 256 records (32 MiB), 4 nodes × 2
    /// threads, minibatch 32 (8 rounds), on the in-process wire.
    pub fn wide_sim(seed: u64) -> TrainJob {
        let cfg = ClusterConfig {
            nodes: 4,
            threads_per_node: 2,
            minibatch: 32,
            transport: TransportKind::Sim,
            ..ClusterConfig::default()
        };
        TrainJob::new(Algorithm::Svm { features: 16_384 }, 256, seed, cfg)
    }

    /// The launcher's job run in process: the same data, model, shard
    /// split, batch-gradient steps and learning rate, one thread per
    /// node, over loopback TCP.
    pub fn launcher_twin(spec: &LaunchSpec) -> TrainJob {
        let cfg = ClusterConfig {
            nodes: spec.nodes,
            threads_per_node: 1,
            minibatch: spec.samples,
            learning_rate: LaunchSpec::LEARNING_RATE,
            epochs: spec.iterations,
            aggregation: Aggregation::Sum,
            transport: TransportKind::Tcp,
            ..ClusterConfig::default()
        };
        let alg = Algorithm::LinearRegression { features: spec.features };
        TrainJob::new(alg, spec.samples, spec.seed, cfg)
    }

    /// The first job of the director's stream, trained for real on its
    /// minimum width, one thread per node, on the in-process wire.
    pub fn director_job(scenario: &Scenario, seed: u64) -> TrainJob {
        let spec = JobSpec::from_arrival(&scenario.plan.jobs[0]);
        let cfg = ClusterConfig {
            nodes: spec.min_nodes,
            threads_per_node: 1,
            minibatch: spec.minibatch,
            epochs: spec.epochs,
            ..ClusterConfig::default()
        };
        TrainJob::new(spec.algorithm, spec.records, seed, cfg)
    }

    /// Aggregation steps per epoch, by the engine's shard law.
    pub fn steps(&self) -> usize {
        let workers = self.cfg.nodes * self.cfg.threads_per_node;
        let per_worker = layout::shard_size(self.cfg.minibatch, workers);
        let largest_node = self.data.len().div_ceil(self.cfg.nodes);
        largest_node.div_ceil(self.cfg.threads_per_node).div_ceil(per_worker)
    }

    /// The plain optimizer's view of the same job.
    pub fn train_config(&self, workers: usize) -> TrainConfig {
        TrainConfig {
            learning_rate: self.cfg.learning_rate,
            epochs: self.cfg.epochs,
            minibatch: self.cfg.minibatch,
            workers,
            aggregation: self.cfg.aggregation,
        }
    }

    /// The same job on the in-process wire.
    pub fn on_sim(&self) -> ClusterConfig {
        ClusterConfig { transport: TransportKind::Sim, ..self.cfg.clone() }
    }
}

/// What set-up produced: the trainer, and the cycle machine's run of
/// one record checked against the reference interpreter.
pub struct Setup {
    pub trainer: ClusterTrainer,
    pub machine_cycles: u64,
    pub machine_max_err: f64,
}

/// Set-up of a training job through the stack's public API: build the
/// stack (parse, lower, plan), compile the thread program, run one
/// record on the cycle machine, and create the trainer.
pub fn set_up(job: &TrainJob) -> Result<Setup, String> {
    let mut stack = CosmicStack::builder()
        .source(&job.alg.dsl_source(job.cfg.minibatch))
        .nodes(job.cfg.nodes)
        .groups(job.cfg.groups)
        .threads(job.cfg.threads_per_node)
        .minibatch(job.cfg.minibatch)
        .learning_rate(job.cfg.learning_rate);
    for (name, size) in job.alg.dim_bindings() {
        stack = stack.dim(name, size);
    }
    let stack = stack.build().map_err(|e| format!("stack build: {e}"))?;
    let compiled = stack.compile();
    let record = job.alg.dfg_record(&job.data.records()[0]).into_owned();
    let view = job.alg.gather_model_view(&job.data.records()[0], &job.init);
    let geometry = compiled.program.geometry;
    let run = Machine::new(geometry, geometry.columns as f64)
        .run(&compiled.program, &record, &view)
        .map_err(|e| format!("machine run: {e}"))?;
    let expected = interp::evaluate(stack.dfg(), &record, &view);
    if run.gradients.len() != expected.len() {
        return Err(format!(
            "machine produced {} gradients, interpreter {}",
            run.gradients.len(),
            expected.len()
        ));
    }
    let machine_max_err =
        run.gradients.iter().zip(&expected).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    let trainer = ClusterTrainer::new(job.cfg.clone()).map_err(|e| format!("trainer: {e}"))?;
    Ok(Setup { trainer, machine_cycles: run.cycles, machine_max_err })
}

/// The director's seeded stream: 256 jobs on 48 nodes under weighted
/// max-min, with the chaos harness's arrival and SLA profile, job
/// crashes, two slab failures and one poison job.
pub struct Scenario {
    pub cfg: DirectorConfig,
    pub plan: JobArrivalPlan,
    pub faults: DirectorFaultPlan,
}

pub const DIRECTOR_JOBS: usize = 256;
const DIRECTOR_NODES: usize = 48;

pub fn scenario(seed: u64) -> Scenario {
    let profile = ArrivalProfile {
        mean_interarrival_s: 0.002,
        sla_slack: Some((2.0, 8.0)),
        ..ArrivalProfile::default()
    };
    let plan = JobArrivalPlan::random(seed, DIRECTOR_JOBS, &profile);
    let cfg = DirectorConfig {
        cluster_nodes: DIRECTOR_NODES,
        policy: FairnessPolicy::WeightedMaxMin,
        scaler_interval_s: 0.004,
        checkpoint_every_rounds: 4,
        retry: RetryPolicy { backoff_base: 0.01, backoff_cap: 0.05, max_retries: 3 },
        ..DirectorConfig::default()
    };
    let horizon_s = DIRECTOR_JOBS as f64 * profile.mean_interarrival_s;
    let faults = DirectorFaultPlan::random(
        seed,
        DIRECTOR_JOBS,
        DIRECTOR_NODES,
        horizon_s,
        &DirectorFaultRates {
            job_crashes: 8,
            slab_failures: 2,
            slab_width: (8, 16),
            repair_s: 0.01,
            poison_jobs: 1,
        },
    );
    Scenario { cfg, plan, faults }
}

/// Where recovery `i` of a run cuts the reference journal: a seeded
/// record, alternately at its boundary and torn a few bytes into the
/// next record. `offsets[k]` is the byte length of the first `k`
/// records. Returns the record count kept and the byte cut.
pub fn journal_cut(seed: u64, i: u64, offsets: &[usize]) -> (usize, usize) {
    let records = offsets.len() - 1;
    let k =
        (splitmix(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (records as u64 + 1)) as usize;
    if i % 2 == 1 && k < records {
        (k, (offsets[k] + 5).min(offsets[k + 1] - 1))
    } else {
        (k, offsets[k])
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One `cosmic-launcher` job: 3 worker processes, 64 features, 3,000
/// samples, 50 iterations.
pub struct LaunchSpec {
    pub nodes: usize,
    pub features: usize,
    pub samples: usize,
    pub iterations: usize,
    pub seed: u64,
}

impl LaunchSpec {
    /// The launcher's default learning rate, which the in-process twin
    /// must use too.
    const LEARNING_RATE: f64 = 0.05;

    pub fn new(seed: u64) -> LaunchSpec {
        LaunchSpec { nodes: 3, features: 64, samples: 3000, iterations: 50, seed }
    }
}

/// The launcher's one-line JSON summary, the fields the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSummary {
    pub iterations: u64,
    pub final_checksum: u64,
    pub workers_matched: u64,
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub heartbeats: u64,
    pub reconnects: u64,
    pub links_dead: u64,
}

/// Runs the launcher as a child process and waits for it. Returns the
/// wall time of the child and its parsed summary.
pub fn launch(bin: &Path, spec: &LaunchSpec) -> Result<(Duration, LaunchSummary), String> {
    let mut cmd = Command::new(bin);
    cmd.args(["--nodes", &spec.nodes.to_string()])
        .args(["--features", &spec.features.to_string()])
        .args(["--samples", &spec.samples.to_string()])
        .args(["--iterations", &spec.iterations.to_string()])
        .args(["--seed", &spec.seed.to_string()]);
    let t = Instant::now();
    let out = cmd.output().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let wall = t.elapsed();
    if !out.status.success() {
        return Err(format!(
            "launcher exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line =
        stdout.lines().rev().find(|l| l.starts_with('{')).ok_or("launcher printed no summary")?;
    let field = |key: &str| -> Result<u64, String> {
        let raw = json_field(line, key).ok_or_else(|| format!("summary lacks {key}: {line}"))?;
        let raw = raw.trim_matches('"');
        let parsed = match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        };
        parsed.map_err(|e| format!("summary field {key}={raw}: {e}"))
    };
    Ok((
        wall,
        LaunchSummary {
            iterations: field("iterations")?,
            final_checksum: field("final_checksum")?,
            workers_matched: field("workers_matched")?,
            frames_sent: field("frames_sent")?,
            bytes_sent: field("bytes_sent")?,
            heartbeats: field("heartbeats")?,
            reconnects: field("reconnects")?,
            links_dead: field("links_dead")?,
        },
    ))
}

/// The raw text of a scalar field in a flat one-line JSON object.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_fields_parse() {
        let line = r#"{"iterations":50,"final_checksum":"0x00000000deadbeef","links_dead":0}"#;
        assert_eq!(json_field(line, "iterations"), Some("50"));
        assert_eq!(json_field(line, "final_checksum"), Some("\"0x00000000deadbeef\""));
        assert_eq!(json_field(line, "links_dead"), Some("0"));
        assert_eq!(json_field(line, "missing"), None);
    }

    #[test]
    fn cuts_stay_inside_the_journal_and_alternate() {
        let offsets = [0, 40, 90, 130];
        for i in 0..64 {
            let (k, cut) = journal_cut(11, i, &offsets);
            assert!(k <= 3 && cut <= 130);
            if i % 2 == 0 || k == 3 {
                assert_eq!(cut, offsets[k]);
            } else {
                assert!(cut > offsets[k] && cut < offsets[k + 1]);
            }
        }
    }

    #[test]
    fn steps_follow_the_shard_law() {
        assert_eq!(TrainJob::narrow_tcp(1).steps(), 16);
        let spec = LaunchSpec::new(1);
        assert_eq!(TrainJob::launcher_twin(&spec).steps(), 1);
    }
}
