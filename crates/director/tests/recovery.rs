//! Crash-consistency integration suite: kill the director at any
//! journal record (or mid-record, tearing the tail) and recovery must
//! land byte-identical to an unkilled run — report, journal, metrics,
//! and chrome trace. Plus the fault-injection lifecycle end to end:
//! whole-job crashes restart from checkpoints, slab failures cascade
//! into multi-job shrinks, poison jobs quarantine on a capped budget.

use cosmic_director::{
    Decision, Director, DirectorConfig, DirectorError, FairnessPolicy, JobCheckpointStore, Journal,
};
use cosmic_runtime::RetryPolicy;
use cosmic_sim::{ArrivalProfile, DirectorFaultPlan, DirectorFaultRates, JobArrivalPlan};
use cosmic_telemetry::TraceSink;

const SEED: u64 = 2017;

/// A contended, fault-riddled scenario that exercises every decision
/// type: tight arrivals, SLA deadlines, job crashes, a slab failure,
/// and one poison job.
fn scenario() -> (DirectorConfig, JobArrivalPlan, DirectorFaultPlan) {
    let profile = ArrivalProfile {
        mean_interarrival_s: 0.002,
        sla_slack: Some((2.0, 8.0)),
        ..ArrivalProfile::default()
    };
    let plan = JobArrivalPlan::random(SEED, 24, &profile);
    let cfg = DirectorConfig {
        cluster_nodes: 48,
        policy: FairnessPolicy::WeightedMaxMin,
        scaler_interval_s: 0.004,
        checkpoint_every_rounds: 4,
        retry: RetryPolicy { backoff_base: 0.01, backoff_cap: 0.05, max_retries: 3 },
        ..DirectorConfig::default()
    };
    let mut faults = DirectorFaultPlan::random(
        SEED,
        24,
        48,
        0.05,
        &DirectorFaultRates {
            job_crashes: 6,
            slab_failures: 2,
            slab_width: (8, 16),
            repair_s: 0.01,
            poison_jobs: 0,
        },
    );
    // A dedicated poison victim: job 0 arrives first and runs long
    // enough that at least one of the staggered crashes lands.
    for i in 1..=8 {
        faults = faults.with_job_crash(0.002 * i as f64, 0);
    }
    faults = faults.with_poison(0);
    (cfg, plan, faults)
}

/// Byte offsets of every record boundary in an encoded journal.
fn boundaries(journal: &[u8]) -> Vec<usize> {
    let (records, tail) = Journal::decode(journal).expect("baseline journal is clean");
    assert!(matches!(tail, cosmic_director::DecodeTail::Clean));
    let mut j = Journal::new();
    let mut out = vec![0usize];
    for r in &records {
        j.append(r);
        out.push(j.bytes().len());
    }
    assert_eq!(j.bytes(), journal, "re-encoding must reproduce the journal");
    out
}

#[test]
fn kill_anywhere_recovery_is_byte_identical() {
    let (cfg, plan, faults) = scenario();
    let sink = TraceSink::new();
    let baseline = Director::run_journaled(&cfg, &plan, &faults, &sink).expect("unkilled run");
    let metrics = sink.metrics_json();
    let trace = sink.chrome_trace_json();
    assert!(baseline.journal.len() > 200, "scenario journaled too little to be interesting");
    let empty_store = JobCheckpointStore::new().to_bytes();

    let cuts = boundaries(&baseline.journal);
    // Every 5th record boundary, the empty journal, and the full one.
    for (i, &cut) in cuts.iter().enumerate() {
        if i % 5 != 0 && cut != 0 && cut != baseline.journal.len() {
            continue;
        }
        let rsink = TraceSink::new();
        let recovered =
            Director::recover(&cfg, &plan, &faults, &baseline.journal[..cut], &empty_store, &rsink)
                .unwrap_or_else(|e| panic!("recovery from record {i} failed: {e}"));
        assert_eq!(recovered.report, baseline.report, "report diverged at record {i}");
        assert_eq!(recovered.journal, baseline.journal, "journal diverged at record {i}");
        assert_eq!(rsink.metrics_json(), metrics, "metrics diverged at record {i}");
        assert_eq!(rsink.chrome_trace_json(), trace, "trace diverged at record {i}");
        let stats = recovered.recovery.expect("recovery stats set");
        assert_eq!(stats.replayed_records, i as u64);
        assert_eq!(stats.torn_bytes, 0);
    }

    // Torn kills: cut mid-record. The torn tail rolls back to the last
    // complete record and recovery still lands byte-identical.
    for &cut in &[cuts[1] + 1, cuts[cuts.len() / 2] + 3, baseline.journal.len() - 1] {
        let rsink = TraceSink::new();
        let recovered =
            Director::recover(&cfg, &plan, &faults, &baseline.journal[..cut], &empty_store, &rsink)
                .expect("torn-tail recovery");
        assert_eq!(recovered.report, baseline.report);
        assert_eq!(recovered.journal, baseline.journal);
        assert_eq!(rsink.metrics_json(), metrics);
        let stats = recovered.recovery.expect("recovery stats set");
        assert!(stats.torn_bytes > 0, "cut at {cut} should tear a record");
    }
}

#[test]
fn recovery_also_accepts_the_final_checkpoint_store() {
    let (cfg, plan, faults) = scenario();
    let sink = TraceSink::new();
    let baseline = Director::run_journaled(&cfg, &plan, &faults, &sink).expect("unkilled run");
    let cuts = boundaries(&baseline.journal);
    let cut = cuts[cuts.len() / 3];
    let rsink = TraceSink::new();
    let recovered = Director::recover(
        &cfg,
        &plan,
        &faults,
        &baseline.journal[..cut],
        &baseline.checkpoints,
        &rsink,
    )
    .expect("recovery with handed-over store");
    assert_eq!(recovered.report, baseline.report);
}

#[test]
fn corrupt_checkpoint_store_is_a_typed_recovery_error() {
    let (cfg, plan, faults) = scenario();
    let sink = TraceSink::new();
    let baseline = Director::run_journaled(&cfg, &plan, &faults, &sink).expect("unkilled run");
    let mut store = JobCheckpointStore::new();
    store.record(3, 8);
    let mut bytes = store.to_bytes();
    // Flip a bit in the entry and fix the trailing total so the
    // per-entry checksum is what catches it.
    bytes[12] ^= 0x01;
    let body = bytes.len() - 8;
    let total = cosmic_collectives::checksum::fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&total.to_le_bytes());
    let rsink = TraceSink::new();
    let err = Director::recover(&cfg, &plan, &faults, &baseline.journal, &bytes, &rsink)
        .expect_err("corrupt store must fail recovery");
    match err {
        DirectorError::RecoveryFailed { job, .. } => assert_eq!(job, 3),
        other => panic!("expected RecoveryFailed, got {other}"),
    }
}

#[test]
fn every_flip_of_the_first_length_prefix_is_corruption() {
    // A damaged length prefix must not read as a torn tail at byte 0,
    // which would silently drop every record of the journal.
    let (cfg, plan, faults) = scenario();
    let sink = TraceSink::new();
    let baseline = Director::run_journaled(&cfg, &plan, &faults, &sink).expect("unkilled run");
    for bit in 0..32 {
        let mut bytes = baseline.journal.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let decoded = Journal::decode(&bytes).map(|(records, tail)| (records.len(), tail));
        assert!(
            matches!(decoded, Err(DirectorError::JournalCorrupt { .. })),
            "flip of length bit {bit} decoded as {decoded:?}"
        );
    }
}

#[test]
fn journal_from_a_different_plan_diverges() {
    let (cfg, plan, faults) = scenario();
    let sink = TraceSink::new();
    let baseline = Director::run_journaled(&cfg, &plan, &faults, &sink).expect("unkilled run");
    let other_plan = JobArrivalPlan::random(SEED + 1, 24, &ArrivalProfile::default());
    let rsink = TraceSink::new();
    let err = Director::recover(
        &cfg,
        &other_plan,
        &faults,
        &baseline.journal,
        &JobCheckpointStore::new().to_bytes(),
        &rsink,
    )
    .expect_err("foreign journal must not replay");
    assert!(
        matches!(err, DirectorError::JournalDiverged { .. } | DirectorError::JournalCorrupt { .. }),
        "got {err}"
    );
}

#[test]
fn faults_restart_shrink_and_quarantine() {
    let (cfg, plan, faults) = scenario();
    let sink = TraceSink::new();
    let run = Director::run_journaled(&cfg, &plan, &faults, &sink).expect("faulted run");
    let report = &run.report;
    // The poison job burned its capped budget and was quarantined.
    let q = report
        .quarantined
        .iter()
        .find(|q| q.job == 0)
        .expect("job 0 is poison and must be quarantined");
    assert_eq!(q.replay_attempts, cfg.retry.max_retries);
    assert!(q.grants_burned <= cfg.retry.max_retries as usize);
    // A quarantined job never completes; everyone else does.
    assert!(report.jobs.iter().all(|j| j.id != 0));
    // At least one non-poison job crashed and restarted.
    assert!(
        report.jobs.iter().any(|j| j.restarts > 0),
        "some crashed job should have restarted from its checkpoint"
    );
    // The journal recorded crash, slab, and quarantine decisions.
    let (records, _) = Journal::decode(&run.journal).expect("clean journal");
    let has = |f: fn(&Decision) -> bool| records.iter().any(|r| f(&r.decision));
    assert!(has(|d| matches!(d, Decision::Crash { .. })));
    assert!(has(|d| matches!(d, Decision::Slab { .. })));
    assert!(has(|d| matches!(d, Decision::SlabRepair { .. })));
    assert!(has(|d| matches!(d, Decision::PoisonRetry { .. })));
    assert!(has(|d| matches!(d, Decision::Quarantine { job: 0 })));
    // Restarted jobs resumed from a checkpoint multiple of the cadence.
    for r in &records {
        if let Decision::Restart { rounds, .. } = r.decision {
            assert_eq!(rounds % cfg.checkpoint_every_rounds, 0);
        }
    }
}
