//! Checksummed per-job progress checkpoints for crash recovery.
//!
//! The director checkpoints each running job's round progress on a
//! fixed cadence. Two failure paths replay these checkpoints:
//!
//! - **Job crashes** ([`cosmic_sim::DirectorFaultKind::JobCrash`]):
//!   the job rolls back to its checkpointed round count and restarts
//!   through admission, replaying the checkpoint onto the fresh
//!   grant. A *poison* job's replay fails every time; the retry
//!   budget caps how many grants it can burn before quarantine.
//! - **Director recovery** ([`crate::Director::recover`]): the store
//!   handed over from the dead director is integrity-verified before
//!   replay; a corrupt entry surfaces as the typed
//!   [`DirectorError::RecoveryFailed`](crate::DirectorError) instead
//!   of a panic propagating out of the runtime layer.
//!
//! Checksums are the stack's [FNV-1a](cosmic_collectives::checksum)
//! over the record's fields, and the serialized store is sealed with a
//! trailer over all of it, so a flipped bit anywhere in a store is
//! caught before it can fork the control plane.

use std::collections::BTreeMap;

use cosmic_collectives::checksum::{self, Fnv1a};

use crate::error::DirectorError;

/// One job's checkpointed progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCheckpoint {
    /// The checkpointed job.
    pub job: usize,
    /// Rounds completed at checkpoint time.
    pub rounds: usize,
    /// Checksum over (job, rounds) — the replay validity proof.
    pub checksum: u64,
}

impl JobCheckpoint {
    /// The checksum a valid checkpoint of (job, rounds) must carry.
    pub fn expected_checksum(job: usize, rounds: usize) -> u64 {
        Fnv1a::new().word(job as u64).word(rounds as u64).finish()
    }

    /// Whether the stored checksum matches the stored fields.
    pub fn verifies(&self) -> bool {
        self.checksum == Self::expected_checksum(self.job, self.rounds)
    }
}

/// The directory of live job checkpoints, keyed by job id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobCheckpointStore {
    entries: BTreeMap<usize, JobCheckpoint>,
}

impl JobCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        JobCheckpointStore::default()
    }

    /// Records (or refreshes) `job`'s checkpoint at `rounds`.
    pub fn record(&mut self, job: usize, rounds: usize) {
        self.entries.insert(
            job,
            JobCheckpoint { job, rounds, checksum: JobCheckpoint::expected_checksum(job, rounds) },
        );
    }

    /// Drops `job`'s checkpoint (completion or quarantine).
    pub fn remove(&mut self, job: usize) {
        self.entries.remove(&job);
    }

    /// The checkpointed round count for `job` (0 when never
    /// checkpointed — a crash before the first cadence restarts the
    /// job from scratch).
    pub fn rounds_for(&self, job: usize) -> usize {
        self.entries.get(&job).map_or(0, |c| c.rounds)
    }

    /// Live entries, ascending by job id.
    pub fn entries(&self) -> impl Iterator<Item = &JobCheckpoint> {
        self.entries.values()
    }

    /// Number of checkpointed jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verifies every entry's checksum, returning the first corrupt
    /// job as the typed recovery error.
    pub fn verify(&self) -> Result<(), DirectorError> {
        for c in self.entries.values() {
            if !c.verifies() {
                return Err(DirectorError::RecoveryFailed {
                    job: c.job,
                    source: cosmic_runtime::RuntimeError::CheckpointCorrupt { iteration: c.rounds },
                });
            }
        }
        Ok(())
    }

    /// Serializes the store: `[u32 count]` then per entry
    /// `[u64 job][u64 rounds][u64 checksum]`, all little-endian,
    /// [sealed](checksum::seal) with a trailer over everything before
    /// it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.entries.len() * 24 + 8);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for c in self.entries.values() {
            out.extend_from_slice(&(c.job as u64).to_le_bytes());
            out.extend_from_slice(&(c.rounds as u64).to_le_bytes());
            out.extend_from_slice(&c.checksum.to_le_bytes());
        }
        checksum::seal(&mut out);
        out
    }

    /// Deserializes and integrity-verifies a store. Any structural
    /// damage or checksum failure is the typed recovery error (job 0
    /// when the damage cannot be attributed to one entry).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DirectorError> {
        let whole = |detail: usize| DirectorError::RecoveryFailed {
            job: detail,
            source: cosmic_runtime::RuntimeError::CheckpointCorrupt { iteration: 0 },
        };
        if bytes.len() < 12 {
            return Err(whole(0));
        }
        let body = checksum::open(bytes).map_err(|_| whole(0))?;
        let count = u32::from_le_bytes(body[..4].try_into().unwrap_or([0; 4])) as usize;
        if body.len() != 4 + count * 24 {
            return Err(whole(0));
        }
        let mut store = JobCheckpointStore::new();
        for i in 0..count {
            let at = 4 + i * 24;
            let word = |o: usize| {
                u64::from_le_bytes(body[at + o..at + o + 8].try_into().unwrap_or([0; 8]))
            };
            let entry = JobCheckpoint {
                job: word(0) as usize,
                rounds: word(8) as usize,
                checksum: word(16),
            };
            store.entries.insert(entry.job, entry);
        }
        store.verify()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_verify_round_trip() {
        let mut store = JobCheckpointStore::new();
        store.record(3, 16);
        store.record(7, 8);
        store.record(3, 24); // refresh
        assert_eq!(store.len(), 2);
        assert_eq!(store.rounds_for(3), 24);
        assert_eq!(store.rounds_for(99), 0);
        store.verify().unwrap();
        let decoded = JobCheckpointStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(decoded, store);
        store.remove(3);
        assert_eq!(store.rounds_for(3), 0);
    }

    #[test]
    fn corruption_is_a_typed_recovery_error() {
        let mut store = JobCheckpointStore::new();
        store.record(5, 40);
        let mut bytes = store.to_bytes();
        // Damage the rounds field *and* recompute the trailing total,
        // so the per-entry checksum is what catches it.
        bytes[12] ^= 0x04;
        let body_len = bytes.len() - 8;
        let total = checksum::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&total.to_le_bytes());
        match JobCheckpointStore::from_bytes(&bytes) {
            Err(DirectorError::RecoveryFailed { job, source }) => {
                assert_eq!(job, 5);
                assert!(matches!(source, cosmic_runtime::RuntimeError::CheckpointCorrupt { .. }));
            }
            other => panic!("expected RecoveryFailed, got {other:?}"),
        }
        // Truncation is caught by the trailing total.
        assert!(JobCheckpointStore::from_bytes(&store.to_bytes()[..10]).is_err());
    }
}
