//! The stack's integrity contract: every checksummed byte format
//! detects every single-bit flip, and consolidating the checksum into
//! `collectives::checksum` moved no checksum value and no encoded byte.

use cosmic::cosmic_director::{
    Decision, DecodeTail, JobCheckpoint, JobCheckpointStore, Journal, Record, ShedReason,
};
use cosmic::cosmic_runtime::collectives::{assign_roles, checksum, topology_fingerprint};
use cosmic::cosmic_runtime::{model_checksum, Chunk, Frame, CHUNK_WORDS};

/// Every single-bit variant of `bytes`, with the flipped bit's index.
fn flips(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..8 * bytes.len()).map(move |bit| {
        let mut bent = bytes.to_vec();
        bent[bit / 8] ^= 1 << (bit % 8);
        (bit, bent)
    })
}

fn sample_chunk() -> Chunk {
    let words: Vec<f64> = (0..8).map(|i| (i as f64 - 3.5) * 0.375).collect();
    Chunk::new(2 * CHUNK_WORDS, words)
}

#[test]
fn every_chunk_bit_flip_is_detected() {
    let chunk = sample_chunk();
    assert!(chunk.is_intact());
    for bit in 0..64 {
        let bent = Chunk { offset: chunk.offset ^ (1 << bit), ..chunk.clone() };
        assert!(!bent.is_intact(), "offset bit {bit}");
        let bent = Chunk { checksum: chunk.checksum ^ (1 << bit), ..chunk.clone() };
        assert!(!bent.is_intact(), "checksum bit {bit}");
    }
    for word in 0..chunk.data.len() {
        for bit in 0..64 {
            let mut words = chunk.data.to_vec();
            words[word] = f64::from_bits(words[word].to_bits() ^ (1 << bit));
            let bent = Chunk { data: words.into(), ..chunk.clone() };
            assert!(!bent.is_intact(), "payload word {word} bit {bit}");
        }
    }
}

#[test]
fn every_frame_bit_flip_is_detected() {
    let encoded = Frame::chunk(3, 7, &sample_chunk()).encode();
    for (bit, bent) in flips(&encoded) {
        assert!(Frame::decode(&bent).is_err(), "decode missed bit {bit}");
        let read = Frame::read_from(&mut std::io::Cursor::new(&bent));
        assert!(read.is_err(), "read_from missed bit {bit}");
    }
}

#[test]
fn every_checkpoint_store_bit_flip_is_detected() {
    let mut store = JobCheckpointStore::new();
    store.record(3, 16);
    store.record(7, 8);
    store.record(11, 24);
    let bytes = store.to_bytes();
    assert_eq!(JobCheckpointStore::from_bytes(&bytes), Ok(store));
    for (bit, bent) in flips(&bytes) {
        assert!(JobCheckpointStore::from_bytes(&bent).is_err(), "bit {bit}");
    }
}

#[test]
fn every_journal_bit_flip_is_an_error_or_a_torn_final_record() {
    let records: Vec<Record> = [
        Decision::Submit { job: 0 },
        Decision::Reject { job: 1, reason: "no nodes".into() },
        Decision::Admit { job: 0, grant: vec![0, 1, 2] },
        Decision::Shed { job: 2, reason: ShedReason::QueueFull },
        Decision::Grow { job: 0, nodes: vec![3] },
        Decision::Crash { job: 0, rollback_rounds: 4 },
        Decision::Restart { job: 0, rounds: 4 },
        Decision::Complete { job: 0 },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, decision)| Record { event: i as u64, at_s: i as f64 * 0.25, decision })
    .collect();
    let mut journal = Journal::new();
    for r in &records {
        journal.append(r);
    }
    let bytes = journal.bytes();
    let mut last = Journal::new();
    for r in &records[..records.len() - 1] {
        last.append(r);
    }
    let last_start = last.bytes().len();
    // The final record's length prefix and its check.
    let last_header = last_start..last_start + 8;

    for (bit, bent) in flips(bytes) {
        let byte = bit / 8;
        let decoded = Journal::decode(&bent);
        if byte < last_start || last_header.contains(&byte) {
            assert!(decoded.is_err(), "bit {bit} (byte {byte}) gave {decoded:?}");
        } else {
            // A damaged final payload or trailer is indistinguishable
            // from a torn final write and rolls back.
            let (kept, tail) = decoded.expect("final record rolls back");
            assert_eq!(tail, DecodeTail::Torn { valid_bytes: last_start }, "bit {bit}");
            assert_eq!(kept, records[..records.len() - 1], "bit {bit}");
        }
    }
}

#[test]
fn checksum_values_are_pinned() {
    // Published FNV-1a-64 test vectors.
    assert_eq!(checksum::fnv1a(b""), 0xcbf29ce484222325);
    assert_eq!(checksum::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    assert_eq!(checksum::fnv1a(b"foobar"), 0x85944171f73967e8);

    // Values each layer produced before the checksum was consolidated.
    let data = [1.5, -2.25, 0.0, f64::MIN_POSITIVE, -0.0, 1e300];
    assert_eq!(Chunk::checksum_of(4096, &data), 0xa6219144b6d96b58);
    assert_eq!(model_checksum(&data), 0xf2919d34e6fb9468);
    let two_groups = assign_roles(8, 2).expect("8 nodes in 2 groups");
    assert_eq!(topology_fingerprint(&two_groups), 0x497120057ef45ce3);
    assert_eq!(JobCheckpoint::expected_checksum(5, 40), 0x15a709f7fb26f808);
    let frame = Frame::chunk(3, 7, &Chunk::new(4096, vec![1.5, -2.25])).encode();
    let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "4d534f43020300000007000000000000000010000000000000\
         82cdb0e5b9aded9e02000000000000000000f83f00000000000002c0\
         75297d64c9c1d982"
    );
}
