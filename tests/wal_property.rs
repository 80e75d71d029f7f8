//! Property-based tests of the WAL record codec (`replication::wal`).
//!
//! The framing layer is the trust boundary between the simulator and
//! whatever bytes survive a crash, so the codec must satisfy, for
//! arbitrary records and arbitrary damage:
//!
//! 1. `encode` → `decode` round-trips every record variant exactly;
//! 2. a stream of framed records decodes cleanly back to the originals;
//! 3. truncating the stream at ANY byte offset never panics and yields
//!    exactly the records whose frames fit before the cut, with the torn
//!    tail reported at the last clean record boundary;
//! 4. flipping ANY single bit never panics and yields exactly the frames
//!    before the damaged one (CRC32 detects all single-bit errors);
//! 5. an empty stream (fresh or zero-length segment) is clean and empty.
//!
//! Records are drawn from a seed so every variant — including nested
//! session records and full checkpoint snapshots — appears in the mix.

use proptest::prelude::*;

use histmerge::core::merge::InstallPlan;
use histmerge::replication::metrics::SyncRecord;
use histmerge::replication::wal::{decode_stream, frame};
use histmerge::replication::{SessionRecord, Snapshot, Tail, WalRecord};
use histmerge::txn::{DbState, TxnId, VarId};
use histmerge::workload::cost::CostReport;

fn state(seed: u64, len: u64) -> DbState {
    (0..len)
        .map(|i| {
            (VarId::new(((seed + 3 * i) % 97) as u32), (seed as i64).wrapping_mul(31) - i as i64)
        })
        .collect()
}

fn session_record(seed: u64) -> SessionRecord {
    SessionRecord {
        plan: InstallPlan {
            forwarded: state(seed, seed % 4),
            reexecute: (0..seed % 3).map(|i| TxnId::new((seed + i) as u32)).collect(),
            saved: (0..seed % 2).map(|i| TxnId::new((seed * 7 + i) as u32)).collect(),
        },
        retro_from: seed.is_multiple_of(2).then_some((seed % 11) as usize),
        sync: SyncRecord {
            tick: seed,
            mobile: (seed % 5) as usize,
            pending: (seed % 9) as usize,
            hb_len: (seed % 13) as usize,
            saved: (seed % 3) as usize,
            backed_out: (seed % 4) as usize,
            reprocessed: (seed % 2) as usize,
            merge_failed: seed.is_multiple_of(7),
            sync_ns: seed.wrapping_mul(1_000_003),
        },
        cost: CostReport { comm: seed as f64 * 0.25, ..CostReport::default() },
        reexec_done: (seed % 3) as usize,
        completed: seed % 2 == 1,
    }
}

fn snapshot(seed: u64) -> Snapshot {
    Snapshot {
        log: (0..seed % 4).map(|i| (TxnId::new((seed + i) as u32), state(seed + i, 1))).collect(),
        master: state(seed, 3),
        epoch_start: seed % 3,
        epoch_state: state(seed / 2, 2),
        epoch: seed % 5,
        ledger: (0..seed % 2).map(|i| (i, seed % 4, session_record(seed + i))).collect(),
    }
}

/// One record per seed; `seed % 8` selects the variant so every tag in
/// the taxonomy (including nested snapshots) gets exercised.
fn record(seed: u64) -> WalRecord {
    match seed % 8 {
        0 => WalRecord::Commit { txn: TxnId::new((seed / 8) as u32), writes: state(seed, 1) },
        1 => WalRecord::WindowStart,
        2 => WalRecord::RetroPatch { from_index: seed / 8, updates: state(seed, 2) },
        3 => WalRecord::SessionInstall {
            mobile: seed % 6,
            seq: seed / 8,
            record: session_record(seed),
        },
        4 => WalRecord::ReexecAdvance { mobile: seed % 6, seq: seed / 8, done: seed % 17 },
        5 => WalRecord::SessionComplete { mobile: seed % 6, seq: seed / 8 },
        6 => WalRecord::SessionPrune { mobile: seed % 6, upto_seq: seed / 8 },
        _ => WalRecord::Checkpoint(Box::new(snapshot(seed))),
    }
}

/// A stream of `n` framed records plus the byte offset where each frame
/// ends (for computing the expected clean prefix after damage).
fn stream(seed: u64, n: usize) -> (Vec<WalRecord>, Vec<u8>, Vec<usize>) {
    let records: Vec<WalRecord> =
        (0..n as u64).map(|i| record(seed.wrapping_mul(131).wrapping_add(i))).collect();
    let mut buf = Vec::new();
    let mut ends = Vec::new();
    for r in &records {
        buf.extend_from_slice(&frame(&r.encode()));
        ends.push(buf.len());
    }
    (records, buf, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every variant survives `encode` -> `decode` unchanged.
    #[test]
    fn encode_decode_round_trips(seed in 0u64..1_000_000) {
        let original = record(seed);
        let payload = original.encode();
        prop_assert_eq!(WalRecord::decode(&payload), Some(original));
    }

    /// An undamaged stream of frames decodes cleanly to the originals.
    #[test]
    fn framed_streams_decode_cleanly(seed in 0u64..1_000_000, n in 1usize..8) {
        let (records, buf, _) = stream(seed, n);
        let (decoded, tail) = decode_stream(&buf);
        prop_assert_eq!(tail, Tail::Clean);
        prop_assert_eq!(decoded, records);
    }

    /// Cutting the stream at ANY byte offset never panics: exactly the
    /// frames that fit before the cut decode, and anything else is
    /// reported as a torn tail starting at the last clean boundary.
    #[test]
    fn truncation_yields_the_clean_prefix(
        seed in 0u64..1_000_000,
        n in 1usize..6,
        cut_frac in 0.0f64..1.0,
    ) {
        let (records, buf, ends) = stream(seed, n);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let complete = ends.iter().filter(|&&e| e <= cut).count();

        let (decoded, tail) = decode_stream(&buf[..cut]);
        prop_assert_eq!(decoded.len(), complete);
        prop_assert_eq!(&decoded[..], &records[..complete]);
        let boundary = if complete == 0 { 0 } else { ends[complete - 1] };
        if cut == boundary {
            prop_assert_eq!(tail, Tail::Clean);
        } else {
            prop_assert_eq!(tail, Tail::Torn { offset: boundary });
        }
    }

    /// Flipping ANY single bit never panics and the CRC catches it:
    /// exactly the frames before the damaged one survive.
    #[test]
    fn bit_flips_are_caught_and_the_prefix_survives(
        seed in 0u64..1_000_000,
        n in 1usize..6,
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let (records, mut buf, ends) = stream(seed, n);
        let idx = (((buf.len() - 1) as f64) * byte_frac) as usize;
        buf[idx] ^= 1 << bit;
        // The flipped byte lives in the first frame whose end is past it.
        let damaged = ends.iter().filter(|&&e| e <= idx).count();
        let boundary = if damaged == 0 { 0 } else { ends[damaged - 1] };

        let (decoded, tail) = decode_stream(&buf);
        prop_assert_eq!(decoded.len(), damaged);
        prop_assert_eq!(&decoded[..], &records[..damaged]);
        prop_assert_eq!(tail, Tail::Torn { offset: boundary });
    }
}

/// A fresh (or compacted-away) segment: no bytes, no records, no tear.
#[test]
fn empty_stream_is_clean_and_empty() {
    let (decoded, tail) = decode_stream(&[]);
    assert!(decoded.is_empty());
    assert_eq!(tail, Tail::Clean);
}

/// A deliberately corrupted CRC field is indistinguishable from a torn
/// frame: nothing decodes, nothing panics.
#[test]
fn corrupt_crc_is_a_torn_tail_at_offset_zero() {
    let mut buf = frame(&record(0).encode());
    buf[4] ^= 0xFF;
    let (decoded, tail) = decode_stream(&buf);
    assert!(decoded.is_empty());
    assert_eq!(tail, Tail::Torn { offset: 0 });
}
