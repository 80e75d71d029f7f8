//! A durable, segmented, CRC32-framed write-ahead log for the base tier.
//!
//! PR 2's session ledger only *modeled* durability: a plain in-memory map
//! that the simulated crashes politely spared. This module makes the base
//! tier's durable transitions real bytes: every transition is encoded as a
//! typed [`WalRecord`], framed as `[len | crc32 | payload]`, and appended
//! to the active segment of a [`Storage`] backend. Recovery
//! ([`crate::recovery`]) replays the latest checkpoint plus the WAL tail
//! and discards any torn or corrupt suffix at a clean record boundary.
//!
//! The moving parts:
//!
//! * [`Storage`] — the segment backend. [`VecStorage`] is the in-memory
//!   default; it journals every mutation so a crash-point harness can
//!   reconstruct the exact bytes that were durable at *any* moment of a
//!   run. [`TornStorage`] replays a journal prefix and optionally tears
//!   the next write mid-record or flips a bit — the two ways real disks
//!   betray an fsync-less append.
//! * [`WalRecord`] — the record taxonomy: committed-history appends,
//!   window rollovers, retroactive patches, session installs, re-execution
//!   cursor advances, session completions, ledger prunes, and checkpoints.
//! * [`Wal`] — the writer: appends framed records to the active segment
//!   and, at a checkpoint, opens a fresh segment with a full [`Snapshot`]
//!   and retires every older segment (log compaction). A crash during the
//!   checkpoint itself is safe: old segments are deleted only after the
//!   snapshot record is fully appended, so recovery falls back to the
//!   previous checkpoint.
//!
//! Encoding is little-endian and hand-rolled; decoding NEVER panics — any
//! malformed input is reported as a torn tail ([`Tail::Torn`]) at the last
//! clean record boundary.

use std::collections::BTreeMap;

use histmerge_core::merge::InstallPlan;
use histmerge_txn::{DbState, TxnId, VarId};
use histmerge_workload::cost::CostReport;

use crate::metrics::SyncRecord;
use crate::session::{SessionLedger, SessionRecord};

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

/// Durability knobs for the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When `true`, the base tier write-ahead-logs every durable
    /// transition and the report carries a [`DurableReport`].
    ///
    /// [`DurableReport`]: crate::sim::DurableReport
    pub enabled: bool,
    /// Checkpoint (snapshot + segment compaction) once at least this many
    /// records accumulated since the last checkpoint, evaluated at tick
    /// boundaries. `0` disables periodic checkpoints — only the genesis
    /// snapshot is ever written.
    pub checkpoint_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { enabled: false, checkpoint_every: 256 }
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE), slicing-by-8 — table-driven and dependency-free.
// ---------------------------------------------------------------------

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC register after
/// byte `b`, and `CRC_TABLES[k][b]` that register advanced through `k`
/// further zero bytes, so eight table lookups consume eight input bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Binary encoding helpers. Writers are infallible; readers return
// `Option` and never panic on truncated or corrupt input.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_state(out: &mut Vec<u8>, state: &DbState) {
    put_u32(out, state.len() as u32);
    for (var, value) in state.iter() {
        put_u32(out, var.index());
        put_i64(out, value);
    }
}

fn put_txns(out: &mut Vec<u8>, txns: &[TxnId]) {
    put_u32(out, txns.len() as u32);
    for id in txns {
        put_u32(out, id.index());
    }
}

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|b| i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn state(&mut self) -> Option<DbState> {
        let n = self.u32()? as usize;
        // Each entry is 12 bytes; a count the buffer cannot possibly hold
        // is corruption, rejected before any allocation happens.
        if n > self.buf.len().saturating_sub(self.pos) / 12 {
            return None;
        }
        let mut state = DbState::new();
        for _ in 0..n {
            let var = VarId::new(self.u32()?);
            let value = self.i64()?;
            state.set(var, value);
        }
        Some(state)
    }

    fn txns(&mut self) -> Option<Vec<TxnId>> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(TxnId::new(self.u32()?));
        }
        Some(out)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_sync_record(out: &mut Vec<u8>, sync: &SyncRecord) {
    put_u64(out, sync.tick);
    put_u64(out, sync.mobile as u64);
    put_u64(out, sync.pending as u64);
    put_u64(out, sync.hb_len as u64);
    put_u64(out, sync.saved as u64);
    put_u64(out, sync.backed_out as u64);
    put_u64(out, sync.reprocessed as u64);
    put_bool(out, sync.merge_failed);
    put_u64(out, sync.sync_ns);
}

fn read_sync_record(r: &mut Reader<'_>) -> Option<SyncRecord> {
    Some(SyncRecord {
        tick: r.u64()?,
        mobile: r.u64()? as usize,
        pending: r.u64()? as usize,
        hb_len: r.u64()? as usize,
        saved: r.u64()? as usize,
        backed_out: r.u64()? as usize,
        reprocessed: r.u64()? as usize,
        merge_failed: r.bool()?,
        sync_ns: r.u64()?,
    })
}

fn put_session_record(out: &mut Vec<u8>, record: &SessionRecord) {
    put_state(out, &record.plan.forwarded);
    put_txns(out, &record.plan.reexecute);
    put_txns(out, &record.plan.saved);
    match record.retro_from {
        Some(from) => {
            put_bool(out, true);
            put_u64(out, from as u64);
        }
        None => put_bool(out, false),
    }
    put_sync_record(out, &record.sync);
    put_f64(out, record.cost.comm);
    put_f64(out, record.cost.base_cpu);
    put_f64(out, record.cost.base_io);
    put_f64(out, record.cost.mobile_cpu);
    put_u64(out, record.reexec_done as u64);
    put_bool(out, record.completed);
}

fn read_session_record(r: &mut Reader<'_>) -> Option<SessionRecord> {
    let forwarded = r.state()?;
    let reexecute = r.txns()?;
    let saved = r.txns()?;
    let retro_from = if r.bool()? { Some(r.u64()? as usize) } else { None };
    let sync = read_sync_record(r)?;
    let cost =
        CostReport { comm: r.f64()?, base_cpu: r.f64()?, base_io: r.f64()?, mobile_cpu: r.f64()? };
    let reexec_done = r.u64()? as usize;
    let completed = r.bool()?;
    Some(SessionRecord {
        plan: InstallPlan { forwarded, reexecute, saved },
        retro_from,
        sync,
        cost,
        reexec_done,
        completed,
    })
}

// ---------------------------------------------------------------------
// The record taxonomy.
// ---------------------------------------------------------------------

/// A full snapshot of the base tier's durable state — the payload of a
/// checkpoint record, sufficient to recover without any earlier segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The committed base log since simulation start: `(txn, writes)` per
    /// commit, each entry the values the commit wrote.
    pub log: Vec<(TxnId, DbState)>,
    /// The master state (the initial state with every logged write delta
    /// applied in order, plus any retroactive patches).
    pub master: DbState,
    /// Index into `log` where the current window began.
    pub epoch_start: u64,
    /// The master state at the window start.
    pub epoch_state: DbState,
    /// The window (epoch) counter.
    pub epoch: u64,
    /// The session ledger: `(mobile, seq, record)` per installed session.
    pub ledger: Vec<(u64, u64, SessionRecord)>,
}

impl Snapshot {
    /// The genesis snapshot: an empty log over `initial`, before any
    /// transition. Written as the first record of segment 0.
    pub fn genesis(initial: DbState) -> Snapshot {
        Snapshot {
            log: Vec::new(),
            master: initial.clone(),
            epoch_start: 0,
            epoch_state: initial,
            epoch: 0,
            ledger: Vec::new(),
        }
    }
}

/// One durable transition of the base tier, in WAL order.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A base transaction committed (own load, an install transaction, or
    /// a re-execution), appending `(txn, writes)` to the base log.
    Commit {
        /// The committed transaction.
        txn: TxnId,
        /// The committed values of the transaction's write set; replay
        /// applies them to the master.
        writes: DbState,
    },
    /// A window rollover: the epoch counter advanced and the current
    /// master became the shared window-start state.
    WindowStart,
    /// A Strategy-1 retroactive install patched the master with updates
    /// serialized at `from_index`, masking items that commits from that
    /// index onward wrote.
    RetroPatch {
        /// The base-log index the patch applied from.
        from_index: u64,
        /// The forwarded updates that were patched in.
        updates: DbState,
    },
    /// A session reached its install step: forwarded values committed (as
    /// a preceding [`WalRecord::Commit`]) together with this durable
    /// ledger entry.
    SessionInstall {
        /// The reconnecting mobile.
        mobile: u64,
        /// The session's sequence number at that mobile.
        seq: u64,
        /// The durable session record (install plan, completion report,
        /// re-execution cursor).
        record: SessionRecord,
    },
    /// A session's re-execution cursor advanced to `done` (the matching
    /// base commit precedes this record).
    ReexecAdvance {
        /// The session's mobile.
        mobile: u64,
        /// The session's sequence number.
        seq: u64,
        /// Plan entries re-executed so far.
        done: u64,
    },
    /// A session finished re-execution and emitted its completion report.
    SessionComplete {
        /// The session's mobile.
        mobile: u64,
        /// The session's sequence number.
        seq: u64,
    },
    /// The mobile acknowledged through `upto_seq`; its ledger records up
    /// to and including that sequence number were pruned.
    SessionPrune {
        /// The acknowledging mobile.
        mobile: u64,
        /// Records with `seq <= upto_seq` were dropped.
        upto_seq: u64,
    },
    /// A full snapshot of the durable state; every segment starts with
    /// one, and recovery replays only from the latest.
    Checkpoint(Box<Snapshot>),
}

impl WalRecord {
    /// Stable snake-case name of the record kind, for trace events.
    pub fn kind_name(&self) -> &'static str {
        WalRecordRef::from(self).kind_name()
    }
}

/// A borrowed [`WalRecord`]: what [`Wal::append`] encodes. The simulator
/// logs its live state through it without copying a payload, and an
/// owned record converts to it, so one encoder defines the byte layout.
#[derive(Debug, Clone, Copy)]
pub enum WalRecordRef<'a> {
    /// See [`WalRecord::Commit`].
    Commit {
        /// The committed transaction.
        txn: TxnId,
        /// The committed values of the transaction's write set.
        writes: &'a DbState,
    },
    /// See [`WalRecord::WindowStart`].
    WindowStart,
    /// See [`WalRecord::RetroPatch`].
    RetroPatch {
        /// The base-log index the patch applied from.
        from_index: u64,
        /// The forwarded updates that were patched in.
        updates: &'a DbState,
    },
    /// See [`WalRecord::SessionInstall`].
    SessionInstall {
        /// The reconnecting mobile.
        mobile: u64,
        /// The session's sequence number at that mobile.
        seq: u64,
        /// The durable session record.
        record: &'a SessionRecord,
    },
    /// See [`WalRecord::ReexecAdvance`].
    ReexecAdvance {
        /// The session's mobile.
        mobile: u64,
        /// The session's sequence number.
        seq: u64,
        /// Plan entries re-executed so far.
        done: u64,
    },
    /// See [`WalRecord::SessionComplete`].
    SessionComplete {
        /// The session's mobile.
        mobile: u64,
        /// The session's sequence number.
        seq: u64,
    },
    /// See [`WalRecord::SessionPrune`].
    SessionPrune {
        /// The acknowledging mobile.
        mobile: u64,
        /// Records with `seq <= upto_seq` were dropped.
        upto_seq: u64,
    },
    /// See [`WalRecord::Checkpoint`].
    Checkpoint(SnapshotRef<'a>),
}

/// A borrowed [`Snapshot`], encoded exactly as the owned one.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRef<'a> {
    /// The committed base log since simulation start.
    pub log: &'a [(TxnId, DbState)],
    /// The master state.
    pub master: &'a DbState,
    /// Index into `log` where the current window began.
    pub epoch_start: u64,
    /// The master state at the window start.
    pub epoch_state: &'a DbState,
    /// The window (epoch) counter.
    pub epoch: u64,
    /// The session ledger.
    pub ledger: LedgerRef<'a>,
}

/// The session ledger a [`SnapshotRef`] encodes: a snapshot's own rows,
/// or the live ledger itself.
#[derive(Debug, Clone, Copy)]
pub enum LedgerRef<'a> {
    /// `(mobile, seq, record)` rows, as [`Snapshot::ledger`] holds them.
    Rows(&'a [(u64, u64, SessionRecord)]),
    /// A live ledger, in its `(mobile, seq)` order.
    Live(&'a SessionLedger),
}

impl<'a> From<&'a Snapshot> for SnapshotRef<'a> {
    fn from(snapshot: &'a Snapshot) -> SnapshotRef<'a> {
        SnapshotRef {
            log: &snapshot.log,
            master: &snapshot.master,
            epoch_start: snapshot.epoch_start,
            epoch_state: &snapshot.epoch_state,
            epoch: snapshot.epoch,
            ledger: LedgerRef::Rows(&snapshot.ledger),
        }
    }
}

impl<'a> From<&'a WalRecord> for WalRecordRef<'a> {
    fn from(record: &'a WalRecord) -> WalRecordRef<'a> {
        match record {
            WalRecord::Commit { txn, writes } => WalRecordRef::Commit { txn: *txn, writes },
            WalRecord::WindowStart => WalRecordRef::WindowStart,
            WalRecord::RetroPatch { from_index, updates } => {
                WalRecordRef::RetroPatch { from_index: *from_index, updates }
            }
            WalRecord::SessionInstall { mobile, seq, record } => {
                WalRecordRef::SessionInstall { mobile: *mobile, seq: *seq, record }
            }
            &WalRecord::ReexecAdvance { mobile, seq, done } => {
                WalRecordRef::ReexecAdvance { mobile, seq, done }
            }
            &WalRecord::SessionComplete { mobile, seq } => {
                WalRecordRef::SessionComplete { mobile, seq }
            }
            &WalRecord::SessionPrune { mobile, upto_seq } => {
                WalRecordRef::SessionPrune { mobile, upto_seq }
            }
            WalRecord::Checkpoint(snapshot) => WalRecordRef::Checkpoint((&**snapshot).into()),
        }
    }
}

const TAG_COMMIT: u8 = 1;
const TAG_WINDOW_START: u8 = 2;
const TAG_RETRO_PATCH: u8 = 3;
const TAG_SESSION_INSTALL: u8 = 4;
const TAG_REEXEC_ADVANCE: u8 = 5;
const TAG_SESSION_COMPLETE: u8 = 6;
const TAG_SESSION_PRUNE: u8 = 7;
const TAG_CHECKPOINT: u8 = 8;

impl WalRecordRef<'_> {
    /// Stable snake-case name of the record kind, for trace events.
    pub fn kind_name(&self) -> &'static str {
        match self {
            WalRecordRef::Commit { .. } => "commit",
            WalRecordRef::WindowStart => "window_start",
            WalRecordRef::RetroPatch { .. } => "retro_patch",
            WalRecordRef::SessionInstall { .. } => "session_install",
            WalRecordRef::ReexecAdvance { .. } => "reexec_advance",
            WalRecordRef::SessionComplete { .. } => "session_complete",
            WalRecordRef::SessionPrune { .. } => "session_prune",
            WalRecordRef::Checkpoint(_) => "checkpoint",
        }
    }

    /// Appends the record payload (unframed) to `out` — the one encoder
    /// behind both [`WalRecord::encode`] and [`Wal::append`].
    fn encode_into(self, out: &mut Vec<u8>) {
        match self {
            WalRecordRef::Commit { txn, writes } => {
                out.push(TAG_COMMIT);
                put_u32(out, txn.index());
                put_state(out, writes);
            }
            WalRecordRef::WindowStart => out.push(TAG_WINDOW_START),
            WalRecordRef::RetroPatch { from_index, updates } => {
                out.push(TAG_RETRO_PATCH);
                put_u64(out, from_index);
                put_state(out, updates);
            }
            WalRecordRef::SessionInstall { mobile, seq, record } => {
                out.push(TAG_SESSION_INSTALL);
                put_u64(out, mobile);
                put_u64(out, seq);
                put_session_record(out, record);
            }
            WalRecordRef::ReexecAdvance { mobile, seq, done } => {
                out.push(TAG_REEXEC_ADVANCE);
                put_u64(out, mobile);
                put_u64(out, seq);
                put_u64(out, done);
            }
            WalRecordRef::SessionComplete { mobile, seq } => {
                out.push(TAG_SESSION_COMPLETE);
                put_u64(out, mobile);
                put_u64(out, seq);
            }
            WalRecordRef::SessionPrune { mobile, upto_seq } => {
                out.push(TAG_SESSION_PRUNE);
                put_u64(out, mobile);
                put_u64(out, upto_seq);
            }
            WalRecordRef::Checkpoint(snapshot) => {
                out.push(TAG_CHECKPOINT);
                put_u32(out, snapshot.log.len() as u32);
                for (txn, state) in snapshot.log {
                    put_u32(out, txn.index());
                    put_state(out, state);
                }
                put_state(out, snapshot.master);
                put_u64(out, snapshot.epoch_start);
                put_state(out, snapshot.epoch_state);
                put_u64(out, snapshot.epoch);
                match snapshot.ledger {
                    LedgerRef::Rows(rows) => {
                        put_u32(out, rows.len() as u32);
                        for (mobile, seq, record) in rows {
                            put_ledger_row(out, *mobile, *seq, record);
                        }
                    }
                    LedgerRef::Live(ledger) => {
                        put_u32(out, ledger.len() as u32);
                        for (mobile, seq, record) in ledger.iter() {
                            put_ledger_row(out, mobile as u64, seq, record);
                        }
                    }
                }
            }
        }
    }
}

fn put_ledger_row(out: &mut Vec<u8>, mobile: u64, seq: u64, record: &SessionRecord) {
    put_u64(out, mobile);
    put_u64(out, seq);
    put_session_record(out, record);
}

impl WalRecord {
    /// Encodes the record payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        WalRecordRef::from(self).encode_into(&mut out);
        out
    }

    /// Decodes one record payload. Returns `None` — never panics — on any
    /// malformed input: unknown tag, truncated fields, impossible counts,
    /// or trailing garbage.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_COMMIT => WalRecord::Commit { txn: TxnId::new(r.u32()?), writes: r.state()? },
            TAG_WINDOW_START => WalRecord::WindowStart,
            TAG_RETRO_PATCH => WalRecord::RetroPatch { from_index: r.u64()?, updates: r.state()? },
            TAG_SESSION_INSTALL => WalRecord::SessionInstall {
                mobile: r.u64()?,
                seq: r.u64()?,
                record: read_session_record(&mut r)?,
            },
            TAG_REEXEC_ADVANCE => {
                WalRecord::ReexecAdvance { mobile: r.u64()?, seq: r.u64()?, done: r.u64()? }
            }
            TAG_SESSION_COMPLETE => WalRecord::SessionComplete { mobile: r.u64()?, seq: r.u64()? },
            TAG_SESSION_PRUNE => WalRecord::SessionPrune { mobile: r.u64()?, upto_seq: r.u64()? },
            TAG_CHECKPOINT => {
                let n = r.u32()? as usize;
                // Each log entry is at least 8 bytes: a transaction id and
                // an item count (a read-only commit writes nothing).
                if n > payload.len() / 8 {
                    return None;
                }
                let mut log = Vec::with_capacity(n);
                for _ in 0..n {
                    let txn = TxnId::new(r.u32()?);
                    log.push((txn, r.state()?));
                }
                let master = r.state()?;
                let epoch_start = r.u64()?;
                let epoch_state = r.state()?;
                let epoch = r.u64()?;
                let m = r.u32()? as usize;
                if m > payload.len() / 16 {
                    return None;
                }
                let mut ledger = Vec::with_capacity(m);
                for _ in 0..m {
                    let mobile = r.u64()?;
                    let seq = r.u64()?;
                    ledger.push((mobile, seq, read_session_record(&mut r)?));
                }
                WalRecord::Checkpoint(Box::new(Snapshot {
                    log,
                    master,
                    epoch_start,
                    epoch_state,
                    epoch,
                    ledger,
                }))
            }
            _ => return None,
        };
        r.done().then_some(record)
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Bytes of a frame header: the payload length and its CRC32.
const HEADER: usize = 8;

/// Frames a record payload as `[len: u32][crc32: u32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&[0; HEADER]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Fills in the header reserved at the front of `framed` for the payload
/// that follows it.
fn seal_frame(framed: &mut [u8]) {
    let (header, payload) = framed.split_at_mut(HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// The payload of the frame at the front of `buf`, when the whole frame
/// is present and its CRC matches.
fn read_frame(buf: &[u8]) -> Option<&[u8]> {
    let header = buf.get(..HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let payload = buf[HEADER..].get(..len)?;
    (crc32(payload) == crc).then_some(payload)
}

/// How a segment's byte stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Every frame decoded; the stream ends exactly at a record boundary.
    Clean,
    /// A torn or corrupt suffix begins at `offset`; everything before it
    /// decoded cleanly and the suffix is discarded.
    Torn {
        /// Byte offset of the first unreadable frame.
        offset: usize,
    },
}

/// Decodes a segment's byte stream into records, stopping at the first
/// frame that is truncated, fails its CRC, or carries an undecodable
/// payload. Never panics; the invalid suffix is reported via [`Tail`].
pub fn decode_stream(buf: &[u8]) -> (Vec<WalRecord>, Tail) {
    let mut out = Vec::new();
    let tail = visit_stream(buf, |record| out.push(record));
    (out, tail)
}

/// The streaming form of [`decode_stream`]: hands each decoded record to
/// `visit` as soon as its frame checks out, and stops at the same frame.
pub(crate) fn visit_stream(buf: &[u8], mut visit: impl FnMut(WalRecord)) -> Tail {
    let mut pos = 0usize;
    while pos < buf.len() {
        let Some(payload) = read_frame(&buf[pos..]) else {
            return Tail::Torn { offset: pos };
        };
        let Some(record) = WalRecord::decode(payload) else {
            return Tail::Torn { offset: pos };
        };
        visit(record);
        pos += HEADER + payload.len();
    }
    Tail::Clean
}

// ---------------------------------------------------------------------
// Storage backends.
// ---------------------------------------------------------------------

/// A segment backend: an ordered set of append-only byte segments.
pub trait Storage {
    /// Creates an empty segment with the given id.
    fn create_segment(&mut self, id: u64);
    /// Appends bytes to segment `id` (which must exist).
    fn append(&mut self, id: u64, bytes: &[u8]);
    /// Deletes segment `id` (checkpoint compaction).
    fn delete_segment(&mut self, id: u64);
    /// The bytes of segment `id`, if it exists.
    fn segment(&self, id: u64) -> Option<&[u8]>;
    /// Every live segment id, ascending.
    fn segment_ids(&self) -> Vec<u64>;
}

/// One mutation of a [`VecStorage`] — the journal entry the crash-point
/// harness replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageOp {
    /// A segment was created.
    Create(u64),
    /// Bytes were appended to a segment.
    Append(u64, Vec<u8>),
    /// A segment was deleted.
    Delete(u64),
}

/// The default in-memory segment store. Every mutation is journaled, so
/// [`TornStorage::at_crash_point`] can rebuild the exact durable bytes at
/// any moment of a run — including half-applied appends.
#[derive(Debug, Clone, Default)]
pub struct VecStorage {
    segments: BTreeMap<u64, Vec<u8>>,
    journal: Vec<StorageOp>,
}

impl VecStorage {
    /// An empty store.
    pub fn new() -> VecStorage {
        VecStorage::default()
    }

    /// The mutation journal since creation, in order.
    pub fn ops(&self) -> &[StorageOp] {
        &self.journal
    }

    /// Number of journaled mutations — the crash-point count.
    pub fn op_count(&self) -> usize {
        self.journal.len()
    }

    /// Total bytes currently held across live segments.
    pub fn live_bytes(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    fn mutate(&mut self, op: StorageOp) {
        match &op {
            StorageOp::Create(id) => {
                self.segments.insert(*id, Vec::new());
            }
            StorageOp::Append(id, bytes) => {
                self.segments.entry(*id).or_default().extend_from_slice(bytes);
            }
            StorageOp::Delete(id) => {
                self.segments.remove(id);
            }
        }
        self.journal.push(op);
    }
}

impl Storage for VecStorage {
    fn create_segment(&mut self, id: u64) {
        self.mutate(StorageOp::Create(id));
    }

    fn append(&mut self, id: u64, bytes: &[u8]) {
        self.mutate(StorageOp::Append(id, bytes.to_vec()));
    }

    fn delete_segment(&mut self, id: u64) {
        self.mutate(StorageOp::Delete(id));
    }

    fn segment(&self, id: u64) -> Option<&[u8]> {
        self.segments.get(&id).map(Vec::as_slice)
    }

    fn segment_ids(&self) -> Vec<u64> {
        self.segments.keys().copied().collect()
    }
}

/// How [`TornStorage`] damages the first unreplayed write at the
/// simulated crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tear {
    /// The write never reached the storage at all (a clean boundary).
    Clean,
    /// Only the first `keep` bytes of the write landed — a torn
    /// mid-record append.
    Truncate {
        /// Bytes of the in-flight write that survived.
        keep: usize,
    },
    /// The whole write landed but one bit flipped in flight.
    FlipBit {
        /// Byte offset within the write (taken modulo its length).
        byte: usize,
        /// Bit index 0..8 within that byte.
        bit: u8,
    },
}

/// A fault-injected view of a [`VecStorage`] journal: the storage exactly
/// as it was after the first `ops` mutations, with the next write
/// optionally torn mid-record or bit-flipped — the crash-point matrix's
/// unit of damage.
#[derive(Debug, Clone)]
pub struct TornStorage {
    inner: VecStorage,
}

impl TornStorage {
    /// Replays the first `ops` journal entries of `full`, then applies
    /// `tear` to the next entry (when one exists and is an append; tears
    /// on create/delete degrade to [`Tear::Clean`]).
    pub fn at_crash_point(full: &VecStorage, ops: usize, tear: Tear) -> TornStorage {
        let mut inner = VecStorage::new();
        let journal = full.ops();
        let ops = ops.min(journal.len());
        for op in &journal[..ops] {
            inner.mutate(op.clone());
        }
        if let Some(StorageOp::Append(id, bytes)) = journal.get(ops) {
            match tear {
                Tear::Clean => {}
                Tear::Truncate { keep } => {
                    let keep = keep.min(bytes.len());
                    if keep > 0 {
                        inner.mutate(StorageOp::Append(*id, bytes[..keep].to_vec()));
                    }
                }
                Tear::FlipBit { byte, bit } => {
                    let mut damaged = bytes.clone();
                    if !damaged.is_empty() {
                        let at = byte % damaged.len();
                        damaged[at] ^= 1 << (bit % 8);
                    }
                    inner.mutate(StorageOp::Append(*id, damaged));
                }
            }
        }
        TornStorage { inner }
    }

    /// The replayed (and possibly damaged) storage.
    pub fn storage(&self) -> &VecStorage {
        &self.inner
    }
}

impl Storage for TornStorage {
    fn create_segment(&mut self, id: u64) {
        self.inner.create_segment(id);
    }

    fn append(&mut self, id: u64, bytes: &[u8]) {
        self.inner.append(id, bytes);
    }

    fn delete_segment(&mut self, id: u64) {
        self.inner.delete_segment(id);
    }

    fn segment(&self, id: u64) -> Option<&[u8]> {
        self.inner.segment(id)
    }

    fn segment_ids(&self) -> Vec<u64> {
        self.inner.segment_ids()
    }
}

// ---------------------------------------------------------------------
// The writer.
// ---------------------------------------------------------------------

/// The write-ahead log writer: frames records onto the active segment and
/// compacts at checkpoints.
#[derive(Debug, Clone)]
pub struct Wal<S: Storage = VecStorage> {
    storage: S,
    active: u64,
    records: u64,
    bytes: u64,
    since_checkpoint: u64,
    checkpoints: u64,
    segments_retired: u64,
    tracer: histmerge_obs::TracerHandle,
    /// The frame being appended, reused across appends so the record is
    /// encoded straight into it.
    frame: Vec<u8>,
}

impl<S: Storage> Wal<S> {
    /// Opens a fresh log on `storage`: creates segment 0 and writes the
    /// genesis checkpoint as its first record.
    pub fn new(mut storage: S, genesis: &Snapshot) -> Wal<S> {
        storage.create_segment(0);
        let mut wal = Wal {
            storage,
            active: 0,
            records: 0,
            bytes: 0,
            since_checkpoint: 0,
            checkpoints: 0,
            segments_retired: 0,
            tracer: histmerge_obs::TracerHandle::noop(),
            frame: Vec::new(),
        };
        wal.append(WalRecordRef::Checkpoint(genesis.into()));
        wal.since_checkpoint = 0;
        wal
    }

    /// Attaches a tracer; subsequent appends and checkpoints emit
    /// [`histmerge_obs::TraceEvent`]s and wall-clock spans. The genesis
    /// checkpoint written by [`Wal::new`] precedes this call and is not
    /// traced — matching [`WalStats`] which also excludes genesis from
    /// `checkpoints`.
    ///
    /// [`WalStats`]: crate::metrics::WalStats
    pub fn with_tracer(mut self, tracer: histmerge_obs::TracerHandle) -> Wal<S> {
        self.tracer = tracer;
        self
    }

    /// Appends one framed record to the active segment: reserves the
    /// header, encodes the payload behind it and seals the header with
    /// the payload's length and CRC.
    pub fn append<'r>(&mut self, record: impl Into<WalRecordRef<'r>>) {
        use histmerge_obs::{Phase, TraceEvent};
        let record = record.into();
        let span = self.tracer.span_start();
        self.frame.clear();
        self.frame.extend_from_slice(&[0; HEADER]);
        record.encode_into(&mut self.frame);
        seal_frame(&mut self.frame);
        let bytes = self.frame.len();
        self.bytes += bytes as u64;
        self.storage.append(self.active, &self.frame);
        self.records += 1;
        self.since_checkpoint += 1;
        self.tracer.span_end(Phase::WalAppend, span);
        self.tracer.emit(|| TraceEvent::WalAppend { kind: record.kind_name(), bytes });
    }

    /// Writes `snapshot` as the first record of a fresh segment, then
    /// retires every older segment. The deletion happens strictly after
    /// the snapshot append, so a crash anywhere inside this method leaves
    /// a recoverable log (the previous checkpoint still exists until the
    /// new one is fully durable).
    pub fn checkpoint<'s>(&mut self, snapshot: impl Into<SnapshotRef<'s>>) {
        use histmerge_obs::{Phase, TraceEvent};
        let span = self.tracer.span_start();
        let sealed = self.since_checkpoint;
        let old = self.storage.segment_ids();
        self.active += 1;
        self.storage.create_segment(self.active);
        self.append(WalRecordRef::Checkpoint(snapshot.into()));
        let mut retired = 0u64;
        for id in old {
            self.storage.delete_segment(id);
            self.segments_retired += 1;
            retired += 1;
        }
        self.checkpoints += 1;
        self.since_checkpoint = 0;
        self.tracer.span_end(Phase::Checkpoint, span);
        self.tracer.emit(|| TraceEvent::WalCheckpoint { records: sealed });
        self.tracer.emit(|| TraceEvent::WalCompaction { retired });
    }

    /// Records appended since the last checkpoint (the compaction
    /// trigger).
    pub fn since_checkpoint(&self) -> u64 {
        self.since_checkpoint
    }

    /// Total records appended, checkpoints included.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total framed bytes written (retired segments included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Checkpoints performed after genesis.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Segments retired by checkpoint compaction.
    pub fn segments_retired(&self) -> u64 {
        self.segments_retired
    }

    /// The backing storage.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Consumes the writer, returning its storage.
    pub fn into_storage(self) -> S {
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(pairs: &[(u32, i64)]) -> DbState {
        pairs.iter().map(|&(v, x)| (VarId::new(v), x)).collect()
    }

    fn sample_session_record() -> SessionRecord {
        SessionRecord {
            plan: InstallPlan {
                forwarded: state(&[(0, 7), (3, -2)]),
                reexecute: vec![TxnId::new(4), TxnId::new(9)],
                saved: vec![TxnId::new(1)],
            },
            retro_from: Some(11),
            sync: SyncRecord {
                tick: 42,
                mobile: 2,
                pending: 3,
                hb_len: 5,
                saved: 1,
                backed_out: 2,
                reprocessed: 0,
                merge_failed: false,
                sync_ns: 987_654,
            },
            cost: CostReport { comm: 1.5, base_cpu: 2.25, base_io: 0.5, mobile_cpu: 0.125 },
            reexec_done: 1,
            completed: false,
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Commit { txn: TxnId::new(3), writes: state(&[(1, -9)]) },
            WalRecord::WindowStart,
            WalRecord::RetroPatch { from_index: 2, updates: state(&[(5, 100)]) },
            WalRecord::SessionInstall { mobile: 1, seq: 4, record: sample_session_record() },
            WalRecord::ReexecAdvance { mobile: 1, seq: 4, done: 2 },
            WalRecord::SessionComplete { mobile: 1, seq: 4 },
            WalRecord::SessionPrune { mobile: 1, upto_seq: 4 },
            WalRecord::Checkpoint(Box::new(Snapshot {
                log: vec![(TxnId::new(0), state(&[(0, 1)])), (TxnId::new(2), state(&[(0, 2)]))],
                master: state(&[(0, 2)]),
                epoch_start: 1,
                epoch_state: state(&[(0, 1)]),
                epoch: 3,
                ledger: vec![(0, 7, sample_session_record())],
            })),
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-serial CRC32 the table kernel must reproduce: one
    /// shift/xor round per input bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        // A seeded xorshift buffer; every length at every start offset
        // walks each alignment through the 8-byte body and the tail.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let buf: Vec<u8> = (0..8 + 256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "offset {start}, length {len}");
            }
        }
    }

    #[test]
    fn every_record_round_trips() {
        for record in sample_records() {
            let encoded = record.encode();
            let decoded = WalRecord::decode(&encoded).expect("decodes");
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn checkpoint_of_read_only_commits_round_trips() {
        // A read-only commit logs an empty write delta: 8 bytes per log
        // entry, the smallest the checkpoint decoder must accept.
        let snap = Snapshot {
            log: (0..64).map(|i| (TxnId::new(i), DbState::new())).collect(),
            ..Snapshot::genesis(DbState::new())
        };
        let record = WalRecord::Checkpoint(Box::new(snap));
        assert_eq!(WalRecord::decode(&record.encode()), Some(record));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[99]), None, "unknown tag");
        for record in sample_records() {
            let encoded = record.encode();
            // Any strict prefix must be rejected, never panic.
            for cut in 0..encoded.len() {
                assert_eq!(WalRecord::decode(&encoded[..cut]), None, "prefix {cut}");
            }
            // Trailing garbage is rejected too.
            let mut padded = encoded.clone();
            padded.push(0);
            assert_eq!(WalRecord::decode(&padded), None);
        }
    }

    #[test]
    fn stream_decodes_cleanly_and_reports_torn_tails() {
        let records = sample_records();
        let mut buf = Vec::new();
        for r in &records {
            buf.extend_from_slice(&frame(&r.encode()));
        }
        let (decoded, tail) = decode_stream(&buf);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(decoded, records);

        // Truncation anywhere yields a clean prefix and a torn tail.
        let cut = buf.len() - 3;
        let (prefix, tail) = decode_stream(&buf[..cut]);
        assert!(matches!(tail, Tail::Torn { .. }));
        assert_eq!(prefix.as_slice(), &records[..records.len() - 1]);

        // A flipped bit is caught by the CRC.
        let mut corrupt = buf.clone();
        let at = corrupt.len() - 10;
        corrupt[at] ^= 0x10;
        let (prefix, tail) = decode_stream(&corrupt);
        assert!(matches!(tail, Tail::Torn { .. }));
        assert!(prefix.len() < records.len());
        assert_eq!(prefix.as_slice(), &records[..prefix.len()]);

        // The empty segment is a clean, empty stream.
        assert_eq!(decode_stream(&[]), (Vec::new(), Tail::Clean));
    }

    #[test]
    fn vec_storage_journals_every_mutation() {
        let mut s = VecStorage::new();
        s.create_segment(0);
        s.append(0, b"abc");
        s.append(0, b"de");
        s.create_segment(1);
        s.delete_segment(0);
        assert_eq!(s.segment_ids(), vec![1]);
        assert_eq!(s.op_count(), 5);
        assert_eq!(s.live_bytes(), 0);

        // Replaying a journal prefix reproduces that moment exactly.
        let at3 = TornStorage::at_crash_point(&s, 3, Tear::Clean);
        assert_eq!(at3.storage().segment(0), Some(b"abcde".as_slice()));
        assert_eq!(at3.segment_ids(), vec![0]);
    }

    #[test]
    fn torn_storage_applies_partial_and_corrupt_writes() {
        let mut s = VecStorage::new();
        s.create_segment(0);
        s.append(0, b"abcdef");

        let torn = TornStorage::at_crash_point(&s, 1, Tear::Truncate { keep: 2 });
        assert_eq!(torn.segment(0), Some(b"ab".as_slice()));

        let flipped = TornStorage::at_crash_point(&s, 1, Tear::FlipBit { byte: 1, bit: 0 });
        assert_eq!(flipped.segment(0), Some(b"accdef".as_slice()));

        // Tears only apply to appends; past the journal end they are no-ops.
        let past = TornStorage::at_crash_point(&s, 9, Tear::Truncate { keep: 1 });
        assert_eq!(past.segment(0), Some(b"abcdef".as_slice()));
    }

    #[test]
    fn wal_checkpoints_compact_segments() {
        let genesis = Snapshot::genesis(state(&[(0, 0)]));
        let mut wal = Wal::new(VecStorage::new(), &genesis);
        assert_eq!(wal.records(), 1, "genesis checkpoint");
        assert_eq!(wal.since_checkpoint(), 0);

        wal.append(&WalRecord::WindowStart);
        wal.append(&WalRecord::SessionComplete { mobile: 0, seq: 0 });
        assert_eq!(wal.since_checkpoint(), 2);
        assert_eq!(wal.storage().segment_ids(), vec![0]);

        let snap = Snapshot {
            log: vec![(TxnId::new(0), state(&[(0, 5)]))],
            master: state(&[(0, 5)]),
            epoch_start: 0,
            epoch_state: state(&[(0, 0)]),
            epoch: 1,
            ledger: Vec::new(),
        };
        wal.checkpoint(&snap);
        assert_eq!(wal.storage().segment_ids(), vec![1]);
        assert_eq!(wal.checkpoints(), 1);
        assert_eq!(wal.segments_retired(), 1);
        assert_eq!(wal.since_checkpoint(), 0);

        // The fresh segment decodes to exactly the checkpoint record.
        let (records, tail) = decode_stream(wal.storage().segment(1).expect("active"));
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records, vec![WalRecord::Checkpoint(Box::new(snap))]);

        // The journal still remembers the retired segment's life: the
        // crash-point harness can rewind to before the compaction.
        let before = TornStorage::at_crash_point(wal.storage(), 3, Tear::Clean);
        assert_eq!(before.segment_ids(), vec![0]);
    }

    #[test]
    fn traced_wal_emits_append_and_checkpoint_events() {
        use histmerge_obs::{FlightRecorder, Phase, Tracer, TracerHandle};
        let sink = std::sync::Arc::new(FlightRecorder::new(64));
        let genesis = Snapshot::genesis(state(&[(0, 0)]));
        let mut wal =
            Wal::new(VecStorage::new(), &genesis).with_tracer(TracerHandle::new(sink.clone()));

        wal.append(&WalRecord::WindowStart);
        wal.checkpoint(&Snapshot::genesis(state(&[(0, 1)])));

        let dump = sink.dump_jsonl().unwrap();
        assert!(dump.contains(r#""kind":"window_start""#), "{dump}");
        assert!(dump.contains(r#""type":"wal_checkpoint","records":1"#), "{dump}");
        assert!(dump.contains(r#""type":"wal_compaction","retired":1"#), "{dump}");
        let snap = sink.snapshot().unwrap();
        // Two traced appends (window start + checkpoint record) plus the
        // checkpoint span itself.
        assert_eq!(snap.phase(Phase::WalAppend).unwrap().count, 2);
        assert_eq!(snap.phase(Phase::Checkpoint).unwrap().count, 1);
    }

    #[test]
    fn record_kind_names_are_distinct() {
        let kinds: std::collections::BTreeSet<&str> =
            sample_records().iter().map(|r| r.kind_name()).collect();
        assert_eq!(kinds.len(), sample_records().len());
    }
}
