//! Durable write-ahead log for [`crate::snapshot::SnapshotEngine`]
//! mutations.
//!
//! PR 6's snapshot engine replicates through an **in-memory** mutation
//! log — a process crash silently loses every mutation since build.
//! This module makes that log durable: every [`LogOp`] is encoded as a
//! length-prefixed, CRC32-checksummed binary record and appended to an
//! append-only file *before* the mutation is acknowledged, so the full
//! op history from the base corpus is replayable after a crash.
//!
//! ## Record format (version 1)
//!
//! ```text
//! file   := header record*
//! header := magic "RSWL" (4 bytes) | version u32 LE
//! record := len u32 LE | crc32 u32 LE | payload (len bytes)
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload alone; `len` is bounded by
//! [`MAX_PAYLOAD`] so a corrupted length prefix can never direct the
//! reader to allocate or scan gigabytes. The payload is a hand-rolled
//! tag-prefixed encoding of one [`LogOp`] (no serialization-framework
//! dependency — the build environment is offline, and four op shapes do
//! not need one):
//!
//! ```text
//! payload := 0x01 id u32 count u32 item u32*count   (Insert)
//!          | 0x02 id u32 count u32 item u32*count   (InsertAt)
//!          | 0x03 id u32                            (Remove)
//!          | 0x04                                   (Compact)
//! ```
//!
//! ## Torn-tail truncation rule
//!
//! A crash can stop the writer mid-record. [`read_wal`] scans records
//! in order and stops at the **first** record that is short (fewer
//! bytes than its length prefix promises, or an incomplete prefix),
//! oversized (`len > MAX_PAYLOAD`), checksum-mismatched, or
//! undecodable. Everything before that point is the valid prefix;
//! everything from it on is the torn tail, reported via
//! `truncated_bytes` and physically truncated by
//! [`WalWriter::resume`] before new records are appended. A torn tail
//! is **not** an error — it is the expected shape of a crash — but a
//! missing or wrong header is ([`WalError::BadHeader`]): that file was
//! never a WAL, and replaying guesses from it would corrupt the
//! corpus.
//!
//! ## Sync policies
//!
//! [`SyncPolicy`] picks the durability/latency trade:
//!
//! * [`SyncPolicy::PerOp`] — `fdatasync` after every record. An
//!   acknowledged mutation survives power loss; the writer pays a
//!   device flush per op.
//! * [`SyncPolicy::GroupCommit`] — sync once `max_ops` records
//!   accumulate or `max_delay` has passed since the oldest unsynced
//!   record (the publisher thread flushes overdue groups, so the
//!   window is bounded even when traffic stops).
//! * [`SyncPolicy::None`] — never sync except on explicit
//!   [`WalWriter::sync`] / graceful shutdown. A **process** kill still
//!   loses nothing already `write(2)`-ten (the page cache survives the
//!   process); only a machine crash can take the unsynced window.
//!
//! ## Fault injection
//!
//! [`FailPoint`] is the test hook the fault-injection harness arms:
//! one-shot short writes and bit flips at the record level plus sync
//! failures, injected inside the writer where a real kernel or device
//! would fail. Production code never arms it; the disarmed fast path
//! is one relaxed atomic load.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ranksim_rankings::{ItemId, RankingId};

/// The 4-byte file magic: a WAL and nothing else.
pub const WAL_MAGIC: [u8; 4] = *b"RSWL";

/// Current record-format version (bumped on any layout change).
pub const WAL_VERSION: u32 = 1;

/// Upper bound on one record's payload. A corrupted length prefix is
/// detected here instead of sending the reader chasing gigabytes; the
/// largest legitimate payload (an insert of a size-`k` ranking) is a
/// few hundred bytes.
pub const MAX_PAYLOAD: u32 = 1 << 20;

const HEADER_LEN: u64 = 8;
const TAG_INSERT: u8 = 0x01;
const TAG_INSERT_AT: u8 = 0x02;
const TAG_REMOVE: u8 = 0x03;
const TAG_COMPACT: u8 = 0x04;

/// One logged mutation of the snapshot engine's single-writer stream;
/// the unit of replication (in-memory replicas) and of durability
/// (this module). See [`crate::snapshot::SnapshotEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// `insert_ranking`; the id the master assigned rides along so
    /// replay can assert replica/master id agreement.
    Insert {
        /// The id the master assigned.
        id: RankingId,
        /// The inserted ranking, top rank first.
        items: Vec<ItemId>,
    },
    /// `insert_ranking_at` (re-insertion at a released id).
    InsertAt {
        /// The released id being repopulated.
        id: RankingId,
        /// The inserted ranking, top rank first.
        items: Vec<ItemId>,
    },
    /// `remove_ranking` (the master observed it as live).
    Remove(RankingId),
    /// An explicit `compact` (master-side *auto*-compactions are not
    /// logged: replicas re-trigger them deterministically on replay).
    Compact,
}

/// When the WAL writer forces appended records onto stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every appended record.
    PerOp,
    /// Sync once `max_ops` records accumulate or `max_delay` has
    /// passed since the oldest unsynced record.
    GroupCommit {
        /// Unsynced-record count that forces a sync.
        max_ops: u32,
        /// Oldest-unsynced age that forces a sync.
        max_delay: Duration,
    },
    /// Never sync implicitly (explicit [`WalWriter::sync`] only).
    None,
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::PerOp => write!(f, "per_op"),
            SyncPolicy::GroupCommit { max_ops, max_delay } => {
                write!(f, "group_commit({max_ops} ops, {max_delay:?})")
            }
            SyncPolicy::None => write!(f, "none"),
        }
    }
}

/// Everything that can go wrong appending to or scanning a WAL.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is missing the magic/version header — it is not a WAL
    /// (or a future, incompatible one); replaying it would be a guess.
    BadHeader,
    /// A previous append or sync on this writer failed; the writer is
    /// fail-stop and refuses further appends.
    Failed(String),
    /// Recovery replay disagreed with the recorded history (wrong base
    /// corpus, or a corrupted record that passed its checksum).
    Diverged(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadHeader => write!(f, "not a wal file (bad magic/version header)"),
            WalError::Failed(msg) => write!(f, "wal writer is failed: {msg}"),
            WalError::Diverged(msg) => write!(f, "wal replay diverged: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What [`crate::snapshot::SnapshotEngine::recover`] did: how many
/// records replayed cleanly and how many torn-tail bytes were cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records replayed into the recovered engine.
    pub applied: u64,
    /// Bytes truncated off the tail (0 for a cleanly closed log).
    pub truncated_bytes: u64,
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled, slicing-by-8.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[t][b]` is
/// the CRC of byte `b` followed by `t` zero bytes, so eight table loads
/// advance the register by eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            j += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes` (the checksum in every WAL record, RSSN
/// section and worker frame).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], pos: usize) -> Option<u32> {
    bytes
        .get(pos..pos + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Appends the payload encoding of `op` (no framing) to `out`.
pub fn encode_op(op: &LogOp, out: &mut Vec<u8>) {
    match op {
        LogOp::Insert { id, items } | LogOp::InsertAt { id, items } => {
            out.push(if matches!(op, LogOp::Insert { .. }) {
                TAG_INSERT
            } else {
                TAG_INSERT_AT
            });
            push_u32(out, id.0);
            push_u32(out, items.len() as u32);
            for item in items {
                push_u32(out, item.0);
            }
        }
        LogOp::Remove(id) => {
            out.push(TAG_REMOVE);
            push_u32(out, id.0);
        }
        LogOp::Compact => out.push(TAG_COMPACT),
    }
}

/// Decodes one payload back into a [`LogOp`]. `None` on any structural
/// mismatch (unknown tag, short payload, trailing garbage) — the
/// caller treats that exactly like a checksum failure.
pub fn decode_op(payload: &[u8]) -> Option<LogOp> {
    let (&tag, rest) = payload.split_first()?;
    match tag {
        TAG_INSERT | TAG_INSERT_AT => {
            let id = RankingId(read_u32(rest, 0)?);
            let count = read_u32(rest, 4)? as usize;
            let body = rest.get(8..)?;
            if body.len() != count.checked_mul(4)? {
                return None;
            }
            let items: Vec<ItemId> = body
                .chunks_exact(4)
                .map(|c| ItemId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                .collect();
            Some(if tag == TAG_INSERT {
                LogOp::Insert { id, items }
            } else {
                LogOp::InsertAt { id, items }
            })
        }
        TAG_REMOVE => {
            if rest.len() != 4 {
                return None;
            }
            Some(LogOp::Remove(RankingId(read_u32(rest, 0)?)))
        }
        TAG_COMPACT => rest.is_empty().then_some(LogOp::Compact),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// One injected fault (consumed by the next write or sync it applies
/// to — one-shot by design, so a test controls exactly which record is
/// damaged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Write only the first `n` bytes of the next record, then fail
    /// the append — a torn write at a record boundary of the test's
    /// choosing.
    ShortWrite(usize),
    /// Flip the low bit of byte `offset % record_len` of the next
    /// record before writing it. The write *succeeds* — the corruption
    /// is only discovered by the CRC check at recovery, like a real
    /// silently-corrupted sector.
    BitFlip(usize),
    /// Fail the next sync (explicit or policy-triggered).
    SyncFail,
}

/// A shared, armable fault-injection hook for [`WalWriter`] — the
/// fault-injection harness's lever. Disarmed it costs one relaxed
/// atomic load per append; `inject` arms exactly one fault.
#[derive(Debug, Clone, Default)]
pub struct FailPoint {
    inner: Arc<FailPointInner>,
}

#[derive(Debug, Default)]
struct FailPointInner {
    armed: AtomicBool,
    fault: Mutex<Option<Fault>>,
}

impl FailPoint {
    /// A disarmed fail point.
    pub fn new() -> Self {
        FailPoint::default()
    }

    /// Arms `fault`; the next matching writer operation consumes it.
    pub fn inject(&self, fault: Fault) {
        *self.inner.fault.lock().unwrap_or_else(|e| e.into_inner()) = Some(fault);
        self.inner.armed.store(true, Ordering::Release);
    }

    /// Consumes the armed fault if `pred` matches it.
    fn take_if(&self, pred: impl Fn(&Fault) -> bool) -> Option<Fault> {
        if !self.inner.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut slot = self.inner.fault.lock().unwrap_or_else(|e| e.into_inner());
        if slot.as_ref().is_some_and(&pred) {
            self.inner.armed.store(false, Ordering::Release);
            slot.take()
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Appends framed [`LogOp`] records to an append-only WAL file under a
/// [`SyncPolicy`]. Fail-stop: after any write or sync error the writer
/// refuses further appends (the caller surfaces that via
/// [`crate::snapshot::SnapshotEngine::health`]), because a log with a
/// hole in the middle could replay a wrong history.
pub struct WalWriter {
    file: File,
    policy: SyncPolicy,
    failpoint: FailPoint,
    /// Records successfully appended (including unsynced ones).
    records: u64,
    /// File length in bytes after the last successful append.
    bytes: u64,
    /// Appends since the last successful sync.
    unsynced: u32,
    /// When the oldest unsynced record was appended.
    oldest_unsynced: Option<Instant>,
    /// First append/sync failure; fail-stop marker.
    failed: Option<String>,
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Creates (or truncates) the WAL at `path` and writes the header.
    pub fn create(path: &Path, policy: SyncPolicy) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&WAL_VERSION.to_le_bytes())?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            policy,
            failpoint: FailPoint::new(),
            records: 0,
            bytes: HEADER_LEN,
            unsynced: 0,
            oldest_unsynced: None,
            failed: None,
            scratch: Vec::new(),
        })
    }

    /// Reopens an existing WAL for append after a [`read_wal`] scan:
    /// physically truncates the torn tail at `scan.valid_bytes` and
    /// positions the writer there, with `scan.ops.len()` records on
    /// the books.
    pub fn resume(path: &Path, policy: SyncPolicy, scan: &WalScan) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(scan.valid_bytes)?;
        file.seek(SeekFrom::Start(scan.valid_bytes))?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            policy,
            failpoint: FailPoint::new(),
            records: scan.ops.len() as u64,
            bytes: scan.valid_bytes,
            unsynced: 0,
            oldest_unsynced: None,
            failed: None,
            scratch: Vec::new(),
        })
    }

    /// The shared fault-injection handle (see [`FailPoint`]).
    pub fn failpoint(&self) -> FailPoint {
        self.failpoint.clone()
    }

    /// Records successfully appended over this writer's lifetime
    /// (including those [`WalWriter::resume`] found on disk).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current file length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The first failure this writer hit, if any (fail-stop marker).
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// When the oldest unsynced record must be flushed under
    /// [`SyncPolicy::GroupCommit`] (the publisher's flush duty), if a
    /// deadline is pending. `None` once the writer is fail-stop: no
    /// sync can ever succeed again, and a perpetually-past deadline
    /// would spin the publisher's flush loop forever.
    pub fn sync_due_at(&self) -> Option<Instant> {
        if self.failed.is_some() {
            return None;
        }
        match (self.policy, self.oldest_unsynced) {
            (SyncPolicy::GroupCommit { max_delay, .. }, Some(oldest)) => Some(oldest + max_delay),
            _ => None,
        }
    }

    fn fail(&mut self, msg: String) -> WalError {
        if self.failed.is_none() {
            self.failed = Some(msg.clone());
        }
        // Fail-stop retires the group-commit due-state: the records are
        // not durable and never will be, and a surviving deadline would
        // keep `sync_due_at` reporting work that cannot be done.
        self.unsynced = 0;
        self.oldest_unsynced = None;
        WalError::Failed(msg)
    }

    /// Encodes and appends one record, then applies the sync policy.
    /// Returns the total record count on success. On failure the
    /// writer becomes fail-stop; the bytes that reached the file form
    /// a torn tail that recovery truncates.
    pub fn append(&mut self, op: &LogOp) -> Result<u64, WalError> {
        if let Some(msg) = &self.failed {
            return Err(WalError::Failed(msg.clone()));
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(&[0u8; 8]);
        encode_op(op, &mut scratch);
        let payload_len = (scratch.len() - 8) as u32;
        let crc = crc32(&scratch[8..]);
        scratch[..4].copy_from_slice(&payload_len.to_le_bytes());
        scratch[4..8].copy_from_slice(&crc.to_le_bytes());

        let fault = self
            .failpoint
            .take_if(|f| matches!(f, Fault::ShortWrite(_) | Fault::BitFlip(_)));
        let result = match fault {
            Some(Fault::ShortWrite(keep)) => {
                let keep = keep.min(scratch.len());
                // Write the torn prefix so recovery has something to
                // truncate, then report the append as failed. The
                // partial write may itself land short, so the file is
                // re-statted rather than trusting `keep`.
                let _ = self.file.write_all(&scratch[..keep]);
                let _ = self.file.sync_data();
                if let Ok(meta) = self.file.metadata() {
                    self.bytes = meta.len();
                }
                Err(self.fail(format!(
                    "fail point: short write ({keep} of {} bytes)",
                    scratch.len()
                )))
            }
            Some(Fault::BitFlip(offset)) => {
                let n = scratch.len();
                scratch[offset % n] ^= 0x01;
                // The corrupted record is written "successfully" — only
                // the recovery CRC check can see the damage.
                self.write_record(&scratch)
            }
            _ => self.write_record(&scratch),
        };
        self.scratch = scratch;
        result?;
        Ok(self.records)
    }

    fn write_record(&mut self, record: &[u8]) -> Result<(), WalError> {
        if let Err(e) = self.file.write_all(record) {
            return Err(self.fail(format!("append failed: {e}")));
        }
        self.bytes += record.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        if self.oldest_unsynced.is_none() {
            self.oldest_unsynced = Some(Instant::now());
        }
        match self.policy {
            SyncPolicy::PerOp => self.sync(),
            SyncPolicy::GroupCommit { max_ops, max_delay } => {
                let due = self.unsynced >= max_ops
                    || self
                        .oldest_unsynced
                        .is_some_and(|t| t.elapsed() >= max_delay);
                if due {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::None => Ok(()),
        }
    }

    /// Forces every appended record onto stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if let Some(msg) = &self.failed {
            return Err(WalError::Failed(msg.clone()));
        }
        if self
            .failpoint
            .take_if(|f| matches!(f, Fault::SyncFail))
            .is_some()
        {
            return Err(self.fail("fail point: sync failed".to_string()));
        }
        if self.unsynced == 0 {
            return Ok(());
        }
        if let Err(e) = self.file.sync_data() {
            return Err(self.fail(format!("sync failed: {e}")));
        }
        self.unsynced = 0;
        self.oldest_unsynced = None;
        Ok(())
    }

    /// Syncs iff the group-commit delay has expired (no-op for other
    /// policies) — the publisher thread's flush duty.
    pub fn sync_if_due(&mut self) -> Result<(), WalError> {
        if self.sync_due_at().is_some_and(|at| at <= Instant::now()) {
            self.sync()
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// The result of scanning a WAL: the valid op prefix plus where the
/// torn tail (if any) starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every record of the valid prefix, in append order.
    pub ops: Vec<LogOp>,
    /// Byte length of the header plus the valid prefix.
    pub valid_bytes: u64,
    /// Bytes after the valid prefix (torn/corrupt tail; 0 when clean).
    pub truncated_bytes: u64,
}

/// Reads until `buf` is full or EOF; returns how many bytes landed.
/// A short count is EOF mid-frame — the torn-tail case, not an error.
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Scans the WAL at `path`, applying the torn-tail truncation rule
/// (see the module docs): the scan stops at the first short, oversized,
/// checksum-mismatched or undecodable record, and everything after it
/// is reported as `truncated_bytes`. Never panics on arbitrary bytes;
/// only a missing/wrong header is an error. The scan streams one
/// record at a time, so recovery memory is bounded by [`MAX_PAYLOAD`]
/// plus the decoded ops — never by the log's on-disk length.
pub fn read_wal(path: &Path) -> Result<WalScan, WalError> {
    let file = File::open(path)?;
    let total_bytes = file.metadata()?.len();
    let mut reader = std::io::BufReader::new(file);
    let mut header = [0u8; HEADER_LEN as usize];
    if read_full(&mut reader, &mut header)? < HEADER_LEN as usize
        || header[..4] != WAL_MAGIC
        || header[4..] != WAL_VERSION.to_le_bytes()
    {
        return Err(WalError::BadHeader);
    }
    let mut ops = Vec::new();
    let mut pos = HEADER_LEN;
    let mut frame = [0u8; 8];
    let mut payload = Vec::new();
    loop {
        if read_full(&mut reader, &mut frame)? < frame.len() {
            break;
        }
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        if len > MAX_PAYLOAD {
            break;
        }
        let crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        payload.resize(len as usize, 0);
        if read_full(&mut reader, &mut payload)? < payload.len() {
            break;
        }
        if crc32(&payload) != crc {
            break;
        }
        let Some(op) = decode_op(&payload) else { break };
        ops.push(op);
        pos += 8 + len as u64;
    }
    Ok(WalScan {
        ops,
        valid_bytes: pos,
        truncated_bytes: total_bytes.saturating_sub(pos),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ranksim-wal-{tag}-{}", std::process::id()));
        p
    }

    fn sample_ops() -> Vec<LogOp> {
        vec![
            LogOp::Insert {
                id: RankingId(0),
                items: vec![ItemId(4), ItemId(1), ItemId(9)],
            },
            LogOp::Remove(RankingId(0)),
            LogOp::Compact,
            LogOp::InsertAt {
                id: RankingId(0),
                items: vec![ItemId(7), ItemId(2), ItemId(5)],
            },
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_slicing_equals_bytewise_reference() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        }
        let buf: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        // Every length 0..=64 at every start offset within an 8-byte
        // stride, so the bulk loop and the remainder loop meet at every
        // split point.
        for start in 0..16 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn append_read_round_trip_per_policy() {
        for (i, policy) in [
            SyncPolicy::PerOp,
            SyncPolicy::GroupCommit {
                max_ops: 2,
                max_delay: Duration::from_millis(5),
            },
            SyncPolicy::None,
        ]
        .into_iter()
        .enumerate()
        {
            let path = temp_path(&format!("roundtrip-{i}"));
            let ops = sample_ops();
            {
                let mut w = WalWriter::create(&path, policy).unwrap();
                for op in &ops {
                    w.append(op).unwrap();
                }
                w.sync().unwrap();
                assert_eq!(w.records(), ops.len() as u64);
            }
            let scan = read_wal(&path).unwrap();
            assert_eq!(scan.ops, ops);
            assert_eq!(scan.truncated_bytes, 0);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn short_write_fails_append_and_recovery_truncates() {
        let path = temp_path("short");
        let ops = sample_ops();
        {
            let mut w = WalWriter::create(&path, SyncPolicy::PerOp).unwrap();
            w.append(&ops[0]).unwrap();
            w.failpoint().inject(Fault::ShortWrite(5));
            let err = w.append(&ops[1]).unwrap_err();
            assert!(matches!(err, WalError::Failed(_)), "got {err}");
            // Fail-stop: the writer refuses further work.
            assert!(w.append(&ops[2]).is_err());
            assert!(w.failure().is_some());
        }
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.ops, ops[..1]);
        assert_eq!(scan.truncated_bytes, 5);
        // Resume truncates the torn tail and appends cleanly after it.
        let mut w = WalWriter::resume(&path, SyncPolicy::PerOp, &scan).unwrap();
        w.append(&ops[2]).unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.ops, vec![ops[0].clone(), ops[2].clone()]);
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        let path = temp_path("flip");
        let ops = sample_ops();
        {
            let mut w = WalWriter::create(&path, SyncPolicy::None).unwrap();
            w.append(&ops[0]).unwrap();
            w.failpoint().inject(Fault::BitFlip(11));
            // The corrupted append "succeeds" — like a bad sector.
            w.append(&ops[1]).unwrap();
            w.append(&ops[2]).unwrap();
            w.sync().unwrap();
        }
        let scan = read_wal(&path).unwrap();
        // The flipped record and everything after it are the tail.
        assert_eq!(scan.ops, ops[..1]);
        assert!(scan.truncated_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_failure_is_fail_stop() {
        let path = temp_path("syncfail");
        let mut w = WalWriter::create(&path, SyncPolicy::None).unwrap();
        w.append(&sample_ops()[0]).unwrap();
        w.failpoint().inject(Fault::SyncFail);
        assert!(matches!(w.sync(), Err(WalError::Failed(_))));
        assert!(w.append(&sample_ops()[1]).is_err(), "fail-stop after sync");
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn not_a_wal_is_a_header_error_not_a_panic() {
        let path = temp_path("header");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(matches!(read_wal(&path), Err(WalError::BadHeader)));
        std::fs::write(&path, b"RS").unwrap();
        assert!(matches!(read_wal(&path), Err(WalError::BadHeader)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_length_prefix_is_a_torn_tail() {
        let path = temp_path("oversize");
        let mut w = WalWriter::create(&path, SyncPolicy::None).unwrap();
        w.append(&sample_ops()[0]).unwrap();
        w.sync().unwrap();
        drop(w);
        // Append a frame whose length prefix promises 2 GiB.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.ops, sample_ops()[..1]);
        assert_eq!(scan.truncated_bytes, 16);
        std::fs::remove_file(&path).unwrap();
    }
}
