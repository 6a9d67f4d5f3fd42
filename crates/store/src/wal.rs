//! Durable storage primitives: an append-only, checksummed write-ahead log
//! and atomically-written snapshot files, organized into *generations*
//! inside a data directory.
//!
//! The layer is deliberately byte-oriented — records and snapshots are
//! opaque `&[u8]` payloads (the event/snapshot encodings live in
//! `icdb-core`), so the file formats can be tested in isolation.
//!
//! ## File layout
//!
//! ```text
//! <data-dir>/
//!   snapshot-<N>.img    full-state snapshot opening generation N (absent for N = 0)
//!   wal-<N>.log         events applied after snapshot N, in commit order
//! ```
//!
//! A *checkpoint* writes `snapshot-<N+1>.img` (via a temp file + atomic
//! rename + directory fsync), starts an empty `wal-<N+1>.log`, and deletes
//! the previous generation. Recovery picks the newest snapshot whose
//! checksum validates, replays the matching WAL, and truncates any torn
//! final record left by a crash.
//!
//! ## WAL record framing
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! One private codec — `encode_frame`, `decode_frame` and `frame_len` — is
//! the only code that knows this layout. [`WalWriter::append`] encodes with
//! it, [`GroupWal`] counts bytes with it, and every reader decodes with it:
//! [`scan_wal`] (recovery), [`read_wal_prefix`] (a replication bootstrap's
//! bounded read of the durable prefix) and [`WalScan::prefix_len`] (the
//! byte length recovery cuts the log back to).
//!
//! Appends optionally `fsync` (fdatasync) before returning, making each
//! committed record crash-durable. Records are never empty — an empty
//! payload is refused with `InvalidInput` — so a zero length field ends the
//! log. A reader stops there, and at the first frame whose length exceeds
//! the cap or overruns the bytes read, or whose checksum mismatches. Zeros
//! after the valid prefix are a clean end; any non-zero byte there is a
//! torn tail. [`WalWriter::open`] truncates both away.
//!
//! The writer keeps a region of zeros ahead of the log's end, 64 KiB
//! (`ZERO_STEP`) at a time: an append that would run past it first writes
//! the next 64 KiB of zeros beyond its frame, and later appends overwrite
//! those zeros in place. So a commit's fdatasync writes data blocks and
//! almost never the file size, which changes, and is journaled, once per
//! 64 KiB of records instead of on every commit. Dropping the writer trims
//! the file back to its records, so a cleanly closed log holds exactly the
//! framing above; after a crash the zeros stay, and recovery reads them as
//! the end of the log.
//!
//! For concurrent committers, [`GroupWal`] layers *group commit* over a
//! `WalWriter`: committers enqueue records and one leader per batch writes
//! them all and issues a single fsync that acknowledges the whole batch —
//! durability cost amortizes over the number of concurrent writers while
//! recovery semantics stay exactly those of the plain framing above.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use icdb_obs::metrics as obs;

/// Maximum accepted single-record length (64 MiB): a corrupt length field
/// must not trigger a huge allocation.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// How many durable records the replication feed retains (see
/// [`GroupWal::collect_since`]). A follower farther behind than this must
/// re-bootstrap from a snapshot.
const FEED_MAX_EVENTS: usize = 8192;

/// Byte cap of the replication feed's retained payloads — bounds memory
/// when individual records are large.
const FEED_MAX_BYTES: usize = 64 * 1024 * 1024;

/// Bytes of zeros a [`WalWriter`] writes ahead of the log's end at a time.
/// One extension per 64 KiB of records keeps file-size changes off nearly
/// every commit's fsync, while a fresh log's first commit, which pays for
/// the first extension, stays cheap.
const ZERO_STEP: usize = 64 * 1024;

/// The zeros one extension writes.
static ZEROS: [u8; ZERO_STEP] = [0; ZERO_STEP];

/// Magic prefix of snapshot files.
const SNAPSHOT_MAGIC: &[u8; 8] = b"ICDBSNAP";

/// Snapshot file-format version.
const SNAPSHOT_VERSION: u32 = 1;

// ------------------------------------------------------------------ crc32

/// Byte-at-a-time CRC-32 lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, the zlib polynomial) of a byte slice — table-driven,
/// since it runs over every WAL record and whole snapshots.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// -------------------------------------------------------------------- WAL

/// Bytes of framing ahead of every WAL payload: `[len][crc32]`.
const FRAME_HEADER: usize = 8;

/// On-disk size of the frame holding a `payload_len`-byte record.
fn frame_len(payload_len: usize) -> u64 {
    (FRAME_HEADER + payload_len) as u64
}

/// The record length field of `payload`, refusing an empty record (a zero
/// length field ends the log) and records over [`MAX_RECORD_LEN`].
fn record_len(payload: &[u8]) -> io::Result<u32> {
    if payload.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "empty WAL record: a zero length field ends the log",
        ));
    }
    u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_RECORD_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("WAL record of {} bytes exceeds the limit", payload.len()),
            )
        })
}

/// Frames one record: length, checksum, payload.
fn encode_frame(payload: &[u8]) -> io::Result<Vec<u8>> {
    let len = record_len(payload)?;
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Decodes the frame at the start of `bytes` into its payload and the
/// frame's length. `None` when no complete, checksum-valid frame starts
/// there: a short header, a zero length (the end of the log), a length
/// over [`MAX_RECORD_LEN`] (checked first, so the frame's end offset cannot
/// overflow), a payload overrunning `bytes`, or a checksum mismatch.
fn decode_frame(bytes: &[u8]) -> Option<(&[u8], usize)> {
    let header = bytes.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_RECORD_LEN {
        return None;
    }
    let payload = bytes.get(FRAME_HEADER..FRAME_HEADER + len as usize)?;
    (crc32(payload) == crc).then_some((payload, FRAME_HEADER + payload.len()))
}

/// Result of scanning a WAL file.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Decoded record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (the next open cuts everything
    /// after it).
    pub valid_len: u64,
    /// Whether a non-zero byte follows the valid prefix. Zeros there are
    /// the writer's zero region: a clean end.
    pub torn: bool,
}

impl WalScan {
    /// Decodes the run of valid frames at the start of `bytes`.
    fn decode(bytes: &[u8]) -> WalScan {
        let mut scan = WalScan::default();
        let mut at = 0usize;
        while let Some((payload, len)) = decode_frame(&bytes[at..]) {
            scan.records.push(payload.to_vec());
            at += len;
        }
        scan.valid_len = at as u64;
        scan.torn = bytes[at..].iter().any(|&b| b != 0);
        scan
    }

    /// Byte length of the log holding only the first `records` records:
    /// where recovery cuts a log whose later records it cannot use.
    ///
    /// # Panics
    /// If `records` exceeds the number of records scanned.
    pub fn prefix_len(&self, records: usize) -> u64 {
        self.records[..records]
            .iter()
            .map(|payload| frame_len(payload.len()))
            .sum()
    }
}

/// Reads every valid record of a WAL file. A missing file scans as empty;
/// a zero tail ends the scan cleanly, and a torn or corrupt tail ends it
/// with `torn = true`, without failing.
///
/// # Errors
/// Propagates I/O errors other than "file not found".
pub fn scan_wal(path: &Path) -> io::Result<WalScan> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(WalScan::decode(&bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(WalScan::default()),
        Err(e) => Err(e),
    }
}

/// Reads the records of a live WAL file that lie wholly within its first
/// `limit` bytes — replication passes the log's durable extent (see
/// [`GroupWal::durable_extent`]), so a record that is written but not yet
/// fsynced, or mid-write by the group-commit leader, is never returned.
/// Decoding is [`scan_wal`]'s: the read stops at the first frame that
/// overruns `limit` or fails its checksum, and the writer's zero region
/// past the durable extent is never read.
///
/// # Errors
/// Propagates I/O errors, a missing file included.
pub fn read_wal_prefix(path: &Path, limit: u64) -> io::Result<Vec<Vec<u8>>> {
    let mut bytes = Vec::new();
    File::open(path)?.take(limit).read_to_end(&mut bytes)?;
    Ok(WalScan::decode(&bytes).records)
}

/// An append-only writer over one WAL file. It keeps up to 64 KiB of zeros
/// written past its last record and trims them when dropped (see the
/// module docs).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    bytes: u64,
    /// End of the zeros written past `bytes`: the file's length.
    allocated: u64,
    records: u64,
    sync: bool,
}

impl WalWriter {
    /// Opens (creating if absent) a WAL for appending, truncating any torn
    /// tail found by a prior [`scan_wal`]. `sync` controls whether every
    /// [`WalWriter::append`] fsyncs before returning (durability) or leaves
    /// flushing to the OS (fast, for tests and benches).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn open(path: &Path, sync: bool) -> io::Result<(WalWriter, WalScan)> {
        let scan = scan_wal(path)?;
        let writer = WalWriter::open_at(path, scan.valid_len, scan.records.len() as u64, sync)?;
        Ok((writer, scan))
    }

    /// Opens a WAL for appending at an explicit byte offset, truncating
    /// everything past it, a zero tail included: the first append writes
    /// the zero region again. Used by recovery when the *semantic* valid
    /// prefix is shorter than the checksum-valid one (a record that
    /// passes its CRC but no longer decodes must be cut away exactly like
    /// a torn tail — otherwise later appends would land beyond it and
    /// every future replay would stop at the same spot, stranding
    /// acknowledged commits).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn open_at(path: &Path, valid_len: u64, records: u64, sync: bool) -> io::Result<WalWriter> {
        let fresh = !path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if file.metadata()?.len() > valid_len {
            file.set_len(valid_len)?;
        }
        if fresh {
            // Make the new directory entry itself durable.
            if let Some(dir) = path.parent() {
                sync_dir(dir);
            }
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            bytes: valid_len,
            allocated: valid_len,
            records,
            sync,
        })
    }

    /// Appends one record (length + checksum + payload) and, when the
    /// writer is in sync mode, fsyncs so the record survives a crash the
    /// moment this returns. A record that would run past the zero region
    /// first writes the next 64 KiB of zeros beyond its frame; the same
    /// fsync makes both durable.
    ///
    /// # Errors
    /// An empty or oversized payload (`InvalidInput`, nothing written), and
    /// I/O errors; on an I/O failure the file may hold a torn record, which
    /// the next [`WalWriter::open`] truncates away.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let frame = encode_frame(payload)?;
        match crate::fail::fire("wal.append") {
            Some(crate::fail::Injected::ShortWrite(e)) => {
                // Model a torn record: half the frame reaches the disk
                // before the device fails. Recovery must truncate it.
                let _ = self
                    .file
                    .write_all_at(&frame[..frame.len() / 2], self.bytes);
                return Err(e);
            }
            Some(injected) => return Err(crate::fail::error_of(injected)),
            None => {}
        }
        let end = self.bytes + frame.len() as u64;
        if end > self.allocated {
            self.file.write_all_at(&ZEROS, end)?;
            self.allocated = end + ZERO_STEP as u64;
        }
        self.file.write_all_at(&frame, self.bytes)?;
        if self.sync {
            if let Some(injected) = crate::fail::fire("wal.sync") {
                return Err(crate::fail::error_of(injected));
            }
            self.file.sync_data()?;
        }
        self.bytes = end;
        self.records += 1;
        Ok(())
    }

    /// Forces buffered records to stable storage (useful before a
    /// checkpoint when the writer is not in per-append sync mode).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(injected) = crate::fail::fire("wal.sync") {
            return Err(crate::fail::error_of(injected));
        }
        self.file.sync_data()
    }

    /// Bytes currently in the log (valid records only).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A clean close trims the zero region, so the file holds exactly its
/// records. A failed trim leaves zeros, which read as a clean end.
impl Drop for WalWriter {
    fn drop(&mut self) {
        if self.allocated > self.bytes {
            let _ = self.file.set_len(self.bytes);
        }
    }
}

// ----------------------------------------------------------- group commit

/// A latched write-ahead-log fault: the first I/O error the log hit,
/// with its OS errno when one was attached (ENOSPC = 28, EIO = 5).
/// Surfaced through [`GroupWal::fault`] so a degraded server can report
/// *why* it is read-only; cleared by [`GroupWal::clear_fault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFault {
    message: String,
    errno: Option<i32>,
}

impl WalFault {
    fn from_err(e: &io::Error) -> WalFault {
        WalFault {
            message: e.to_string(),
            errno: e.raw_os_error(),
        }
    }

    /// Human-readable description of the first failure.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The OS errno of the first failure, when the error carried one.
    pub fn errno(&self) -> Option<i32> {
        self.errno
    }
}

impl std::fmt::Display for WalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Mutable state of a [`GroupWal`], guarded by one mutex.
#[derive(Debug)]
struct GroupState {
    /// The writer, taken (`None`) by whichever waiter is currently
    /// flushing a batch — the *leader*.
    writer: Option<WalWriter>,
    /// Payloads enqueued but not yet written, oldest first.
    queue: Vec<Vec<u8>>,
    /// Sequence number of the most recently enqueued record.
    enqueued_seq: u64,
    /// Sequence number through which records are durable (written, and
    /// fsynced when the log is in sync mode).
    durable_seq: u64,
    /// Latched first I/O error: once the log fails, every later submit
    /// and wait fails with the same message (the WAL tail is suspect, so
    /// no commit after the failure may be acknowledged) — until
    /// [`GroupWal::clear_fault`] installs a fresh generation.
    error: Option<WalFault>,
    /// Records enqueued this generation (equals the on-disk count once
    /// the queue drains).
    records: u64,
    /// Bytes enqueued this generation, framing included.
    bytes: u64,
    /// Records *durable* this generation — lags `records` by whatever is
    /// still queued or mid-flush.
    durable_records: u64,
    /// Bytes durable this generation, framing included. Together with
    /// `durable_seq`/`durable_records` this is the consistent extent a
    /// replication bootstrap may read from the file.
    durable_bytes: u64,
    /// Replication feed: recently-durable record payloads keyed by their
    /// sequence number, oldest first. Only payloads that survived the
    /// batch write (and fsync, in sync mode) are fed, so a follower
    /// tailing it can never observe an unacknowledged record. Bounded by
    /// [`FEED_MAX_EVENTS`]/[`FEED_MAX_BYTES`]; pruned entries force a
    /// lagging follower to re-bootstrap.
    feed: VecDeque<(u64, Vec<u8>)>,
    /// Total payload bytes currently held by `feed`.
    feed_bytes: usize,
}

impl GroupState {
    /// Smallest sequence still answerable from the feed minus one — a
    /// `collect_since(from, …)` with `from` below this has lost history.
    fn feed_floor(&self) -> u64 {
        match self.feed.front() {
            Some(&(seq, _)) => seq - 1,
            None => self.durable_seq,
        }
    }
}

/// One batch of replication-feed entries (see [`GroupWal::collect_since`]).
#[derive(Debug, Default)]
pub struct FeedBatch {
    /// `(sequence, payload)` pairs in sequence order, all durable.
    pub events: Vec<(u64, Vec<u8>)>,
    /// The log's durable sequence at collection time — `durable_seq`
    /// minus the last returned sequence is the caller's remaining lag.
    pub durable_seq: u64,
}

/// A write-ahead log with *group commit*: concurrent committers enqueue
/// records under a short mutex, then one of them — the **leader** — writes
/// the whole batch and issues a **single** fsync that acknowledges every
/// committer in it. Mutation durability therefore costs one fsync per
/// *batch*, not one per record, and throughput scales with the number of
/// concurrent writers.
///
/// The protocol (leader-based, as in group-committing databases):
///
/// 1. [`GroupWal::submit`] appends the payload to the in-memory queue and
///    returns a monotonic sequence number — cheap, no I/O.
/// 2. [`GroupWal::wait_durable`] blocks until that sequence is durable.
///    Any waiter that finds no flush in progress becomes the leader: it
///    takes the writer out of the shared state (so the mutex is **not**
///    held during I/O), writes every queued record in sequence order,
///    fsyncs once, then advances `durable_seq` and wakes all waiters.
///    Waiters that find a flush in progress simply sleep; by the time
///    they wake their batch is usually already on disk.
///
/// Because records are written strictly in sequence order, durability is
/// *prefix-closed*: when sequence `n` is durable, so is every sequence
/// below it — recovering a crash yields exactly an acknowledged prefix,
/// never a gap. An optional commit *window* makes a would-be leader wait
/// briefly before flushing so more committers can join the batch (larger
/// batches, one latency hit).
///
/// I/O errors latch: after the first failure every subsequent submit and
/// wait reports it, because a suspect tail must not acknowledge anything.
#[derive(Debug)]
pub struct GroupWal {
    state: Mutex<GroupState>,
    wakeup: Condvar,
    /// Whether the leader fsyncs each batch (durability) or leaves
    /// flushing to the OS (process-crash safety only).
    sync: bool,
    /// How long a would-be leader waits for more committers to join the
    /// batch before flushing. Zero flushes immediately.
    window: Duration,
}

impl GroupWal {
    /// Wraps an open [`WalWriter`] (which should itself be opened with
    /// `sync = false` — the group layer owns the fsync policy). `sync`
    /// decides whether each batch is fsynced; `window` is the commit
    /// window (see the type docs).
    pub fn new(writer: WalWriter, sync: bool, window: Duration) -> GroupWal {
        let records = writer.records();
        let bytes = writer.bytes();
        GroupWal {
            state: Mutex::new(GroupState {
                writer: Some(writer),
                queue: Vec::new(),
                enqueued_seq: 0,
                durable_seq: 0,
                error: None,
                records,
                bytes,
                durable_records: records,
                durable_bytes: bytes,
                feed: VecDeque::new(),
                feed_bytes: 0,
            }),
            wakeup: Condvar::new(),
            sync,
            window,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GroupState> {
        // Poisoning is recovered: state transitions below are written to
        // stay consistent across an unwind (the writer is restored before
        // any early return).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn latched(error: &Option<WalFault>) -> Option<io::Error> {
        error
            .as_ref()
            .map(|f| io::Error::other(format!("write-ahead log failed earlier: {f}")))
    }

    /// Enqueues one record for the next batch and returns its sequence
    /// number — pass it to [`GroupWal::wait_durable`] to block until the
    /// record is on disk. No I/O happens here.
    ///
    /// # Errors
    /// Oversized records and a previously latched I/O error.
    pub fn submit(&self, payload: Vec<u8>) -> io::Result<u64> {
        record_len(&payload)?;
        let mut state = self.lock();
        if let Some(e) = GroupWal::latched(&state.error) {
            return Err(e);
        }
        state.enqueued_seq += 1;
        state.records += 1;
        state.bytes += frame_len(payload.len());
        state.queue.push(payload);
        let seq = state.enqueued_seq;
        drop(state);
        // A sleeping would-be leader (commit window) may want to know the
        // batch grew; waking it is cheap.
        self.wakeup.notify_all();
        Ok(seq)
    }

    /// Blocks until sequence `seq` (from [`GroupWal::submit`]) is durable,
    /// leading a batch flush if no other waiter is. One fsync issued here
    /// acknowledges every record in the batch.
    ///
    /// # Errors
    /// The latched I/O error, if the log has failed (now or earlier).
    pub fn wait_durable(&self, seq: u64) -> io::Result<()> {
        let mut state = self.lock();
        let mut waited_window = false;
        loop {
            if let Some(e) = GroupWal::latched(&state.error) {
                return Err(e);
            }
            if state.durable_seq >= seq {
                return Ok(());
            }
            if state.writer.is_none() {
                // A leader is flushing; its notify_all will wake us.
                state = self
                    .wakeup
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // We could lead. Honor the commit window once: sleep briefly so
            // more committers join the batch, then flush whatever queued.
            if !self.window.is_zero() && !waited_window {
                waited_window = true;
                let (s, _) = self
                    .wakeup
                    .wait_timeout(state, self.window)
                    .unwrap_or_else(PoisonError::into_inner);
                state = s;
                continue;
            }
            state = self.lead_flush(state)?;
        }
    }

    /// Flushes every queued record as the leader. Takes the writer out of
    /// `state`, drops the lock for the I/O, restores the writer, advances
    /// `durable_seq` and wakes all waiters. Returns the re-acquired guard.
    #[allow(clippy::type_complexity)]
    fn lead_flush<'a>(
        &'a self,
        mut state: std::sync::MutexGuard<'a, GroupState>,
    ) -> io::Result<std::sync::MutexGuard<'a, GroupState>> {
        let mut writer = state.writer.take().expect("caller checked the writer");
        let batch: Vec<Vec<u8>> = std::mem::take(&mut state.queue);
        let batch_end = state.enqueued_seq;
        drop(state);

        let mut result: io::Result<()> = Ok(());
        let mut batch_bytes = 0u64;
        for payload in &batch {
            if let Err(e) = writer.append(payload) {
                result = Err(e);
                break;
            }
            batch_bytes += frame_len(payload.len());
        }
        if result.is_ok() && self.sync && !batch.is_empty() {
            let sync_start = Instant::now();
            result = writer.sync();
            obs::WAL_FSYNC_US.record(
                sync_start
                    .elapsed()
                    .as_micros()
                    .try_into()
                    .unwrap_or(u64::MAX),
            );
        }
        if !batch.is_empty() {
            obs::WAL_BATCH_EVENTS.record(batch.len() as u64);
            obs::WAL_FLUSHED_BYTES.add(batch_bytes);
        }

        let durable_extent = (writer.bytes(), writer.records());
        let mut state = self.lock();
        state.writer = Some(writer);
        match result {
            Ok(()) => {
                state.durable_seq = batch_end;
                (state.durable_bytes, state.durable_records) = durable_extent;
                // Feed the batch to the replication tail: the payloads are
                // durable now, so followers may see them. Moving them in is
                // free — the batch buffer is otherwise dropped here.
                let batch_start = batch_end + 1 - batch.len() as u64;
                for (i, payload) in batch.into_iter().enumerate() {
                    state.feed_bytes += payload.len();
                    state.feed.push_back((batch_start + i as u64, payload));
                }
                while state.feed.len() > FEED_MAX_EVENTS || state.feed_bytes > FEED_MAX_BYTES {
                    if let Some((_, dropped)) = state.feed.pop_front() {
                        state.feed_bytes -= dropped.len();
                    }
                }
            }
            Err(ref e) => {
                state.error = Some(WalFault::from_err(e));
                obs::WAL_DEGRADED.set(1);
            }
        }
        self.wakeup.notify_all();
        result.map(|()| state)
    }

    /// Drains the queue and forces everything to stable storage — fsyncs
    /// even when the log is not in per-batch sync mode (used before a
    /// checkpoint prunes the file). No-op on an empty, already-durable log.
    ///
    /// # Errors
    /// The latched I/O error.
    pub fn flush(&self) -> io::Result<()> {
        let target = self.lock().enqueued_seq;
        self.wait_durable(target)?;
        // In no-sync mode wait_durable wrote without fsyncing; force it.
        if !self.sync {
            let mut state = self.lock();
            loop {
                if let Some(e) = GroupWal::latched(&state.error) {
                    return Err(e);
                }
                match state.writer.as_mut() {
                    Some(writer) => {
                        if let Err(e) = writer.sync() {
                            state.error = Some(WalFault::from_err(&e));
                            obs::WAL_DEGRADED.set(1);
                            self.wakeup.notify_all();
                            return Err(e);
                        }
                        break;
                    }
                    None => {
                        state = self
                            .wakeup
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
        Ok(())
    }

    /// Swaps in a fresh generation's writer after draining the current
    /// one (checkpoint rotation). Concurrent submits landing after the
    /// drain re-drain before the swap, so no enqueued record is stranded
    /// in the pruned file.
    ///
    /// # Errors
    /// The latched I/O error (the new writer is dropped unused).
    pub fn rotate(&self, new_writer: WalWriter) -> io::Result<()> {
        loop {
            self.flush()?;
            let mut state = self.lock();
            if let Some(e) = GroupWal::latched(&state.error) {
                return Err(e);
            }
            if state.writer.is_none() || !state.queue.is_empty() {
                drop(state); // a flush or late submit raced in; re-drain
                continue;
            }
            state.records = new_writer.records();
            state.bytes = new_writer.bytes();
            state.durable_records = new_writer.records();
            state.durable_bytes = new_writer.bytes();
            state.writer = Some(new_writer);
            // Sequences keep counting across generations: outstanding
            // tickets from the drained generation stay satisfied, and the
            // replication feed keeps serving records that now live only
            // in the pruned generation's file.
            state.durable_seq = state.enqueued_seq;
            return Ok(());
        }
    }

    /// The latched fault, if the log has failed and not been re-armed.
    /// A faulted log refuses every submit and wait — the owning service
    /// should degrade to read-only and report this.
    pub fn fault(&self) -> Option<WalFault> {
        self.lock().error.clone()
    }

    /// Clears a latched fault by installing a fresh generation's writer.
    /// Only sound after the caller has made the in-memory state durable
    /// some other way (a full snapshot): the suspect generation's queued
    /// records are dropped — their committers were already refused — and
    /// sequence numbering continues so stale tickets stay satisfied.
    ///
    /// Blocks briefly if a leader is still mid-flush on the old writer.
    pub fn clear_fault(&self, new_writer: WalWriter) {
        let mut state = self.lock();
        // A leader that took the writer will restore it and notify; wait
        // so its restore cannot clobber the fresh writer afterwards.
        while state.writer.is_none() {
            state = self
                .wakeup
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.queue.clear();
        state.error = None;
        obs::WAL_DEGRADED.set(0);
        state.records = new_writer.records();
        state.bytes = new_writer.bytes();
        state.durable_records = new_writer.records();
        state.durable_bytes = new_writer.bytes();
        state.writer = Some(new_writer);
        state.durable_seq = state.enqueued_seq;
        self.wakeup.notify_all();
    }

    /// Records enqueued this generation (equals the on-disk record count
    /// once the queue drains — e.g. right after [`GroupWal::flush`]).
    pub fn records(&self) -> u64 {
        self.lock().records
    }

    /// Bytes enqueued this generation, framing included.
    pub fn bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// The durable extent as one consistent triple — `(sequence, bytes,
    /// records)` all observed under a single lock acquisition, so a
    /// replication bootstrap reading the file up to `bytes` sees exactly
    /// the records acknowledged through `sequence`.
    pub fn durable_extent(&self) -> (u64, u64, u64) {
        let state = self.lock();
        (
            state.durable_seq,
            state.durable_bytes,
            state.durable_records,
        )
    }

    /// Collects durable records with sequence numbers above `from` for a
    /// replication follower: up to `max` of them, blocking up to `wait`
    /// when none are available yet (long-poll). An empty batch after the
    /// wait is normal — the caller just polls again.
    ///
    /// # Errors
    /// `ErrorKind::NotFound` when `from` predates the bounded feed's
    /// retained history (the follower must re-bootstrap from a snapshot),
    /// and the latched I/O error when the log has faulted.
    pub fn collect_since(&self, from: u64, max: usize, wait: Duration) -> io::Result<FeedBatch> {
        let deadline = Instant::now() + wait;
        let mut state = self.lock();
        loop {
            if let Some(e) = GroupWal::latched(&state.error) {
                return Err(e);
            }
            let floor = state.feed_floor();
            if from < floor {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "replication history pruned: requested events after {from}, \
                         oldest retained is {}",
                        floor + 1
                    ),
                ));
            }
            if state.durable_seq > from {
                let events: Vec<(u64, Vec<u8>)> = state
                    .feed
                    .iter()
                    .skip_while(|&&(seq, _)| seq <= from)
                    .take(max)
                    .cloned()
                    .collect();
                // `durable_seq > from` with no feed entries above `from`
                // can only mean a fault-cleared gap (records refused and
                // dropped); report the durable seq so the follower skips
                // past the gap instead of spinning.
                return Ok(FeedBatch {
                    events,
                    durable_seq: state.durable_seq,
                });
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(FeedBatch {
                    events: Vec::new(),
                    durable_seq: state.durable_seq,
                });
            }
            let (s, _) = self
                .wakeup
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner);
            state = s;
        }
    }
}

// -------------------------------------------------------------- snapshots

/// Frames a snapshot payload (magic, version, length, checksum).
fn frame_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a framed snapshot file's bytes and returns the payload.
fn unframe_snapshot(bytes: &[u8]) -> Option<Vec<u8>> {
    if bytes.len() < 24 || &bytes[..8] != SNAPSHOT_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return None;
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let payload = bytes.get(24..)?;
    if payload.len() as u64 != len || crc32(payload) != crc {
        return None;
    }
    Some(payload.to_vec())
}

/// Best-effort directory fsync (makes renames/creations durable on Unix;
/// silently skipped where directories cannot be opened).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A persistence directory holding snapshot/WAL generations.
#[derive(Debug)]
pub struct DataDir {
    root: PathBuf,
}

impl DataDir {
    /// Opens (creating if needed) a data directory.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DataDir> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DataDir { root })
    }

    /// The directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of generation `generation`'s WAL file.
    pub fn wal_path(&self, generation: u64) -> PathBuf {
        self.root.join(format!("wal-{generation}.log"))
    }

    /// Path of generation `generation`'s snapshot file.
    pub fn snapshot_path(&self, generation: u64) -> PathBuf {
        self.root.join(format!("snapshot-{generation}.img"))
    }

    /// Generations that have a snapshot file, newest first.
    pub fn snapshot_generations(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries
                .flatten()
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().to_string();
                    name.strip_prefix("snapshot-")?
                        .strip_suffix(".img")?
                        .parse()
                        .ok()
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        gens.sort_unstable_by(|a, b| b.cmp(a));
        gens
    }

    /// The newest snapshot whose checksum validates, as
    /// `(generation, payload)`; `None` for a fresh or fully-corrupt
    /// directory (recovery then starts from generation 0 with empty state).
    pub fn newest_valid_snapshot(&self) -> Option<(u64, Vec<u8>)> {
        for generation in self.snapshot_generations() {
            if let Ok(bytes) = std::fs::read(self.snapshot_path(generation)) {
                if let Some(payload) = unframe_snapshot(&bytes) {
                    return Some((generation, payload));
                }
            }
        }
        None
    }

    /// Atomically writes generation `generation`'s snapshot: temp file,
    /// fsync, rename, directory fsync. Returns the on-disk size.
    ///
    /// # Errors
    /// Propagates I/O errors (the previous generation stays intact).
    pub fn write_snapshot(&self, generation: u64, payload: &[u8]) -> io::Result<u64> {
        let framed = frame_snapshot(payload);
        let tmp = self.root.join(format!("snapshot-{generation}.tmp"));
        if let Some(injected) = crate::fail::fire("snapshot.write") {
            // Leave a half-written temp file behind; it must never be
            // mistaken for a snapshot (recovery prunes stray `*.tmp`).
            let _ = std::fs::write(&tmp, &framed[..framed.len() / 2]);
            return Err(crate::fail::error_of(injected));
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&framed)?;
            f.sync_all()?;
        }
        if let Some(injected) = crate::fail::fire("snapshot.rename") {
            return Err(crate::fail::error_of(injected));
        }
        std::fs::rename(&tmp, self.snapshot_path(generation))?;
        sync_dir(&self.root);
        Ok(framed.len() as u64)
    }

    /// Opens generation `generation`'s WAL for appending (creating it and
    /// fsyncing the directory if new — [`WalWriter::open_at`] handles the
    /// directory entry's durability).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn open_wal(&self, generation: u64, sync: bool) -> io::Result<(WalWriter, WalScan)> {
        WalWriter::open(&self.wal_path(generation), sync)
    }

    /// Deletes snapshot/WAL files of generations older than `keep`
    /// (best-effort; used after a checkpoint).
    pub fn prune_generations_before(&self, keep: u64) {
        self.prune_where(|g| g < keep);
    }

    /// Deletes snapshot/WAL files of every generation *except* `keep`
    /// (best-effort; used at recovery). Removing stale *newer*
    /// generations matters: when the newest snapshot fails validation and
    /// recovery falls back, a leftover `wal-<N>.log` must not survive —
    /// a later checkpoint reaching generation N would otherwise append
    /// into it and the following boot would replay the stale
    /// pre-corruption records into fresh state.
    pub fn prune_generations_except(&self, keep: u64) {
        self.prune_where(|g| g != keep);
    }

    fn prune_where(&self, doomed: impl Fn(u64) -> bool) {
        // Pruning is best-effort: an injected failure models a directory
        // that cannot be cleaned right now. Old generations linger
        // harmlessly and the next checkpoint retries.
        if crate::fail::fire("checkpoint.prune").is_some() {
            return;
        }
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            let generation = name
                .strip_prefix("snapshot-")
                .and_then(|r| r.strip_suffix(".img"))
                .or_else(|| {
                    name.strip_prefix("wal-")
                        .and_then(|r| r.strip_suffix(".log"))
                })
                .and_then(|g| g.parse::<u64>().ok());
            let stale_tmp = name.ends_with(".tmp");
            if stale_tmp || generation.is_some_and(&doomed) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Reads a framed snapshot file directly (validating magic, version and
/// checksum). Used by tests and tooling; recovery goes through
/// [`DataDir::newest_valid_snapshot`].
///
/// # Errors
/// I/O errors propagate; validation failures return `Ok(None)`.
pub fn read_snapshot_file(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
            Ok(unframe_snapshot(&bytes))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icdb-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn wal_appends_and_scans_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("wal-0.log");
        let (mut w, scan) = WalWriter::open(&path, false).unwrap();
        assert!(scan.records.is_empty());
        w.append(b"alpha").unwrap();
        // An empty record would frame as a zero header, the end of the log.
        let empty = w.append(b"").unwrap_err();
        assert_eq!(empty.kind(), io::ErrorKind::InvalidInput);
        w.append(&[0xFFu8; 300]).unwrap();
        assert_eq!(w.records(), 2);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], b"alpha");
        assert_eq!(scan.records[1], vec![0xFFu8; 300]);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, w.bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = temp_dir("torn");
        let path = dir.join("wal-0.log");
        let (mut w, _) = WalWriter::open(&path, false).unwrap();
        w.append(b"keep me").unwrap();
        let good_len = w.bytes();
        w.append(b"about to be torn").unwrap();
        drop(w);
        // Tear the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, good_len);
        // Re-opening truncates the tear and appends cleanly after it.
        let (mut w, scan) = WalWriter::open(&path, false).unwrap();
        assert_eq!(scan.records.len(), 1);
        w.append(b"after recovery").unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.torn);
        assert_eq!(scan.records[1], b"after recovery");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_checksum_stops_the_scan() {
        let dir = temp_dir("corrupt");
        let path = dir.join("wal-0.log");
        let (mut w, _) = WalWriter::open(&path, false).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_files_validate_and_reject_corruption() {
        let dir = temp_dir("snap");
        let data = DataDir::open(&dir).unwrap();
        assert!(data.newest_valid_snapshot().is_none());
        data.write_snapshot(1, b"state one").unwrap();
        data.write_snapshot(2, b"state two").unwrap();
        let (generation, payload) = data.newest_valid_snapshot().unwrap();
        assert_eq!((generation, payload.as_slice()), (2, &b"state two"[..]));
        // Corrupt the newest snapshot: recovery falls back to the older one.
        let mut bytes = std::fs::read(data.snapshot_path(2)).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(data.snapshot_path(2), &bytes).unwrap();
        let (generation, payload) = data.newest_valid_snapshot().unwrap();
        assert_eq!((generation, payload.as_slice()), (1, &b"state one"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_round_trips_and_counts_like_the_plain_writer() {
        let dir = temp_dir("group-roundtrip");
        let path = dir.join("wal-0.log");
        let (writer, _) = WalWriter::open(&path, false).unwrap();
        let group = GroupWal::new(writer, true, Duration::ZERO);
        let a = group.submit(b"alpha".to_vec()).unwrap();
        let b = group.submit(b"beta".to_vec()).unwrap();
        assert!(a < b);
        assert_eq!(group.records(), 2);
        // Counts reflect enqueued records even before anything is flushed…
        assert_eq!(scan_wal(&path).unwrap().records.len(), 0);
        group.wait_durable(b).unwrap();
        // …and equal the on-disk count once the queue drains.
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], b"alpha");
        assert_eq!(scan.records[1], b"beta");
        assert_eq!(group.bytes(), scan.valid_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Durability is prefix-closed: waiting on a later sequence also makes
    /// every earlier one durable, and concurrent committers' records land
    /// in sequence order.
    #[test]
    fn group_commit_acknowledges_concurrent_committers_in_order() {
        let dir = temp_dir("group-concurrent");
        let path = dir.join("wal-0.log");
        let (writer, _) = WalWriter::open(&path, false).unwrap();
        let group = std::sync::Arc::new(GroupWal::new(writer, true, Duration::from_millis(2)));
        let threads = 8;
        let per_thread = 5;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let group = std::sync::Arc::clone(&group);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let seq = group.submit(format!("t{t}-{i}").into_bytes()).unwrap();
                        group.wait_durable(seq).unwrap();
                    }
                });
            }
        });
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), threads * per_thread);
        // Sequence order == file order: each thread's own records appear
        // in its submission order.
        for t in 0..threads {
            let mine: Vec<&Vec<u8>> = scan
                .records
                .iter()
                .filter(|r| r.starts_with(format!("t{t}-").as_bytes()))
                .collect();
            let expect: Vec<Vec<u8>> = (0..per_thread)
                .map(|i| format!("t{t}-{i}").into_bytes())
                .collect();
            assert_eq!(mine.len(), per_thread);
            for (got, want) in mine.iter().zip(&expect) {
                assert_eq!(***got, *want.as_slice());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_rotate_drains_then_swaps_generations() {
        let dir = temp_dir("group-rotate");
        let p0 = dir.join("wal-0.log");
        let p1 = dir.join("wal-1.log");
        let (w0, _) = WalWriter::open(&p0, false).unwrap();
        let group = GroupWal::new(w0, false, Duration::ZERO);
        group.submit(b"old gen".to_vec()).unwrap();
        // Rotation must not lose the queued-but-unflushed record.
        let (w1, _) = WalWriter::open(&p1, false).unwrap();
        group.rotate(w1).unwrap();
        assert_eq!(scan_wal(&p0).unwrap().records.len(), 1);
        assert_eq!(group.records(), 0);
        let seq = group.submit(b"new gen".to_vec()).unwrap();
        group.wait_durable(seq).unwrap();
        let scan = scan_wal(&p1).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0], b"new gen");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_oversized_submit_fails_without_poisoning_the_log() {
        let dir = temp_dir("group-oversize");
        let (writer, _) = WalWriter::open(&dir.join("wal-0.log"), false).unwrap();
        let group = GroupWal::new(writer, false, Duration::ZERO);
        let huge = vec![0u8; MAX_RECORD_LEN as usize + 1];
        assert!(group.submit(huge).is_err());
        let empty = group.submit(Vec::new()).unwrap_err();
        assert_eq!(empty.kind(), io::ErrorKind::InvalidInput);
        assert!(group.fault().is_none());
        // Not an I/O failure: the log still accepts records.
        let seq = group.submit(b"fine".to_vec()).unwrap();
        group.wait_durable(seq).unwrap();
        assert_eq!(group.records(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_extent_tracks_flushes_and_matches_the_file() {
        let dir = temp_dir("extent");
        let path = dir.join("wal-0.log");
        let (writer, _) = WalWriter::open(&path, false).unwrap();
        let group = GroupWal::new(writer, false, Duration::ZERO);
        assert_eq!(group.durable_extent(), (0, 0, 0));
        let seq = group.submit(b"one".to_vec()).unwrap();
        group.submit(b"two".to_vec()).unwrap();
        // Enqueued but unflushed records are not part of the durable extent.
        assert_eq!(group.durable_extent(), (0, 0, 0));
        group.wait_durable(seq).unwrap();
        let (dseq, dbytes, drecords) = group.durable_extent();
        assert_eq!((dseq, drecords), (2, 2));
        assert_eq!(dbytes, scan_wal(&path).unwrap().valid_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn feed_serves_only_durable_records_in_order() {
        let dir = temp_dir("feed");
        let (writer, _) = WalWriter::open(&dir.join("wal-0.log"), false).unwrap();
        let group = GroupWal::new(writer, false, Duration::ZERO);
        // Nothing durable yet: an expired wait returns an empty batch.
        let batch = group.collect_since(0, 16, Duration::ZERO).unwrap();
        assert!(batch.events.is_empty());
        assert_eq!(batch.durable_seq, 0);
        let mut last = 0;
        for payload in [&b"a"[..], b"b", b"c"] {
            last = group.submit(payload.to_vec()).unwrap();
        }
        group.wait_durable(last).unwrap();
        let batch = group.collect_since(0, 16, Duration::ZERO).unwrap();
        assert_eq!(batch.durable_seq, 3);
        let got: Vec<(u64, Vec<u8>)> = batch.events;
        assert_eq!(
            got,
            vec![(1, b"a".to_vec()), (2, b"b".to_vec()), (3, b"c".to_vec())]
        );
        // Resume mid-stream, bounded by `max`.
        let batch = group.collect_since(1, 1, Duration::ZERO).unwrap();
        assert_eq!(batch.events, vec![(2, b"b".to_vec())]);
        // Fully caught up: empty batch, no error.
        assert!(group
            .collect_since(3, 16, Duration::ZERO)
            .unwrap()
            .events
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn feed_long_poll_wakes_on_new_durable_records() {
        let dir = temp_dir("feed-poll");
        let (writer, _) = WalWriter::open(&dir.join("wal-0.log"), false).unwrap();
        let group = std::sync::Arc::new(GroupWal::new(writer, false, Duration::ZERO));
        let tail = std::sync::Arc::clone(&group);
        let waiter = std::thread::spawn(move || tail.collect_since(0, 16, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        let seq = group.submit(b"wakeup".to_vec()).unwrap();
        group.wait_durable(seq).unwrap();
        let batch = waiter.join().unwrap().unwrap();
        assert_eq!(batch.events, vec![(1, b"wakeup".to_vec())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn feed_prunes_history_and_reports_the_gap() {
        let dir = temp_dir("feed-prune");
        let (writer, _) = WalWriter::open(&dir.join("wal-0.log"), false).unwrap();
        let group = GroupWal::new(writer, false, Duration::ZERO);
        let total = super::FEED_MAX_EVENTS as u64 + 10;
        let mut last = 0;
        for i in 0..total {
            last = group.submit(format!("r{i}").into_bytes()).unwrap();
        }
        group.wait_durable(last).unwrap();
        // The oldest records fell off the bounded feed: asking for them
        // must fail loudly (the follower re-bootstraps)…
        let err = group.collect_since(0, 16, Duration::ZERO).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("pruned"));
        // …while the retained tail still serves.
        let batch = group.collect_since(total - 1, 16, Duration::ZERO).unwrap();
        assert_eq!(batch.events.len(), 1);
        assert_eq!(batch.events[0].0, total);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_prefix_read_stops_at_the_durable_limit() {
        let dir = temp_dir("prefix-read");
        let path = dir.join("wal-0.log");
        let (mut w, _) = WalWriter::open(&path, false).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        let after_second = w.bytes();
        // A limit inside the second frame yields only the first record,
        // even though the whole frame is on disk.
        assert_eq!(
            read_wal_prefix(&path, after_second - 3).unwrap(),
            vec![b"first".to_vec()]
        );
        assert_eq!(
            read_wal_prefix(&path, after_second).unwrap(),
            vec![b"first".to_vec(), b"second".to_vec()]
        );
        assert!(read_wal_prefix(&path, 0).unwrap().is_empty());
        // A missing log is an error, not an empty prefix.
        assert!(read_wal_prefix(&dir.join("wal-9.log"), 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The on-disk frame layout, pinned as literal bytes.
    #[test]
    fn frames_match_the_on_disk_format() {
        // The CRC-32 of an empty payload is 0, so an empty record would
        // frame as eight zero bytes, the end of the log: it is refused.
        assert_eq!(
            encode_frame(b"").unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            encode_frame(b"abc").unwrap(),
            [0x03, 0x00, 0x00, 0x00, 0xc2, 0x41, 0x24, 0x35, b'a', b'b', b'c']
        );
        let dir = temp_dir("format");
        let path = dir.join("wal-0.log");
        #[rustfmt::skip]
        let image = [
            0x03, 0x00, 0x00, 0x00, 0xc2, 0x41, 0x24, 0x35, b'a', b'b', b'c',
            0x05, 0x00, 0x00, 0x00, 0x86, 0xa6, 0x10, 0x36, b'h', b'e', b'l', b'l', b'o',
        ];
        std::fs::write(&path, image).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"abc".to_vec(), b"hello".to_vec()]);
        assert_eq!(scan.valid_len, image.len() as u64);
        assert!(!scan.torn);
        assert_eq!(scan.prefix_len(1), 11);
        // The same image followed by a zero region scans the same, clean.
        let mut zero_tailed = image.to_vec();
        zero_tailed.resize(image.len() + ZERO_STEP, 0);
        std::fs::write(&path, &zero_tailed).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"abc".to_vec(), b"hello".to_vec()]);
        assert_eq!(scan.valid_len, image.len() as u64);
        assert!(!scan.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The file beside a live writer: its valid bytes, then only zeros,
    /// never more than `ZERO_STEP` of them.
    fn assert_zero_tail(path: &Path, w: &WalWriter) {
        let bytes = std::fs::read(path).unwrap();
        let valid = w.bytes() as usize;
        assert!(bytes.len() >= valid && bytes.len() - valid <= ZERO_STEP);
        assert!(bytes[valid..].iter().all(|&b| b == 0));
    }

    /// Records totalling several zero steps cross each extension and scan
    /// back identical; a clean close leaves exactly the valid bytes.
    #[test]
    fn records_crossing_zero_extensions_scan_back_identical() {
        let dir = temp_dir("zero-extend");
        let path = dir.join("wal-0.log");
        let (mut w, _) = WalWriter::open(&path, false).unwrap();
        let records: Vec<Vec<u8>> = (0..700u32)
            .map(|i| vec![(i % 251 + 1) as u8; 1 + (i as usize * 37) % 400])
            .collect();
        assert!(records.iter().map(Vec::len).sum::<usize>() > 2 * ZERO_STEP);
        for record in &records {
            w.append(record).unwrap();
            assert_zero_tail(&path, &w);
        }
        // One record larger than a whole step extends past it too.
        let large = vec![0xA5u8; ZERO_STEP + 100];
        w.append(&large).unwrap();
        assert_zero_tail(&path, &w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records[..records.len()], records[..]);
        assert_eq!(scan.records.last(), Some(&large));
        assert_eq!(scan.valid_len, w.bytes());
        assert!(!scan.torn);
        let valid = w.bytes();
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);
        assert_eq!(scan_wal(&path).unwrap().records, scan.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash leaves the zero tail in place: a clean prefix followed by
    /// zeros scans clean, a torn half-record followed by zeros is torn,
    /// and reopening cuts either back to the records.
    #[test]
    fn a_zero_tail_ends_the_log_cleanly_and_a_torn_one_is_cut() {
        let dir = temp_dir("zero-crash");
        let path = dir.join("wal-0.log");
        let (mut w, _) = WalWriter::open(&path, false).unwrap();
        w.append(b"kept").unwrap();
        let kept = w.bytes();
        w.append(b"torn in half").unwrap();
        // The crash image: the live file, zero tail and all.
        let image = std::fs::read(&path).unwrap();
        drop(w);
        assert!(image.len() as u64 > kept + frame_len(12));

        let mut clean = image[..kept as usize].to_vec();
        clean.resize(image.len(), 0);
        std::fs::write(&path, &clean).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(
            (scan.records.len(), scan.valid_len, scan.torn),
            (1, kept, false)
        );

        let mut torn = image[..kept as usize + 10].to_vec();
        torn.resize(image.len(), 0);
        std::fs::write(&path, &torn).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(
            (scan.records.len(), scan.valid_len, scan.torn),
            (1, kept, true)
        );

        let (mut w, scan) = WalWriter::open(&path, false).unwrap();
        assert_eq!(scan.records, vec![b"kept".to_vec()]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), kept);
        w.append(b"after").unwrap();
        drop(w);
        assert_eq!(
            scan_wal(&path).unwrap().records,
            vec![b"kept".to_vec(), b"after".to_vec()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A replication bootstrap reads a live log, zero tail and all: up to
    /// the durable extent it returns exactly the durable records, and even
    /// an unbounded read stops at the zeros.
    #[test]
    fn durable_prefix_read_of_a_live_log_skips_its_zero_tail() {
        let dir = temp_dir("prefix-zero-tail");
        let path = dir.join("wal-0.log");
        let (writer, _) = WalWriter::open(&path, false).unwrap();
        let group = GroupWal::new(writer, true, Duration::ZERO);
        let records: Vec<Vec<u8>> = (0..5u8).map(|i| vec![b'r', i]).collect();
        let mut last = 0;
        for record in &records {
            last = group.submit(record.clone()).unwrap();
        }
        group.wait_durable(last).unwrap();
        let (_, durable_bytes, _) = group.durable_extent();
        assert!(std::fs::metadata(&path).unwrap().len() > durable_bytes);
        assert_eq!(read_wal_prefix(&path, durable_bytes).unwrap(), records);
        assert_eq!(read_wal_prefix(&path, u64::MAX).unwrap(), records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_removes_old_generations_and_stale_tmp() {
        let dir = temp_dir("prune");
        let data = DataDir::open(&dir).unwrap();
        data.write_snapshot(1, b"one").unwrap();
        data.write_snapshot(2, b"two").unwrap();
        data.open_wal(1, false).unwrap();
        data.open_wal(2, false).unwrap();
        std::fs::write(dir.join("snapshot-3.tmp"), b"half-written").unwrap();
        data.prune_generations_before(2);
        assert!(!data.snapshot_path(1).exists());
        assert!(!data.wal_path(1).exists());
        assert!(data.snapshot_path(2).exists());
        assert!(data.wal_path(2).exists());
        assert!(!dir.join("snapshot-3.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
