//! The redo write-ahead log: 64-B-block-aligned records with
//! checksummed commit markers.
//!
//! The log is a fixed run of blocks inside the store's heap
//! allocation. A transaction appends one *write record* (two blocks:
//! meta + payload) per block it will modify, then one single-block
//! *commit marker*, then applies the writes in place and rewinds the
//! in-memory cursor — the classical redo protocol, with every step
//! made durable through [`SecureMemory::persist`] so the engine's
//! atomic-persist machinery orders it.
//!
//! ## Record format (all integers little-endian)
//!
//! ```text
//! write meta block:  magic u32 @0 | kind=1 u8 @4 | seq u64 @8
//!                    | target u64 @16 | checksum u64 @24
//! write payload:     the full 64-byte new content of `target`
//! commit marker:     magic u32 @0 | kind=2 u8 @4 | seq u64 @8
//!                    | write_count u64 @16 | checksum u64 @24
//! ```
//!
//! Checksums are SipHash-2-4 under a fixed key over
//! `seq ‖ target ‖ payload` (write records) or `seq ‖ write_count`
//! (commit markers). They are *framing*, not security — the engine's
//! MACs and Bonsai Merkle Trees own integrity — and exist so recovery
//! can tell a torn tail from a complete record.
//!
//! ## Recovery scan
//!
//! [`RedoLog::replay`] scans from block 0. Transactions carry strictly
//! increasing sequence numbers, so stale records left over from an
//! earlier, longer transaction are recognised (their `seq` is not the
//! one the scan expects) and the scan stops. A record whose checksum
//! fails with a valid-looking magic is a torn tail; an all-zero block
//! is a clean end. Only a transaction whose commit marker verifies is
//! applied; replay is idempotent, so re-crashing during replay and
//! replaying again is safe. No durable log cursor exists — the cursor
//! is in-memory and rewound after apply, which is correct precisely
//! because replay re-derives everything from the records themselves.

use triad_core::{LogReplayStats, SecureMemory, WriteBatch};
use triad_crypto::SipHash24;
use triad_sim::{PhysAddr, BLOCK_BYTES};

use crate::{KvError, Result};

/// Magic leading every log record ("TKVL").
const LOG_MAGIC: u32 = u32::from_le_bytes(*b"TKVL");
const KIND_WRITE: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// Fixed SipHash-2-4 key for record framing checksums (not secret:
/// torn-write detection only).
fn framing_hash() -> SipHash24 {
    SipHash24::new(*b"triad-kv log fmt")
}

fn read_u64(buf: &[u8; BLOCK_BYTES], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

fn write_checksum(seq: u64, target: u64, payload: &[u8; BLOCK_BYTES]) -> u64 {
    let mut buf = [0u8; 16 + BLOCK_BYTES];
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    buf[8..16].copy_from_slice(&target.to_le_bytes());
    buf[16..].copy_from_slice(payload);
    framing_hash().hash(&buf)
}

fn commit_checksum(seq: u64, count: u64) -> u64 {
    framing_hash().hash_words(&[seq, count])
}

/// The write-ahead log of one [`crate::KvStore`] shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedoLog {
    base: PhysAddr,
    blocks: u64,
    /// Next free block index — volatile; recovery re-derives it.
    cursor: u64,
}

impl RedoLog {
    /// A log over `blocks` 64-B blocks starting at `base`.
    pub fn new(base: PhysAddr, blocks: u64) -> Self {
        RedoLog {
            base,
            blocks,
            cursor: 0,
        }
    }

    /// Log capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.blocks
    }

    /// Blocks still free before the next rewind.
    pub fn free_blocks(&self) -> u64 {
        self.blocks - self.cursor
    }

    fn block_addr(&self, index: u64) -> PhysAddr {
        PhysAddr(self.base.0 + index * BLOCK_BYTES as u64)
    }

    /// Appends a whole transaction — every write record plus the
    /// commit marker — through one engine [`WriteBatch`].
    ///
    /// Members are pushed in log order and each member is its own
    /// durability point inside the batch, so a crash anywhere leaves a
    /// durable *prefix* of the records: the commit marker is durable
    /// only once every record before it is, while the AES pad pass and
    /// the coalesced metadata commit are shared across the transaction
    /// (log blocks are consecutive, so their counters, MACs and BMT
    /// ancestors merge almost perfectly).
    ///
    /// # Errors
    ///
    /// [`KvError::LogFull`] when the transaction does not fit.
    pub fn append_txn(
        &mut self,
        mem: &mut SecureMemory,
        seq: u64,
        writes: &[(PhysAddr, [u8; BLOCK_BYTES])],
    ) -> Result<()> {
        let needed = 2 * writes.len() as u64 + 1;
        if self.cursor + needed > self.blocks {
            return Err(KvError::LogFull);
        }
        let mut batch = WriteBatch::new();
        let mut cursor = self.cursor;
        for (target, payload) in writes {
            let mut meta = [0u8; BLOCK_BYTES];
            meta[..4].copy_from_slice(&LOG_MAGIC.to_le_bytes());
            meta[4] = KIND_WRITE;
            meta[8..16].copy_from_slice(&seq.to_le_bytes());
            meta[16..24].copy_from_slice(&target.0.to_le_bytes());
            meta[24..32].copy_from_slice(&write_checksum(seq, target.0, payload).to_le_bytes());
            batch.push(self.block_addr(cursor).block(), meta);
            batch.push(self.block_addr(cursor + 1).block(), *payload);
            cursor += 2;
        }
        let mut marker = [0u8; BLOCK_BYTES];
        marker[..4].copy_from_slice(&LOG_MAGIC.to_le_bytes());
        marker[4] = KIND_COMMIT;
        marker[8..16].copy_from_slice(&seq.to_le_bytes());
        marker[16..24].copy_from_slice(&(writes.len() as u64).to_le_bytes());
        marker[24..32].copy_from_slice(&commit_checksum(seq, writes.len() as u64).to_le_bytes());
        batch.push(self.block_addr(cursor).block(), marker);
        mem.apply_batch(&batch)?;
        self.cursor = cursor + 1;
        Ok(())
    }

    /// Rewinds the in-memory cursor after a transaction's writes have
    /// been applied in place. The records stay in NVM; the next
    /// transaction's higher sequence number makes them unambiguously
    /// stale to any future replay.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Scans the log from block 0, applying every fully-committed
    /// transaction (idempotent redo), and returns the replay stats plus
    /// the highest sequence number seen (0 when the log was empty) so
    /// the store can resume numbering above it.
    ///
    /// # Errors
    ///
    /// Propagates secure-memory errors (a tampered log surfaces as a
    /// MAC/BMT failure from the engine, never as a silent wrong apply).
    pub fn replay(&mut self, mem: &mut SecureMemory) -> Result<(LogReplayStats, u64)> {
        let mut stats = LogReplayStats::default();
        let mut max_seq = 0u64;
        let mut pending: Vec<(PhysAddr, [u8; BLOCK_BYTES])> = Vec::new();
        let mut pending_seq: Option<u64> = None;
        // Once a commit has been applied, anything unparseable past it
        // is leftovers of *earlier* transactions (appends always start
        // at block 0, so a fresh partial transaction is seen before any
        // commit marker) — stale, not torn.
        let mut committed = false;
        let mut i = 0u64;
        while i < self.blocks {
            let block = mem.read(self.block_addr(i))?;
            if block == [0u8; BLOCK_BYTES] {
                break; // clean end: fresh log space
            }
            let magic = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            if magic != LOG_MAGIC {
                stats.torn_tail = !committed;
                break;
            }
            let kind = block[4];
            let seq = read_u64(&block, 8);
            match kind {
                KIND_WRITE => {
                    // A new transaction must carry a seq above anything
                    // seen; anything else is a stale leftover from an
                    // earlier, longer transaction.
                    match pending_seq {
                        None if seq <= max_seq => break,
                        Some(s) if seq != s => break,
                        _ => {}
                    }
                    if i + 1 >= self.blocks {
                        stats.torn_tail = !committed;
                        break;
                    }
                    let target = read_u64(&block, 16);
                    let payload = mem.read(self.block_addr(i + 1))?;
                    if read_u64(&block, 24) != write_checksum(seq, target, &payload) {
                        stats.torn_tail = !committed;
                        break;
                    }
                    pending_seq = Some(seq);
                    max_seq = max_seq.max(seq);
                    pending.push((PhysAddr(target), payload));
                    stats.records_scanned += 1;
                    i += 2;
                }
                KIND_COMMIT => {
                    let count = read_u64(&block, 16);
                    if read_u64(&block, 24) != commit_checksum(seq, count) {
                        stats.torn_tail = !committed;
                        break;
                    }
                    if pending_seq != Some(seq) || count != pending.len() as u64 {
                        break; // stale marker from an earlier transaction
                    }
                    stats.records_scanned += 1;
                    for (target, payload) in pending.drain(..) {
                        mem.write(target, &payload)?;
                        mem.persist(target)?;
                        stats.writes_applied += 1;
                    }
                    stats.txns_applied += 1;
                    committed = true;
                    pending_seq = None;
                    i += 1;
                }
                _ => {
                    stats.torn_tail = !committed;
                    break;
                }
            }
        }
        stats.records_discarded += pending.len() as u64;
        self.cursor = 0;
        Ok((stats, max_seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_core::{PersistScheme, SecureMemoryBuilder, SecureMemoryError};

    fn mem() -> SecureMemory {
        SecureMemoryBuilder::new()
            .scheme(PersistScheme::triad_nvm(2))
            .build()
            .unwrap()
    }

    /// A log at the start of the persistent region plus one data block
    /// right after it.
    fn setup(mem: &mut SecureMemory, blocks: u64) -> (RedoLog, PhysAddr) {
        let base = mem.persistent_region().start();
        (
            RedoLog::new(base, blocks),
            PhysAddr(base.0 + blocks * BLOCK_BYTES as u64),
        )
    }

    /// A one-write transaction: meta, payload, marker.
    fn one(target: PhysAddr, byte: u8) -> [(PhysAddr, [u8; BLOCK_BYTES]); 1] {
        [(target, [byte; BLOCK_BYTES])]
    }

    #[test]
    fn committed_txn_replays_after_crash_before_apply() {
        let mut m = mem();
        let (mut log, data) = setup(&mut m, 8);
        log.append_txn(&mut m, 1, &one(data, 7)).unwrap();
        // Crash before the in-place apply.
        m.crash();
        m.recover().unwrap();
        let mut log = RedoLog::new(log.base, log.blocks);
        let (stats, max_seq) = log.replay(&mut m).unwrap();
        assert_eq!(stats.txns_applied, 1);
        assert_eq!(stats.writes_applied, 1);
        assert_eq!(stats.records_scanned, 2);
        assert_eq!(stats.records_discarded, 0);
        assert!(!stats.torn_tail);
        assert_eq!(max_seq, 1);
        assert_eq!(m.read(data).unwrap(), [7u8; 64]);
    }

    #[test]
    fn uncommitted_txn_is_discarded() {
        let mut m = mem();
        let (mut log, data) = setup(&mut m, 8);
        // Crash inside the batch: meta and payload persist, the
        // marker (the third member) does not.
        m.inject_crash_after_persists(2);
        assert_eq!(
            log.append_txn(&mut m, 1, &one(data, 7)).unwrap_err(),
            KvError::Memory(SecureMemoryError::NeedsRecovery)
        );
        m.recover().unwrap();
        let mut log = RedoLog::new(log.base, log.blocks);
        let (stats, max_seq) = log.replay(&mut m).unwrap();
        assert_eq!(stats.txns_applied, 0);
        assert_eq!(stats.records_scanned, 1, "the write record survived");
        assert_eq!(stats.records_discarded, 1);
        assert_eq!(max_seq, 1, "uncommitted seq still fences the numbering");
        assert_eq!(m.read(data).unwrap(), [0u8; 64], "must not be applied");
    }

    #[test]
    fn stale_leftover_records_are_not_replayed() {
        let mut m = mem();
        let (mut log, data) = setup(&mut m, 12);
        let d2 = PhysAddr(data.0 + 64);
        // Txn 1: three writes, committed and applied; cursor rewinds.
        let txn1: Vec<_> = [data, d2, data].map(|t| (t, [1u8; 64])).into();
        log.append_txn(&mut m, 1, &txn1).unwrap();
        log.rewind();
        // Txn 2: one write, committed — overwrites only the first three
        // log blocks; txn 1's tail (blocks 3..7) is stale leftovers.
        log.append_txn(&mut m, 2, &one(data, 2)).unwrap();
        m.crash();
        m.recover().unwrap();
        let mut log = RedoLog::new(log.base, log.blocks);
        let (stats, max_seq) = log.replay(&mut m).unwrap();
        assert_eq!(stats.txns_applied, 1, "only txn 2 must replay");
        assert_eq!(max_seq, 2);
        assert_eq!(m.read(data).unwrap(), [2u8; 64]);
        assert_eq!(m.read(d2).unwrap(), [0u8; 64], "stale write not applied");
    }

    #[test]
    fn torn_meta_block_is_detected() {
        let mut m = mem();
        let (mut log, data) = setup(&mut m, 8);
        log.append_txn(&mut m, 1, &one(data, 3)).unwrap();
        // Corrupt the payload under the meta's checksum: simulates a
        // torn pair (meta durable, payload not). The marker behind it
        // is never reached.
        m.write(PhysAddr(log.base.0 + 64), &[0xEE; 64]).unwrap();
        m.persist(PhysAddr(log.base.0 + 64)).unwrap();
        let mut log = RedoLog::new(log.base, log.blocks);
        let (stats, _) = log.replay(&mut m).unwrap();
        assert!(stats.torn_tail);
        assert_eq!(stats.txns_applied, 0);
        assert_eq!(m.read(data).unwrap(), [0u8; 64]);
    }

    #[test]
    fn garbage_magic_is_a_torn_tail() {
        let mut m = mem();
        let (log, _) = setup(&mut m, 4);
        m.write(log.base, &[0xAA; 64]).unwrap();
        m.persist(log.base).unwrap();
        let mut log = RedoLog::new(log.base, log.blocks);
        let (stats, max_seq) = log.replay(&mut m).unwrap();
        assert!(stats.torn_tail);
        assert_eq!(max_seq, 0);
    }

    #[test]
    fn replay_is_idempotent() {
        let mut m = mem();
        let (mut log, data) = setup(&mut m, 8);
        log.append_txn(&mut m, 1, &one(data, 9)).unwrap();
        let mut log2 = RedoLog::new(log.base, log.blocks);
        let (s1, _) = log2.replay(&mut m).unwrap();
        let (s2, _) = log2.replay(&mut m).unwrap();
        assert_eq!(s1.txns_applied, 1);
        assert_eq!(s2.txns_applied, 1, "replaying twice applies the same state");
        assert_eq!(m.read(data).unwrap(), [9u8; 64]);
    }

    #[test]
    fn log_full_is_reported() {
        let mut m = mem();
        let (mut log, data) = setup(&mut m, 3);
        // Two writes need 5 blocks: rejected before anything persists.
        let persists = m.stats().persists;
        let two = [(data, [1u8; 64]), (data, [1u8; 64])];
        assert_eq!(
            log.append_txn(&mut m, 1, &two).unwrap_err(),
            KvError::LogFull
        );
        assert_eq!(m.stats().persists, persists);
        assert_eq!(log.free_blocks(), 3);
        // One write (meta, payload, marker) fills the log exactly.
        log.append_txn(&mut m, 1, &one(data, 1)).unwrap();
        assert_eq!(log.free_blocks(), 0);
        assert_eq!(
            log.append_txn(&mut m, 2, &[]).unwrap_err(),
            KvError::LogFull,
            "not even a bare marker fits"
        );
        assert_eq!(log.capacity_blocks(), 3);
    }
}
