//! The [`KvStore`]: open/put/get/delete/scan over an on-NVM bucket
//! index, with redo-logged crash-atomic mutations.
//!
//! ## On-NVM layout
//!
//! One heap allocation per store shard, laid out as
//!
//! ```text
//! superblock (1 block) | bucket blocks (buckets/8) | log blocks
//! ```
//!
//! * **superblock**: magic, bucket count, bucket base, log base, log
//!   length — all little-endian u64s in one block.
//! * **bucket blocks**: 8 head pointers per block; `0` = empty chain.
//! * **entries**: allocated from the heap on demand. Block 0 holds
//!   `key @0 | next @8 | vlen @16 | first 40 value bytes @24`;
//!   longer values continue in the immediately following raw blocks.
//!
//! ## Mutation protocol
//!
//! Every mutation goes through [`KvStore::apply_group`]; `put` and
//! `delete` are one-mutation groups. A group stages its full write set
//! (new entry blocks plus the pointer blocks that link them in or out)
//! and then runs `log_txn → apply_writes → rewind`: `log_txn` batches
//! the redo records and the checksummed commit marker into one
//! `WriteBatch` in log order (per-member durability makes the marker —
//! the last member — the durability point), the in-place apply
//! follows. The `persist-order` lint enforces that call order
//! structurally. Old entry blocks are leaked on overwrite and delete —
//! the bump allocator never reuses space, which is exactly what makes
//! torn in-place updates impossible.

use std::collections::BTreeMap;

use triad_core::{LogReplayStats, RecoveryReport, SecureMemory, WriteBatch};
use triad_crypto::SipHash24;
use triad_sim::events::{emit, kind, SharedEventSink};
use triad_sim::stats::{Scope, StatRegister};
use triad_sim::{PhysAddr, BLOCK_BYTES};

use crate::heap::PersistentHeap;
use crate::log::RedoLog;
use crate::{KvError, Result};

/// Superblock magic ("TRIADKV1").
const KV_MAGIC: u64 = u64::from_le_bytes(*b"TRIADKV1");

const SB_MAGIC: usize = 0;
const SB_BUCKETS: usize = 8;
const SB_BUCKET_BASE: usize = 16;
const SB_LOG_BASE: usize = 24;
const SB_LOG_BLOCKS: usize = 32;

/// Entry block 0 layout offsets.
const ENT_KEY: usize = 0;
const ENT_NEXT: usize = 8;
const ENT_VLEN: usize = 16;
const ENT_INLINE: usize = 24;
/// Value bytes inline in entry block 0.
const INLINE_BYTES: usize = BLOCK_BYTES - ENT_INLINE;

fn read_u64(buf: &[u8; BLOCK_BYTES], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Sizing of a freshly created store shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Hash-bucket count (rounded up to a multiple of 8, min 8).
    pub buckets: u64,
    /// Write-ahead-log length in 64-B blocks (min 8).
    pub log_blocks: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            buckets: 64,
            log_blocks: 64,
        }
    }
}

/// Operation counters of one store shard; registered under the scope
/// the embedder chooses (the report harness uses `kv`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Committed `put` mutations.
    pub puts: u64,
    /// `get` calls.
    pub gets: u64,
    /// `get` calls that found the key.
    pub get_hits: u64,
    /// `delete` calls.
    pub deletes: u64,
    /// `delete` calls that removed a key.
    pub delete_hits: u64,
    /// `scan` calls.
    pub scans: u64,
    /// Committed write-ahead-log transactions.
    pub txns_committed: u64,
    /// Write records appended to the log.
    pub log_records: u64,
    /// Committed groups (each persisted exactly one commit marker);
    /// `put` and `delete` hits count as one-mutation groups.
    pub group_commits: u64,
    /// Key mutations carried by committed groups.
    pub group_ops: u64,
}

impl StatRegister for KvStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("puts", self.puts);
        scope.set("gets", self.gets);
        scope.set("get_hits", self.get_hits);
        scope.set("deletes", self.deletes);
        scope.set("delete_hits", self.delete_hits);
        scope.set("scans", self.scans);
        scope.set("txns_committed", self.txns_committed);
        scope.set("log_records", self.log_records);
        scope.set("group_commits", self.group_commits);
        scope.set("group_ops", self.group_ops);
    }
}

impl KvStats {
    /// Merges another shard's counters into this one (field-wise sum;
    /// deterministic regardless of shard visit order).
    pub fn merge(&mut self, other: &KvStats) {
        self.puts += other.puts;
        self.gets += other.gets;
        self.get_hits += other.get_hits;
        self.deletes += other.deletes;
        self.delete_hits += other.delete_hits;
        self.scans += other.scans;
        self.txns_committed += other.txns_committed;
        self.log_records += other.log_records;
        self.group_commits += other.group_commits;
        self.group_ops += other.group_ops;
    }
}

/// Where the pointer to a chain entry lives: a block address plus the
/// byte offset of the 8-byte pointer inside it (a bucket slot or a
/// predecessor entry's `next` field).
type Holder = (PhysAddr, usize);

/// Staged-but-unlogged writes of a group commit, keyed by block
/// address: reads during write-set computation consult this first so a
/// later mutation in the group sees the chains an earlier one built.
type Overlay = BTreeMap<u64, [u8; BLOCK_BYTES]>;

/// What one [`KvStore::apply_group`] flush did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupReceipt {
    /// Key mutations the group carried.
    pub ops: u64,
    /// Redo write records appended (coalesced: one per distinct block).
    pub log_records: u64,
    /// Commit markers persisted — 1 when anything was written, else 0.
    /// The whole point of group commit: this stays 1 no matter how
    /// many mutations the group carries.
    pub commit_markers: u64,
}

/// A chain hit: the holder that points at the entry, the entry's block
/// 0 address, and the entry's own `next` pointer.
struct ChainHit {
    holder: Holder,
    entry: PhysAddr,
    next: u64,
}

/// One crash-consistent KV store shard on the secure memory.
#[derive(Debug, Clone)]
pub struct KvStore {
    heap: PersistentHeap,
    superblock: PhysAddr,
    buckets: u64,
    bucket_base: PhysAddr,
    log: RedoLog,
    next_seq: u64,
    stats: KvStats,
    events: Option<SharedEventSink>,
}

impl KvStore {
    /// Creates a fresh store shard: allocates the superblock, bucket
    /// index, and log from `heap`, and persists the superblock. The
    /// caller owns publishing the returned [`KvStore::superblock`]
    /// address (heap root, directory block, …).
    ///
    /// # Errors
    ///
    /// [`KvError::Heap`] when the heap cannot fit the shard.
    pub fn create(mem: &mut SecureMemory, heap: PersistentHeap, cfg: KvConfig) -> Result<KvStore> {
        let buckets = cfg.buckets.max(8).div_ceil(8) * 8;
        let log_blocks = cfg.log_blocks.max(8);
        let bucket_blocks = buckets / 8;
        let base = heap.alloc_blocks(mem, 1 + bucket_blocks + log_blocks)?;
        let bucket_base = PhysAddr(base.0 + BLOCK_BYTES as u64);
        let log_base = PhysAddr(bucket_base.0 + bucket_blocks * BLOCK_BYTES as u64);
        // Bucket and log blocks are freshly allocated and therefore
        // all-zero (the bump allocator never reuses space): empty
        // chains and a clean log need no initialisation writes.
        let mut sb = [0u8; BLOCK_BYTES];
        sb[SB_MAGIC..SB_MAGIC + 8].copy_from_slice(&KV_MAGIC.to_le_bytes());
        sb[SB_BUCKETS..SB_BUCKETS + 8].copy_from_slice(&buckets.to_le_bytes());
        sb[SB_BUCKET_BASE..SB_BUCKET_BASE + 8].copy_from_slice(&bucket_base.0.to_le_bytes());
        sb[SB_LOG_BASE..SB_LOG_BASE + 8].copy_from_slice(&log_base.0.to_le_bytes());
        sb[SB_LOG_BLOCKS..SB_LOG_BLOCKS + 8].copy_from_slice(&log_blocks.to_le_bytes());
        mem.write(base, &sb)?;
        mem.persist(base)?;
        Ok(KvStore {
            heap,
            superblock: base,
            buckets,
            bucket_base,
            log: RedoLog::new(log_base, log_blocks),
            next_seq: 1,
            stats: KvStats::default(),
            events: None,
        })
    }

    /// Opens an existing shard at `superblock`, replaying the
    /// write-ahead log (idempotent redo). Returns the replay stats so
    /// recovery can account the work — see [`recover_store`].
    ///
    /// # Errors
    ///
    /// [`KvError::NotAStore`] when the superblock magic is absent.
    pub fn open(
        mem: &mut SecureMemory,
        heap: PersistentHeap,
        superblock: PhysAddr,
    ) -> Result<(KvStore, LogReplayStats)> {
        Self::open_with_events(mem, heap, superblock, None)
    }

    /// [`KvStore::open`] with an event sink attached before replay, so
    /// the [`triad_sim::events::kind::KV_REPLAY`] record lands in the
    /// trace.
    ///
    /// # Errors
    ///
    /// Same classes as [`KvStore::open`].
    pub fn open_with_events(
        mem: &mut SecureMemory,
        heap: PersistentHeap,
        superblock: PhysAddr,
        events: Option<SharedEventSink>,
    ) -> Result<(KvStore, LogReplayStats)> {
        let sb = mem.read(superblock)?;
        if read_u64(&sb, SB_MAGIC) != KV_MAGIC {
            return Err(KvError::NotAStore);
        }
        let buckets = read_u64(&sb, SB_BUCKETS);
        let bucket_base = PhysAddr(read_u64(&sb, SB_BUCKET_BASE));
        let log_base = PhysAddr(read_u64(&sb, SB_LOG_BASE));
        let log_blocks = read_u64(&sb, SB_LOG_BLOCKS);
        let mut log = RedoLog::new(log_base, log_blocks);
        let (replay, max_seq) = log.replay(mem)?;
        emit(
            &events,
            mem.now(),
            kind::KV_REPLAY,
            &[
                ("records_scanned", replay.records_scanned.into()),
                ("txns_applied", replay.txns_applied.into()),
                ("torn_tail", replay.torn_tail.into()),
            ],
        );
        let store = KvStore {
            heap,
            superblock,
            buckets,
            bucket_base,
            log,
            next_seq: max_seq + 1,
            stats: KvStats::default(),
            events,
        };
        Ok((store, replay))
    }

    /// The shard's superblock address (what `open` needs back).
    pub fn superblock(&self) -> PhysAddr {
        self.superblock
    }

    /// Operation counters accumulated since open/create.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// The sequence number the *next* committed transaction will take.
    /// Monotone across commits and reconstructed by recovery as
    /// `max committed seq + 1`, which is what makes it usable as a
    /// commit frontier: a caller that records `next_seq` before a
    /// group commit can tell, after a crash, whether that group's
    /// marker persisted (the recovered store's `next_seq` moved past
    /// the recorded value) or the group was rolled back.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Attaches a structured-event sink (see [`triad_sim::events`]).
    pub fn set_event_sink(&mut self, sink: SharedEventSink) {
        self.events = Some(sink);
    }

    /// The largest value length a single put can log, given the log
    /// size chosen at create time.
    pub fn max_value_bytes(&self) -> usize {
        // A one-put group logs `entry_blocks + 1` write records (2
        // blocks each) plus the commit marker.
        let budget = (self.log.capacity_blocks().saturating_sub(1) / 2).saturating_sub(1);
        if budget == 0 {
            return 0;
        }
        INLINE_BYTES + (budget as usize - 1) * BLOCK_BYTES
    }

    fn entry_blocks(vlen: usize) -> u64 {
        1 + vlen.saturating_sub(INLINE_BYTES).div_ceil(BLOCK_BYTES) as u64
    }

    /// The bucket slot (block address + byte offset) for `key`.
    fn slot_of(&self, key: u64) -> Holder {
        let bucket = SipHash24::new(*b"triad-kv buckets").hash_words(&[key]) % self.buckets;
        let addr = PhysAddr(self.bucket_base.0 + (bucket / 8) * BLOCK_BYTES as u64);
        (addr, (bucket % 8) as usize * 8)
    }

    /// Reads a block through a group-commit overlay: staged writes win
    /// over NVM contents, so chain walks during staging see the group's
    /// own earlier mutations.
    fn read_through(
        &self,
        mem: &mut SecureMemory,
        overlay: &Overlay,
        addr: PhysAddr,
    ) -> Result<[u8; BLOCK_BYTES]> {
        if let Some(block) = overlay.get(&addr.0) {
            return Ok(*block);
        }
        Ok(mem.read(addr)?)
    }

    /// Walks the chain from `key`'s bucket. Returns the chain head and,
    /// when the key exists, its [`ChainHit`].
    fn find(&self, mem: &mut SecureMemory, key: u64) -> Result<(u64, Option<ChainHit>)> {
        self.find_in(mem, &Overlay::new(), key)
    }

    /// [`KvStore::find`] through a staging overlay: reads consult the
    /// overlay first, so a put staged earlier in the same group is
    /// found (and correctly replaced or unlinked) by a later mutation.
    fn find_in(
        &self,
        mem: &mut SecureMemory,
        overlay: &Overlay,
        key: u64,
    ) -> Result<(u64, Option<ChainHit>)> {
        let slot = self.slot_of(key);
        let head = read_u64(&self.read_through(mem, overlay, slot.0)?, slot.1);
        let mut holder = slot;
        let mut ptr = head;
        while ptr != 0 {
            let block0 = self.read_through(mem, overlay, PhysAddr(ptr))?;
            let next = read_u64(&block0, ENT_NEXT);
            if read_u64(&block0, ENT_KEY) == key {
                return Ok((
                    head,
                    Some(ChainHit {
                        holder,
                        entry: PhysAddr(ptr),
                        next,
                    }),
                ));
            }
            holder = (PhysAddr(ptr), ENT_NEXT);
            ptr = next;
        }
        Ok((head, None))
    }

    /// Reads the value of the entry whose block 0 is at `entry`.
    fn read_value(&self, mem: &mut SecureMemory, entry: PhysAddr) -> Result<Vec<u8>> {
        let block0 = mem.read(entry)?;
        let vlen = read_u64(&block0, ENT_VLEN) as usize;
        let mut out = Vec::with_capacity(vlen);
        out.extend_from_slice(&block0[ENT_INLINE..ENT_INLINE + vlen.min(INLINE_BYTES)]);
        let mut next_block = 1u64;
        while out.len() < vlen {
            let addr = PhysAddr(entry.0 + next_block * BLOCK_BYTES as u64);
            let block = mem.read(addr)?;
            let take = (vlen - out.len()).min(BLOCK_BYTES);
            out.extend_from_slice(&block[..take]);
            next_block += 1;
        }
        Ok(out)
    }

    /// Appends the transaction's write records and its commit marker
    /// as one [`WriteBatch`] log transaction (see
    /// [`RedoLog::append_txn`]). The marker is the batch's last
    /// durability point.
    ///
    /// [`RedoLog::append_txn`]: crate::log::RedoLog::append_txn
    fn log_txn(
        &mut self,
        mem: &mut SecureMemory,
        seq: u64,
        writes: &[(PhysAddr, [u8; BLOCK_BYTES])],
    ) -> Result<()> {
        self.log.append_txn(mem, seq, writes)?;
        self.stats.log_records += writes.len() as u64;
        self.stats.txns_committed += 1;
        emit(
            &self.events,
            mem.now(),
            kind::KV_TXN_COMMIT,
            &[("seq", seq.into()), ("writes", writes.len().into())],
        );
        Ok(())
    }

    /// Applies the committed write set in place, through the engine's
    /// batched write path: one queued batch shares the AES pad pass,
    /// the prefetch plan and the coalesced metadata commit across the
    /// transaction's blocks (each block still consumes one durability
    /// point, so crash-boundary sweeps see the same granularity as the
    /// scalar walk).
    fn apply_writes(
        &mut self,
        mem: &mut SecureMemory,
        writes: &[(PhysAddr, [u8; BLOCK_BYTES])],
    ) -> Result<()> {
        let mut batch = WriteBatch::new();
        for (target, payload) in writes {
            batch.push(target.block(), *payload);
        }
        mem.apply_batch(&batch)?;
        Ok(())
    }

    /// Inserts or replaces `key`, durably: a one-mutation
    /// [`KvStore::apply_group`]. The redo transaction — new entry
    /// blocks plus the one pointer that links them in — is applied
    /// all-or-nothing; a crash anywhere leaves either the old or the
    /// new value visible after recovery, never a mix.
    ///
    /// # Errors
    ///
    /// [`KvError::ValueTooLarge`] when the value exceeds
    /// [`KvStore::max_value_bytes`]; heap/memory errors otherwise.
    pub fn put(&mut self, mem: &mut SecureMemory, key: u64, value: &[u8]) -> Result<()> {
        self.apply_group(mem, &[(key, Some(value.to_vec()))])?;
        Ok(())
    }

    /// Reads `key`'s value, if present.
    ///
    /// # Errors
    ///
    /// Propagates secure-memory errors.
    pub fn get(&mut self, mem: &mut SecureMemory, key: u64) -> Result<Option<Vec<u8>>> {
        self.stats.gets += 1;
        let (_, found) = self.find(mem, key)?;
        match found {
            Some(hit) => {
                self.stats.get_hits += 1;
                Ok(Some(self.read_value(mem, hit.entry)?))
            }
            None => Ok(None),
        }
    }

    /// Removes `key`, durably: a one-mutation [`KvStore::apply_group`].
    /// Returns whether it was present — a miss logs no record, so it
    /// burns neither a sequence number nor a commit marker. The
    /// entry's blocks are leaked (bump allocator; see module docs).
    ///
    /// # Errors
    ///
    /// Propagates heap/memory errors.
    pub fn delete(&mut self, mem: &mut SecureMemory, key: u64) -> Result<bool> {
        let receipt = self.apply_group(mem, &[(key, None)])?;
        Ok(receipt.log_records > 0)
    }

    /// Stages a put into `overlay`: allocates and fills the entry
    /// blocks and patches the linking pointer, all as overlay entries —
    /// nothing is logged or applied yet.
    fn stage_put(
        &mut self,
        mem: &mut SecureMemory,
        overlay: &mut Overlay,
        key: u64,
        value: &[u8],
    ) -> Result<()> {
        if value.len() > self.max_value_bytes() {
            return Err(KvError::ValueTooLarge {
                len: value.len(),
                max: self.max_value_bytes(),
            });
        }
        let (head, found) = self.find_in(mem, overlay, key)?;
        let n_blocks = Self::entry_blocks(value.len());
        let base = self.heap.alloc_blocks(mem, n_blocks)?;

        let next = found.as_ref().map_or(head, |f| f.next);
        let mut block0 = [0u8; BLOCK_BYTES];
        block0[ENT_KEY..ENT_KEY + 8].copy_from_slice(&key.to_le_bytes());
        block0[ENT_NEXT..ENT_NEXT + 8].copy_from_slice(&next.to_le_bytes());
        block0[ENT_VLEN..ENT_VLEN + 8].copy_from_slice(&(value.len() as u64).to_le_bytes());
        let inline = value.len().min(INLINE_BYTES);
        block0[ENT_INLINE..ENT_INLINE + inline].copy_from_slice(&value[..inline]);
        overlay.insert(base.0, block0);
        for (i, chunk) in value[inline..].chunks(BLOCK_BYTES).enumerate() {
            let mut block = [0u8; BLOCK_BYTES];
            block[..chunk.len()].copy_from_slice(chunk);
            overlay.insert(base.0 + (i as u64 + 1) * BLOCK_BYTES as u64, block);
        }
        let (haddr, hoff) = found
            .as_ref()
            .map_or_else(|| self.slot_of(key), |f| f.holder);
        let mut hblock = self.read_through(mem, overlay, haddr)?;
        hblock[hoff..hoff + 8].copy_from_slice(&base.0.to_le_bytes());
        overlay.insert(haddr.0, hblock);
        Ok(())
    }

    /// Stages a delete into `overlay` (the unlinking pointer write).
    /// Returns whether the key was present — in NVM or staged earlier
    /// in the same group.
    fn stage_delete(
        &mut self,
        mem: &mut SecureMemory,
        overlay: &mut Overlay,
        key: u64,
    ) -> Result<bool> {
        let (_, found) = self.find_in(mem, overlay, key)?;
        let Some(hit) = found else {
            return Ok(false);
        };
        let (haddr, hoff) = hit.holder;
        let mut hblock = self.read_through(mem, overlay, haddr)?;
        hblock[hoff..hoff + 8].copy_from_slice(&hit.next.to_le_bytes());
        overlay.insert(haddr.0, hblock);
        Ok(true)
    }

    /// Group commit: applies a whole batch of key mutations (`Some` =
    /// put, `None` = delete) as **one** redo transaction with **one**
    /// commit marker — the per-transaction marker persist that
    /// dominates small-put cost is amortized across the group.
    ///
    /// Mutations are staged left to right against an overlay, so the
    /// result is exactly the serial execution of the batch (duplicate
    /// keys resolve last-wins, a delete removes a put staged earlier in
    /// the same group). Writes to the same block coalesce: the group's
    /// redo footprint is one record per distinct block touched. The
    /// group is crash-atomic as a unit — a crash before the marker
    /// discards every mutation, after it recovery redoes them all.
    ///
    /// # Errors
    ///
    /// [`KvError::ValueTooLarge`] per oversized value;
    /// [`KvError::LogFull`] when the coalesced write set of a
    /// multi-mutation group exceeds the log (retry with a smaller
    /// group); [`KvError::GroupTooLarge`] when a *single* mutation's
    /// write set overflows the log — splitting cannot shrink it, so
    /// retrying is futile and the mutation must be rejected. Either
    /// way nothing was logged or applied and the transaction sequence
    /// number was not burned: failed groups only leak staged heap
    /// blocks, which the bump allocator tolerates by design.
    pub fn apply_group(
        &mut self,
        mem: &mut SecureMemory,
        muts: &[(u64, Option<Vec<u8>>)],
    ) -> Result<GroupReceipt> {
        let mut overlay = Overlay::new();
        let mut staged_puts = 0u64;
        let mut staged_deletes = 0u64;
        let mut staged_delete_hits = 0u64;
        for (key, value) in muts {
            match value {
                Some(v) => {
                    self.stage_put(mem, &mut overlay, *key, v)?;
                    staged_puts += 1;
                }
                None => {
                    staged_deletes += 1;
                    if self.stage_delete(mem, &mut overlay, *key)? {
                        staged_delete_hits += 1;
                    }
                }
            }
        }
        if overlay.is_empty() {
            // All-miss deletes (or an empty batch): nothing to make
            // durable, no marker burned.
            self.stats.deletes += staged_deletes;
            return Ok(GroupReceipt {
                ops: muts.len() as u64,
                log_records: 0,
                commit_markers: 0,
            });
        }
        let writes: Vec<(PhysAddr, [u8; BLOCK_BYTES])> = overlay
            .iter()
            .map(|(addr, block)| (PhysAddr(*addr), *block))
            .collect();
        let seq = self.next_seq;
        self.log_txn(mem, seq, &writes).map_err(|e| match e {
            // A split retries halves of the group, but a single
            // mutation has no halves: surface a non-retryable error.
            KvError::LogFull if muts.len() == 1 => KvError::GroupTooLarge,
            other => other,
        })?;
        // Burned only after the append succeeded, so a rejected group
        // leaves no gap in the log's sequence numbering.
        self.next_seq += 1;
        self.apply_writes(mem, &writes)?;
        self.log.rewind();
        self.stats.puts += staged_puts;
        self.stats.deletes += staged_deletes;
        self.stats.delete_hits += staged_delete_hits;
        self.stats.group_commits += 1;
        self.stats.group_ops += muts.len() as u64;
        emit(
            &self.events,
            mem.now(),
            kind::KV_GROUP_COMMIT,
            &[
                ("seq", seq.into()),
                ("ops", muts.len().into()),
                ("writes", writes.len().into()),
            ],
        );
        Ok(GroupReceipt {
            ops: muts.len() as u64,
            log_records: writes.len() as u64,
            commit_markers: 1,
        })
    }

    /// Returns every (key, value) pair, sorted by key.
    ///
    /// # Errors
    ///
    /// Propagates secure-memory errors.
    pub fn scan(&mut self, mem: &mut SecureMemory) -> Result<Vec<(u64, Vec<u8>)>> {
        self.stats.scans += 1;
        let mut out = BTreeMap::new();
        let bucket_blocks = self.buckets / 8;
        for b in 0..bucket_blocks {
            let block = mem.read(PhysAddr(self.bucket_base.0 + b * BLOCK_BYTES as u64))?;
            for slot in 0..8 {
                let mut ptr = read_u64(&block, slot * 8);
                while ptr != 0 {
                    let entry = PhysAddr(ptr);
                    let block0 = mem.read(entry)?;
                    let key = read_u64(&block0, ENT_KEY);
                    let value = self.read_value(mem, entry)?;
                    out.insert(key, value);
                    ptr = read_u64(&block0, ENT_NEXT);
                }
            }
        }
        Ok(out.into_iter().collect())
    }
}

/// One-call crash recovery for a single-store heap: engine recovery,
/// heap open (heap-level redo), store open (WAL replay), with the
/// replay work merged into the returned [`RecoveryReport`] — the
/// `log_replay` extension this crate adds to the report.
///
/// Expects the heap root to hold the store's superblock address (as
/// `examples/kv_demo.rs` sets it up); multi-shard embedders do their
/// own directory walk and merge instead.
///
/// # Errors
///
/// [`KvError::NotAStore`] when the heap root is unset or points at
/// something that is not a superblock; recovery/heap errors otherwise.
pub fn recover_store(mem: &mut SecureMemory) -> Result<(KvStore, RecoveryReport)> {
    let mut report = mem.recover()?;
    let heap = PersistentHeap::open(mem)?;
    let root = heap.root(mem)?;
    if root == 0 {
        return Err(KvError::NotAStore);
    }
    let (store, replay) = KvStore::open(mem, heap, PhysAddr(root))?;
    report.log_replay = Some(replay);
    Ok((store, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_core::{PersistScheme, SecureMemoryBuilder, SecureMemoryError};
    use triad_sim::events::EventSink;

    fn mem() -> SecureMemory {
        SecureMemoryBuilder::new()
            .scheme(PersistScheme::triad_nvm(2))
            .build()
            .unwrap()
    }

    fn small() -> KvConfig {
        KvConfig {
            buckets: 16,
            log_blocks: 32,
        }
    }

    fn fresh(m: &mut SecureMemory) -> KvStore {
        let heap = PersistentHeap::format(m).unwrap();
        let kv = KvStore::create(m, heap, small()).unwrap();
        heap.set_root(m, kv.superblock().0).unwrap();
        kv
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        assert_eq!(kv.get(&mut m, 1).unwrap(), None);
        kv.put(&mut m, 1, b"one").unwrap();
        kv.put(&mut m, 2, b"two").unwrap();
        assert_eq!(kv.get(&mut m, 1).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(kv.get(&mut m, 2).unwrap().as_deref(), Some(&b"two"[..]));
        assert!(kv.delete(&mut m, 1).unwrap());
        assert!(!kv.delete(&mut m, 1).unwrap());
        assert_eq!(kv.get(&mut m, 1).unwrap(), None);
        assert_eq!(kv.get(&mut m, 2).unwrap().as_deref(), Some(&b"two"[..]));
        let s = kv.stats();
        assert_eq!((s.puts, s.deletes, s.delete_hits), (2, 2, 1));
        assert_eq!(s.gets, 5);
        assert_eq!(s.get_hits, 3);
    }

    #[test]
    fn overwrite_replaces_in_place_in_the_chain() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        for k in 0..40u64 {
            kv.put(&mut m, k, &k.to_le_bytes()).unwrap();
        }
        kv.put(&mut m, 17, b"replaced").unwrap();
        assert_eq!(
            kv.get(&mut m, 17).unwrap().as_deref(),
            Some(&b"replaced"[..])
        );
        // Every other key is untouched.
        for k in (0..40u64).filter(|&k| k != 17) {
            assert_eq!(
                kv.get(&mut m, k).unwrap().as_deref(),
                Some(&k.to_le_bytes()[..])
            );
        }
    }

    #[test]
    fn variable_size_values_round_trip() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        // 0 bytes, inline-exact, inline+1, multi-block, and max size.
        let sizes = [0, 1, 40, 41, 104, 200, kv.max_value_bytes()];
        for (k, &len) in sizes.iter().enumerate() {
            let v: Vec<u8> = (0..len).map(|i| (i * 7 + k) as u8).collect();
            kv.put(&mut m, k as u64, &v).unwrap();
            assert_eq!(kv.get(&mut m, k as u64).unwrap().as_deref(), Some(&v[..]));
        }
        // Still intact after neighbours were written.
        for (k, &len) in sizes.iter().enumerate() {
            let v: Vec<u8> = (0..len).map(|i| (i * 7 + k) as u8).collect();
            assert_eq!(kv.get(&mut m, k as u64).unwrap().as_deref(), Some(&v[..]));
        }
    }

    #[test]
    fn oversized_value_rejected() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        let max = kv.max_value_bytes();
        let v = vec![0u8; max + 1];
        assert_eq!(
            kv.put(&mut m, 1, &v).unwrap_err(),
            KvError::ValueTooLarge { len: max + 1, max }
        );
        assert_eq!(kv.get(&mut m, 1).unwrap(), None);
    }

    #[test]
    fn scan_returns_sorted_pairs() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        for k in [9u64, 3, 27, 1] {
            kv.put(&mut m, k, &[k as u8]).unwrap();
        }
        kv.delete(&mut m, 27).unwrap();
        let pairs = kv.scan(&mut m).unwrap();
        assert_eq!(pairs, vec![(1, vec![1u8]), (3, vec![3u8]), (9, vec![9u8]),]);
    }

    #[test]
    fn reopen_after_clean_crash_preserves_state() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 5, b"five").unwrap();
        kv.put(&mut m, 6, b"six").unwrap();
        kv.delete(&mut m, 5).unwrap();
        m.crash();
        let (mut kv, report) = recover_store(&mut m).unwrap();
        assert!(report.persistent_recovered);
        let replay = report.log_replay.unwrap();
        // The last txn (the delete) is still in the log and re-applies
        // idempotently.
        assert_eq!(replay.txns_applied, 1);
        assert!(!replay.torn_tail);
        assert_eq!(kv.get(&mut m, 5).unwrap(), None);
        assert_eq!(kv.get(&mut m, 6).unwrap().as_deref(), Some(&b"six"[..]));
    }

    #[test]
    fn crash_between_commit_and_apply_redoes_the_txn() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 1, b"old").unwrap();
        // The overwrite's durability points: heap cursor (1), 2 write
        // records (4), commit marker (1); crash on the first in-place
        // apply, i.e. boundary 6.
        m.inject_crash_after_persists(6);
        assert_eq!(
            kv.put(&mut m, 1, b"new").unwrap_err(),
            KvError::Memory(SecureMemoryError::NeedsRecovery)
        );
        let (mut kv, report) = recover_store(&mut m).unwrap();
        let replay = report.log_replay.unwrap();
        assert_eq!(replay.txns_applied, 1, "committed txn must be redone");
        assert_eq!(kv.get(&mut m, 1).unwrap().as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn crash_before_commit_discards_the_txn() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 1, b"old").unwrap();
        // Crash while appending redo records, before the commit marker.
        m.inject_crash_after_persists(2);
        assert_eq!(
            kv.put(&mut m, 1, b"new").unwrap_err(),
            KvError::Memory(SecureMemoryError::NeedsRecovery)
        );
        let (mut kv, report) = recover_store(&mut m).unwrap();
        let replay = report.log_replay.unwrap();
        assert_eq!(replay.txns_applied, 0);
        assert_eq!(kv.get(&mut m, 1).unwrap().as_deref(), Some(&b"old"[..]));
    }

    #[test]
    fn open_rejects_non_superblock() {
        let mut m = mem();
        let heap = PersistentHeap::format(&mut m).unwrap();
        let junk = heap.alloc_blocks(&mut m, 1).unwrap();
        assert_eq!(
            KvStore::open(&mut m, heap, junk).unwrap_err(),
            KvError::NotAStore
        );
        // recover_store with an unset root also refuses.
        m.crash();
        assert_eq!(recover_store(&mut m).unwrap_err(), KvError::NotAStore);
    }

    #[test]
    fn events_are_emitted_for_mutations() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut m = mem();
        let mut kv = fresh(&mut m);
        let buf = Arc::new(Mutex::new(Vec::new()));
        kv.set_event_sink(EventSink::shared(Box::new(SharedBuf(buf.clone()))));
        kv.put(&mut m, 1, b"x").unwrap();
        kv.delete(&mut m, 1).unwrap();
        kv.delete(&mut m, 1).unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        // Put and delete are one-mutation groups: one transaction and
        // one group record each; the missing-key delete logs nothing.
        assert_eq!(text.matches("\"event\":\"kv_txn_commit\"").count(), 2);
        assert_eq!(text.matches("\"event\":\"kv_group_commit\"").count(), 2);
        assert_eq!(text.matches("\"ops\":1").count(), 2);
    }

    #[test]
    fn stats_register_exposes_every_counter() {
        use triad_sim::stats::StatRegistry;
        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 1, b"x").unwrap();
        kv.scan(&mut m).unwrap();
        kv.apply_group(&mut m, &[(2, Some(b"y".to_vec()))]).unwrap();
        let mut reg = StatRegistry::new();
        kv.stats().register(&mut reg.scope("kv"));
        assert_eq!(reg.counter("kv.puts"), 2);
        assert_eq!(reg.counter("kv.scans"), 1);
        assert_eq!(reg.counter("kv.txns_committed"), 2);
        assert_eq!(reg.counter("kv.group_commits"), 2);
        assert_eq!(reg.counter("kv.group_ops"), 2);
        assert!(reg.counter("kv.log_records") >= 2);
    }

    /// Two distinct fresh keys sharing `k`'s bucket slot — the chain
    /// case where staging against stale NVM state (no overlay) would
    /// silently drop all but the last insert.
    fn same_slot_keys(kv: &KvStore, from: u64) -> (u64, u64) {
        let a = from;
        let slot = kv.slot_of(a);
        let b = (a + 1..).find(|&k| kv.slot_of(k) == slot).unwrap();
        (a, b)
    }

    #[test]
    fn group_commit_is_serially_equivalent_with_one_marker() {
        let mut serial_m = mem();
        let mut serial = fresh(&mut serial_m);
        let mut grouped_m = mem();
        let mut grouped = fresh(&mut grouped_m);

        let (a, b) = same_slot_keys(&serial, 100);
        // Same-bucket fresh inserts, an overwrite of a key put earlier
        // in the same group (last-wins), a put+delete of one key, and a
        // delete miss — the full staging surface.
        let ops: Vec<(u64, Option<Vec<u8>>)> = vec![
            (a, Some(b"first".to_vec())),
            (b, Some(b"second".to_vec())),
            (a, Some(b"rewritten".to_vec())),
            (7, Some(b"doomed".to_vec())),
            (7, None),
            (9999, None),
        ];
        for (k, v) in &ops {
            match v {
                Some(v) => serial.put(&mut serial_m, *k, v).unwrap(),
                None => {
                    serial.delete(&mut serial_m, *k).unwrap();
                }
            }
        }
        let receipt = grouped.apply_group(&mut grouped_m, &ops).unwrap();

        assert_eq!(
            serial.scan(&mut serial_m).unwrap(),
            grouped.scan(&mut grouped_m).unwrap()
        );
        assert_eq!(receipt.ops, 6);
        assert_eq!(receipt.commit_markers, 1, "one marker for the whole group");
        assert!(receipt.log_records >= 4);
        let (s, g) = (serial.stats(), grouped.stats());
        assert_eq!(s.txns_committed, 5, "serial: one marker per mutation");
        assert_eq!(g.txns_committed, 1, "grouped: one marker total");
        assert_eq!(
            (g.puts, g.deletes, g.delete_hits),
            (s.puts, s.deletes, s.delete_hits)
        );
        assert_eq!((g.group_commits, g.group_ops), (1, 6));
        // Serial: every hit is a one-mutation group; the miss is none.
        assert_eq!((s.group_commits, s.group_ops), (5, 5));
    }

    #[test]
    fn deleting_a_missing_key_burns_no_seq_and_no_marker() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 1, b"keep").unwrap();
        let seq = kv.next_seq();
        let committed = kv.stats().txns_committed;
        let persists = m.stats().persists;
        assert!(!kv.delete(&mut m, 2).unwrap());
        assert_eq!(kv.next_seq(), seq, "no sequence number burned");
        assert_eq!(kv.stats().txns_committed, committed, "no commit marker");
        assert_eq!(m.stats().persists, persists, "no durability point");
        assert_eq!(kv.stats().deletes, 1);
        assert_eq!(kv.stats().delete_hits, 0);
        // A hit does take the next sequence number.
        assert!(kv.delete(&mut m, 1).unwrap());
        assert_eq!(kv.next_seq(), seq + 1);
    }

    #[test]
    fn empty_and_all_miss_groups_burn_no_marker() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        let r = kv.apply_group(&mut m, &[]).unwrap();
        assert_eq!(r, GroupReceipt::default());
        let r = kv.apply_group(&mut m, &[(5, None), (6, None)]).unwrap();
        assert_eq!((r.ops, r.log_records, r.commit_markers), (2, 0, 0));
        let s = kv.stats();
        assert_eq!((s.txns_committed, s.deletes, s.group_commits), (0, 2, 0));
    }

    #[test]
    fn group_crash_before_marker_discards_every_mutation() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 1, b"old").unwrap();
        // Group persist schedule: one heap-cursor persist per put, then
        // 2 persists per redo record, then the marker. Crash mid-append,
        // after the allocations and the first record block.
        m.inject_crash_after_persists(3);
        let ops = vec![(1, Some(b"new".to_vec())), (2, Some(b"two".to_vec()))];
        assert_eq!(
            kv.apply_group(&mut m, &ops).unwrap_err(),
            KvError::Memory(SecureMemoryError::NeedsRecovery)
        );
        let (mut kv, report) = recover_store(&mut m).unwrap();
        assert_eq!(report.log_replay.unwrap().txns_applied, 0);
        assert_eq!(kv.get(&mut m, 1).unwrap().as_deref(), Some(&b"old"[..]));
        assert_eq!(kv.get(&mut m, 2).unwrap(), None);
    }

    #[test]
    fn group_crash_after_marker_redoes_every_mutation() {
        // Twin run to learn the group's coalesced record count, so the
        // crash boundary lands exactly on the first in-place apply.
        let ops = vec![(1u64, Some(b"new".to_vec())), (2, Some(b"two".to_vec()))];
        let mut twin_m = mem();
        let mut twin = fresh(&mut twin_m);
        twin.put(&mut twin_m, 1, b"old").unwrap();
        let receipt = twin.apply_group(&mut twin_m, &ops).unwrap();

        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 1, b"old").unwrap();
        // 2 alloc persists + 2 per record + 1 marker, then apply.
        m.inject_crash_after_persists(2 + 2 * receipt.log_records + 1);
        assert_eq!(
            kv.apply_group(&mut m, &ops).unwrap_err(),
            KvError::Memory(SecureMemoryError::NeedsRecovery)
        );
        let (mut kv, report) = recover_store(&mut m).unwrap();
        assert_eq!(
            report.log_replay.unwrap().txns_applied,
            1,
            "committed group must be redone as a unit"
        );
        assert_eq!(kv.get(&mut m, 1).unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(kv.get(&mut m, 2).unwrap().as_deref(), Some(&b"two"[..]));
    }

    #[test]
    fn oversized_group_reports_log_full_and_stays_clean() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 1, b"keep").unwrap();
        // Enough distinct single-block puts to overflow a 32-block log
        // (each fresh key adds an entry record + a holder record).
        let ops: Vec<(u64, Option<Vec<u8>>)> =
            (100..140u64).map(|k| (k, Some(vec![k as u8]))).collect();
        assert_eq!(kv.apply_group(&mut m, &ops).unwrap_err(), KvError::LogFull);
        // Nothing logged or applied: the store still works and holds
        // exactly the pre-group state.
        assert_eq!(kv.scan(&mut m).unwrap(), vec![(1, b"keep".to_vec())]);
        kv.put(&mut m, 2, b"after").unwrap();
        assert_eq!(kv.get(&mut m, 2).unwrap().as_deref(), Some(&b"after"[..]));
    }

    #[test]
    fn single_oversized_mutation_reports_group_too_large() {
        let mut m = mem();
        let mut kv = fresh(&mut m);
        kv.put(&mut m, 1, b"keep").unwrap();
        let seq_before = kv.next_seq();
        let groups_before = kv.stats().group_commits;
        // A single mutation cannot overflow through the public API
        // (max_value_bytes is exactly tight against append_txn's
        // capacity check), so shrink the log under the store to model
        // a deployment whose WAL budget is smaller than its value
        // budget. 4 blocks cannot hold even an empty-value put
        // (entry + holder records = 2 writes = 5 log blocks).
        let sb = m.read(kv.superblock()).unwrap();
        let log_base = PhysAddr(read_u64(&sb, SB_LOG_BASE));
        let full_log = std::mem::replace(&mut kv.log, RedoLog::new(log_base, 4));
        let one = vec![(200u64, Some(Vec::new()))];
        assert_eq!(
            kv.apply_group(&mut m, &one).unwrap_err(),
            KvError::GroupTooLarge,
            "a singleton overflow is not retryable"
        );
        // A multi-mutation overflow stays the retryable LogFull — the
        // splitter relies on the distinction.
        let two = vec![(200u64, Some(Vec::new())), (201u64, Some(Vec::new()))];
        assert_eq!(kv.apply_group(&mut m, &two).unwrap_err(), KvError::LogFull);
        // Neither failure leaked state: no sequence number burned, no
        // group counted, and the store serves cleanly once the real
        // log is back (failed groups leak only staged heap blocks).
        assert_eq!(kv.next_seq(), seq_before);
        assert_eq!(kv.stats().group_commits, groups_before);
        kv.log = full_log;
        assert_eq!(kv.scan(&mut m).unwrap(), vec![(1, b"keep".to_vec())]);
        kv.put(&mut m, 2, b"after").unwrap();
        assert_eq!(kv.get(&mut m, 2).unwrap().as_deref(), Some(&b"after"[..]));
    }

    #[test]
    fn group_commit_emits_one_group_event() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut m = mem();
        let mut kv = fresh(&mut m);
        let buf = Arc::new(Mutex::new(Vec::new()));
        kv.set_event_sink(EventSink::shared(Box::new(SharedBuf(buf.clone()))));
        kv.apply_group(
            &mut m,
            &[(1, Some(b"x".to_vec())), (2, Some(b"y".to_vec()))],
        )
        .unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text.matches("\"event\":\"kv_group_commit\"").count(),
            1,
            "one group event per flush:\n{text}"
        );
        assert!(text.contains("\"ops\":2"));
    }
}
