//! Batched write-path persistence.
//!
//! A [`WriteBatch`] carries a program-ordered set of persistent-region
//! block writes whose durability is requested *together*. Compared to
//! calling [`SecureMemory::persist_block`] once per block, the batched
//! path ([`SecureMemory::persist_batch`]) exploits knowing the whole
//! set up front three ways:
//!
//! 1. **Batched crypto** — the one-time pads of every member are
//!    precomputed in a single pass through the shared AES key schedule
//!    ([`triad_crypto::pad_batch`]), by simulating the counter
//!    increments the members will perform.
//! 2. **Coalesced BMT commit** — every member's atomic update set
//!    (ciphertext, counter, MAC, persisted tree nodes) merges
//!    last-wins into one pending staging buffer; ancestors shared by
//!    multiple dirty leaves are written to NVM once per batch, and the
//!    §3.3.5 register protocol (stage → READY_BIT → WPQ → commit) is
//!    charged once instead of once per member. `commit_batch` is the
//!    only implementation of that protocol: a write-back outside an
//!    open batch commits as a batch of one.
//! 3. **Prefetch planning** — the counter blocks, MAC blocks and
//!    coalesced tree-path nodes the batch will touch are planned
//!    through [`triad_cache::BatchPrefetcher`] before the first member
//!    executes, so their fetches can overlap (cf. trie prefetching for
//!    queued transaction blocks).
//!
//! ## Crash safety
//!
//! The merged writes are **staged in place** in the persistent
//! registers: every stage, refresh and root advance updates the
//! registers' [`StagedUpdate`] directly, so at any point mid-batch the
//! registers hold the full replayable prefix (all fully processed
//! members, merged). A crash between members therefore recovers
//! exactly like the scalar walk — processed members durable, the rest
//! lost — and each member consumes one persist-boundary durability
//! point, keeping armed-crash drivers scheme-agnostic.

use triad_cache::PrefetchClass;
use triad_crypto::counter::AnyCounterBlock;
use triad_crypto::ctr::{pad_batch, Iv};
use triad_mem::store::Block;
use triad_meta::bmt::coalesce_dirty_paths;
use triad_meta::layout::RegionKind;
use triad_sim::events::emit;
use triad_sim::time::Time;
use triad_sim::{BlockAddr, BlockMap};

use crate::engine::{EngineState, EvictItem, Result, SecureMemory};
use crate::error::SecureMemoryError;
use crate::registers::{PersistentRegisters, StagedUpdate, StagedWrite};

/// A program-ordered set of full-block writes to persist together.
///
/// # Example
///
/// ```rust
/// use triad_core::{SecureMemoryBuilder, WriteBatch};
///
/// # fn main() -> Result<(), triad_core::SecureMemoryError> {
/// let mut mem = SecureMemoryBuilder::new().build()?;
/// let base = mem.persistent_region().start();
/// let mut batch = WriteBatch::new();
/// for i in 0..4u64 {
///     let block = triad_sim::PhysAddr(base.0 + i * 64).block();
///     batch.push(block, [i as u8; 64]);
/// }
/// mem.apply_batch(&batch)?;
/// assert!(mem.stats().batches >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    members: Vec<(BlockAddr, Block)>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Appends a full-block write. Later writes to the same block
    /// supersede earlier ones at commit (last-wins), but each push is
    /// still applied in order (and counts as one durability point).
    pub fn push(&mut self, block: BlockAddr, data: Block) {
        self.members.push((block, data));
    }

    /// Number of queued writes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the batch holds no writes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The queued writes, in program order.
    pub fn members(&self) -> &[(BlockAddr, Block)] {
        &self.members
    }
}

/// Which metadata structure a staged write belongs to (drives the
/// per-class persist-write statistics at commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteClass {
    Data,
    Counter,
    Mac,
    Node,
}

/// The open batch's bookkeeping beside its staged update: the class
/// and address index of each merged write, and the precomputed pads.
/// The merged writes and the pending persistent root live in the
/// persistent registers' [`StagedUpdate`] (see the module docs).
#[derive(Debug)]
pub(crate) struct PendingBatch {
    /// Class of each merged write, in first-staging order: entry `i`
    /// classes the registers' staged write `i`. A re-staged address
    /// keeps its position and class and takes the newest bytes.
    classes: Vec<WriteClass>,
    /// addr → position in `classes` and in the staged writes.
    index: BlockMap<usize>,
    /// Precomputed one-time pads.
    pads: BatchPads,
    /// Writes a scalar walk would have performed (before merging).
    pub(crate) naive_writes: u64,
}

/// An open batch's precomputed one-time pads, in member order.
#[derive(Debug, Default)]
pub(crate) struct BatchPads {
    /// `(data block, major, minor)` and its pad.
    entries: Vec<((u64, u64, u8), Block)>,
    /// Data block → position of its first entry.
    first: BlockMap<usize>,
}

impl BatchPads {
    /// The pad for `(data block, major, minor)`, if precomputed. A block
    /// written twice in one batch has a later entry per write.
    fn get(&self, key: (u64, u64, u8)) -> Option<Block> {
        let start = *self.first.get(key.0)?;
        self.entries[start..]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, pad)| *pad)
    }
}

impl FromIterator<((u64, u64, u8), Block)> for BatchPads {
    fn from_iter<I: IntoIterator<Item = ((u64, u64, u8), Block)>>(iter: I) -> Self {
        let mut pads = BatchPads::default();
        for (key, pad) in iter {
            pads.first.get_or_insert_with(key.0, || pads.entries.len());
            pads.entries.push((key, pad));
        }
        pads
    }
}

impl PendingBatch {
    pub(crate) fn new(pads: BatchPads) -> Self {
        PendingBatch {
            classes: Vec::new(),
            index: BlockMap::new(),
            pads,
            naive_writes: 0,
        }
    }

    /// Stages one write into `regs`, merging last-wins on address. The
    /// class and position of the first staging are kept. The batch's
    /// first write replaces whatever `regs` held, so the registers
    /// carry this batch's prefix alone.
    fn stage(
        &mut self,
        regs: &mut PersistentRegisters,
        class: WriteClass,
        addr: BlockAddr,
        data: Block,
    ) {
        if self.refresh(regs, addr, data) {
            return;
        }
        if self.classes.is_empty() {
            regs.stage(StagedUpdate::default());
        }
        self.index.insert(addr.0, self.classes.len());
        self.classes.push(class);
        regs.staged_mut().writes.push(StagedWrite { addr, data });
    }

    /// Current staged bytes for `addr`, if pending.
    fn lookup(&self, regs: &PersistentRegisters, addr: BlockAddr) -> Option<Block> {
        let &i = self.index.get(addr.0)?;
        regs.staged_writes().get(i).map(|w| w.data)
    }

    /// Refreshes the bytes of an already-pending write (used when an
    /// eviction writes a newer value of the block straight to NVM, so
    /// the commit/recovery replay cannot clobber it with stale bytes).
    /// Returns whether `addr` was pending.
    fn refresh(&mut self, regs: &mut PersistentRegisters, addr: BlockAddr, data: Block) -> bool {
        match self.index.get(addr.0) {
            Some(&i) => {
                regs.staged_mut().writes[i].data = data;
                true
            }
            None => false,
        }
    }
}

impl SecureMemory {
    /// Persists every write of `batch` in order, sharing one batched
    /// AES pass, one prefetch plan and one coalesced register/WPQ
    /// commit across the members (the batched write path; see the
    /// module docs). Returns the time the whole batch is inside the
    /// persistence domain.
    ///
    /// When an epoch is open the members go through
    /// [`SecureMemory::persist_block`] one by one and defer to the
    /// boundary like any other persist.
    ///
    /// Each member consumes one durability point of
    /// [`SecureMemory::inject_crash_after_persists`]; a crash between
    /// members makes exactly the already-processed prefix durable.
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::NotPersistent`] (checked for every member
    /// before any state changes) if any member lies outside the
    /// persistent region, plus the classes of
    /// [`SecureMemory::persist_block`].
    pub fn persist_batch(&mut self, batch: &WriteBatch, now: Time) -> Result<Time> {
        self.check_running()?;
        for (block, _) in batch.members() {
            if self.map.data_region_of(*block) != Some(RegionKind::Persistent) {
                return Err(SecureMemoryError::NotPersistent { addr: block.base() });
            }
        }
        if self.state == EngineState::PersistentPoisoned {
            return Err(SecureMemoryError::Unverifiable {
                reason: "persistent region was not recovered".to_string(),
            });
        }
        if batch.is_empty() {
            return Ok(now);
        }
        if self.epoch.is_some() {
            let mut t = now;
            for (block, data) in batch.members() {
                t = self.persist_block(*block, *data, t)?;
            }
            return Ok(t);
        }
        // The prefetch plan lets every member's metadata fetches be in
        // flight together, so members start from the batch's start time
        // rather than serialising end-to-end; the merged WPQ drain in
        // `commit_batch` then charges the serialised commit once.
        let t0 = now + self.l3.latency();
        let t = self.run_batch(batch.members(), now, t0, |mem, block, data, _| {
            mem.stats.stores += 1;
            mem.stats.persists += 1;
            mem.reclaim(block);
            mem.plain.insert(block.0, data);
            mem.l3_touch(block, true);
            let done = mem.writeback_data(block, data, t0)?;
            mem.l3.flush(block);
            mem.drain_evictions(now)?;
            Ok(done)
        })?;
        self.hists.persist_latency_ns.record(t.since(now).as_ns());
        Ok(t)
    }

    /// Applies `batch` through [`SecureMemory::persist_batch`] on the
    /// convenience (untimed) clock.
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::persist_batch`].
    pub fn apply_batch(&mut self, batch: &WriteBatch) -> Result<()> {
        let t = self.persist_batch(batch, self.clock)?;
        self.clock = t;
        Ok(())
    }

    // ----- crate-internal batch plumbing ------------------------------------

    /// Runs `members` through one open batch: the one loop behind
    /// [`SecureMemory::persist_batch`] and the epoch boundary. It
    /// precomputes the members' pads, plans their prefetches and
    /// counts the batch; then, per member, it takes one
    /// persist-boundary crash point and calls `write_back` with the
    /// latest completion time so far (`start` before the first). A
    /// member error commits the staged prefix, so the on-chip roots
    /// and the NVM image agree before the error surfaces. Finally the
    /// batch commits and the eviction queue drains.
    pub(crate) fn run_batch(
        &mut self,
        members: &[(BlockAddr, Block)],
        now: Time,
        start: Time,
        mut write_back: impl FnMut(&mut Self, BlockAddr, Block, Time) -> Result<Time>,
    ) -> Result<Time> {
        let pads = self.precompute_batch_pads(members);
        let planned = self.plan_batch_prefetch(members);
        emit(
            &self.events,
            now,
            "batch_queued",
            &[
                ("members", members.len().into()),
                ("planned_lines", planned.into()),
            ],
        );
        self.stats.batches += 1;
        self.stats.batch_members += members.len() as u64;
        self.batch = Some(PendingBatch::new(pads));
        let mut t = start;
        for &(block, data) in members {
            if self.persist_boundary_crash(now) {
                // The crash cleared the open batch; the staged prefix
                // (every fully processed member, merged) replays at
                // recovery — the scalar walk's per-member durability.
                return Err(SecureMemoryError::NeedsRecovery);
            }
            match write_back(self, block, data, t) {
                Ok(done) => t = t.max(done),
                Err(e) => {
                    let _ = self.commit_batch(t);
                    return Err(e);
                }
            }
        }
        t = self.commit_batch(t)?;
        self.drain_evictions(now)?;
        Ok(t)
    }

    /// Staged bytes of `addr` in the open batch, if any. Metadata and
    /// data fetches must prefer these over the (stale-until-commit)
    /// NVM copy.
    pub(crate) fn batch_forward(&self, addr: BlockAddr) -> Option<Block> {
        self.batch.as_ref().and_then(|p| p.lookup(&self.regs, addr))
    }

    /// Precomputed pad for `(block, major, minor)` in the open batch.
    pub(crate) fn batch_pad(&self, block: BlockAddr, major: u64, minor: u8) -> Option<Block> {
        self.batch
            .as_ref()
            .and_then(|p| p.pads.get((block.0, major, minor)))
    }

    /// Merges one member's atomic update set into the open batch, in
    /// place in the persistent registers. `writes` is
    /// positionally classed exactly as the scalar protocol builds it:
    /// data, then (optionally) the counter, then the MAC, then nodes.
    pub(crate) fn stage_into_batch(
        &mut self,
        kind: RegionKind,
        writes: &[StagedWrite],
        persist_counter: bool,
        new_root: triad_meta::NodeBuf,
    ) {
        if let Some(pending) = &mut self.batch {
            pending.naive_writes += writes.len() as u64;
            for (i, w) in writes.iter().enumerate() {
                let class = match (i, persist_counter) {
                    (0, _) => WriteClass::Data,
                    (1, true) => WriteClass::Counter,
                    (1, false) | (2, true) => WriteClass::Mac,
                    _ => WriteClass::Node,
                };
                pending.stage(&mut self.regs, class, w.addr, w.data);
            }
            if kind == RegionKind::Persistent {
                self.regs.staged_mut().new_persistent_root = Some(new_root);
            }
        }
    }

    /// Stages a single write into the open batch (re-encryption path).
    pub(crate) fn batch_stage_raw(&mut self, class: WriteClass, addr: BlockAddr, data: Block) {
        if let Some(pending) = &mut self.batch {
            pending.naive_writes += 1;
            pending.stage(&mut self.regs, class, addr, data);
        }
    }

    /// Refreshes a pending write's bytes after a direct NVM write of
    /// the same block (eviction mid-batch), so neither the commit nor a
    /// recovery replay can roll the block back to stale bytes.
    pub(crate) fn batch_refresh(&mut self, addr: BlockAddr, data: Block) {
        if let Some(pending) = &mut self.batch {
            pending.refresh(&mut self.regs, addr, data);
        }
    }

    /// Commits the open batch — the one implementation of the §3.3.5
    /// commit, for batches of one and of many alike: charges the
    /// register protocol once, drains the merged writes through the
    /// WPQ (honouring the armed WPQ-crash hook), counts per-class
    /// persist writes, and clears the READY_BIT. A no-op when no batch
    /// is open or nothing was staged.
    pub(crate) fn commit_batch(&mut self, now: Time) -> Result<Time> {
        let Some(pending) = self.batch.take() else {
            return Ok(now);
        };
        let classes = pending.classes;
        if classes.is_empty() {
            return Ok(now);
        }
        let merged = pending.naive_writes - classes.len() as u64;
        let mut t = now
            + self
                .config
                .security
                .persistent_register_latency
                .saturating_mul(classes.len() as u64 + 1);
        emit(
            &self.events,
            now,
            "atomic_persist",
            &[
                ("staged_writes", classes.len().into()),
                ("merged_away", merged.into()),
            ],
        );
        for (i, class) in classes.iter().enumerate() {
            let w = self.regs.staged_writes()[i];
            if let Some(left) = self.crash_after_wpq_writes {
                if left == 0 {
                    // First fire wins: disarm the persist-boundary
                    // hook too.
                    self.disarm_crash_hooks();
                    emit(
                        &self.events,
                        t,
                        "crash",
                        &[("injected", true.into()), ("block", w.addr.0.into())],
                    );
                    self.crash();
                    return Err(SecureMemoryError::NeedsRecovery);
                }
                self.crash_after_wpq_writes = Some(left - 1);
            }
            t = self.mc.write(w.addr, w.data, t);
            match class {
                WriteClass::Data => {}
                WriteClass::Counter => self.stats.counter_writes_persist += 1,
                WriteClass::Mac => self.stats.mac_writes_persist += 1,
                WriteClass::Node => self.stats.node_writes_persist += 1,
            }
        }
        self.stats.atomic_persists += 1;
        self.stats.batch_writes_merged += merged;
        self.regs.commit();
        Ok(t)
    }

    /// Simulates the counter increments the batch members will perform
    /// and precomputes their one-time pads in one batched AES pass.
    ///
    /// The simulation peeks counters exactly where the write path will
    /// find them (resident map, pending eviction, NVM image) *without*
    /// touching any engine state; a misprediction merely misses the pad
    /// map and the member falls back to the scalar AES path.
    pub(crate) fn precompute_batch_pads(&self, members: &[(BlockAddr, Block)]) -> BatchPads {
        let split = self.split_counters();
        let mut sim: BlockMap<AnyCounterBlock> = BlockMap::new();
        let mut keys: Vec<(u64, u64, u8)> = Vec::new();
        let mut ivs: Vec<Iv> = Vec::new();
        for (block, _) in members {
            let Some(kind) = self.map.data_region_of(*block) else {
                continue;
            };
            if kind != RegionKind::Persistent {
                continue;
            }
            let layout = self.layout(kind);
            let data_index = layout.data_index(*block);
            let coverage = layout.counter_coverage;
            let leaf = data_index / coverage;
            let slot = (data_index % coverage) as usize;
            let addr = layout.counter_start + leaf;
            let cb = sim.get_or_insert_with(addr.0, || {
                if let Some(cb) = self.counters.get(addr.0) {
                    *cb
                } else if let Some(EvictItem::Counter { value, .. }) = self
                    .evict_queue
                    .iter()
                    .find(|e| matches!(e, EvictItem::Counter { addr: a, .. } if *a == addr))
                {
                    *value
                } else {
                    AnyCounterBlock::from_bytes(split, &self.mc.store().read(addr))
                }
            });
            // Overflow resets mirror the real increment, so the
            // simulation stays in lock-step across re-encryptions.
            let _ = cb.increment(slot);
            let pair = cb.pair(slot);
            keys.push((block.0, pair.major, pair.minor));
            ivs.push(self.data_iv(kind, *block, pair.major, pair.minor));
        }
        let pads = pad_batch(self.aes_for(RegionKind::Persistent), &ivs);
        keys.into_iter().zip(pads).collect()
    }

    /// Plans the metadata prefetches of a queued batch: per-member
    /// counter and MAC lines plus the coalesced BMT path nodes, probed
    /// non-perturbingly against on-chip state. Returns the number of
    /// distinct lines planned.
    pub(crate) fn plan_batch_prefetch(&mut self, members: &[(BlockAddr, Block)]) -> u64 {
        let kind = RegionKind::Persistent;
        let layout = self.layout(kind);
        if layout.is_empty() {
            return 0;
        }
        let mut reqs: Vec<(PrefetchClass, BlockAddr)> = Vec::new();
        let mut leaves: Vec<u64> = Vec::new();
        for (block, _) in members {
            if self.map.data_region_of(*block) != Some(kind) {
                continue;
            }
            let data_index = layout.data_index(*block);
            let leaf = data_index / layout.counter_coverage;
            leaves.push(leaf);
            reqs.push((PrefetchClass::Counter, layout.counter_start + leaf));
            reqs.push((PrefetchClass::Mac, layout.mac_start + data_index / 8));
        }
        let coalesced = coalesce_dirty_paths(&layout.geometry, &leaves);
        for level in 1..layout.geometry.root_level() {
            for index in coalesced.nodes_at_level(level) {
                if let Some(addr) = layout.bmt_node_addr(level, *index) {
                    reqs.push((PrefetchClass::Node, addr));
                }
            }
        }
        let SecureMemory {
            prefetcher,
            counters,
            nodes,
            macs,
            ctr_cache,
            mt_cache,
            evict_queue,
            ..
        } = self;
        let plan = prefetcher.plan(&reqs, |class, addr| {
            let queued = evict_queue.iter().any(|e| e.addr() == addr);
            queued
                || match class {
                    PrefetchClass::Counter => {
                        counters.contains_key(addr.0) || ctr_cache.probe(addr)
                    }
                    PrefetchClass::Mac => macs.contains_key(addr.0) || mt_cache.probe(addr),
                    PrefetchClass::Node => nodes.contains_key(addr.0) || mt_cache.probe(addr),
                }
        });
        emit(
            &self.events,
            self.clock,
            "batch_prefetch",
            &[
                ("lines", plan.lines.len().into()),
                ("predicted_hits", plan.predicted_hits().into()),
                ("dedup_saved", plan.dedup_saved.into()),
            ],
        );
        plan.lines.len() as u64
    }
}
