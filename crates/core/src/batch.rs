//! Batched write-path persistence.
//!
//! A [`WriteBatch`] carries a program-ordered set of persistent-region
//! block writes whose durability is requested *together*. Compared to
//! calling [`SecureMemory::persist_block`] once per block, the batched
//! path ([`SecureMemory::persist_batch`]) exploits knowing the whole
//! set up front two ways:
//!
//! 1. **Coalesced BMT commit** — every member's atomic update set
//!    (ciphertext, counter, MAC, persisted tree nodes) merges
//!    last-wins into one pending staging buffer; ancestors shared by
//!    multiple dirty leaves are written to NVM once per batch, and the
//!    §3.3.5 register protocol (stage → READY_BIT → WPQ → commit) is
//!    charged once instead of once per member. `commit_batch` is the
//!    only implementation of that protocol: a write-back outside an
//!    open batch commits as a batch of one. Shared ancestors are also
//!    *hashed* once: a member whose whole path is on chip defers its
//!    path hashes, and one settle computes each dirty node's hash once
//!    (see below).
//! 2. **Prefetch planning** — the counter blocks, MAC blocks and
//!    coalesced tree-path nodes the batch will touch are planned
//!    through [`triad_cache::BatchPrefetcher`] before the first member
//!    executes, so their fetches can overlap (cf. trie prefetching for
//!    queued transaction blocks).
//!
//! The open batch, its staging buffer and the planning buffers are
//! reused from batch to batch, so a steady-state batch allocates
//! nothing.
//!
//! ## Crash safety
//!
//! The merged writes are **staged in place** in the persistent
//! registers: every stage, refresh and root advance updates the
//! registers' [`StagedUpdate`](crate::StagedUpdate) directly, so at
//! any point mid-batch the registers hold the full replayable prefix
//! (all fully processed members, merged). A crash between members therefore recovers
//! exactly like the scalar walk — processed members durable, the rest
//! lost — and each member consumes one persist-boundary durability
//! point, keeping armed-crash drivers scheme-agnostic.
//!
//! **The settle rule.** A deferred hash leaves stale slots in the
//! resident path nodes, the root register and the staged node copies
//! until the next settle. The engine settles before anything can
//! observe those values: at `commit_batch`, at `crash`, before an
//! eager walk, before `bump_parent_slot`, before a counter or node
//! fetch-and-verify, and before a counter-cache or MT-cache victim that
//! is an unhashed leaf's counter or path node is evicted (found before
//! the fill, while its value is still in its own line).
//! So the registers a crash leaves behind, and every byte that reaches
//! NVM, are those of the eager walk.

use triad_cache::PrefetchClass;
use triad_mem::store::Block;
use triad_meta::layout::RegionKind;
use triad_sim::events::emit;
use triad_sim::time::Time;
use triad_sim::{BlockAddr, BlockMap};

use crate::engine::{EngineState, Result, SecureMemory};
use crate::error::SecureMemoryError;
use crate::registers::{PersistentRegisters, StagedWrite};

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

/// The batch's bookkeeping beside its staged update: whether it is
/// open, and the class and address index of each merged write. The
/// merged writes and the pending persistent root live in the
/// persistent registers' [`StagedUpdate`](crate::StagedUpdate) (see
/// the module docs). The engine keeps one `PendingBatch` for its
/// lifetime and reuses its buffers from batch to batch.
#[derive(Debug, Default)]
pub(crate) struct PendingBatch {
    /// Whether a batch is open.
    open: bool,
    /// Class of each merged write, in first-staging order: entry `i`
    /// classes the registers' staged write `i`. A re-staged address
    /// keeps its position and class and takes the newest bytes.
    classes: Vec<WriteClass>,
    /// addr → position in `classes` and in the staged writes. Empty
    /// while the batch is closed.
    index: BlockMap<usize>,
    /// Writes a scalar walk would have performed (before merging).
    naive_writes: u64,
}

impl PendingBatch {
    /// Whether a batch is open.
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Opens an empty batch.
    pub(crate) fn open(&mut self) {
        self.open = true;
        self.classes.clear();
        self.naive_writes = 0;
    }

    /// Closes the batch, keeping its buffers. `regs` must still hold
    /// the batch's staged writes, whose addresses key the index.
    pub(crate) fn close(&mut self, regs: &PersistentRegisters) {
        if !self.classes.is_empty() {
            for w in regs.staged_writes() {
                self.index.remove(w.addr.0);
            }
        }
        debug_assert!(self.index.is_empty(), "index outlived its staged writes");
        self.classes.clear();
        self.open = false;
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
        self.naive_writes += 1;
        if self.refresh(regs, addr, data) {
            return;
        }
        if self.classes.is_empty() {
            regs.restage();
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
    /// the commit/recovery replay cannot clobber it with stale bytes,
    /// and when a settle fills in a staged node's deferred hashes).
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
    /// Persists every write of `batch` in order, sharing one prefetch
    /// plan and one coalesced register/WPQ commit across the members
    /// (the batched write path; see the module docs). Returns the time
    /// the whole batch is inside the persistence domain.
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
            mem.l3_store(block, data);
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
    /// [`SecureMemory::persist_batch`] and the epoch boundary. It plans
    /// the members' prefetches and counts the batch; then, per member,
    /// it takes one persist-boundary crash point and calls `write_back`
    /// with the latest completion time so far (`start` before the
    /// first). A member error commits the staged prefix, so the on-chip
    /// roots and the NVM image agree before the error surfaces. Finally
    /// the batch commits and the eviction queue drains.
    pub(crate) fn run_batch(
        &mut self,
        members: &[(BlockAddr, Block)],
        now: Time,
        start: Time,
        mut write_back: impl FnMut(&mut Self, BlockAddr, Block, Time) -> Result<Time>,
    ) -> Result<Time> {
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
        self.batch.open();
        let mut t = start;
        for &(block, data) in members {
            if self.persist_boundary_crash(now) {
                // The crash settled and closed the open batch; the
                // staged prefix (every fully processed member, merged)
                // replays at recovery — the scalar walk's per-member
                // durability.
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
        if !self.batch.is_open() {
            return None;
        }
        self.batch.lookup(&self.regs, addr)
    }

    /// Merges one member's atomic update set into the open batch, in
    /// place in the persistent registers. `head` is positionally
    /// classed exactly as the scalar protocol builds it: data, then
    /// (optionally) the counter, then the MAC; `nodes` are the
    /// persisted tree nodes. `new_root` is `None` when the member's
    /// path hashes are deferred: the settle stages the root then.
    pub(crate) fn stage_into_batch(
        &mut self,
        kind: RegionKind,
        head: &[StagedWrite],
        nodes: &[StagedWrite],
        persist_counter: bool,
        new_root: Option<triad_meta::NodeBuf>,
    ) {
        if !self.batch.is_open() {
            return;
        }
        for (i, w) in head.iter().enumerate() {
            let class = match (i, persist_counter) {
                (0, _) => WriteClass::Data,
                (1, true) => WriteClass::Counter,
                _ => WriteClass::Mac,
            };
            self.batch.stage(&mut self.regs, class, w.addr, w.data);
        }
        for w in nodes {
            self.batch
                .stage(&mut self.regs, WriteClass::Node, w.addr, w.data);
        }
        if let (RegionKind::Persistent, Some(root)) = (kind, new_root) {
            self.regs.staged_mut().new_persistent_root = Some(root);
        }
    }

    /// Stages a single write into the open batch (re-encryption path).
    pub(crate) fn batch_stage_raw(&mut self, class: WriteClass, addr: BlockAddr, data: Block) {
        if self.batch.is_open() {
            self.batch.stage(&mut self.regs, class, addr, data);
        }
    }

    /// Refreshes a pending write's bytes after a direct NVM write of
    /// the same block (eviction mid-batch) or a settle, so neither the
    /// commit nor a recovery replay can roll the block back to stale
    /// bytes.
    pub(crate) fn batch_refresh(&mut self, addr: BlockAddr, data: Block) {
        if self.batch.is_open() {
            self.batch.refresh(&mut self.regs, addr, data);
        }
    }

    /// Commits the open batch — the one implementation of the §3.3.5
    /// commit, for batches of one and of many alike: settles the
    /// deferred path hashes, charges the register protocol once,
    /// drains the merged writes through the WPQ (honouring the armed
    /// WPQ-crash hook), counts per-class persist writes, and clears the
    /// READY_BIT. A no-op when no batch is open or nothing was staged.
    pub(crate) fn commit_batch(&mut self, now: Time) -> Result<Time> {
        if !self.batch.is_open() {
            return Ok(now);
        }
        if let Err(e) = self.settle() {
            self.batch.close(&self.regs);
            return Err(e);
        }
        let staged = self.batch.classes.len();
        if staged == 0 {
            self.batch.close(&self.regs);
            return Ok(now);
        }
        let merged = self.batch.naive_writes - staged as u64;
        let mut t = now
            + self
                .config
                .security
                .persistent_register_latency
                .saturating_mul(staged as u64 + 1);
        emit(
            &self.events,
            now,
            "atomic_persist",
            &[
                ("staged_writes", staged.into()),
                ("merged_away", merged.into()),
            ],
        );
        for i in 0..staged {
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
            match self.batch.classes[i] {
                WriteClass::Data => {}
                WriteClass::Counter => self.stats.counter_writes_persist += 1,
                WriteClass::Mac => self.stats.mac_writes_persist += 1,
                WriteClass::Node => self.stats.node_writes_persist += 1,
            }
        }
        self.stats.atomic_persists += 1;
        self.stats.batch_writes_merged += merged;
        self.batch.close(&self.regs);
        self.regs.commit();
        Ok(t)
    }

    /// Plans the metadata prefetches of a queued batch: per-member
    /// counter and MAC lines plus the coalesced BMT path nodes, probed
    /// non-perturbingly against on-chip state. Paths coalesce level by
    /// level in one reused buffer, sorted and deduplicated (the
    /// engine-side form of [`triad_meta::bmt::coalesce_dirty_paths`]).
    /// Returns the number of distinct lines planned.
    pub(crate) fn plan_batch_prefetch(&mut self, members: &[(BlockAddr, Block)]) -> u64 {
        let SecureMemory {
            map,
            prefetcher,
            prefetch_reqs: reqs,
            path_nodes: nodes_at,
            ctr_cache,
            mt_cache,
            evict_queue,
            events,
            clock,
            ..
        } = self;
        let kind = RegionKind::Persistent;
        let layout = map.region(kind);
        if layout.is_empty() {
            return 0;
        }
        reqs.clear();
        nodes_at.clear();
        for (block, _) in members {
            if map.data_region_of(*block) != Some(kind) {
                continue;
            }
            let data_index = layout.data_index(*block);
            let leaf = data_index / layout.counter_coverage;
            nodes_at.push(leaf);
            reqs.push((PrefetchClass::Counter, layout.counter_start + leaf));
            reqs.push((PrefetchClass::Mac, layout.mac_start + data_index / 8));
        }
        let geom = &layout.geometry;
        for level in 1..geom.root_level() {
            for index in nodes_at.iter_mut() {
                *index = geom.parent(level - 1, *index).1;
            }
            nodes_at.sort_unstable();
            nodes_at.dedup();
            for &index in nodes_at.iter() {
                if let Some(addr) = layout.bmt_node_addr(level, index) {
                    reqs.push((PrefetchClass::Node, addr));
                }
            }
        }
        let plan = prefetcher.plan(reqs, |class, addr| {
            let queued = evict_queue.iter().any(|e| e.addr() == addr);
            queued
                || match class {
                    PrefetchClass::Counter => ctr_cache.probe(addr),
                    PrefetchClass::Mac | PrefetchClass::Node => mt_cache.probe(addr),
                }
        });
        emit(
            events,
            *clock,
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
