//! The Triad-NVM secure memory controller.
//!
//! [`SecureMemory`] models everything below the private caches: the
//! shared L3, the counter cache, the Merkle-tree cache (which also
//! holds MAC blocks), the encryption/MAC engines, the two per-region
//! Bonsai Merkle Trees, the persistent register file, and the NVM
//! memory controller with its ADR write-pending queue.
//!
//! ## Functional model
//!
//! The NVM image ([`triad_mem::SparseStore`]) always holds
//! *ciphertext* and *serialised metadata* — exactly the bytes a
//! physical attacker could read or modify. Plaintext and current
//! metadata values live in the lines of the on-chip caches that hold
//! them (L3, counter cache, MT cache); a [`SecureMemory::crash`] drops
//! all of it, and
//! [`SecureMemory::recover`] must then reconstruct a verified state
//! from the NVM image alone, which is what makes the paper's
//! experiments honest: tampering and torn persists really are detected
//! by MAC/tree mismatches.
//!
//! ## Write paths (Figure 3 / Figure 7)
//!
//! * **Lazy** (non-persistent region, or the `WriteBack` scheme):
//!   ciphertext goes to the WPQ at eviction; counters, MACs and tree
//!   nodes are updated in their caches only and written back when
//!   evicted, each eviction refreshing its parent's slot.
//! * **Atomic** (persistent region under `Strict`/`TriadNvm`): the
//!   update set {data, counter, MAC, persisted tree levels, new root}
//!   is staged in persistent registers (READY_BIT), copied into the
//!   WPQ, and committed; a crash mid-copy is replayed at recovery.

use std::collections::BTreeSet;

use triad_cache::{BatchPrefetcher, Cache, PrefetchClass, Replacement, ValueAccess};
use triad_crypto::aes::Aes128;
use triad_crypto::counter::{AnyCounterBlock, IncrementOutcome};
use triad_crypto::ctr::{decrypt_block, encrypt_block, Iv};
use triad_crypto::mac::{Mac64, MacEngine};
use triad_mem::controller::MemoryController;
use triad_mem::store::{Block, SparseStore};
use triad_meta::bmt::{self, NodeBuf, NodeId};
use triad_meta::layout::{BlockRole, MemoryMap, RegionKind, RegionLayout};
use triad_sim::config::SystemConfig;
use triad_sim::events::{emit, SharedEventSink};
use triad_sim::stats::{Histogram, Scope, StatRegister, StatRegistry, StatSet};
use triad_sim::time::{Duration, Time};
use triad_sim::{BlockAddr, BlockMap, PhysAddr, BLOCK_BYTES};

use crate::batch::PendingBatch;
use crate::error::{CrashHookKind, IntegrityKind, SecureMemoryError};
use crate::recovery::{CorruptRange, RecoveryReport};
use crate::registers::{PersistentRegisters, StagedWrite};
use crate::scheme::{CounterPersistence, KeyPolicy, PersistScheme};

/// Shorthand for results of secure-memory operations.
pub type Result<T> = std::result::Result<T, SecureMemoryError>;

/// Whether the engine is running or waiting for recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineState {
    Running,
    Crashed,
    /// Recovery declared the persistent region unverifiable.
    PersistentPoisoned,
}

/// Aggregate statistics of the secure engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecureStats {
    /// Loads served (block granularity).
    pub loads: u64,
    /// Loads that hit in L3.
    pub l3_load_hits: u64,
    /// Stores served.
    pub stores: u64,
    /// Persist operations (`store; clwb; sfence`).
    pub persists: u64,
    /// Reads satisfied as "fresh" (never-written) blocks.
    pub fresh_reads: u64,
    /// Lazy counter-block initialisations (§3.3.4 first-touch).
    pub lazy_counter_inits: u64,
    /// Data blocks encrypted and written to NVM.
    pub nvm_data_writes: u64,
    /// Data blocks fetched from NVM.
    pub nvm_data_reads: u64,
    /// Counter blocks written to NVM (persist path).
    pub counter_writes_persist: u64,
    /// Counter blocks written to NVM (eviction path).
    pub counter_writes_evict: u64,
    /// MAC blocks written to NVM (persist path).
    pub mac_writes_persist: u64,
    /// MAC blocks written to NVM (eviction path).
    pub mac_writes_evict: u64,
    /// BMT nodes written to NVM (persist path).
    pub node_writes_persist: u64,
    /// BMT nodes written to NVM (eviction path).
    pub node_writes_evict: u64,
    /// Counter blocks fetched from NVM.
    pub counter_reads: u64,
    /// MAC blocks fetched from NVM.
    pub mac_reads: u64,
    /// BMT nodes fetched from NVM.
    pub node_reads: u64,
    /// Minor-counter overflows (whole-page re-encryptions).
    pub page_reencryptions: u64,
    /// Atomic persist protocol executions.
    pub atomic_persists: u64,
    /// Epoch boundaries committed (epoch-persistency extension).
    pub epochs: u64,
    /// Counter persists skipped by the Osiris relaxation.
    pub osiris_counter_skips: u64,
    /// Counter blocks reconstructed by the Osiris search at access
    /// time after a crash.
    pub osiris_recoveries: u64,
    /// Write batches committed through the batched persist path.
    pub batches: u64,
    /// Members across all committed write batches.
    pub batch_members: u64,
    /// NVM writes merged away by batching: what a scalar walk would
    /// have written minus what the coalesced commit actually wrote.
    pub batch_writes_merged: u64,
}

impl SecureStats {
    /// Total metadata writes attributable to strict persistence.
    pub fn persist_metadata_writes(&self) -> u64 {
        self.counter_writes_persist + self.mac_writes_persist + self.node_writes_persist
    }

    /// Total metadata writes from natural evictions.
    pub fn evict_metadata_writes(&self) -> u64 {
        self.counter_writes_evict + self.mac_writes_evict + self.node_writes_evict
    }
}

impl StatRegister for SecureStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("loads", self.loads);
        scope.set("l3_load_hits", self.l3_load_hits);
        scope.set("stores", self.stores);
        scope.set("persists", self.persists);
        scope.set("fresh_reads", self.fresh_reads);
        scope.set("lazy_counter_inits", self.lazy_counter_inits);
        scope.set("nvm_data_writes", self.nvm_data_writes);
        scope.set("nvm_data_reads", self.nvm_data_reads);
        scope.set("counter_reads", self.counter_reads);
        scope.set("mac_reads", self.mac_reads);
        scope.set("node_reads", self.node_reads);
        scope.set("persist_metadata_writes", self.persist_metadata_writes());
        scope.set("evict_metadata_writes", self.evict_metadata_writes());
        scope.set("page_reencryptions", self.page_reencryptions);
        scope.set("atomic_persists", self.atomic_persists);
        scope.set("epochs", self.epochs);
        scope.set("osiris_counter_skips", self.osiris_counter_skips);
        scope.set("osiris_recoveries", self.osiris_recoveries);
        scope.set("batches", self.batches);
        scope.set("batch_members", self.batch_members);
        scope.set("batch_writes_merged", self.batch_writes_merged);
    }
}

/// Latency and depth distributions of the secure engine, attributing
/// per-op end-to-end time to its metadata components (BMT node,
/// counter and MAC fetches) — the overhead breakdown behind the
/// paper's Figure 8 gap between schemes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SecureHists {
    /// End-to-end latency of `load_block`/`store_block` (ns).
    pub op_latency_ns: Histogram,
    /// End-to-end latency of `persist_block`/`flush_block` (ns).
    pub persist_latency_ns: Histogram,
    /// NVM-fetch latency of counter blocks, including verification (ns).
    pub counter_fetch_ns: Histogram,
    /// NVM-fetch latency of MAC blocks (ns).
    pub mac_fetch_ns: Histogram,
    /// NVM-fetch latency of BMT nodes, including verification (ns).
    pub node_fetch_ns: Histogram,
    /// Eviction-queue depth sampled at each drain.
    pub evict_queue_depth: Histogram,
}

impl StatRegister for SecureHists {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.histogram("op_latency_ns", &self.op_latency_ns);
        scope.histogram("persist_latency_ns", &self.persist_latency_ns);
        scope.histogram("counter_fetch_ns", &self.counter_fetch_ns);
        scope.histogram("mac_fetch_ns", &self.mac_fetch_ns);
        scope.histogram("node_fetch_ns", &self.node_fetch_ns);
        scope.histogram("evict_queue_depth", &self.evict_queue_depth);
    }
}

/// A data region's bounds, for address arithmetic in user code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionHandle {
    start: PhysAddr,
    bytes: u64,
}

impl RegionHandle {
    /// First byte of the region's data area.
    pub fn start(&self) -> PhysAddr {
        self.start
    }

    /// Usable data bytes.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether `addr` falls inside the data area.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr.0 >= self.start.0 && addr.0 < self.start.0 + self.bytes
    }
}

/// Builder for [`SecureMemory`].
///
/// # Example
///
/// ```rust
/// use triad_core::{PersistScheme, SecureMemoryBuilder};
///
/// # fn main() -> Result<(), triad_core::SecureMemoryError> {
/// let mem = SecureMemoryBuilder::new()
///     .capacity_bytes(1 << 22)
///     .persistent_fraction_eighths(4)
///     .scheme(PersistScheme::triad_nvm(2))
///     .build()?;
/// assert!(mem.persistent_region().len_bytes() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SecureMemoryBuilder {
    config: SystemConfig,
    scheme: PersistScheme,
    key_policy: KeyPolicy,
    counter_persistence: CounterPersistence,
    key_seed: u64,
}

impl Default for SecureMemoryBuilder {
    fn default() -> Self {
        SecureMemoryBuilder::new()
    }
}

impl SecureMemoryBuilder {
    /// Starts from the small test configuration; override as needed.
    pub fn new() -> Self {
        SecureMemoryBuilder {
            config: SystemConfig::tiny(),
            scheme: PersistScheme::triad_nvm(1),
            key_policy: KeyPolicy::SessionCounter,
            counter_persistence: CounterPersistence::Strict,
            key_seed: 0x5EC0_11D5,
        }
    }

    /// Uses a complete [`SystemConfig`] (e.g. [`SystemConfig::isca19`]).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the NVM capacity in bytes.
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.config.mem.capacity_bytes = bytes;
        self
    }

    /// Sets the persistent-region fraction in eighths (§3.3.1 requires
    /// a whole number of eighths).
    pub fn persistent_fraction_eighths(mut self, eighths: u8) -> Self {
        self.config.persistent_eighths = eighths;
        self
    }

    /// Sets the persistence scheme.
    pub fn scheme(mut self, scheme: PersistScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the key policy (§3.3.2).
    pub fn key_policy(mut self, policy: KeyPolicy) -> Self {
        self.key_policy = policy;
        self
    }

    /// Sets the encryption-counter organisation (§2.1.2; split is the
    /// default, monolithic exists as an ablation).
    pub fn counter_mode(mut self, mode: triad_sim::config::CounterMode) -> Self {
        self.config.security.counter_mode = mode;
        self
    }

    /// Sets the counter-persistence policy (Osiris-style relaxation;
    /// see [`CounterPersistence`]).
    pub fn counter_persistence(mut self, policy: CounterPersistence) -> Self {
        self.counter_persistence = policy;
        self
    }

    /// Seeds key derivation (deterministic runs).
    pub fn key_seed(mut self, seed: u64) -> Self {
        self.key_seed = seed;
        self
    }

    /// Builds the engine, initialising both region trees over the
    /// all-zero NVM image.
    ///
    /// # Errors
    ///
    /// Returns [`SecureMemoryError::Config`] if the configuration fails
    /// validation.
    pub fn build(self) -> Result<SecureMemory> {
        if let CounterPersistence::Osiris { interval } = self.counter_persistence {
            if interval == 0 {
                return Err(SecureMemoryError::Config(
                    "osiris interval must be at least 1".to_string(),
                ));
            }
            if self.scheme.persisted_bmt_levels() < 1 {
                return Err(SecureMemoryError::Config(format!(
                    "osiris counter relaxation needs a persisted BMT level 1                      as its recovery oracle; scheme {} does not persist it",
                    self.scheme
                )));
            }
        }
        SecureMemory::new(
            self.config,
            self.scheme,
            self.key_policy,
            self.counter_persistence,
            self.key_seed,
        )
    }
}

fn derive_key(seed: u64, purpose: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    let mut x = triad_sim::rng::SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9));
    k[..8].copy_from_slice(&x.next_u64().to_le_bytes());
    k[8..].copy_from_slice(&x.next_u64().to_le_bytes());
    k
}

/// What an MT-cache line holds: a BMT node or a MAC block (8 tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MtLine {
    Node(NodeBuf),
    Mac(NodeBuf),
}

impl MtLine {
    /// The line's 64 bytes, whichever kind it is.
    fn buf(&self) -> NodeBuf {
        match *self {
            MtLine::Node(buf) | MtLine::Mac(buf) => buf,
        }
    }
}

/// A block displaced from an on-chip structure, carrying its current
/// value. Victims are *queued* and drained iteratively at the end of
/// each top-level operation — never handled recursively — so no two
/// live copies of the same metadata block can ever diverge.
#[derive(Debug, Clone)]
pub(crate) enum EvictItem {
    Data {
        addr: BlockAddr,
        plain: Block,
        dirty: bool,
    },
    Counter {
        addr: BlockAddr,
        value: AnyCounterBlock,
        dirty: bool,
    },
    Node {
        addr: BlockAddr,
        value: NodeBuf,
        dirty: bool,
    },
    Mac {
        addr: BlockAddr,
        value: NodeBuf,
        dirty: bool,
    },
}

impl EvictItem {
    pub(crate) fn addr(&self) -> BlockAddr {
        match self {
            EvictItem::Data { addr, .. }
            | EvictItem::Counter { addr, .. }
            | EvictItem::Node { addr, .. }
            | EvictItem::Mac { addr, .. } => *addr,
        }
    }
}

/// The secure memory controller (see module docs).
#[derive(Debug)]
pub struct SecureMemory {
    pub(crate) config: SystemConfig,
    pub(crate) map: MemoryMap,
    pub(crate) scheme: PersistScheme,
    key_policy: KeyPolicy,
    key_seed: u64,
    aes_persistent: Aes128,
    aes_volatile: Aes128,
    mac_engine: MacEngine,
    pub(crate) mc: MemoryController,
    /// Shared L3; each line holds its data block's plaintext.
    pub(crate) l3: Cache<Block>,
    /// Counter cache; each line holds its counter block's current value.
    pub(crate) ctr_cache: Cache<AnyCounterBlock>,
    /// Merkle-tree cache; each line holds a BMT node's or a MAC
    /// block's current value.
    pub(crate) mt_cache: Cache<MtLine>,
    pub(crate) regs: PersistentRegisters,
    pub(crate) state: EngineState,
    pub(crate) counter_persistence: CounterPersistence,
    /// Updates since the last forced counter persist (Osiris mode).
    osiris_since: BlockMap<u8>,
    /// Non-persistent data blocks written this boot session (fresh
    /// anonymous pages read as zeros, like an OS zero page).
    np_written: BlockMap<()>,
    boot_count: u64,
    pub(crate) stats: SecureStats,
    pub(crate) hists: SecureHists,
    /// Structured event tracing; `None` (the default) costs nothing.
    pub(crate) events: Option<SharedEventSink>,
    pub(crate) clock: Time,
    /// Victims awaiting their downstream write-back (see [`EvictItem`]).
    pub(crate) evict_queue: Vec<EvictItem>,
    /// Blocks whose persists are deferred to the next epoch boundary
    /// (`None` = epoch persistency inactive; see
    /// [`SecureMemory::begin_epoch`]).
    pub(crate) epoch: Option<Vec<BlockAddr>>,
    /// The write batch: while open, atomic write-backs stage into its
    /// pending set, and one `commit_batch` runs the register/WPQ
    /// protocol for all of them. A write-back outside a batch opens a
    /// batch of one (see [`crate::batch`]).
    pub(crate) batch: PendingBatch,
    /// Prefetch planner fed by queued write batches.
    pub(crate) prefetcher: BatchPrefetcher,
    /// Leaves whose path hashes a lazy walk deferred, with repeats, in
    /// walk order; emptied by [`SecureMemory::settle`].
    pub(crate) unhashed: Vec<(RegionKind, u64)>,
    /// Reused buffer: the persisted tree nodes of one write-back's
    /// atomic update set.
    update_nodes: Vec<StagedWrite>,
    /// Reused buffer: one tree level's node indices (settle, prefetch
    /// planning).
    pub(crate) path_nodes: Vec<u64>,
    /// Reused buffer: the hashes of `path_nodes` (settle).
    path_hashes: Vec<Mac64>,
    /// Reused buffer: a queued batch's prefetch requests.
    pub(crate) prefetch_reqs: Vec<(PrefetchClass, BlockAddr)>,
    /// Test hook: crash after this many further WPQ copies inside
    /// atomic persists.
    pub(crate) crash_after_wpq_writes: Option<u64>,
    /// Test hook: crash instead of performing the n-th further
    /// durability point (persist/flush write-back, epoch member flush,
    /// one batch member apply).
    pub(crate) crash_after_persists: Option<u64>,
}

impl SecureMemory {
    fn new(
        config: SystemConfig,
        scheme: PersistScheme,
        key_policy: KeyPolicy,
        counter_persistence: CounterPersistence,
        key_seed: u64,
    ) -> Result<Self> {
        config.validate().map_err(SecureMemoryError::Config)?;
        let map = MemoryMap::new(&config);
        let mut engine = SecureMemory {
            aes_persistent: Aes128::new(&derive_key(key_seed, 0)),
            aes_volatile: Aes128::new(&derive_key(key_seed, 1)),
            mac_engine: MacEngine::new(derive_key(key_seed, 2)),
            mc: MemoryController::new(config.mem),
            l3: Cache::with_values("l3", config.l3, Replacement::Lru, [0; BLOCK_BYTES]),
            ctr_cache: Cache::with_values(
                "ctr",
                config.security.counter_cache,
                Replacement::Lru,
                AnyCounterBlock::fresh(
                    config.security.counter_mode == triad_sim::config::CounterMode::Split,
                ),
            ),
            mt_cache: Cache::with_values(
                "mt",
                config.security.mt_cache,
                Replacement::Lru,
                MtLine::Node(NodeBuf::zeroed()),
            ),
            regs: PersistentRegisters::new(),
            state: EngineState::Running,
            counter_persistence,
            osiris_since: BlockMap::new(),
            np_written: BlockMap::new(),
            boot_count: 1,
            stats: SecureStats::default(),
            hists: SecureHists::default(),
            events: None,
            clock: Time::ZERO,
            evict_queue: Vec::new(),
            epoch: None,
            batch: PendingBatch::default(),
            prefetcher: BatchPrefetcher::new(),
            unhashed: Vec::new(),
            update_nodes: Vec::new(),
            path_nodes: Vec::new(),
            path_hashes: Vec::new(),
            prefetch_reqs: Vec::new(),
            crash_after_wpq_writes: None,
            crash_after_persists: None,
            config,
            map,
            scheme,
            key_policy,
            key_seed,
        };
        // Initial tree build over the all-zero image: with the §3.3.4
        // zero sentinel this touches no counter bytes and stores only
        // the (few) non-zero upper levels.
        for kind in RegionKind::ALL {
            let layout = engine.map.region(kind).clone();
            if layout.is_empty() {
                continue;
            }
            let out =
                bmt::rebuild_from_level(engine.mc.store_mut(), &layout, &engine.mac_engine, 0);
            engine.set_root(kind, out.root);
        }
        Ok(engine)
    }

    // ----- small accessors -------------------------------------------------

    /// The persistence scheme in force.
    pub fn scheme(&self) -> PersistScheme {
        self.scheme
    }

    /// The key policy in force.
    pub fn key_policy(&self) -> KeyPolicy {
        self.key_policy
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The physical memory map.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.map
    }

    /// Engine statistics.
    pub fn stats(&self) -> SecureStats {
        self.stats
    }

    /// Engine latency distributions.
    pub fn histograms(&self) -> &SecureHists {
        &self.hists
    }

    /// Routes structured events (WPQ lifecycle, metadata evictions,
    /// crash and recovery phases) from the engine and its memory
    /// controller into `sink`. Tracing is off until this is called.
    pub fn set_event_sink(&mut self, sink: SharedEventSink) {
        self.mc.set_event_sink(sink.clone());
        self.events = Some(sink);
    }

    /// Memory-controller statistics (NVM traffic, WPQ behaviour).
    pub fn mem_stats(&self) -> triad_mem::MemStats {
        self.mc.stats()
    }

    /// Per-block NVM wear statistics (physical drains).
    pub fn wear(&self) -> &triad_mem::WearTracker {
        self.mc.wear()
    }

    /// The raw NVM image — the attacker's view.
    pub fn nvm_image(&self) -> &SparseStore {
        self.mc.store()
    }

    /// Mutable NVM image, for tamper injection in security tests.
    pub fn nvm_image_mut(&mut self) -> &mut SparseStore {
        self.mc.store_mut()
    }

    /// The current boot session counter.
    pub fn session(&self) -> u32 {
        self.regs.session
    }

    /// The on-chip root node of a region's BMT.
    pub fn root(&self, kind: RegionKind) -> NodeBuf {
        match kind {
            RegionKind::Persistent => self.regs.persistent_root,
            RegionKind::NonPersistent => self.regs.non_persistent_root,
        }
    }

    fn set_root(&mut self, kind: RegionKind, root: NodeBuf) {
        match kind {
            RegionKind::Persistent => self.regs.persistent_root = root,
            RegionKind::NonPersistent => self.regs.non_persistent_root = root,
        }
    }

    /// Bounds of the persistent region's data area.
    pub fn persistent_region(&self) -> RegionHandle {
        let r = self.map.persistent();
        RegionHandle {
            start: r.data_base(),
            bytes: r.data_bytes(),
        }
    }

    /// Bounds of the non-persistent region's data area.
    pub fn non_persistent_region(&self) -> RegionHandle {
        let r = self.map.non_persistent();
        RegionHandle {
            start: r.data_base(),
            bytes: r.data_bytes(),
        }
    }

    /// Arms the crash hook: the engine will crash after `n` further
    /// WPQ copies performed inside atomic persists (0 = before the
    /// next one). Used by crash-consistency tests.
    ///
    /// Legacy arming API: re-arming silently overwrites (sweep loops
    /// rely on that), and it may be combined with
    /// [`SecureMemory::inject_crash_after_persists`] — precedence is
    /// whichever-fires-first-wins, and the first fire disarms every
    /// other armed hook so the loser can never fire spuriously after
    /// recovery. New code should prefer the typed
    /// [`SecureMemory::arm_crash`], which rejects conflicting arming.
    pub fn inject_crash_after_wpq_writes(&mut self, n: u64) {
        self.crash_after_wpq_writes = Some(n);
    }

    /// Arms the persist-boundary crash hook: the engine will crash
    /// *instead of* performing the `n`-th further durability point
    /// (0 = the very next one). A durability point is a data
    /// write-back that would make a block durable: a non-epoch
    /// [`SecureMemory::persist_block`], a dirty
    /// [`SecureMemory::flush_block`], one deferred member flush
    /// inside [`SecureMemory::end_epoch`], or one member apply inside
    /// [`SecureMemory::persist_batch`] (a batch of *n* members spans
    /// *n* boundaries, exactly like the scalar walk it replaces). Used
    /// by crash-consistency drivers that enumerate every boundary of a
    /// fixed history (the KV crash-equivalence suite).
    ///
    /// [`SecureMemory::persist_batch`]: SecureMemory::persist_batch
    ///
    /// Legacy arming API with the same overwrite/precedence semantics
    /// as [`SecureMemory::inject_crash_after_wpq_writes`]; prefer
    /// [`SecureMemory::arm_crash`] in new code.
    pub fn inject_crash_after_persists(&mut self, n: u64) {
        self.crash_after_persists = Some(n);
    }

    /// The crash hook currently armed, if any. When both legacy hooks
    /// were armed through the `inject_*` API this reports the
    /// persist-boundary hook (the one that fires at the coarser
    /// boundary), but the runtime precedence is always
    /// whichever-fires-first-wins.
    pub fn armed_crash_hook(&self) -> Option<CrashHookKind> {
        if self.crash_after_persists.is_some() {
            Some(CrashHookKind::PersistBoundary)
        } else if self.crash_after_wpq_writes.is_some() {
            Some(CrashHookKind::WpqWrite)
        } else {
            None
        }
    }

    /// Typed crash-hook arming: arms `kind` to fire after `n` further
    /// trigger points, like the legacy `inject_*` pair, but rejects
    /// arming while **any** hook is still armed — conflicting re-arms
    /// were previously silent and their precedence undefined. The
    /// defined precedence is whichever-fires-first-wins: the first
    /// hook to fire disarms all others.
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::CrashHookArmed`] when a hook (of either
    /// kind) is already armed; disarm with
    /// [`SecureMemory::disarm_crash_hooks`] first.
    pub fn arm_crash(&mut self, kind: CrashHookKind, n: u64) -> Result<()> {
        if let Some(existing) = self.armed_crash_hook() {
            return Err(SecureMemoryError::CrashHookArmed {
                existing,
                requested: kind,
            });
        }
        match kind {
            CrashHookKind::PersistBoundary => self.crash_after_persists = Some(n),
            CrashHookKind::WpqWrite => self.crash_after_wpq_writes = Some(n),
        }
        Ok(())
    }

    /// Disarms every armed crash hook (idempotent).
    pub fn disarm_crash_hooks(&mut self) {
        self.crash_after_persists = None;
        self.crash_after_wpq_writes = None;
    }

    /// Consumes one durability point from the persist-boundary crash
    /// hook. Returns `true` when the armed crash fired: the engine is
    /// already in the crashed state and the caller must abandon the
    /// persist and surface [`SecureMemoryError::NeedsRecovery`].
    pub(crate) fn persist_boundary_crash(&mut self, now: Time) -> bool {
        match self.crash_after_persists {
            Some(0) => {
                // First fire wins: a concurrently armed WPQ-write hook
                // must not fire spuriously after recovery.
                self.disarm_crash_hooks();
                emit(
                    &self.events,
                    now,
                    "crash",
                    &[("injected", true.into()), ("at", "persist_boundary".into())],
                );
                self.crash();
                true
            }
            Some(left) => {
                self.crash_after_persists = Some(left - 1);
                false
            }
            None => false,
        }
    }

    /// The internal clock of the convenience (untimed) API.
    pub fn now(&self) -> Time {
        self.clock
    }

    pub(crate) fn split_counters(&self) -> bool {
        self.config.security.counter_mode == triad_sim::config::CounterMode::Split
    }

    pub(crate) fn aes_for(&self, kind: RegionKind) -> &Aes128 {
        match (self.key_policy, kind) {
            (KeyPolicy::SessionCounter, _) => &self.aes_persistent,
            (KeyPolicy::DualKey, RegionKind::Persistent) => &self.aes_persistent,
            (KeyPolicy::DualKey, RegionKind::NonPersistent) => &self.aes_volatile,
        }
    }

    fn session_for(&self, kind: RegionKind) -> u32 {
        match (self.key_policy, kind) {
            // §3.3.2: persistent data always uses session 0 so it stays
            // decryptable across boots; non-persistent data uses the
            // current boot session.
            (KeyPolicy::SessionCounter, RegionKind::Persistent) => 0,
            (KeyPolicy::SessionCounter, RegionKind::NonPersistent) => self.regs.session,
            (KeyPolicy::DualKey, _) => 0,
        }
    }

    pub(crate) fn layout(&self, kind: RegionKind) -> &RegionLayout {
        self.map.region(kind)
    }

    pub(crate) fn check_running(&self) -> Result<()> {
        match self.state {
            EngineState::Running | EngineState::PersistentPoisoned => Ok(()),
            EngineState::Crashed => Err(SecureMemoryError::NeedsRecovery),
        }
    }

    // ----- cache wrappers: victims are queued, never handled inline --------

    /// Accesses `block` in L3, queueing a victim with its plaintext.
    /// Returns whether the access hit, and the line's plaintext: zeros
    /// after a miss, until the caller fills it.
    fn l3_access(&mut self, block: BlockAddr, write: bool) -> (bool, &mut Block) {
        let ValueAccess { hit, value, victim } = self.l3.access_value(block, write);
        if let Some(v) = victim {
            self.evict_queue.push(EvictItem::Data {
                addr: v.addr,
                plain: v.value,
                dirty: v.dirty,
            });
        }
        (hit, value)
    }

    /// Stores `data` into L3 as a dirty line, superseding any pending
    /// write-back of the same block.
    pub(crate) fn l3_store(&mut self, block: BlockAddr, data: Block) {
        self.reclaim(block);
        *self.l3_access(block, true).1 = data;
    }

    /// Puts `value` into counter-cache line `block`, allocating it on a
    /// miss. A victim that is an unhashed leaf's counter settles first,
    /// while its value is still readable at its own address; the victim
    /// then leaves with its value.
    fn ctr_put(&mut self, block: BlockAddr, value: AnyCounterBlock, write: bool) -> Result<()> {
        if let Some(line) = self.ctr_cache.touch(block, write) {
            *line = value;
            return Ok(());
        }
        if !self.unhashed.is_empty() {
            let victim = self.ctr_cache.would_evict(block).map(|(addr, _)| addr);
            if victim.is_some_and(|addr| self.counter_unhashed(addr)) {
                self.settle()?;
            }
        }
        let ValueAccess {
            value: line,
            victim,
            ..
        } = self.ctr_cache.access_value(block, write);
        *line = value;
        if let Some(v) = victim {
            self.evict_queue.push(EvictItem::Counter {
                addr: v.addr,
                value: v.value,
                dirty: v.dirty,
            });
        }
        Ok(())
    }

    /// Puts `value` (a BMT node or a MAC block) into MT-cache line
    /// `block`, allocating it on a miss. A victim that is a path node
    /// of an unhashed leaf settles first, while its value is still
    /// readable at its own address; the victim then leaves with its
    /// value.
    fn mt_put(&mut self, block: BlockAddr, value: MtLine, write: bool) -> Result<()> {
        if let Some(line) = self.mt_cache.touch(block, write) {
            *line = value;
            return Ok(());
        }
        if !self.unhashed.is_empty() {
            let victim = match self.mt_cache.would_evict(block) {
                Some((addr, MtLine::Node(_))) => Some(addr),
                _ => None,
            };
            if victim.is_some_and(|addr| self.node_unhashed(addr)) {
                self.settle()?;
            }
        }
        let ValueAccess {
            value: line,
            victim,
            ..
        } = self.mt_cache.access_value(block, write);
        *line = value;
        if let Some(v) = victim {
            let (addr, dirty) = (v.addr, v.dirty);
            self.evict_queue.push(match v.value {
                MtLine::Node(value) => EvictItem::Node { addr, value, dirty },
                MtLine::Mac(value) => EvictItem::Mac { addr, value, dirty },
            });
        }
        Ok(())
    }

    /// Whether counter block `addr` belongs to an unhashed leaf.
    fn counter_unhashed(&self, addr: BlockAddr) -> bool {
        if self.unhashed.is_empty() {
            return false;
        }
        let Some(kind) = self.map.region_of(addr.base()) else {
            return false;
        };
        let leaf = addr - self.layout(kind).counter_start;
        self.unhashed.contains(&(kind, leaf))
    }

    /// Whether BMT node `addr` is on an unhashed leaf's path.
    fn node_unhashed(&self, addr: BlockAddr) -> bool {
        if self.unhashed.is_empty() {
            return false;
        }
        let Some(kind) = self.map.region_of(addr.base()) else {
            return false;
        };
        let layout = self.layout(kind);
        let BlockRole::BmtNode(level) = layout.role_of(addr) else {
            return false;
        };
        let index = addr - layout.bmt_level_start[level as usize - 1];
        let span = layout.geometry.arity().pow(u32::from(level));
        self.unhashed
            .iter()
            .any(|&(k, leaf)| k == kind && leaf / span == index)
    }

    /// Pulls a still-queued victim back on chip (a fetch racing its own
    /// pending write-back must see the newest value, not stale NVM).
    pub(crate) fn reclaim(&mut self, addr: BlockAddr) -> Option<EvictItem> {
        let pos = self.evict_queue.iter().position(|e| e.addr() == addr)?;
        Some(self.evict_queue.remove(pos))
    }

    /// Drains the eviction queue: every dirty victim is written to NVM
    /// and its parent's hash slot refreshed (the §3.2 lazy-propagation
    /// discipline). Handlers may queue further victims; the loop runs
    /// until quiescence.
    pub(crate) fn drain_evictions(&mut self, now: Time) -> Result<()> {
        self.hists
            .evict_queue_depth
            .record(self.evict_queue.len() as u64);
        while let Some(item) = self.evict_queue.pop() {
            if self.events.is_some() {
                let kind = match &item {
                    EvictItem::Data { dirty, .. } if *dirty => Some("data"),
                    EvictItem::Counter { dirty, .. } if *dirty => Some("counter"),
                    EvictItem::Node { dirty, .. } if *dirty => Some("node"),
                    EvictItem::Mac { dirty, .. } if *dirty => Some("mac"),
                    _ => None,
                };
                if let Some(kind) = kind {
                    emit(
                        &self.events,
                        now,
                        "meta_evict",
                        &[("kind", kind.into()), ("addr", item.addr().0.into())],
                    );
                }
            }
            match item {
                EvictItem::Data { addr, plain, dirty } => {
                    if dirty {
                        self.writeback_data(addr, plain, now)?;
                    }
                }
                EvictItem::Counter { addr, value, dirty } => {
                    if !dirty {
                        continue;
                    }
                    let kind = self.map.region_of(addr.base()).ok_or_else(|| {
                        SecureMemoryError::internal(format!(
                            "queued counter block {addr} is outside every region"
                        ))
                    })?;
                    let leaf = self.layout(kind).leaf_index(addr);
                    let bytes = value.to_bytes();
                    self.mc.write(addr, bytes, now);
                    self.batch_refresh(addr, bytes);
                    self.stats.counter_writes_evict += 1;
                    let h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &bytes);
                    self.bump_parent_slot(kind, 0, leaf, h, now)?;
                }
                EvictItem::Node { addr, value, dirty } => {
                    if !dirty {
                        continue;
                    }
                    let kind = self.map.region_of(addr.base()).ok_or_else(|| {
                        SecureMemoryError::internal(format!(
                            "queued BMT node {addr} is outside every region"
                        ))
                    })?;
                    let layout = self.layout(kind);
                    let BlockRole::BmtNode(level) = layout.role_of(addr) else {
                        unreachable!("queued node at {addr} is not a BMT node");
                    };
                    let index = addr - layout.bmt_level_start[level as usize - 1];
                    self.mc.write(addr, value.0, now);
                    self.batch_refresh(addr, value.0);
                    self.stats.node_writes_evict += 1;
                    let h = bmt::node_hash(
                        &self.mac_engine,
                        NodeId {
                            region: kind,
                            level,
                            index,
                        },
                        &value.0,
                    );
                    self.bump_parent_slot(kind, level, index, h, now)?;
                }
                EvictItem::Mac { addr, value, dirty } => {
                    if dirty {
                        self.mc.write(addr, value.0, now);
                        self.batch_refresh(addr, value.0);
                        self.stats.mac_writes_evict += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Updates the parent slot of node `(level, index)` after its NVM
    /// copy changed (lazy propagation: the §3.2 eviction discipline).
    fn bump_parent_slot(
        &mut self,
        kind: RegionKind,
        level: u8,
        index: u64,
        hash: Mac64,
        now: Time,
    ) -> Result<()> {
        self.settle()?;
        let geom = &self.layout(kind).geometry;
        let (p_level, p_index) = geom.parent(level, index);
        let slot = geom.child_slot(index);
        if p_level == geom.root_level() {
            let mut root = self.root(kind);
            root.set_slot(slot, hash);
            self.set_root(kind, root);
            return Ok(());
        }
        self.ensure_node(kind, p_level, p_index, now)?;
        let addr = self
            .layout(kind)
            .bmt_node_addr(p_level, p_index)
            .ok_or_else(|| {
                SecureMemoryError::internal(format!(
                    "BMT parent ({p_level}, {p_index}) has no in-memory address"
                ))
            })?;
        match self.mt_cache.touch(addr, true) {
            Some(MtLine::Node(node)) => {
                node.set_slot(slot, hash);
                Ok(())
            }
            _ => Err(SecureMemoryError::internal(format!(
                "ensure_node left no resident node at {addr}"
            ))),
        }
    }

    // ----- metadata fetch with verification ---------------------------------

    /// Returns the current value of BMT node `(level, index)`, fetching
    /// and verifying it from NVM if it is not resident on chip.
    fn ensure_node(
        &mut self,
        kind: RegionKind,
        level: u8,
        index: u64,
        now: Time,
    ) -> Result<(NodeBuf, Time)> {
        let geom_root = self.layout(kind).geometry.root_level();
        if level == geom_root {
            return Ok((self.root(kind), now));
        }
        let addr = self.node_addr(kind, level, index)?;
        if let Some(line) = self.mt_cache.touch(addr, false) {
            let buf = line.buf();
            return Ok((buf, now + self.mt_cache.latency()));
        }
        // A pending write-back holds the newest value.
        if let Some(EvictItem::Node { value, dirty, .. }) = self.reclaim(addr) {
            self.mt_put(addr, MtLine::Node(value), dirty)?;
            return Ok((value, now + self.mt_cache.latency()));
        }
        // Fetch from NVM and verify against the parent, whose slots
        // must hold every deferred hash. A block staged in an open
        // batch is forwarded from the staging buffer: its NVM copy is
        // stale until the batch commits.
        self.settle()?;
        let (bytes, t) = match self.batch_forward(addr) {
            Some(fwd) => (fwd, now),
            None => self.mc.read(addr, now),
        };
        self.stats.node_reads += 1;
        let h = bmt::node_hash(
            &self.mac_engine,
            NodeId {
                region: kind,
                level,
                index,
            },
            &bytes,
        );
        let geom = &self.layout(kind).geometry;
        let (p_level, p_index) = geom.parent(level, index);
        let slot = geom.child_slot(index);
        let (parent, tp) = self.ensure_node(kind, p_level, p_index, now)?;
        if parent.slot(slot) != h {
            return Err(SecureMemoryError::IntegrityViolation {
                kind: IntegrityKind::BmtNode,
                block: addr,
            });
        }
        let buf = NodeBuf(bytes);
        self.mt_put(addr, MtLine::Node(buf), false)?;
        let done = t.max(tp) + self.config.security.hash_latency;
        self.hists.node_fetch_ns.record(done.since(now).as_ns());
        Ok((buf, done))
    }

    fn put_node(
        &mut self,
        kind: RegionKind,
        level: u8,
        index: u64,
        buf: NodeBuf,
        dirty: bool,
    ) -> Result<()> {
        if level == self.layout(kind).geometry.root_level() {
            self.set_root(kind, buf);
            return Ok(());
        }
        let addr = self.node_addr(kind, level, index)?;
        self.mt_put(addr, MtLine::Node(buf), dirty)
    }

    /// Returns the current counter block for leaf `leaf`, fetching and
    /// verifying from NVM on a counter-cache miss. Handles the §3.3.4
    /// lazy first-touch of non-persistent counters.
    fn ensure_counter(
        &mut self,
        kind: RegionKind,
        leaf: u64,
        now: Time,
    ) -> Result<(AnyCounterBlock, Time)> {
        let addr = self.layout(kind).counter_start + leaf;
        if let Some(&mut cb) = self.ctr_cache.touch(addr, false) {
            return Ok((cb, now + self.ctr_cache.latency()));
        }
        if let Some(EvictItem::Counter { value, dirty, .. }) = self.reclaim(addr) {
            self.ctr_put(addr, value, dirty)?;
            return Ok((value, now + self.ctr_cache.latency()));
        }
        // Fetch and verify: the parent's slots must hold every deferred
        // hash.
        self.settle()?;
        let (bytes, t) = match self.batch_forward(addr) {
            Some(fwd) => (fwd, now),
            None => self.mc.read(addr, now),
        };
        self.stats.counter_reads += 1;
        let h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &bytes);
        let geom = &self.layout(kind).geometry;
        let (p_level, p_index) = geom.parent(0, leaf);
        let slot = geom.child_slot(leaf);
        let (parent, tp) = self.ensure_node(kind, p_level, p_index, now)?;
        let expected = parent.slot(slot);
        let split = self.split_counters();
        let cb = if expected == h {
            AnyCounterBlock::from_bytes(split, &bytes)
        } else if expected.is_zero() && kind == RegionKind::NonPersistent {
            // First touch after a crash: the stale NVM counter is
            // discarded and the block restarts from zero (§3.3.4).
            self.stats.lazy_counter_inits += 1;
            AnyCounterBlock::fresh(split)
        } else if let Some(recovered) = self.osiris_search(kind, leaf, &bytes, expected, now)? {
            // Osiris: the stale counter was reconstructed from the
            // strictly persisted MACs and validated against the tree.
            self.mc.write(addr, recovered.to_bytes(), now);
            self.stats.counter_writes_persist += 1;
            recovered
        } else {
            return Err(SecureMemoryError::IntegrityViolation {
                kind: IntegrityKind::Counter,
                block: addr,
            });
        };
        self.ctr_put(addr, cb, false)?;
        let done = t.max(tp) + self.config.security.hash_latency;
        self.hists.counter_fetch_ns.record(done.since(now).as_ns());
        Ok((cb, done))
    }

    /// Osiris counter reconstruction (Ye et al., MICRO'18 — the
    /// relaxation the paper's §6 cites as orthogonal): a counter block
    /// whose hash mismatches its (strictly persisted) BMT parent slot
    /// is reconstructed by trying up to `interval` consecutive counter
    /// values per data block against the strictly persisted MACs, then
    /// validated as a whole against the parent slot. Returns
    /// `Ok(None)` when reconstruction is impossible (true tampering,
    /// or Osiris inactive).
    fn osiris_search(
        &mut self,
        kind: RegionKind,
        leaf: u64,
        stored: &Block,
        expected: Mac64,
        now: Time,
    ) -> Result<Option<AnyCounterBlock>> {
        let CounterPersistence::Osiris { interval } = self.counter_persistence else {
            return Ok(None);
        };
        if kind != RegionKind::Persistent {
            return Ok(None);
        }
        let layout = self.layout(kind);
        let (coverage, data_blocks, data_start) = (
            layout.counter_coverage,
            layout.data_blocks,
            layout.data_start,
        );
        let split = self.split_counters();
        let mut cb = AnyCounterBlock::from_bytes(split, stored);
        for s in 0..coverage as usize {
            let data_index = leaf * coverage + s as u64;
            if data_index >= data_blocks {
                break;
            }
            let (mac_buf, _) = self.ensure_mac_block(kind, data_index, now)?;
            let tag = mac_buf.slot((data_index % 8) as usize);
            if tag.is_zero() {
                continue; // never written: stored (zero) counter stands
            }
            let block = data_start + data_index;
            let (ct, _) = self.mc.read(block, now);
            let mut trial = cb;
            let mut found = false;
            for _ in 0..=interval {
                let pair = trial.pair(s);
                let iv = self.data_iv(kind, block, pair.major, pair.minor);
                if self.data_tag(block, &ct, &iv) == tag {
                    cb = trial;
                    found = true;
                    break;
                }
                if trial.increment(s) == IncrementOutcome::MajorOverflow {
                    // A lost page re-encryption cannot be searched for;
                    // give up on this block.
                    break;
                }
            }
            if !found {
                return Ok(None);
            }
        }
        let bytes = cb.to_bytes();
        let h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &bytes);
        if h == expected {
            self.stats.osiris_recoveries += 1;
            Ok(Some(cb))
        } else {
            Ok(None)
        }
    }

    /// Returns the MAC block for data index `data_index` (8 tags per
    /// block), fetching from NVM on a miss. MAC blocks are keyed tags
    /// and need no tree verification.
    fn ensure_mac_block(
        &mut self,
        kind: RegionKind,
        data_index: u64,
        now: Time,
    ) -> Result<(NodeBuf, Time)> {
        let addr = self.layout(kind).mac_start + data_index / 8;
        if let Some(line) = self.mt_cache.touch(addr, false) {
            let buf = line.buf();
            return Ok((buf, now + self.mt_cache.latency()));
        }
        if let Some(EvictItem::Mac { value, dirty, .. }) = self.reclaim(addr) {
            self.mt_put(addr, MtLine::Mac(value), dirty)?;
            return Ok((value, now + self.mt_cache.latency()));
        }
        let (bytes, t) = match self.batch_forward(addr) {
            Some(fwd) => (fwd, now),
            None => self.mc.read(addr, now),
        };
        self.stats.mac_reads += 1;
        let buf = NodeBuf(bytes);
        self.mt_put(addr, MtLine::Mac(buf), false)?;
        self.hists.mac_fetch_ns.record(t.since(now).as_ns());
        Ok((buf, t))
    }

    pub(crate) fn data_iv(&self, kind: RegionKind, block: BlockAddr, major: u64, minor: u8) -> Iv {
        Iv {
            page: block.page(),
            offset: block.page_offset() as u8,
            major,
            minor,
            session: self.session_for(kind),
        }
    }

    fn data_tag(&self, block: BlockAddr, ct: &Block, iv: &Iv) -> Mac64 {
        let t = self.mac_engine.data_mac(block.0, ct, iv);
        // Zero is reserved as the "never written" marker.
        if t.is_zero() {
            Mac64(1)
        } else {
            t
        }
    }

    // ----- write-back / persist path ----------------------------------------

    /// Encrypts and writes `block` to NVM, updating counter, MAC and
    /// tree according to the region and scheme. Eviction callers pass
    /// the captured plaintext of a line that is already gone from L3.
    pub(crate) fn writeback_data(
        &mut self,
        block: BlockAddr,
        plaintext: Block,
        now: Time,
    ) -> Result<Time> {
        let kind = self
            .map
            .data_region_of(block)
            .ok_or(SecureMemoryError::OutOfRange { addr: block.base() })?;
        let layout = self.layout(kind);
        let data_index = layout.data_index(block);
        let coverage = layout.counter_coverage;
        let leaf = data_index / coverage;
        let slot = (data_index % coverage) as usize;
        let counter_addr = layout.counter_start + leaf;
        let mac_addr = layout.mac_start + data_index / 8;
        let root_level = layout.geometry.root_level();

        // 1. Advance the counter.
        let (mut cb, mut t) = self.ensure_counter(kind, leaf, now)?;
        let old_cb = cb;
        let outcome = cb.increment(slot);
        self.ctr_put(counter_addr, cb, true)?;

        // 2. Encrypt and MAC the block.
        let pair = cb.pair(slot);
        let iv = self.data_iv(kind, block, pair.major, pair.minor);
        let ct = encrypt_block(self.aes_for(kind), &iv, &plaintext);
        let tag = self.data_tag(block, &ct, &iv);
        let (mut mac_buf, t_mac) = self.ensure_mac_block(kind, data_index, now)?;
        mac_buf.set_slot((data_index % 8) as usize, tag);
        self.mt_put(mac_addr, MtLine::Mac(mac_buf), true)?;
        t = t.max(t_mac) + self.config.security.hash_latency;

        // 3. Minor overflow: the whole page re-encrypts under the new
        //    major counter (§2.1.2).
        if outcome == IncrementOutcome::MajorOverflow {
            self.stats.page_reencryptions += 1;
            let persist_macs = kind == RegionKind::Persistent && self.scheme.persists_metadata();
            t = self
                .reencrypt_page(kind, leaf, slot, &old_cb, &cb, persist_macs, now)?
                .max(t);
            // The re-encryption rewrote the page's other tags, some of
            // them in this block's MAC line: stage the line as it
            // stands now, not the copy taken at step 2.
            if let Some(line) = self.mt_cache.value(mac_addr) {
                mac_buf = line.buf();
            }
        }

        // 4. Propagate to the tree and to NVM.
        let counter_bytes = cb.to_bytes();
        self.stats.nvm_data_writes += 1;

        // Region awareness is Triad-NVM's contribution: `TriadNvm`
        // applies atomic metadata persistence only to the persistent
        // region, while `Strict` (prior work) is region-oblivious and
        // pays it for *every* NVM write — the §5.1 observation that
        // write-intensive non-persistent workloads (e.g. libquantum)
        // gain an order of magnitude from region-aware relaxation.
        let atomic = self.scheme.persists_metadata()
            && (kind == RegionKind::Persistent || self.scheme == PersistScheme::Strict);
        if atomic {
            // Update the full path to the root in on-chip state and
            // collect the strictly persisted levels into the reused
            // node buffer.
            let persist_levels = self
                .scheme
                .persisted_bmt_levels()
                .min(root_level.saturating_sub(1));
            let mut nodes = std::mem::take(&mut self.update_nodes);
            nodes.clear();
            let (new_root, t_path) =
                self.update_path(kind, leaf, &counter_bytes, persist_levels, now, &mut nodes)?;
            t = t.max(t_path);
            // Osiris relaxation: skip the counter copy unless the
            // interval expired (recovery reconstructs skipped updates
            // from the MACs, §6 / Ye et al.).
            let persist_counter = match self.counter_persistence {
                CounterPersistence::Strict => true,
                CounterPersistence::Osiris { interval } => {
                    let since = self.osiris_since.get_or_insert_with(counter_addr.0, || 0);
                    *since += 1;
                    if *since >= interval {
                        *since = 0;
                        true
                    } else {
                        self.stats.osiris_counter_skips += 1;
                        false
                    }
                }
            };
            let data_w = StagedWrite {
                addr: block,
                data: ct,
            };
            let mac_w = StagedWrite {
                addr: mac_addr,
                data: mac_buf.0,
            };
            let with_counter = [
                data_w,
                StagedWrite {
                    addr: counter_addr,
                    data: counter_bytes,
                },
                mac_w,
            ];
            let without_counter = [data_w, mac_w];
            let head: &[StagedWrite] = if persist_counter {
                &with_counter
            } else {
                &without_counter
            };
            // §3.3.5 has one implementation, `commit_batch`: the update
            // set merges into the open batch, or into a batch of one
            // that commits before this write-back returns. Staging in
            // place keeps the persistent registers holding the whole
            // replayable prefix, so advancing the root at staging time
            // stays crash-safe.
            let standalone = !self.batch.is_open();
            if standalone {
                self.batch.open();
            }
            self.stage_into_batch(kind, head, &nodes, persist_counter, new_root);
            if let Some(root) = new_root {
                self.set_root(kind, root);
            }
            if standalone {
                t = self.commit_batch(t)?;
            }
            // Persisted metadata is now clean on chip (under Osiris the
            // skipped counter stays dirty until its forced persist or
            // natural eviction).
            if persist_counter {
                self.ctr_cache.flush(counter_addr);
            }
            self.mt_cache.flush(mac_addr);
            for w in &nodes {
                self.mt_cache.flush(w.addr);
            }
            self.update_nodes = nodes;
        } else {
            // Lazy path: only the ciphertext goes to NVM now; counter,
            // MAC and tree propagate on eviction.
            t = self.mc.write(block, ct, t);
        }
        Ok(t)
    }

    /// Re-encrypts all other blocks of a page after a minor-counter
    /// overflow reset the page to a new major counter.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware datapath's operands
    fn reencrypt_page(
        &mut self,
        kind: RegionKind,
        leaf: u64,
        written_slot: usize,
        old_cb: &AnyCounterBlock,
        new_cb: &AnyCounterBlock,
        persist_macs: bool,
        now: Time,
    ) -> Result<Time> {
        let layout = self.layout(kind);
        let (coverage, data_blocks, data_start, mac_start) = (
            layout.counter_coverage,
            layout.data_blocks,
            layout.data_start,
            layout.mac_start,
        );
        let mut t = now;
        // The page's MAC lines, as bits above its first line (a page
        // spans at most `coverage / 8 + 1` lines).
        let first_mac = mac_start + leaf * coverage / 8;
        let mut touched_macs = 0u64;
        for s in 0..coverage as usize {
            if s == written_slot {
                continue;
            }
            let data_index = leaf * coverage + s as u64;
            if data_index >= data_blocks {
                break;
            }
            let block = data_start + data_index;
            let (mac_buf, _) = self.ensure_mac_block(kind, data_index, now)?;
            let tag = mac_buf.slot((data_index % 8) as usize);
            // Get the plaintext: cached, fresh, or decrypt the old
            // ciphertext.
            let queued_plain = self.evict_queue.iter().find_map(|e| match e {
                EvictItem::Data { addr, plain, .. } if *addr == block => Some(*plain),
                _ => None,
            });
            let plaintext = if let Some(p) = self.l3.value(block) {
                *p
            } else if let Some(p) = queued_plain {
                p
            } else if tag.is_zero() {
                [0u8; BLOCK_BYTES] // never written
            } else {
                // An open batch may hold a newer staged ciphertext for
                // this block than the (stale) NVM copy.
                let (ct_old, tr) = match self.batch_forward(block) {
                    Some(fwd) => (fwd, now),
                    None => self.mc.read(block, now),
                };
                t = t.max(tr);
                let old_pair = old_cb.pair(s);
                let iv_old = self.data_iv(kind, block, old_pair.major, old_pair.minor);
                decrypt_block(self.aes_for(kind), &iv_old, &ct_old)
            };
            let new_pair = new_cb.pair(s);
            let iv_new = self.data_iv(kind, block, new_pair.major, new_pair.minor);
            let ct_new = encrypt_block(self.aes_for(kind), &iv_new, &plaintext);
            let new_tag = self.data_tag(block, &ct_new, &iv_new);
            let (mut mac_buf, _) = self.ensure_mac_block(kind, data_index, now)?;
            mac_buf.set_slot((data_index % 8) as usize, new_tag);
            let mac_addr = mac_start + data_index / 8;
            self.mt_put(mac_addr, MtLine::Mac(mac_buf), true)?;
            let line = mac_addr - first_mac;
            if line >= u64::from(u64::BITS) {
                return Err(SecureMemoryError::internal(format!(
                    "page of leaf {leaf} spans MAC line {line}, beyond its bit mask"
                )));
            }
            touched_macs |= 1 << line;
            // Under an open batch the re-encrypted ciphertext of an
            // atomically-persisted region must stage (a direct write
            // would be clobbered by the batch commit or its recovery
            // replay); lazy-path regions keep the direct write.
            let atomic_here = self.scheme.persists_metadata()
                && (kind == RegionKind::Persistent || self.scheme == PersistScheme::Strict);
            if self.batch.is_open() && atomic_here {
                self.batch_stage_raw(crate::batch::WriteClass::Data, block, ct_new);
            } else {
                t = self.mc.write(block, ct_new, t);
            }
            self.stats.nvm_data_writes += 1;
        }
        if persist_macs {
            // In atomic schemes the whole page's tags must reach the
            // persistence domain with the re-encrypted data, or a crash
            // would leave new ciphertext under stale NVM tags.
            while touched_macs != 0 {
                let mac_addr = first_mac + u64::from(touched_macs.trailing_zeros());
                touched_macs &= touched_macs - 1;
                if let Some(line) = self.mt_cache.value(mac_addr) {
                    let data = line.buf().0;
                    if self.batch.is_open() {
                        self.batch_stage_raw(crate::batch::WriteClass::Mac, mac_addr, data);
                    } else {
                        t = self.mc.write(mac_addr, data, t);
                        self.stats.mac_writes_persist += 1;
                    }
                    self.mt_cache.flush(mac_addr);
                }
            }
        }
        Ok(t)
    }

    /// Updates the tree path above `leaf` (whose counter block now
    /// holds `counter_bytes`) on chip, appending the node writes to
    /// persist (levels `1..=persist_levels`) to `staged`. Returns the
    /// new root, or `None` when the walk was lazy, and the completion
    /// time.
    ///
    /// When the counter and every path node below the root are on
    /// chip, the walk is **lazy**: every touch hits, so nothing is
    /// fetched or evicted, and the walk makes the eager walk's cache
    /// touches with the same dirty flags and its timing arithmetic, but
    /// defers the slot updates and hashes. It stages the persisted
    /// nodes as they stand and records `leaf` as unhashed; the next
    /// [`SecureMemory::settle`] computes the hashes and fixes the
    /// staged copies and the root. Otherwise the walk settles and runs
    /// **eagerly**, fetching and hashing level by level.
    fn update_path(
        &mut self,
        kind: RegionKind,
        leaf: u64,
        counter_bytes: &Block,
        persist_levels: u8,
        now: Time,
        staged: &mut Vec<StagedWrite>,
    ) -> Result<(Option<NodeBuf>, Time)> {
        let geom = &self.layout(kind).geometry;
        let (root_level, arity) = (geom.root_level(), geom.arity());
        let hash_latency = self.config.security.hash_latency;
        if self.path_resident(kind, leaf) {
            let hit = now + self.mt_cache.latency();
            let mut t = now;
            let mut index = leaf;
            for level in 1..root_level {
                index /= arity;
                let addr = self.node_addr(kind, level, index)?;
                // `ensure_node`'s resident hit, then `put_node`'s touch.
                let persist_this = level <= persist_levels;
                let line = if self.mt_cache.touch(addr, false).is_some() {
                    self.mt_cache.touch(addr, !persist_this)
                } else {
                    None
                };
                let Some(&mut MtLine::Node(buf)) = line else {
                    return Err(SecureMemoryError::internal(format!(
                        "lazy walk lost resident node {addr}"
                    )));
                };
                if persist_this {
                    staged.push(StagedWrite { addr, data: buf.0 });
                }
                t = t.max(hit) + hash_latency;
            }
            self.unhashed.push((kind, leaf));
            return Ok((None, t + hash_latency));
        }
        self.settle()?;
        let mut h = bmt::leaf_hash(&self.mac_engine, kind, leaf, counter_bytes);
        let mut child_index = leaf;
        let mut t = now;
        for level in 1..=root_level {
            let slot = self.layout(kind).geometry.child_slot(child_index);
            let index = child_index / arity;
            if level == root_level {
                let mut root = self.root(kind);
                root.set_slot(slot, h);
                t += hash_latency;
                return Ok((Some(root), t));
            }
            let (mut buf, tn) = self.ensure_node(kind, level, index, now)?;
            buf.set_slot(slot, h);
            let persist_this = level <= persist_levels;
            self.put_node(kind, level, index, buf, !persist_this)?;
            if persist_this {
                let addr = self.node_addr(kind, level, index)?;
                staged.push(StagedWrite { addr, data: buf.0 });
            }
            h = bmt::node_hash(
                &self.mac_engine,
                NodeId {
                    region: kind,
                    level,
                    index,
                },
                &buf.0,
            );
            t = t.max(tn) + hash_latency;
            child_index = index;
        }
        unreachable!("loop returns at root level");
    }

    /// In-memory address of BMT node `(level, index)` below the root.
    fn node_addr(&self, kind: RegionKind, level: u8, index: u64) -> Result<BlockAddr> {
        self.layout(kind)
            .bmt_node_addr(level, index)
            .ok_or_else(|| {
                SecureMemoryError::internal(format!(
                    "BMT node ({level}, {index}) below root has no in-memory address"
                ))
            })
    }

    /// Whether `leaf`'s counter block and every node on its path below
    /// the root are resident on chip (the lazy walk's condition).
    fn path_resident(&self, kind: RegionKind, leaf: u64) -> bool {
        let layout = self.layout(kind);
        if !self.ctr_cache.probe(layout.counter_start + leaf) {
            return false;
        }
        let geom = &layout.geometry;
        let mut index = leaf;
        for level in 1..geom.root_level() {
            index /= geom.arity();
            match layout.bmt_node_addr(level, index) {
                Some(addr) if self.mt_cache.probe(addr) => {}
                _ => return false,
            }
        }
        true
    }

    /// Settles every hash the lazy walks deferred: per region, the
    /// unhashed leaves' counter hashes, then each dirty node's hash
    /// level by level, bottom-up, once per distinct node in ascending
    /// index order. Each hash goes into its parent's slot (a resident
    /// node, or the root register); every settled node's bytes refresh
    /// its staged copy in the open batch, and a settled persistent root
    /// becomes the staged new root. Touches no cache.
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::Internal`] if an unhashed leaf's counter or
    /// a node on its path is no longer on chip (the settle rule in
    /// [`crate::batch`] prevents that).
    pub(crate) fn settle(&mut self) -> Result<()> {
        if self.unhashed.is_empty() {
            return Ok(());
        }
        let mut indices = std::mem::take(&mut self.path_nodes);
        let mut hashes = std::mem::take(&mut self.path_hashes);
        let mut result = Ok(());
        for kind in RegionKind::ALL {
            indices.clear();
            indices.extend(
                self.unhashed
                    .iter()
                    .filter(|(k, _)| *k == kind)
                    .map(|&(_, leaf)| leaf),
            );
            if indices.is_empty() {
                continue;
            }
            indices.sort_unstable();
            indices.dedup();
            result = self.settle_region(kind, &mut indices, &mut hashes);
            if result.is_err() {
                break;
            }
        }
        self.unhashed.clear();
        self.path_nodes = indices;
        self.path_hashes = hashes;
        result
    }

    /// [`SecureMemory::settle`] for one region: `indices` holds its
    /// unhashed leaves, sorted and distinct; both buffers are scratch.
    fn settle_region(
        &mut self,
        kind: RegionKind,
        indices: &mut Vec<u64>,
        hashes: &mut Vec<Mac64>,
    ) -> Result<()> {
        let layout = self.map.region(kind);
        let (counter_start, root_level, arity) = (
            layout.counter_start,
            layout.geometry.root_level(),
            layout.geometry.arity(),
        );
        hashes.clear();
        for &leaf in indices.iter() {
            let addr = counter_start + leaf;
            let cb = self.ctr_cache.value(addr).ok_or_else(|| {
                SecureMemoryError::internal(format!("unhashed counter {addr} left the chip"))
            })?;
            hashes.push(bmt::leaf_hash(&self.mac_engine, kind, leaf, &cb.to_bytes()));
        }
        // `indices` holds the sorted, distinct nodes at `level - 1`,
        // beside their hashes: fold each run of siblings into its
        // parent, in place.
        for level in 1..root_level {
            let mut out = 0;
            let mut i = 0;
            while i < indices.len() {
                let index = indices[i] / arity;
                let addr = self.node_addr(kind, level, index)?;
                let Some(MtLine::Node(node)) = self.mt_cache.value_mut(addr) else {
                    return Err(SecureMemoryError::internal(format!(
                        "unhashed path node {addr} left the chip"
                    )));
                };
                while i < indices.len() && indices[i] / arity == index {
                    node.set_slot((indices[i] % arity) as usize, hashes[i]);
                    i += 1;
                }
                let bytes = node.0;
                self.batch_refresh(addr, bytes);
                hashes[out] = bmt::node_hash(
                    &self.mac_engine,
                    NodeId {
                        region: kind,
                        level,
                        index,
                    },
                    &bytes,
                );
                indices[out] = index;
                out += 1;
            }
            indices.truncate(out);
            hashes.truncate(out);
        }
        let mut root = self.root(kind);
        for (&child, &h) in indices.iter().zip(hashes.iter()) {
            root.set_slot((child % arity) as usize, h);
        }
        self.set_root(kind, root);
        if kind == RegionKind::Persistent && self.batch.is_open() {
            self.regs.staged_mut().new_persistent_root = Some(root);
        }
        Ok(())
    }

    // ----- public timed block API -------------------------------------------

    /// Loads one 64-byte block (the L3-and-below path the private
    /// caches call on their misses). Returns plaintext and completion
    /// time.
    ///
    /// # Errors
    ///
    /// * [`SecureMemoryError::OutOfRange`] outside any data area.
    /// * [`SecureMemoryError::MacMismatch`] /
    ///   [`SecureMemoryError::IntegrityViolation`] on tampering.
    /// * [`SecureMemoryError::NeedsRecovery`] after an unrecovered
    ///   crash, [`SecureMemoryError::Unverifiable`] for a poisoned
    ///   persistent region.
    pub fn load_block(&mut self, block: BlockAddr, now: Time) -> Result<(Block, Time)> {
        self.check_running()?;
        let kind = self
            .map
            .data_region_of(block)
            .ok_or(SecureMemoryError::OutOfRange { addr: block.base() })?;
        if kind == RegionKind::Persistent && self.state == EngineState::PersistentPoisoned {
            return Err(SecureMemoryError::Unverifiable {
                reason: "persistent region was not recovered".to_string(),
            });
        }
        self.stats.loads += 1;
        let (hit, &mut data) = self.l3_access(block, false);
        if hit {
            self.stats.l3_load_hits += 1;
            self.drain_evictions(now)?;
            let done = now + self.l3.latency();
            self.hists.op_latency_ns.record(done.since(now).as_ns());
            return Ok((data, done));
        }
        // The miss allocated the line, holding zeros. The block may be
        // sitting in its own pending write-back.
        if let Some(EvictItem::Data { plain, dirty, .. }) = self.reclaim(block) {
            if let Some(line) = self.l3.touch(block, dirty) {
                *line = plain;
            }
            self.drain_evictions(now)?;
            let done = now + self.l3.latency();
            self.hists.op_latency_ns.record(done.since(now).as_ns());
            return Ok((plain, done));
        }
        // Fresh non-persistent blocks read as zeros (OS zero page),
        // which the new line already holds.
        if kind == RegionKind::NonPersistent && !self.np_written.contains_key(block.0) {
            self.stats.fresh_reads += 1;
            let (_, t) = self.mc.read(block, now);
            self.drain_evictions(now)?;
            self.hists.op_latency_ns.record(t.since(now).as_ns());
            return Ok(([0; BLOCK_BYTES], t));
        }
        // A block that fails verification leaves no line behind, so a
        // retry fetches and verifies it again; the victim the miss
        // displaced stays queued.
        let (plaintext, done) = match self.fetch_verified(kind, block, now) {
            Ok(fetched) => fetched,
            Err(e) => {
                self.l3.invalidate(block);
                return Err(e);
            }
        };
        let line = self.l3.value_mut(block).ok_or_else(|| {
            SecureMemoryError::internal(format!("L3 line of {block} vanished during its fill"))
        })?;
        *line = plaintext;
        self.drain_evictions(now)?;
        self.hists.op_latency_ns.record(done.since(now).as_ns());
        Ok((plaintext, done))
    }

    /// Fetches data block `block` from NVM with its counter and MAC,
    /// decrypts and verifies it: the fill of an L3 load miss. Returns
    /// plaintext and completion time.
    fn fetch_verified(
        &mut self,
        kind: RegionKind,
        block: BlockAddr,
        now: Time,
    ) -> Result<(Block, Time)> {
        let layout = self.layout(kind);
        let data_index = layout.data_index(block);
        let leaf = data_index / layout.counter_coverage;
        let slot = (data_index % layout.counter_coverage) as usize;
        let (ct, t_data) = self.mc.read(block, now);
        self.stats.nvm_data_reads += 1;
        let (cb, t_ctr) = self.ensure_counter(kind, leaf, now)?;
        let (mac_buf, t_mac) = self.ensure_mac_block(kind, data_index, now)?;
        let tag = mac_buf.slot((data_index % 8) as usize);
        let pair = cb.pair(slot);
        let pair_fresh = pair.major == 0 && pair.minor == 0;
        let plaintext = if tag.is_zero() && pair_fresh {
            self.stats.fresh_reads += 1;
            [0u8; BLOCK_BYTES]
        } else {
            let iv = self.data_iv(kind, block, pair.major, pair.minor);
            let plaintext = decrypt_block(self.aes_for(kind), &iv, &ct);
            if self.data_tag(block, &ct, &iv) != tag {
                return Err(SecureMemoryError::MacMismatch { block });
            }
            plaintext
        };
        // Decryption overlaps the data fetch (counter-mode); the MAC
        // check costs one hash after everything arrives.
        let done = t_data.max(t_ctr).max(t_mac) + self.config.security.hash_latency;
        Ok((plaintext, done))
    }

    /// Stores one full 64-byte block (write-allocate, write-back).
    /// Fast: the block is dirtied in L3 and encrypted only when it
    /// leaves the chip.
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::load_block`].
    pub fn store_block(&mut self, block: BlockAddr, data: Block, now: Time) -> Result<Time> {
        self.check_running()?;
        let kind = self
            .map
            .data_region_of(block)
            .ok_or(SecureMemoryError::OutOfRange { addr: block.base() })?;
        if kind == RegionKind::Persistent && self.state == EngineState::PersistentPoisoned {
            return Err(SecureMemoryError::Unverifiable {
                reason: "persistent region was not recovered".to_string(),
            });
        }
        self.stats.stores += 1;
        if kind == RegionKind::NonPersistent {
            self.np_written.insert(block.0, ());
        }
        self.l3_store(block, data);
        self.drain_evictions(now)?;
        let done = now + self.l3.latency();
        self.hists.op_latency_ns.record(done.since(now).as_ns());
        Ok(done)
    }

    /// Persists one block (`store; clwb; sfence`): writes the data and
    /// stores it durably together with its security metadata according
    /// to the scheme. Returns the time the whole update set is inside
    /// the persistence domain.
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::NotPersistent`] if `block` is outside the
    /// persistent region, plus the classes of
    /// [`SecureMemory::load_block`].
    pub fn persist_block(&mut self, block: BlockAddr, data: Block, now: Time) -> Result<Time> {
        self.check_running()?;
        if self.map.data_region_of(block) != Some(RegionKind::Persistent) {
            return Err(SecureMemoryError::NotPersistent { addr: block.base() });
        }
        if self.state == EngineState::PersistentPoisoned {
            return Err(SecureMemoryError::Unverifiable {
                reason: "persistent region was not recovered".to_string(),
            });
        }
        self.stats.stores += 1;
        self.l3_store(block, data);
        // Under epoch persistency (Liu et al., HPCA'18 — cited by the
        // paper as an orthogonal relaxation) the persist is deferred to
        // the epoch boundary: within an epoch only program order, not
        // durability order, is guaranteed.
        if let Some(pending) = &mut self.epoch {
            self.stats.persists += 1;
            pending.push(block);
            self.drain_evictions(now)?;
            let done = now + self.l3.latency();
            self.hists
                .persist_latency_ns
                .record(done.since(now).as_ns());
            return Ok(done);
        }
        self.flush_block(block, now)
    }

    /// Begins an epoch (§6 / Liu et al.'s *epoch persistency*):
    /// subsequent [`SecureMemory::persist_block`] calls return at cache
    /// latency and their durability is deferred — and write-combined —
    /// until [`SecureMemory::end_epoch`].
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::EpochAlreadyOpen`] if an epoch is already
    /// open (nested epochs are rejected), or
    /// [`SecureMemoryError::NeedsRecovery`] after an unrecovered crash.
    pub fn begin_epoch(&mut self) -> Result<()> {
        self.check_running()?;
        if self.epoch.is_some() {
            return Err(SecureMemoryError::EpochAlreadyOpen);
        }
        self.epoch = Some(Vec::new());
        Ok(())
    }

    /// Ends the current epoch: every deferred persist (latest value per
    /// block) becomes durable with its metadata before the returned
    /// time.
    ///
    /// The boundary is one write batch (see [`crate::batch`]): members
    /// share one prefetch plan and one coalesced register/WPQ commit,
    /// and each member's write-back starts when the previous one
    /// completes.
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::EpochNotOpen`] if no epoch is open. This
    /// used to be a silent no-op; it became a typed error when periodic
    /// flush timers started issuing `end_epoch` on a schedule, where a
    /// swallowed unbalanced close would mask a double-close bug.
    /// Callers that legitimately may or may not hold an open epoch
    /// should guard with [`SecureMemory::epoch_open`]. Otherwise the
    /// same classes as [`SecureMemory::persist_block`].
    pub fn end_epoch(&mut self, now: Time) -> Result<Time> {
        self.check_running()?;
        let Some(pending) = self.epoch.take() else {
            return Err(SecureMemoryError::EpochNotOpen);
        };
        self.stats.epochs += 1;
        // Deduplicate, keeping one flush per block (write combining —
        // the core of the epoch-persistency win). Blocks that were
        // cleanly evicted since their persist are already durable.
        let mut seen = BTreeSet::new();
        let mut members = Vec::new();
        for block in pending {
            if !seen.insert(block.0) {
                continue;
            }
            if let Some(&plaintext) = self.l3.dirty_value(block) {
                members.push((block, plaintext));
            }
        }
        if members.is_empty() {
            self.drain_evictions(now)?;
            return Ok(now);
        }
        self.run_batch(&members, now, now, |mem, block, plaintext, t| {
            let done = mem.writeback_data(block, plaintext, t)?;
            mem.l3.flush(block);
            Ok(done)
        })
    }

    /// Whether an epoch is currently open.
    pub fn epoch_open(&self) -> bool {
        self.epoch.is_some()
    }

    /// Flushes an already-stored block (`clwb; sfence` without a new
    /// store). No-op if the block is not dirty on chip.
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::persist_block`].
    pub fn flush_block(&mut self, block: BlockAddr, now: Time) -> Result<Time> {
        self.check_running()?;
        let Some(&plaintext) = self.l3.dirty_value(block) else {
            return Ok(now + self.l3.latency());
        };
        self.stats.persists += 1;
        if self.persist_boundary_crash(now) {
            return Err(SecureMemoryError::NeedsRecovery);
        }
        let t = self.writeback_data(block, plaintext, now + self.l3.latency())?;
        self.l3.flush(block);
        self.drain_evictions(now)?;
        self.hists.persist_latency_ns.record(t.since(now).as_ns());
        Ok(t)
    }

    // ----- convenience byte API ---------------------------------------------

    /// Reads the 64-byte block containing `addr` (untimed convenience
    /// API; advances the internal clock).
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::load_block`].
    pub fn read(&mut self, addr: PhysAddr) -> Result<Block> {
        let (data, t) = self.load_block(addr.block(), self.clock)?;
        self.clock = t;
        Ok(data)
    }

    /// Writes `data` starting at `addr`, within one 64-byte block
    /// (read-modify-write for partial blocks).
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::OutOfRange`] if the write would cross a
    /// block boundary, plus the classes of
    /// [`SecureMemory::load_block`].
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<()> {
        let offset = addr.block_offset();
        if offset + data.len() > BLOCK_BYTES {
            return Err(SecureMemoryError::OutOfRange { addr });
        }
        let block = addr.block();
        let mut buf = if data.len() == BLOCK_BYTES {
            [0u8; BLOCK_BYTES]
        } else {
            let (old, t) = self.load_block(block, self.clock)?;
            self.clock = t;
            old
        };
        buf[offset..offset + data.len()].copy_from_slice(data);
        let t = self.store_block(block, buf, self.clock)?;
        self.clock = t;
        Ok(())
    }

    /// Persists the block containing `addr` (`clwb + sfence`).
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::persist_block`].
    pub fn persist(&mut self, addr: PhysAddr) -> Result<()> {
        let t = self.flush_block(addr.block(), self.clock)?;
        self.clock = t;
        Ok(())
    }

    // ----- crash and recovery ------------------------------------------------

    /// Simulates a power loss: every volatile structure (caches,
    /// plaintext, on-chip metadata values, WPQ bookkeeping) vanishes;
    /// the NVM image and the persistent registers survive.
    pub fn crash(&mut self) {
        // The registers survive: settle first, so the staged node
        // copies and the staged root hold their hashes. A settle error
        // means an on-chip invariant already broke; recovery's root
        // check then reports the region.
        let _ = self.settle();
        emit(&self.events, self.clock, "crash", &[]);
        self.l3.lose_all();
        self.ctr_cache.lose_all();
        self.mt_cache.lose_all();
        self.np_written.clear();
        self.evict_queue.clear();
        self.epoch = None;
        self.batch.close(&self.regs);
        self.osiris_since.clear();
        self.mc.crash();
        self.state = EngineState::Crashed;
    }

    /// Recovers after a crash: replays any staged update (READY_BIT),
    /// verifies/rebuilds the persistent region's tree from the scheme's
    /// persist level, lazily reinitialises the non-persistent region
    /// (§3.3.4), and bumps the session counter (§3.3.2).
    ///
    /// # Errors
    ///
    /// Returns [`SecureMemoryError::Unverifiable`] when the persistent
    /// region exists but its scheme persists no metadata (`WriteBack`);
    /// the report is still available via the error-free path in that
    /// case — callers that want to continue with a poisoned persistent
    /// region can inspect the returned report instead, which is why
    /// verification failure is reported *in* the report rather than as
    /// an error.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        if self.state == EngineState::Running {
            return Ok(RecoveryReport {
                persistent_recovered: true,
                session: self.regs.session,
                ..RecoveryReport::default()
            });
        }
        let mut report = RecoveryReport::default();
        emit(&self.events, self.clock, "recovery_begin", &[]);
        // 1. Replay a torn atomic update (§3.3.5).
        if let Some(staged) = self.regs.take_staged() {
            for w in &staged.writes {
                self.mc.store_mut().write(w.addr, w.data);
            }
            if let Some(root) = staged.new_persistent_root {
                self.regs.persistent_root = root;
            }
            report.replayed_staged_writes = staged.writes.len();
            emit(
                &self.events,
                self.clock,
                "recovery_replay",
                &[("staged_writes", staged.writes.len().into())],
            );
        }
        // 2. Persistent region: rebuild and verify.
        let p_layout = self.map.persistent().clone();
        let mut poisoned = false;
        if !p_layout.is_empty() {
            match self.scheme.recovery_start_level() {
                None => {
                    report.persistent_recovered = false;
                    report.unverifiable.push(CorruptRange {
                        start: p_layout.data_base(),
                        bytes: p_layout.data_bytes(),
                    });
                    poisoned = true;
                }
                Some(level) => {
                    let from = level.min(p_layout.geometry.root_level().saturating_sub(1));
                    let out = bmt::rebuild_from_level(
                        self.mc.store_mut(),
                        &p_layout,
                        &self.mac_engine,
                        from,
                    );
                    report.persistent_blocks_read = out.blocks_read;
                    if out.root == self.regs.persistent_root {
                        report.persistent_recovered = true;
                    } else {
                        let pin = crate::recovery::pinpoint(
                            self.mc.store(),
                            &p_layout,
                            &self.mac_engine,
                            from,
                            &self.regs.persistent_root,
                        );
                        report.persistent_recovered = pin.recoverable;
                        report.corrupt_metadata = pin.corrupt_nodes;
                        report.unverifiable = pin.unverifiable;
                        if pin.recoverable {
                            // Stored upper levels were corrupt but the
                            // rebuild from below already rewrote them.
                            let out = bmt::rebuild_from_level(
                                self.mc.store_mut(),
                                &p_layout,
                                &self.mac_engine,
                                0,
                            );
                            report.persistent_blocks_read += out.blocks_read;
                            debug_assert_eq!(out.root, self.regs.persistent_root);
                        } else {
                            poisoned = true;
                        }
                    }
                }
            }
        } else {
            report.persistent_recovered = true;
        }
        // 3. Non-persistent region: zero L1, rebuild above (§3.3.4).
        let np_layout = self.map.non_persistent().clone();
        if !np_layout.is_empty() {
            let l1_count = np_layout.geometry.nodes_at_level(1);
            if np_layout.geometry.root_level() > 1 {
                for i in 0..l1_count {
                    let addr = np_layout.bmt_node_addr(1, i).ok_or_else(|| {
                        SecureMemoryError::internal(format!(
                            "non-persistent BMT L1 node {i} has no in-memory address"
                        ))
                    })?;
                    self.mc.store_mut().write(addr, [0u8; BLOCK_BYTES]);
                }
                report.non_persistent_blocks_written = l1_count;
                let out =
                    bmt::rebuild_from_level(self.mc.store_mut(), &np_layout, &self.mac_engine, 1);
                report.non_persistent_blocks_read = out.blocks_read;
                self.regs.non_persistent_root = out.root;
            } else {
                // Degenerate tree: the root's slots are the leaf
                // sentinels; reset it directly.
                self.regs.non_persistent_root = NodeBuf::zeroed();
            }
        }
        // 4. New boot session (§3.3.2).
        self.boot_count += 1;
        self.regs.session += 1;
        if self.key_policy == KeyPolicy::DualKey {
            self.aes_volatile = Aes128::new(&derive_key(self.key_seed, 0x1000 + self.boot_count));
        }
        report.session = self.regs.session;
        report.estimated_duration = Duration::from_ns(100).saturating_mul(
            report.persistent_blocks_read
                + report.non_persistent_blocks_read
                + report.non_persistent_blocks_written,
        );
        self.state = if poisoned {
            EngineState::PersistentPoisoned
        } else {
            EngineState::Running
        };
        emit(
            &self.events,
            self.clock,
            "recovery_end",
            &[
                ("recovered", report.persistent_recovered.into()),
                ("blocks_read", report.persistent_blocks_read.into()),
                ("session", u64::from(report.session).into()),
            ],
        );
        Ok(report)
    }

    /// Reformats the persistent region after an unrecoverable crash
    /// (the `WriteBack` scheme, or unverifiable corruption): all data,
    /// counters, MACs and tree levels reset to the fresh state.
    pub fn format_persistent(&mut self) {
        let layout = self.map.persistent().clone();
        let store = self.mc.store_mut();
        for b in 0..layout.region_blocks {
            store.write(layout.region_start + b, [0u8; BLOCK_BYTES]);
        }
        let out = bmt::rebuild_from_level(store, &layout, &self.mac_engine, 0);
        self.regs.persistent_root = out.root;
        if self.state == EngineState::PersistentPoisoned {
            self.state = EngineState::Running;
        }
    }

    /// Checks the engine's internal invariants, returning a list of
    /// violations (empty = consistent). Intended for tests and
    /// debugging; O(cached state + leaves), not O(memory contents).
    ///
    /// Each on-chip value lives in its cache line, so values and
    /// residency cannot disagree. Invariants checked:
    /// 1. every queued eviction victim is absent from the caches,
    /// 2. for every *uncached* counter block, the NVM copy's hash
    ///    matches its parent's slot (the §3.2 lazy-propagation
    ///    invariant that makes verification sound).
    pub fn validate_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // 1. Queued victims are off-chip.
        for item in &self.evict_queue {
            let a = item.addr();
            if self.l3.probe(a) || self.ctr_cache.probe(a) || self.mt_cache.probe(a) {
                problems.push(format!("queued victim {a} still resident"));
            }
        }
        // 2. Uncached counters verify against their parents.
        for kind in RegionKind::ALL {
            let layout = self.layout(kind);
            if layout.is_empty() {
                continue;
            }
            let geom = &layout.geometry;
            let store = self.mc.store();
            let parent_slot = |level: u8, index: u64| -> Option<Mac64> {
                let (pl, pi) = geom.parent(level, index);
                let slot = geom.child_slot(index);
                if pl == geom.root_level() {
                    return Some(self.root(kind).slot(slot));
                }
                let paddr = layout.bmt_node_addr(pl, pi)?;
                let buf = self
                    .mt_cache
                    .value(paddr)
                    .map_or_else(|| NodeBuf(store.read(paddr)), MtLine::buf);
                Some(buf.slot(slot))
            };
            let osiris = matches!(self.counter_persistence, CounterPersistence::Osiris { .. });
            for leaf in 0..geom.leaves() {
                let addr = layout.counter_start + leaf;
                if self.ctr_cache.probe(addr) || self.evict_queue.iter().any(|e| e.addr() == addr) {
                    continue; // on-chip copies may legitimately run ahead
                }
                let bytes = store.read(addr);
                let h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &bytes);
                match parent_slot(0, leaf) {
                    Some(slot) if slot == h => {}
                    Some(slot) if slot.is_zero() && kind == RegionKind::NonPersistent => {}
                    // Osiris: the slot may legitimately run ahead of a
                    // skipped counter persist; bounded and recoverable.
                    Some(_) if osiris && kind == RegionKind::Persistent => {}
                    Some(slot) => problems.push(format!(
                        "{kind} leaf {leaf}: NVM hash {h} != parent slot {slot}"
                    )),
                    None => problems.push(format!("{kind} leaf {leaf}: no parent slot")),
                }
            }
        }
        problems
    }

    /// Collects every component's counters and latency histograms into
    /// one hierarchical registry (`secure.*`, `l3.*`, `ctr_cache.*`,
    /// `mt_cache.*`, `mem.*`, `wear.*`).
    pub fn stat_registry(&self) -> StatRegistry {
        let mut reg = StatRegistry::new();
        self.stats.register(&mut reg.scope("secure"));
        self.hists.register(&mut reg.scope("secure"));
        self.prefetcher.stats().register(&mut reg.scope("prefetch"));
        self.l3.register(&mut reg.scope("l3"));
        self.ctr_cache.register(&mut reg.scope("ctr_cache"));
        self.mt_cache.register(&mut reg.scope("mt_cache"));
        self.mc.register(&mut reg.scope("mem"));
        let wear = self.mc.wear();
        let mut w = reg.scope("wear");
        w.set("max_writes", wear.max_writes());
        w.set("blocks_touched", wear.blocks_touched() as u64);
        w.set("imbalance_x1000", (wear.imbalance() * 1000.0) as u64);
        reg
    }

    /// Reports every cache's and the memory controller's statistics
    /// under standard prefixes (the flattened view of
    /// [`SecureMemory::stat_registry`]).
    pub fn report_stats(&self) -> StatSet {
        self.stat_registry().to_stat_set()
    }
}
