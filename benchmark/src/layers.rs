//! Per-layer metrics, measured from outside the program: counter and
//! histogram deltas of the public stat registries over the timed
//! phase, and host-time probes of each crate's public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use triad_cache::{Cache, Replacement};
use triad_crypto::counter::SplitCounterBlock;
use triad_crypto::ctr::pad;
use triad_crypto::{pad_batch, Aes128, Iv, MacEngine};
use triad_meta::bmt::{leaf_hash, node_hash};
use triad_meta::{coalesce_dirty_paths, BmtGeometry, NodeId, RegionKind};
use triad_sim::BlockAddr;

use crate::measure::{ratio, Delta};
use crate::pass::report_config;

/// What the simulated per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Ops of the timed phase (KV requests or trace memory ops).
    pub ops: f64,
    /// Registry deltas over the timed phase, summed over shards.
    pub delta: &'a Delta,
    pub wear_max_writes: u64,
    pub recovery_blocks_read: u64,
}

/// The simulated per-layer metrics of the `core`, `meta`, `cache` and
/// `mem` layers. Deterministic for a given workload and seed.
pub fn simulated(inp: &LayerInputs<'_>) -> BTreeMap<&'static str, f64> {
    let d = inp.delta;
    let per_op = |name: &str| ratio(d.counter(name) as f64, inp.ops);
    let per_kop = |name: &str| per_op(name) * 1e3;
    let mut m = BTreeMap::new();
    m.insert("core.persists_per_op", per_op("secure.persists"));
    m.insert(
        "core.persist_mean_ns",
        d.hist_mean("secure.persist_latency_ns"),
    );
    m.insert("core.op_mean_ns", d.hist_mean("secure.op_latency_ns"));
    m.insert(
        "core.batch_members_per_batch",
        ratio(
            d.counter("secure.batch_members") as f64,
            d.counter("secure.batches") as f64,
        ),
    );
    m.insert(
        "core.batch_writes_merged_per_kop",
        per_kop("secure.batch_writes_merged"),
    );
    m.insert(
        "core.persist_metadata_writes_per_op",
        per_op("secure.persist_metadata_writes"),
    );
    m.insert(
        "core.evict_metadata_writes_per_op",
        per_op("secure.evict_metadata_writes"),
    );
    m.insert(
        "core.page_reencryptions_per_kop",
        per_kop("secure.page_reencryptions"),
    );
    m.insert("core.counter_reads_per_op", per_op("secure.counter_reads"));
    m.insert(
        "core.counter_fetch_mean_ns",
        d.hist_mean("secure.counter_fetch_ns"),
    );
    m.insert("core.mac_reads_per_op", per_op("secure.mac_reads"));
    m.insert("core.mac_fetch_mean_ns", d.hist_mean("secure.mac_fetch_ns"));
    m.insert("core.recovery_blocks_read", inp.recovery_blocks_read as f64);
    m.insert("meta.node_reads_per_op", per_op("secure.node_reads"));
    m.insert(
        "meta.node_fetch_mean_ns",
        d.hist_mean("secure.node_fetch_ns"),
    );
    for (cache, hit, evict) in [
        (
            "l3",
            "cache.l3_read_hit_frac",
            "cache.l3_dirty_evictions_per_kop",
        ),
        (
            "ctr_cache",
            "cache.ctr_read_hit_frac",
            "cache.ctr_dirty_evictions_per_kop",
        ),
        (
            "mt_cache",
            "cache.mt_read_hit_frac",
            "cache.mt_dirty_evictions_per_kop",
        ),
    ] {
        m.insert(
            hit,
            d.frac(
                &format!("{cache}.read_hits"),
                &format!("{cache}.read_misses"),
            ),
        );
        m.insert(evict, per_kop(&format!("{cache}.dirty_evictions")));
    }
    m.insert(
        "cache.prefetch_predicted_hit_frac",
        d.frac("prefetch.predicted_hits", "prefetch.predicted_misses"),
    );
    m.insert("mem.reads_per_op", per_op("mem.reads"));
    m.insert("mem.row_hit_frac", d.frac("mem.row_hits", "mem.row_misses"));
    m.insert(
        "mem.row_miss_service_mean_ns",
        d.hist_mean("mem.row_miss_service_ns"),
    );
    m.insert(
        "mem.wpq_full_events_per_kop",
        per_kop("mem.wpq_full_events"),
    );
    m.insert("mem.wpq_stall_ns_per_op", per_op("mem.wpq_stall_ns"));
    m.insert(
        "mem.write_accept_delay_mean_ns",
        d.hist_mean("mem.write_accept_delay_ns"),
    );
    m.insert(
        "mem.wpq_residency_mean_ns",
        d.hist_mean("mem.wpq_residency_ns"),
    );
    m.insert("mem.wpq_forwards_per_kop", per_kop("mem.wpq_forwards"));
    m.insert("mem.wear_max_writes", inp.wear_max_writes as f64);
    m
}

/// Host nanoseconds per call of `f`, the median of five timed rounds
/// of `calls` calls each.
fn time_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[2]
}

/// Host-time probes of the crates' public hot-path functions, called
/// directly on block addresses the workload wrote.
pub fn probes(blocks: &[u64]) -> BTreeMap<&'static str, f64> {
    let blocks: Vec<u64> = if blocks.is_empty() {
        (0..64).collect()
    } else {
        blocks.to_vec()
    };
    let at = |i: u64| blocks[(i as usize) % blocks.len()];
    let iv = |i: u64| {
        let b = at(i);
        Iv::new(b >> 6, (b & 63) as u8, i, (i & 0x7f) as u8, 1)
    };
    let data = |i: u64| {
        let mut d = [0u8; 64];
        d[..8].copy_from_slice(&at(i).to_le_bytes());
        d[8..16].copy_from_slice(&i.to_le_bytes());
        d
    };
    let aes = Aes128::new(b"triad-benchmark!");
    let mac = MacEngine::new(*b"triad-bench-mac!");
    let mut m = BTreeMap::new();

    m.insert(
        "crypto.aes_block_host_ns",
        time_per_call(4096, |i| {
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&at(i).to_le_bytes());
            black_box(aes.encrypt_block(black_box(b)));
        }),
    );
    m.insert(
        "crypto.pad_host_ns",
        time_per_call(1024, |i| {
            black_box(pad(&aes, &black_box(iv(i))));
        }),
    );
    m.insert(
        "crypto.pad_batch8_host_ns",
        time_per_call(256, |i| {
            let ivs: Vec<Iv> = (0..8).map(|k| iv(i * 8 + k)).collect();
            black_box(pad_batch(&aes, black_box(&ivs)));
        }),
    );
    m.insert(
        "crypto.data_mac_host_ns",
        time_per_call(4096, |i| {
            black_box(mac.data_mac(at(i), &black_box(data(i)), &iv(i)));
        }),
    );
    m.insert(
        "crypto.counter_codec_host_ns",
        time_per_call(4096, |i| {
            let mut c = SplitCounterBlock::new();
            for _ in 0..(i % 8) {
                c.increment((at(i) & 63) as usize);
            }
            black_box(SplitCounterBlock::from_bytes(&black_box(c.to_bytes())));
        }),
    );
    m.insert(
        "meta.leaf_hash_host_ns",
        time_per_call(4096, |i| {
            black_box(leaf_hash(
                &mac,
                RegionKind::Persistent,
                at(i) >> 6,
                &black_box(data(i)),
            ));
        }),
    );
    m.insert(
        "meta.node_hash_host_ns",
        time_per_call(4096, |i| {
            let id = NodeId {
                region: RegionKind::Persistent,
                level: 1 + (i % 3) as u8,
                index: at(i) >> 9,
            };
            black_box(node_hash(&mac, id, &black_box(data(i))));
        }),
    );
    let cfg = report_config();
    let leaves = cfg.persistent_bytes() / 4096;
    let geom = BmtGeometry::new(leaves, cfg.security.bmt_arity as u64);
    m.insert(
        "meta.coalesce_paths_host_ns",
        time_per_call(1024, |i| {
            let dirty: Vec<u64> = (0..8).map(|k| (at(i * 8 + k) >> 6) % leaves).collect();
            black_box(coalesce_dirty_paths(&geom, black_box(&dirty)));
        }),
    );
    let mut l3 = Cache::new("probe-l3", cfg.l3, Replacement::Lru);
    m.insert(
        "cache.access_host_ns",
        time_per_call(4096, |i| {
            black_box(l3.access(BlockAddr(at(i).wrapping_add(i * 7919)), i % 4 == 0));
        }),
    );
    m
}
