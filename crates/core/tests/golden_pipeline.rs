//! Golden numbers of the persist pipeline: one fixed seeded history
//! drives every entry point onto the §3.3.5 commit — `persist_block`,
//! `store_block` + `flush_block`, an epoch and `persist_batch`, plus a
//! hot block that overflows its minor counter beside written
//! neighbours — under each scheme, and the final simulated time, the
//! full `SecureStats` and a digest of the NVM image must match the
//! recorded values exactly.
//!
//! `batch_equivalence.rs` proves the entry points agree with each
//! other byte for byte; this test pins *what* they compute, so a
//! timing or accounting change hiding inside one histogram bucket
//! still fails here. Re-record a value only for an intended change,
//! and say which one moved and why.

use std::io::Write;
use std::sync::{Arc, Mutex};

use triad_core::{PersistScheme, SecureMemory, SecureMemoryBuilder, SecureStats, WriteBatch};
use triad_meta::layout::RegionKind;
use triad_sim::events::{EventSink, SharedEventSink};
use triad_sim::rng::SplitMix64;
use triad_sim::{BlockAddr, PhysAddr, Time, BLOCK_BYTES};

/// FNV-1a over the NVM image (address and bytes, in address order)
/// and the persistent root register.
fn digest(mem: &SecureMemory) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (addr, block) in mem.nvm_image().iter() {
        eat(&addr.0.to_le_bytes());
        eat(block);
    }
    eat(&mem.root(RegionKind::Persistent).0);
    h
}

fn random_block(rng: &mut SplitMix64) -> [u8; BLOCK_BYTES] {
    let mut data = [0u8; BLOCK_BYTES];
    rng.fill_bytes(&mut data);
    data
}

/// Runs the fixed history, tracing into `events` if given, and
/// returns (final time, stats, digest).
fn drive(scheme: PersistScheme, events: Option<SharedEventSink>) -> (Time, SecureStats, u64) {
    let mut mem = SecureMemoryBuilder::new()
        .scheme(scheme)
        .key_seed(0x601D)
        .build()
        .unwrap();
    if let Some(sink) = events {
        mem.set_event_sink(sink);
    }
    let p = mem.persistent_region().start();
    let np = mem.non_persistent_region().start();
    let at =
        |base: PhysAddr, page: u64, slot: u64| PhysAddr(base.0 + page * 4096 + slot * 64).block();
    let mut rng = SplitMix64::new(0x0601_DE17);
    let mut t = Time::ZERO;
    let mut written: Vec<BlockAddr> = Vec::new();

    for _ in 0..60 {
        let pick = |rng: &mut SplitMix64| at(p, rng.gen_range(0..16), rng.gen_range(0..4));
        match rng.gen_range(0..4) {
            0 => {
                let block = pick(&mut rng);
                t = mem.persist_block(block, random_block(&mut rng), t).unwrap();
                written.push(block);
            }
            1 => {
                let block = pick(&mut rng);
                t = mem.store_block(block, random_block(&mut rng), t).unwrap();
                t = mem.flush_block(block, t).unwrap();
                written.push(block);
            }
            2 => {
                mem.begin_epoch().unwrap();
                for _ in 0..rng.gen_range_inclusive(1..=6) {
                    let block = pick(&mut rng);
                    t = mem.persist_block(block, random_block(&mut rng), t).unwrap();
                    written.push(block);
                }
                t = mem.end_epoch(t).unwrap();
            }
            _ => {
                let mut batch = WriteBatch::new();
                for _ in 0..rng.gen_range_inclusive(1..=8) {
                    let block = pick(&mut rng);
                    batch.push(block, random_block(&mut rng));
                    written.push(block);
                }
                t = mem.persist_batch(&batch, t).unwrap();
            }
        }
        // Non-persistent traffic (atomic under Strict only) and a read
        // of something already written.
        let block = at(np, rng.gen_range(0..16), rng.gen_range(0..4));
        t = mem.store_block(block, random_block(&mut rng), t).unwrap();
        let read = written[rng.gen_range(0..written.len() as u64) as usize];
        t = mem.load_block(read, t).unwrap().1;
    }

    // A hot block overflows its minor counter beside written
    // neighbours, forcing a page re-encryption mid-history.
    let hot = at(p, 20, 1);
    for slot in [0, 2, 3] {
        t = mem
            .persist_block(at(p, 20, slot), random_block(&mut rng), t)
            .unwrap();
    }
    for i in 0..130 {
        let data = random_block(&mut rng);
        t = if i % 2 == 0 {
            mem.persist_block(hot, data, t).unwrap()
        } else {
            let mut batch = WriteBatch::new();
            batch.push(hot, data);
            mem.persist_batch(&batch, t).unwrap()
        };
    }
    assert!(
        mem.stats().page_reencryptions >= 1,
        "history must re-encrypt a page"
    );
    (t, mem.stats(), digest(&mem))
}

fn check(scheme: PersistScheme, time_ps: u64, stats: SecureStats, image: u64) {
    let (t, s, d) = drive(scheme, None);
    assert_eq!(
        (t.as_ps(), s, d),
        (time_ps, stats, image),
        "{scheme}: golden pipeline numbers moved; actual: time_ps {} digest {d:#018x}\n{s:#?}",
        t.as_ps()
    );
}

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

/// Every §3.3.5 commit — a write-back's batch of one, an epoch
/// boundary or a `persist_batch` — emits exactly one `atomic_persist`
/// event, so the trace and the counter agree.
#[test]
fn one_commit_event_per_atomic_persist() {
    for scheme in [
        PersistScheme::WriteBack,
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::Strict,
    ] {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let (_, stats, _) = drive(
            scheme,
            Some(EventSink::shared(Box::new(SharedBuf(buf.clone())))),
        );
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let commits = text.matches("\"event\":\"atomic_persist\"").count() as u64;
        assert_eq!(commits, stats.atomic_persists, "{scheme}");
        assert_eq!(commits > 0, scheme.persists_metadata(), "{scheme}");
        assert!(!text.contains("batch_persist"), "{scheme}");
    }
}

#[test]
fn golden_write_back() {
    check(
        PersistScheme::WriteBack,
        50_331_500,
        SecureStats {
            loads: 60,
            l3_load_hits: 41,
            stores: 339,
            persists: 279,
            nvm_data_writes: 384,
            nvm_data_reads: 19,
            mac_writes_evict: 98,
            counter_reads: 32,
            mac_reads: 125,
            node_reads: 13,
            page_reencryptions: 1,
            epochs: 14,
            batches: 94,
            batch_members: 177,
            ..SecureStats::default()
        },
        0x4dca_70e5_3106_93dd,
    );
}

#[test]
fn golden_triad1() {
    check(
        PersistScheme::triad_nvm(1),
        81_813_500,
        SecureStats {
            loads: 60,
            l3_load_hits: 41,
            stores: 339,
            persists: 279,
            nvm_data_writes: 384,
            nvm_data_reads: 19,
            counter_writes_persist: 266,
            mac_writes_persist: 273,
            mac_writes_evict: 27,
            counter_reads: 32,
            mac_reads: 129,
            node_reads: 13,
            page_reencryptions: 1,
            atomic_persists: 193,
            epochs: 14,
            batches: 94,
            batch_members: 177,
            batch_writes_merged: 23,
            ..SecureStats::default()
        },
        0xfe41_5e43_bcfc_53e6,
    );
}

#[test]
fn golden_triad2() {
    check(
        PersistScheme::triad_nvm(2),
        83_364_500,
        SecureStats {
            loads: 60,
            l3_load_hits: 41,
            stores: 339,
            persists: 279,
            nvm_data_writes: 384,
            nvm_data_reads: 19,
            counter_writes_persist: 266,
            mac_writes_persist: 273,
            mac_writes_evict: 27,
            node_writes_persist: 214,
            counter_reads: 32,
            mac_reads: 129,
            node_reads: 13,
            page_reencryptions: 1,
            atomic_persists: 193,
            epochs: 14,
            batches: 94,
            batch_members: 177,
            batch_writes_merged: 85,
            ..SecureStats::default()
        },
        0x844f_93b6_035e_89a6,
    );
}

#[test]
fn golden_triad3() {
    check(
        PersistScheme::triad_nvm(3),
        84_704_500,
        SecureStats {
            loads: 60,
            l3_load_hits: 41,
            stores: 339,
            persists: 279,
            nvm_data_writes: 384,
            nvm_data_reads: 19,
            counter_writes_persist: 266,
            mac_writes_persist: 273,
            mac_writes_evict: 27,
            node_writes_persist: 407,
            counter_reads: 32,
            mac_reads: 129,
            node_reads: 13,
            page_reencryptions: 1,
            atomic_persists: 193,
            epochs: 14,
            batches: 94,
            batch_members: 177,
            batch_writes_merged: 168,
            ..SecureStats::default()
        },
        0xd226_b343_a9d3_ee2d,
    );
}

#[test]
fn golden_strict() {
    check(
        PersistScheme::Strict,
        96_703_000,
        SecureStats {
            loads: 60,
            l3_load_hits: 41,
            stores: 339,
            persists: 279,
            nvm_data_writes: 384,
            nvm_data_reads: 19,
            counter_writes_persist: 311,
            mac_writes_persist: 318,
            node_writes_persist: 528,
            counter_reads: 32,
            mac_reads: 131,
            node_reads: 14,
            page_reencryptions: 1,
            atomic_persists: 227,
            epochs: 14,
            batches: 94,
            batch_members: 177,
            batch_writes_merged: 182,
            ..SecureStats::default()
        },
        0x50f6_edda_2c89_052b,
    );
}
