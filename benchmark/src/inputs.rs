//! Seeded inputs of the three workloads. The program under test only
//! ever sees what these functions generate.

use triad_sim::rng::SplitMix64;
use triad_workloads::kv::value_bytes;
use triad_workloads::service::Request;
use triad_workloads::Zipf;

/// The Strict tenant of the KV workloads.
pub const STRICT: u64 = 1;
/// The Buffered tenant of `kv-update-zipf`.
pub const BUFFERED: u64 = 2;
/// Requests per `submit_as` call of the closed-loop client.
pub const BATCH: usize = 16;
/// Puts per `submit_as` call while preloading (set-up only).
pub const PRELOAD_BATCH: usize = 64;

/// `kv-update-zipf`: timed requests per pass.
pub const ZIPF_REQUESTS: usize = 80_000;
/// `kv-update-zipf`: keys per tenant.
pub const ZIPF_KEYS: u64 = 4096;
/// `kv-read-cold`: preloaded keys.
pub const COLD_KEYS: u64 = 16_384;
/// `kv-read-cold`: timed requests per pass.
pub const COLD_REQUESTS: usize = 40_000;
/// `trace-mix3`: memory ops per core per pass.
pub const MIX_OPS_PER_CORE: u64 = 16_000;

/// What the closed-loop KV client sends: a preload (set-up) and the
/// timed batches, each tagged with the tenant that submits it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvInputs {
    pub preload: Vec<Request>,
    pub batches: Vec<(u64, Vec<Request>)>,
}

impl KvInputs {
    pub fn timed_requests(&self) -> usize {
        self.batches.iter().map(|(_, b)| b.len()).sum()
    }
}

fn put(rng: &mut SplitMix64, key: u64) -> Request {
    let len = rng.gen_range_inclusive(16..=64) as usize;
    Request::Put {
        key,
        value: value_bytes(rng.next_u64(), len),
    }
}

/// Which of `n` requests are puts: exactly `puts` of them, at seeded
/// positions, so the mix does not drift between seeds.
fn put_positions(rng: &mut SplitMix64, n: usize, puts: usize) -> Vec<bool> {
    let mut is_put: Vec<bool> = (0..n).map(|i| i < puts).collect();
    for i in (1..n).rev() {
        is_put.swap(i, rng.below(i as u64 + 1) as usize);
    }
    is_put
}

/// 16-request batches alternating Strict and Buffered tenants over
/// disjoint key ranges; 50% put / 50% get, Zipf(0.99) over
/// [`ZIPF_KEYS`] keys per tenant, 16–64 B values, no preload.
pub fn kv_update_zipf(seed: u64, requests: usize) -> KvInputs {
    let mut rng = SplitMix64::stream(seed, 0x0075_7064_7a69_7066);
    let zipf = Zipf::new(ZIPF_KEYS as usize, 0.99);
    let is_put = put_positions(&mut rng, requests, requests / 2);
    let batches = is_put
        .chunks(BATCH)
        .enumerate()
        .map(|(b, puts)| {
            let (tenant, base) = if b % 2 == 0 {
                (STRICT, 0)
            } else {
                (BUFFERED, ZIPF_KEYS)
            };
            let reqs = puts
                .iter()
                .map(|&is_put| {
                    let key = base + zipf.sample(&mut rng) as u64;
                    if is_put {
                        put(&mut rng, key)
                    } else {
                        Request::Get { key }
                    }
                })
                .collect();
            (tenant, reqs)
        })
        .collect();
    KvInputs {
        preload: Vec::new(),
        batches,
    }
}

/// Strict-only 16-request batches, 95% get / 5% put, uniform over
/// [`COLD_KEYS`] keys that set-up preloads.
pub fn kv_read_cold(seed: u64, requests: usize) -> KvInputs {
    let mut rng = SplitMix64::stream(seed, 0x636f_6c64_7265_6164);
    let preload = (0..COLD_KEYS).map(|key| put(&mut rng, key)).collect();
    let is_put = put_positions(&mut rng, requests, requests / 20);
    let batches = is_put
        .chunks(BATCH)
        .map(|puts| {
            let reqs = puts
                .iter()
                .map(|&is_put| {
                    let key = rng.below(COLD_KEYS);
                    if is_put {
                        put(&mut rng, key)
                    } else {
                        Request::Get { key }
                    }
                })
                .collect();
            (STRICT, reqs)
        })
        .collect();
    KvInputs { preload, batches }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default seed and the held-out seed of the determinism check.
    const SEED: u64 = 42;
    const HELD_OUT: u64 = 7;

    #[test]
    fn same_seed_same_inputs_held_out_seed_different_inputs() {
        assert_eq!(kv_update_zipf(SEED, 320), kv_update_zipf(SEED, 320));
        assert_ne!(kv_update_zipf(SEED, 320), kv_update_zipf(HELD_OUT, 320));
        assert_eq!(kv_read_cold(SEED, 320), kv_read_cold(SEED, 320));
        assert_ne!(kv_read_cold(SEED, 320), kv_read_cold(HELD_OUT, 320));
    }

    #[test]
    fn tenants_alternate_over_disjoint_key_ranges() {
        let inp = kv_update_zipf(SEED, 3200);
        for (b, (tenant, reqs)) in inp.batches.iter().enumerate() {
            assert_eq!(*tenant, if b % 2 == 0 { STRICT } else { BUFFERED });
            assert_eq!(reqs.len(), BATCH);
            for r in reqs {
                let key = match r {
                    Request::Put { key, .. } | Request::Get { key } => *key,
                    other => panic!("unexpected request {other:?}"),
                };
                let lo = if *tenant == STRICT { 0 } else { ZIPF_KEYS };
                assert!((lo..lo + ZIPF_KEYS).contains(&key));
            }
        }
    }

    fn gets(inp: &KvInputs) -> usize {
        inp.batches
            .iter()
            .flat_map(|(_, b)| b)
            .filter(|r| matches!(r, Request::Get { .. }))
            .count()
    }

    #[test]
    fn mixes_are_exact() {
        let cold = kv_read_cold(SEED, 20_000);
        assert_eq!(cold.preload.len(), COLD_KEYS as usize);
        assert_eq!((cold.timed_requests(), gets(&cold)), (20_000, 19_000));
        let zipf = kv_update_zipf(SEED, 3200);
        assert_eq!((zipf.timed_requests(), gets(&zipf)), (3200, 1600));
    }
}
