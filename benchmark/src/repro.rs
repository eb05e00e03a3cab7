//! Engine-level reproduction of the defect `kv-update-zipf` reports
//! through its failures: after a minor-counter overflow re-encrypts a
//! page, a later read of another block of that page fails its MAC
//! check. Zipf(0.99) persists over the persistent region, each
//! followed by a read-back of every block written so far.

use std::collections::BTreeMap;

use triad_core::{PersistScheme, SecureMemoryBuilder};
use triad_sim::rng::SplitMix64;
use triad_sim::BlockAddr;
use triad_workloads::Zipf;

use crate::pass::report_config;

/// Runs `persists` Zipf persists over `pages` pages; returns the page
/// re-encryptions it caused, or the first read-back that failed.
pub fn zipf_persist_readback(pages: u64, persists: u64) -> Result<u64, String> {
    let mut mem = SecureMemoryBuilder::new()
        .config(report_config())
        .scheme(PersistScheme::triad_nvm(2))
        .key_seed(42)
        .build()
        .map_err(|e| format!("build: {e:?}"))?;
    let base = mem.persistent_region().start().block().0;
    let zipf = Zipf::new((pages * 64) as usize, 0.99);
    let mut rng = SplitMix64::new(42);
    let mut written: BTreeMap<u64, [u8; 64]> = BTreeMap::new();
    let mut now = mem.now();
    for i in 0..persists {
        let block = base + zipf.sample(&mut rng) as u64;
        let mut data = [0u8; 64];
        data[..8].copy_from_slice(&i.to_le_bytes());
        data[8..16].copy_from_slice(&block.to_le_bytes());
        now = mem
            .persist_block(BlockAddr(block), data, now)
            .map_err(|e| format!("persist {i} of block {block}: {e:?}"))?;
        written.insert(block, data);
        for (&b, want) in &written {
            let reencryptions = mem.stats().page_reencryptions;
            let (got, t) = mem.load_block(BlockAddr(b), now).map_err(|e| {
                format!(
                    "after persist {i} ({reencryptions} re-encryptions): read of block {b}: {e:?}"
                )
            })?;
            now = t;
            if &got != want {
                return Err(format!("after persist {i}: block {b} reads back wrong"));
            }
        }
    }
    Ok(mem.stats().page_reencryptions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_pages_survive_their_reencryptions() {
        let reencryptions = zipf_persist_readback(8, 3000).expect("clean read-back");
        assert!(reencryptions > 0, "the run must overflow a minor counter");
    }

    #[test]
    #[ignore = "fails until the page re-encryption defect is fixed"]
    fn sixty_four_pages_survive_their_reencryptions() {
        let reencryptions = zipf_persist_readback(64, 3000).expect("clean read-back");
        assert!(reencryptions > 0, "the run must overflow a minor counter");
    }
}
