//! Micro-benchmarks of the secure memory controller's hot paths:
//! loads, plain stores, persists under each persistence scheme, and
//! the functional NVM image underneath them.

use std::hint::black_box;
use triad_bench::timing::{bench, header};
use triad_core::{PersistScheme, SecureMemory, SecureMemoryBuilder};
use triad_mem::SparseStore;
use triad_sim::{BlockAddr, PhysAddr};

/// Resident blocks in the `nvm_image` rows' image (4 MiB of data,
/// beyond the L2 of common hosts).
const IMAGE_BLOCKS: u64 = 1 << 16;

fn engine(scheme: PersistScheme) -> SecureMemory {
    SecureMemoryBuilder::new().scheme(scheme).build().unwrap()
}

fn main() {
    header("secure_path");
    {
        let mut m = engine(PersistScheme::triad_nvm(1));
        let p = m.persistent_region().start();
        m.write(p, &[1u8; 64]).unwrap();
        bench("load_cached_block", || m.read(black_box(p)).unwrap());
    }

    {
        let mut m = engine(PersistScheme::triad_nvm(1));
        let np = m.non_persistent_region().start();
        let mut i = 0u64;
        bench("store_full_block", || {
            // Rotate over a small window so the L3 absorbs it.
            let addr = PhysAddr(np.0 + (i % 256) * 64);
            i += 1;
            m.write(black_box(addr), &[2u8; 64]).unwrap()
        });
    }

    {
        // Every other block of a 128 Ki-block range is resident; probes
        // visit the range in a scattered order (an odd multiplier mod a
        // power of two is a permutation).
        let mut image = SparseStore::new();
        for i in 0..IMAGE_BLOCKS {
            image.write(BlockAddr(2 * i), [i as u8 | 1; 64]);
        }
        let scatter = |i: u64| i.wrapping_mul(0x9E37_79B9) % IMAGE_BLOCKS;
        let mut i = 0u64;
        bench("nvm_image/read_hit", || {
            i += 1;
            image.read(black_box(BlockAddr(2 * scatter(i))))
        });
        bench("nvm_image/read_miss", || {
            i += 1;
            image.read(black_box(BlockAddr(2 * scatter(i) + 1)))
        });
        bench("nvm_image/write", || {
            i += 1;
            image.write(black_box(BlockAddr(2 * scatter(i))), [i as u8 | 1; 64])
        });
    }

    for scheme in [
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ] {
        let mut m = engine(scheme);
        let p = m.persistent_region().start();
        let mut i = 0u64;
        bench(&format!("persist_block/{scheme}"), || {
            let addr = PhysAddr(p.0 + (i % 512) * 64);
            i += 1;
            m.write(addr, &i.to_le_bytes()).unwrap();
            m.persist(black_box(addr)).unwrap();
        });
    }
}
