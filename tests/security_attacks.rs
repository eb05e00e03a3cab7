//! Systematic attack matrix (threat model of §3.1): for every scheme
//! and every metadata kind, an attacker who modifies the NVM image
//! between boot episodes must be detected — at recovery time or at
//! first access, but always before tampered data is consumed.

use triad_nvm::core::{PersistScheme, SecureMemory, SecureMemoryBuilder, SecureMemoryError};
use triad_nvm::sim::{BlockAddr, PhysAddr};

fn victim(scheme: PersistScheme) -> (SecureMemory, PhysAddr) {
    let mut m = SecureMemoryBuilder::new().scheme(scheme).build().unwrap();
    let p = m.persistent_region().start();
    for i in 0..16u64 {
        let a = PhysAddr(p.0 + i * 4096);
        m.write(a, format!("secret-{i}").as_bytes()).unwrap();
        m.persist(a).unwrap();
    }
    m.crash();
    (m, p)
}

fn tamper(m: &mut SecureMemory, block: BlockAddr, byte: usize) {
    let mut mask = [0u8; 64];
    mask[byte] = 0x5A;
    m.nvm_image_mut().tamper(block, mask);
}

/// Recovers and reads; returns whether the attack was detected
/// anywhere along the way.
fn detected(m: &mut SecureMemory, addr: PhysAddr) -> bool {
    let report = m.recover().unwrap();
    if !report.persistent_recovered {
        return true;
    }
    match m.read(addr) {
        Err(
            SecureMemoryError::MacMismatch { .. }
            | SecureMemoryError::IntegrityViolation { .. }
            | SecureMemoryError::Unverifiable { .. },
        ) => true,
        Err(e) => panic!("unexpected error class: {e}"),
        Ok(data) => {
            // Undetected is acceptable only if the data is untouched.
            &data[..7] == b"secret-"
        }
    }
}

fn schemes() -> [PersistScheme; 4] {
    [
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ]
}

#[test]
fn data_tampering_detected_under_every_scheme() {
    for scheme in schemes() {
        let (mut m, p) = victim(scheme);
        tamper(&mut m, p.block(), 3);
        let report = m.recover().unwrap();
        assert!(report.persistent_recovered, "{scheme}");
        assert!(
            matches!(m.read(p), Err(SecureMemoryError::MacMismatch { .. })),
            "{scheme}: data tampering must trip the MAC"
        );
    }
}

#[test]
fn mac_tampering_detected_under_every_scheme() {
    for scheme in schemes() {
        let (mut m, p) = victim(scheme);
        let mac = m.memory_map().persistent().mac_block_of(p.block());
        let slot = m.memory_map().persistent().mac_slot_of(p.block());
        tamper(&mut m, mac, slot * 8);
        m.recover().unwrap();
        assert!(
            matches!(m.read(p), Err(SecureMemoryError::MacMismatch { .. })),
            "{scheme}: MAC tampering must be caught"
        );
    }
}

#[test]
fn counter_tampering_detected_under_every_scheme() {
    for scheme in schemes() {
        let (mut m, p) = victim(scheme);
        let ctr = m.memory_map().persistent().counter_block_of(p.block());
        tamper(&mut m, ctr, 9);
        assert!(detected(&mut m, p), "{scheme}: counter tampering");
    }
}

#[test]
fn bmt_node_tampering_detected_under_every_scheme() {
    for scheme in schemes() {
        let (mut m, p) = victim(scheme);
        let node = m.memory_map().persistent().bmt_node_addr(1, 0).unwrap();
        tamper(&mut m, node, 1);
        // Either recovery rebuilds the node honestly (tamper repaired,
        // data intact) or flags it; tampered data must never appear.
        assert!(detected(&mut m, p), "{scheme}: node tampering");
        let _ = p;
    }
}

#[test]
fn full_block_replay_detected_under_every_scheme() {
    for scheme in schemes() {
        let mut m = SecureMemoryBuilder::new().scheme(scheme).build().unwrap();
        let p = m.persistent_region().start();
        let layout = m.memory_map().persistent().clone();
        m.write(p, b"version-A").unwrap();
        m.persist(p).unwrap();
        let old = (
            m.nvm_image().read(p.block()),
            m.nvm_image().read(layout.mac_block_of(p.block())),
            m.nvm_image().read(layout.counter_block_of(p.block())),
        );
        m.write(p, b"version-B").unwrap();
        m.persist(p).unwrap();
        m.crash();
        m.nvm_image_mut().rollback_to(p.block(), old.0);
        m.nvm_image_mut()
            .rollback_to(layout.mac_block_of(p.block()), old.1);
        m.nvm_image_mut()
            .rollback_to(layout.counter_block_of(p.block()), old.2);
        let report = m.recover().unwrap();
        let caught = !report.persistent_recovered
            || matches!(m.read(p), Err(SecureMemoryError::IntegrityViolation { .. }));
        assert!(caught, "{scheme}: replay attack slipped through");
    }
}

#[test]
fn swapping_two_ciphertext_blocks_is_detected() {
    let (mut m, p) = victim(PersistScheme::triad_nvm(2));
    let a = p.block();
    let b = PhysAddr(p.0 + 4096).block();
    let (va, vb) = (m.nvm_image().read(a), m.nvm_image().read(b));
    m.nvm_image_mut().rollback_to(a, vb);
    m.nvm_image_mut().rollback_to(b, va);
    m.recover().unwrap();
    assert!(matches!(
        m.read(p),
        Err(SecureMemoryError::MacMismatch { .. })
    ));
}

#[test]
fn tampering_non_persistent_region_cannot_poison_next_boot() {
    // The np region is discarded at reboot: arbitrary tampering there
    // must be invisible (fresh zeros), never an error, never data.
    let mut m = SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(1))
        .build()
        .unwrap();
    let np = m.non_persistent_region().start();
    m.write(np, b"scratch").unwrap();
    m.crash();
    for i in 0..32u64 {
        tamper(&mut m, BlockAddr(np.block().0 + i), (i % 64) as usize);
    }
    m.recover().unwrap();
    for i in 0..32u64 {
        let addr = PhysAddr(np.0 + i * 64);
        assert_eq!(m.read(addr).unwrap(), [0u8; 64], "block {i}");
    }
    // And writes after the attack work normally.
    m.write(np, b"clean").unwrap();
    assert_eq!(&m.read(np).unwrap()[..5], b"clean");
}

#[test]
fn failed_verification_fails_again_on_retry() {
    // A read that fails verification must leave nothing on chip that a
    // retry could return as if it had verified.
    for scheme in schemes() {
        for target in ["data", "mac", "counter"] {
            let (mut m, p) = victim(scheme);
            let layout = m.memory_map().persistent().clone();
            let (block, byte) = match target {
                "data" => (p.block(), 3),
                "mac" => (
                    layout.mac_block_of(p.block()),
                    layout.mac_slot_of(p.block()) * 8,
                ),
                _ => (layout.counter_block_of(p.block()), 9),
            };
            tamper(&mut m, block, byte);
            m.recover().unwrap();
            for attempt in 1..=2 {
                let read = m.read(p);
                assert!(
                    matches!(
                        read,
                        Err(SecureMemoryError::MacMismatch { .. }
                            | SecureMemoryError::IntegrityViolation { .. }
                            | SecureMemoryError::Unverifiable { .. })
                    ),
                    "{scheme}: {target} tampering, read {attempt} gave {read:?}"
                );
            }
        }
    }
}
