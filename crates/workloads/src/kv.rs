//! Deterministic KV payloads shared by the request generators.
//!
//! A value is named by a `(tag, len)` pair and derived on demand, so a
//! schedule, its oracle and the store all agree on the bytes without
//! the schedule storing them. The multi-shard driver is
//! [`crate::service::KvService`]; its request generator is
//! [`crate::service::generate_requests`].

use triad_sim::rng::SplitMix64;

/// The deterministic value payload for a put's `(tag, len)`.
pub fn value_bytes(tag: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    SplitMix64::new(tag ^ len as u64).fill_bytes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_bytes_depend_on_tag_and_len() {
        assert_eq!(value_bytes(1, 10), value_bytes(1, 10));
        assert_ne!(value_bytes(1, 10), value_bytes(2, 10));
        assert_eq!(value_bytes(1, 0).len(), 0);
    }
}
