//! Maps keyed by ids handed out in sequence (0, 1, 2, …).
//!
//! Units, tasks and jobs that are handled together were numbered together.
//! [`IdHasher`] keeps that order in the table: a wide stage's entries sit
//! side by side instead of scattered over the whole table, as a keyed hash
//! would put them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hasher for keys hashed as one `u64` id. `finish` returns
/// `n ^ (n << 57)`: the low bits, which pick the bucket, are the id's own,
/// so consecutive ids land in consecutive buckets, and the top 7 bits, from
/// which std's table takes its control byte, carry the id's low 7 bits, so
/// any 16 consecutive ids get distinct control bytes. Bytes written with
/// `write` (any other key shape) are mixed, so the hasher stays correct,
/// if not ordered, for them. The hash is not keyed: use it only for ids the
/// program hands out itself, never for keys from outside, which could be
/// chosen to collide.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

const MIX: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 << 57)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(MIX);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = if self.0 == 0 {
            n
        } else {
            (self.0.rotate_left(5) ^ n).wrapping_mul(MIX)
        };
    }
}

/// A `HashMap` keyed by a sequential id, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskId;
    use std::hash::{BuildHasher, Hash};

    fn hash<K: Hash>(key: K) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn consecutive_ids_take_consecutive_low_bits_and_distinct_control_bytes() {
        for base in [0u64, 1, 1_000, 1 << 20, u64::from(u32::MAX) - 511] {
            let hashes: Vec<u64> = (base..base + 1024).map(|n| hash(TaskId(n))).collect();
            for pair in hashes.windows(2) {
                // Bucket index of a 2^10-slot table: steps by one, wrapping.
                assert_eq!((pair[1] & 1023), (pair[0] + 1) & 1023, "base {base}");
            }
            for window in hashes.windows(16) {
                let mut top7: Vec<u64> = window.iter().map(|h| h >> 57).collect();
                top7.sort_unstable();
                top7.dedup();
                assert_eq!(top7.len(), 16, "base {base}");
            }
        }
    }

    #[test]
    fn other_key_shapes_are_mixed() {
        assert_ne!(hash("unit.1"), hash("unit.2"));
        assert_ne!(hash((1u64, 2u64)), hash((2u64, 1u64)));
        let mut map: IdMap<String, usize> = IdMap::default();
        for i in 0..1000 {
            map.insert(format!("task.{i:06}"), i);
        }
        assert!((0..1000).all(|i| map[&format!("task.{i:06}")] == i));
    }
}
