//! A cheap hasher for maps keyed by ids.
//!
//! Screen-state ids are already hashes and action ids are small
//! counters, so SipHash's flood resistance buys nothing here; one
//! multiply per key is enough to spread them over a table. No decision
//! reads a map's iteration order, so the hasher choice changes no
//! action.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hashing of integer keys (the `FxHash` scheme).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// A `HashMap` over id keys.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over id keys.
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;
