//! A cheap hasher for maps keyed by ids: the workspace's one hasher.
//!
//! Abstract-screen ids are already hashes and action ids are small
//! counters, so SipHash's flood resistance buys nothing here; one
//! multiply per key is enough to spread them over a table. Every user
//! only looks keys up — none reads a map's iteration order — so the
//! hasher choice changes no decision.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hashing of integer keys (the `FxHash` scheme).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// A `HashMap` over id keys.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over id keys.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;
