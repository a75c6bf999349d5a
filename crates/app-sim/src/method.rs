//! Method identifiers — the unit of code coverage.
//!
//! The paper measures *method coverage* collected by MiniTrace at the
//! DalvikVM level. The simulation assigns each app a table of abstract
//! method ids; exercising behaviour (rendering a screen, firing a handler,
//! completing a flow) covers method sets deterministically.
//!
//! Ids are dense (`0..App::method_count()`), so a covered set is a
//! [`MethodSet`] bitset of one bit per method rather than a hashed or
//! ordered tree.

use std::fmt;

/// Identifier of one app method (unique within an app).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MethodId(pub u32);

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A set of [`MethodId`]s stored as a dense bitset.
///
/// Sized from the app's method count (see [`MethodSet::with_capacity`]);
/// an id past the end grows the set, so a wrong size costs a reallocation,
/// never a lost method. Iteration is ascending, as a `BTreeSet` would be.
#[derive(Clone, Default)]
pub struct MethodSet {
    words: Vec<u64>,
    len: usize,
}

impl MethodSet {
    /// An empty set with room for ids `0..method_count`.
    pub fn with_capacity(method_count: usize) -> Self {
        MethodSet {
            words: vec![0; method_count.div_ceil(64)],
            len: 0,
        }
    }

    /// Adds `m`; returns `true` if it was not present.
    pub fn insert(&mut self, m: MethodId) -> bool {
        let (word, bit) = Self::slot(m);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let w = &mut self.words[word];
        let fresh = *w & bit == 0;
        *w |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `m` is in the set.
    pub fn contains(&self, m: MethodId) -> bool {
        let (word, bit) = Self::slot(m);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Number of methods in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of methods in both `self` and `other`.
    pub fn intersection_len(&self, other: &MethodSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The methods in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = (i as u32) * 64;
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    MethodId(base + bit)
                })
            })
        })
    }

    fn slot(m: MethodId) -> (usize, u64) {
        ((m.0 / 64) as usize, 1u64 << (m.0 % 64))
    }
}

impl fmt::Debug for MethodSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<MethodId> for MethodSet {
    fn extend<I: IntoIterator<Item = MethodId>>(&mut self, iter: I) {
        for m in iter {
            self.insert(m);
        }
    }
}

/// A compact allocator for method ids, used by the app generator.
#[derive(Debug, Clone, Default)]
pub struct MethodAllocator {
    next: u32,
}

impl MethodAllocator {
    /// Creates an allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates one fresh method id.
    pub fn alloc(&mut self) -> MethodId {
        let id = MethodId(self.next);
        self.next += 1;
        id
    }

    /// Allocates `n` fresh consecutive method ids.
    pub fn alloc_many(&mut self, n: usize) -> Vec<MethodId> {
        (0..n).map(|_| self.alloc()).collect()
    }

    /// Total number of ids allocated so far.
    pub fn allocated(&self) -> usize {
        self.next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_dense_and_unique() {
        let mut a = MethodAllocator::new();
        let first = a.alloc();
        let batch = a.alloc_many(3);
        assert_eq!(first, MethodId(0));
        assert_eq!(batch, vec![MethodId(1), MethodId(2), MethodId(3)]);
        assert_eq!(a.allocated(), 4);
    }

    #[test]
    fn method_set_grows_past_its_capacity() {
        let mut s = MethodSet::with_capacity(0);
        assert!(s.is_empty());
        assert!(!s.contains(MethodId(5)));
        assert!(s.insert(MethodId(130)));
        assert!(s.insert(MethodId(3)));
        assert!(!s.insert(MethodId(130)));
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![MethodId(3), MethodId(130)]
        );
        assert_eq!(format!("{s:?}"), "{MethodId(3), MethodId(130)}");
    }

    #[test]
    fn intersection_counts_shared_words_only() {
        let mut short = MethodSet::with_capacity(64);
        short.extend([MethodId(1), MethodId(63)]);
        let mut long = MethodSet::with_capacity(256);
        long.extend([MethodId(1), MethodId(64), MethodId(200)]);
        assert_eq!(short.intersection_len(&long), 1);
        assert_eq!(long.intersection_len(&short), 1);
        assert_eq!(long.intersection_len(&long), 3);
    }

    #[test]
    fn display() {
        assert_eq!(MethodId(17).to_string(), "m17");
    }
}
