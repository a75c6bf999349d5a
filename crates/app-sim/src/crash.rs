//! Latent crash points — the simulation's stand-in for real app crashes.
//!
//! The paper counts *unique crashes*, deduplicated by the code location in
//! the stack trace collected from logcat. Here each app embeds a set of
//! latent [`CrashPoint`]s attached to deep actions; firing the action under
//! the right conditions emits a [`CrashSignature`] (the dedup key) and
//! restarts the app, exactly like a real crash under a test harness.

use std::fmt;

/// The deduplication key of a crash: models the top code location of the
/// stack trace (paper §6.1, "code locations in stack traces are used to
/// identify unique crashes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CrashSignature(pub u64);

impl fmt::Display for CrashSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crash#{:08x}", self.0)
    }
}

/// A latent fault attached to an action.
///
/// The crash fires with probability [`CrashPoint::probability`] each time
/// the action executes, but only once the executing
/// [`AppRuntime`](crate::AppRuntime) has visited at least
/// [`CrashPoint::min_local_depth`] distinct screens of the action's
/// functionality — modelling crashes that require stateful, deep flows
/// (the kind that redundant shallow exploration keeps missing and
/// dedicated subspace exploration finds, Table 5). That depth accumulates
/// over the runtime's whole life: a crash restart keeps it, and only a
/// freshly launched runtime (a replacement instance) starts from zero.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPoint {
    /// Per-execution firing probability once armed.
    pub probability: f64,
    /// Distinct in-functionality screens the runtime must have visited,
    /// over its whole life, before the fault is armed.
    pub min_local_depth: usize,
    /// Dedup signature emitted when the fault fires.
    pub signature: CrashSignature,
}

impl CrashPoint {
    /// Creates a crash point.
    pub fn new(probability: f64, min_local_depth: usize, signature: CrashSignature) -> Self {
        CrashPoint {
            probability,
            min_local_depth,
            signature,
        }
    }

    /// Whether the fault is armed at the given depth: distinct screens of
    /// the action's functionality the runtime has visited so far.
    pub fn armed(&self, local_depth: usize) -> bool {
        local_depth >= self.min_local_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_respects_depth() {
        let cp = CrashPoint::new(0.5, 3, CrashSignature(1));
        assert!(!cp.armed(0));
        assert!(!cp.armed(2));
        assert!(cp.armed(3));
        assert!(cp.armed(10));
    }

    #[test]
    fn signature_display() {
        assert_eq!(CrashSignature(0xff).to_string(), "crash#000000ff");
    }
}
