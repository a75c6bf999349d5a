//! Warm-start bundles: learned analyzer state that survives a release
//! boundary.
//!
//! A finished campaign has learned two reusable artifacts: the confirmed
//! subspace registry (entry widgets + screen sets) and the pairwise
//! decisions of the app's
//! [`SimilarityCache`](crate::findspace::SimilarityCache) store — plus a
//! coverage baseline for longitudinal deltas. A [`WarmStart`] captures
//! them so the next version's campaign can start from them instead of
//! cold.
//!
//! The bundle splits into two halves with very different obligations:
//!
//! * **Pure accelerators** — similarity decisions. Each is a pure
//!   function of its abstract-id pair, so pre-seeding them can only skip
//!   computes, never change an outcome; the store refuses self-pairs,
//!   which it answers `true` without a slot. They are *always* safe to
//!   carry (the empty-diff proptest pins this as byte-identity).
//! * **Behavioral carry-over** — confirmed subspaces. Seeding them
//!   re-dedicates known territory immediately (the per-round orphan-repair
//!   pass assigns each an owner at round 1), which *changes* exploration —
//!   deliberately. They are carried only across a non-empty
//!   [`VersionDiff`](taopt_app_sim::VersionDiff), and only when the diff's
//!   touched surface leaves them intact; see [`WarmStart::invalidate`].

use std::collections::BTreeSet;

use taopt_app_sim::TouchedSurface;
use taopt_toller::EntrypointRule;
use taopt_ui_model::AbstractScreenId;

/// One confirmed subspace carried across a release boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmSubspace {
    /// Entry widgets whose blocking seals the subspace.
    pub entrypoints: Vec<EntrypointRule>,
    /// Abstract screens belonging to the subspace.
    pub screens: BTreeSet<AbstractScreenId>,
}

/// How much of a warm bundle survived invalidation against a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmReuse {
    /// Subspaces carried intact (re-dedicated immediately).
    pub carried: usize,
    /// Subspaces invalidated (fall back to cold discovery).
    pub invalidated: usize,
}

impl WarmReuse {
    /// Carried fraction in `[0, 1]` (1.0 when nothing was learned yet).
    pub fn ratio(&self) -> f64 {
        let total = self.carried + self.invalidated;
        if total == 0 {
            1.0
        } else {
            self.carried as f64 / total as f64
        }
    }
}

/// Learned analyzer state extracted from a finished campaign, ready to
/// seed the next version's analyzer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmStart {
    /// Confirmed subspaces (behavioral carry-over).
    pub subspaces: Vec<WarmSubspace>,
    /// Similarity-store decisions, sorted by key (pure accelerator).
    pub similarity: Vec<((u64, u64), bool)>,
    /// Final union method coverage of the capturing campaign, for
    /// longitudinal coverage deltas.
    pub coverage_baseline: usize,
}

impl WarmStart {
    /// Whether the bundle carries nothing.
    pub fn is_empty(&self) -> bool {
        self.subspaces.is_empty() && self.similarity.is_empty()
    }

    /// Drops the behavioral half, keeping only the pure accelerators.
    ///
    /// This is the correct carry-over for an *empty* diff (a re-release of
    /// the same binary): caches transfer, but exhausted territory is not
    /// re-dedicated — the warm path must then be byte-identical to cold.
    pub fn accelerators_only(&self) -> WarmStart {
        WarmStart {
            subspaces: Vec::new(),
            similarity: self.similarity.clone(),
            coverage_baseline: self.coverage_baseline,
        }
    }

    /// Re-validates the bundle against the surface a [`VersionDiff`]
    /// touches, returning the surviving bundle and the reuse tally.
    ///
    /// A subspace is invalidated iff the diff touches any of its screens,
    /// any screen hosting one of its entrypoints, or renames one of its
    /// entrypoint widgets — in all three cases the learned structure no
    /// longer matches what the new version renders, so the subspace falls
    /// back to cold discovery. Similarity decisions involving touched
    /// screens are dropped too (their abstract ids no
    /// longer occur, so keeping them would only hold dead weight).
    ///
    /// [`VersionDiff`]: taopt_app_sim::VersionDiff
    pub fn invalidate(&self, touched: &TouchedSurface) -> (WarmStart, WarmReuse) {
        let touched_raw: BTreeSet<u64> = touched.screens.iter().map(|s| s.0).collect();
        let survives = |s: &WarmSubspace| {
            s.screens.is_disjoint(&touched.screens)
                && s.entrypoints.iter().all(|e| {
                    !touched.screens.contains(&e.screen)
                        && !touched.widget_rids.contains(&e.widget_rid)
                })
        };
        let subspaces: Vec<WarmSubspace> = self
            .subspaces
            .iter()
            .filter(|s| survives(s))
            .cloned()
            .collect();
        let reuse = WarmReuse {
            carried: subspaces.len(),
            invalidated: self.subspaces.len() - subspaces.len(),
        };
        let similarity = self
            .similarity
            .iter()
            .filter(|((a, b), _)| !touched_raw.contains(a) && !touched_raw.contains(b))
            .copied()
            .collect();
        (
            WarmStart {
                subspaces,
                similarity,
                coverage_baseline: self.coverage_baseline,
            },
            reuse,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subspace(screens: &[u64], host: u64, rid: &str) -> WarmSubspace {
        WarmSubspace {
            entrypoints: vec![EntrypointRule::new(AbstractScreenId(host), rid)],
            screens: screens.iter().map(|s| AbstractScreenId(*s)).collect(),
        }
    }

    fn bundle() -> WarmStart {
        WarmStart {
            subspaces: vec![
                subspace(&[10, 11], 1, "tab_a"),
                subspace(&[20, 21], 1, "tab_b"),
            ],
            similarity: vec![((10, 11), true), ((10, 20), false), ((20, 21), true)],
            coverage_baseline: 500,
        }
    }

    fn touched(screens: &[u64], rids: &[&str]) -> TouchedSurface {
        TouchedSurface {
            screens: screens.iter().map(|s| AbstractScreenId(*s)).collect(),
            widget_rids: rids.iter().map(|r| r.to_string()).collect(),
        }
    }

    #[test]
    fn empty_surface_carries_everything() {
        let (w, reuse) = bundle().invalidate(&TouchedSurface::default());
        assert_eq!(
            reuse,
            WarmReuse {
                carried: 2,
                invalidated: 0
            }
        );
        assert_eq!(reuse.ratio(), 1.0);
        assert_eq!(w, bundle());
    }

    #[test]
    fn touched_screen_invalidates_its_subspace_and_cache_entries() {
        let (w, reuse) = bundle().invalidate(&touched(&[10], &[]));
        assert_eq!(
            reuse,
            WarmReuse {
                carried: 1,
                invalidated: 1
            }
        );
        assert_eq!(w.subspaces.len(), 1);
        assert_eq!(w.subspaces[0].screens.len(), 2);
        assert!(w.subspaces[0].screens.contains(&AbstractScreenId(20)));
        assert_eq!(w.similarity, vec![((20, 21), true)]);
        assert!((reuse.ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn renamed_entry_widget_invalidates_its_subspace() {
        let (w, reuse) = bundle().invalidate(&touched(&[], &["tab_b"]));
        assert_eq!(
            reuse,
            WarmReuse {
                carried: 1,
                invalidated: 1
            }
        );
        assert!(w.subspaces[0].screens.contains(&AbstractScreenId(10)));
    }

    #[test]
    fn touched_entry_host_invalidates_every_subspace_entered_there() {
        let (_, reuse) = bundle().invalidate(&touched(&[1], &[]));
        assert_eq!(
            reuse,
            WarmReuse {
                carried: 0,
                invalidated: 2
            }
        );
        assert_eq!(reuse.ratio(), 0.0);
    }

    #[test]
    fn accelerators_only_drops_behavioral_half() {
        let w = bundle().accelerators_only();
        assert!(w.subspaces.is_empty());
        assert_eq!(w.similarity.len(), 3);
        assert_eq!(w.coverage_baseline, 500);
        assert!(!w.is_empty());
    }
}
