//! The test coordinator (§5.3): subspace dedication, entrypoint broadcast
//! and instance lifecycle policy.

use std::collections::BTreeMap;
use std::fmt;

use taopt_telemetry::{Counter, Histogram};
use taopt_toller::{EntrypointRule, InstanceId, SharedBlockList};
use taopt_ui_model::{Trace, VirtualDuration, VirtualTime};

use crate::analyzer::{AnalyzerConfig, OnlineTraceAnalyzer, SubspaceId, SubspaceInfo};
use crate::error::TaoptError;

/// Observable coordinator decisions (for logs, tests and reports).
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorEvent {
    /// A subspace was confirmed and dedicated to an instance.
    SubspaceDedicated {
        /// The subspace.
        subspace: SubspaceId,
        /// The instance granted exclusive access.
        owner: InstanceId,
        /// When.
        at: VirtualTime,
    },
    /// An entrypoint was blocked on an instance.
    EntrypointBlocked {
        /// The subspace being sealed.
        subspace: SubspaceId,
        /// The instance losing access.
        instance: InstanceId,
        /// The rule installed.
        rule: EntrypointRule,
    },
}

impl fmt::Display for CoordinatorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinatorEvent::SubspaceDedicated {
                subspace,
                owner,
                at,
            } => {
                write!(f, "{at}: dedicated {subspace} to {owner}")
            }
            CoordinatorEvent::EntrypointBlocked {
                subspace,
                instance,
                rule,
            } => {
                write!(f, "{subspace}: {rule} on {instance}")
            }
        }
    }
}

/// The test coordinator: consumes traces, confirms subspaces via the
/// analyzer, dedicates each confirmed subspace to one instance and blocks
/// its entrypoints everywhere else (including instances allocated later).
#[derive(Debug)]
pub struct TestCoordinator {
    analyzer: OnlineTraceAnalyzer,
    blocklists: BTreeMap<InstanceId, SharedBlockList>,
    stall_timeout: VirtualDuration,
    events: Vec<CoordinatorEvent>,
    tombstoned: std::collections::BTreeSet<SubspaceId>,
    metrics: DedicationMetrics,
}

/// Dedication's telemetry handles, resolved once per coordinator.
#[derive(Debug)]
struct DedicationMetrics {
    /// `span_ns{kind="dedicate"}`.
    span: Histogram,
    dedicated: Counter,
    entrypoints_blocked: Counter,
}

impl DedicationMetrics {
    fn new() -> Self {
        let t = taopt_telemetry::global();
        DedicationMetrics {
            span: t.span_histogram("dedicate"),
            dedicated: t.counter("subspaces_dedicated_total"),
            entrypoints_blocked: t.counter("entrypoints_blocked_total"),
        }
    }
}

impl TestCoordinator {
    /// Creates a coordinator with the given analyzer configuration and the
    /// paper's 1-minute stall timeout.
    pub fn new(config: AnalyzerConfig) -> Self {
        TestCoordinator {
            analyzer: OnlineTraceAnalyzer::new(config),
            blocklists: BTreeMap::new(),
            stall_timeout: VirtualDuration::from_mins(1),
            events: Vec::new(),
            tombstoned: std::collections::BTreeSet::new(),
            metrics: DedicationMetrics::new(),
        }
    }

    /// Creates a coordinator whose analyzer is seeded from a previous
    /// campaign's [`WarmStart`](crate::warmstart::WarmStart) bundle (see
    /// [`OnlineTraceAnalyzer::with_warm_start`]). Seeded subspaces arrive
    /// confirmed and ownerless, so [`Self::register_instance`] blocks
    /// them on every booting instance and the session's orphan-repair
    /// pass re-dedicates each at the first round.
    pub fn with_warm_start(config: AnalyzerConfig, warm: &crate::warmstart::WarmStart) -> Self {
        TestCoordinator {
            analyzer: OnlineTraceAnalyzer::with_warm_start(config, warm),
            blocklists: BTreeMap::new(),
            stall_timeout: VirtualDuration::from_mins(1),
            events: Vec::new(),
            tombstoned: std::collections::BTreeSet::new(),
            metrics: DedicationMetrics::new(),
        }
    }

    /// Overrides the stall timeout.
    pub fn with_stall_timeout(mut self, timeout: VirtualDuration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// The stall timeout in force.
    pub fn stall_timeout(&self) -> VirtualDuration {
        self.stall_timeout
    }

    /// The underlying analyzer (read access for reports).
    pub fn analyzer(&self) -> &OnlineTraceAnalyzer {
        &self.analyzer
    }

    /// Decision log.
    pub fn events(&self) -> &[CoordinatorEvent] {
        &self.events
    }

    /// Consumes the coordinator and yields the final subspace registry
    /// and decision log by move. Session drivers call this once at
    /// session end instead of cloning both vectors out of a coordinator
    /// that is about to be dropped.
    pub fn into_report(self) -> (Vec<SubspaceInfo>, Vec<CoordinatorEvent>) {
        (self.analyzer.into_subspaces(), self.events)
    }

    /// Registers an instance's block list. All previously confirmed
    /// subspaces are immediately blocked on it (step 6 of the workflow:
    /// "the newly allocated testing instance C cannot access either UI
    /// subspace X or Y"). Tombstoned subspaces (exhausted by a dead owner)
    /// stay blocked too.
    pub fn register_instance(&mut self, instance: InstanceId, blocklist: SharedBlockList) {
        let rules: Vec<(SubspaceId, EntrypointRule)> = self
            .analyzer
            .confirmed()
            .filter(|s| s.owner != Some(instance))
            .flat_map(|s| s.entrypoints.iter().map(move |r| (s.id, r.clone())))
            .collect();
        {
            let mut bl = blocklist.write();
            for (sid, rule) in rules {
                bl.block(rule.clone());
                self.events.push(CoordinatorEvent::EntrypointBlocked {
                    subspace: sid,
                    instance,
                    rule,
                });
            }
        }
        self.blocklists.insert(instance, blocklist);
    }

    /// Forgets a deallocated instance, settling its dedications:
    ///
    /// * subspaces the dead owner had **substantially explored** (fraction
    ///   of subspace screens visited ≥ `EXHAUSTED_FRACTION`) are
    ///   *tombstoned* — they stay blocked on every instance, exactly as
    ///   the paper allocates replacements "with all entrypoints to
    ///   identified UI subspaces blocked" (§5.3): a stalled owner has
    ///   finished its territory, so nobody needs to re-explore it;
    /// * unfinished subspaces are redistributed round-robin among the
    ///   surviving instances, whose block lists are opened accordingly.
    ///
    /// `trace` is the dead instance's trace; the abstract screens it
    /// visited are gathered from it only when the instance owns a
    /// confirmed subspace, which few retiring instances do.
    pub fn unregister_instance_with_trace(&mut self, instance: InstanceId, trace: &Trace) {
        const EXHAUSTED_FRACTION: f64 = 0.95;
        self.blocklists.remove(&instance);
        // The id will never analyze again (replacements get fresh ids);
        // drop its cursor and incremental FindSpace engine now so a
        // session with heavy churn does not accumulate dead windows.
        self.analyzer.forget_instance(instance);
        let mut visited = None;
        let owned: Vec<(SubspaceId, bool)> = self
            .analyzer
            .confirmed()
            .filter(|s| s.owner == Some(instance))
            .map(|s| {
                let visited = visited.get_or_insert_with(|| trace.distinct_from(0));
                let seen = s.screens.intersection(visited).count();
                let exhausted = !s.screens.is_empty()
                    && seen as f64 / s.screens.len() as f64 >= EXHAUSTED_FRACTION;
                (s.id, exhausted)
            })
            .collect();
        if owned.is_empty() {
            return;
        }
        let survivors: Vec<InstanceId> = self.blocklists.keys().copied().collect();
        let mut heir_cursor = 0usize;
        for (sid, exhausted) in owned {
            if exhausted {
                // Tombstone: leave it blocked everywhere; the dead owner
                // keeps the dedication on record and nobody re-explores.
                self.tombstoned.insert(sid);
                continue;
            }
            if survivors.is_empty() {
                // Orphan: unfinished, but nobody is left to inherit. It
                // stays on record as owned by the dead instance so a
                // later [`TestCoordinator::rededicate`] (or a resilience
                // loop) can hand it to a future allocation.
                continue;
            }
            let heir = survivors[heir_cursor % survivors.len()];
            heir_cursor += 1;
            let entrypoints = self
                .analyzer
                .subspace(sid)
                .map(|s| s.entrypoints.clone())
                .unwrap_or_default();
            self.analyzer.set_owner(sid, heir);
            if let Some(bl) = self.blocklists.get(&heir) {
                let mut bl = bl.write();
                for rule in &entrypoints {
                    bl.unblock(rule);
                }
            }
            self.events.push(CoordinatorEvent::SubspaceDedicated {
                subspace: sid,
                owner: heir,
                at: VirtualTime::ZERO,
            });
        }
    }

    /// [`TestCoordinator::unregister_instance_with_trace`] without a
    /// trace: every owned subspace is treated as unfinished.
    pub fn unregister_instance(&mut self, instance: InstanceId) {
        self.unregister_instance_with_trace(instance, &Trace::new());
    }

    /// Instances currently registered.
    pub fn registered(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.blocklists.keys().copied()
    }

    /// Feeds one instance's trace to the analyzer and applies any newly
    /// confirmed subspaces: the reporting instance (or the first reporter
    /// still registered) becomes the owner; every other instance gets the
    /// subspace's entrypoints blocked.
    ///
    /// Returns the subspaces confirmed by this call. A one-item
    /// [`process_traces`](Self::process_traces).
    ///
    /// # Errors
    ///
    /// Returns [`TaoptError::UnknownSubspace`] if the analyzer confirms a
    /// subspace id it cannot resolve — an internal-invariant breach. Every
    /// confirmed subspace's dedication is attempted before the first error
    /// is returned, and the ones that succeeded keep their dedications.
    pub fn process_trace(
        &mut self,
        instance: InstanceId,
        trace: &Trace,
        now: VirtualTime,
    ) -> Result<Vec<SubspaceId>, TaoptError> {
        self.process_traces(&[(instance, trace)], now)
    }

    /// Feeds every instance's trace for one round in a single analyzer
    /// call ([`OnlineTraceAnalyzer::ingest_round`]) and dedicates each
    /// newly confirmed subspace in confirmation order — the same
    /// dedication sequence feeding the instances one at a time produces.
    ///
    /// # Errors
    ///
    /// Returns the first [`TaoptError::UnknownSubspace`] after
    /// attempting every dedication; earlier successful dedications keep
    /// their effect.
    pub fn process_traces(
        &mut self,
        batch: &[(InstanceId, &Trace)],
        now: VirtualTime,
    ) -> Result<Vec<SubspaceId>, TaoptError> {
        let confirmed = self.analyzer.ingest_round(batch, now);
        let mut first_err = None;
        for sid in &confirmed {
            if let Err(e) = self.dedicate(*sid, now) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(confirmed),
        }
    }

    /// Feeds a pre-built subspace report directly (used by streaming
    /// deployments and tests, bypassing `FindSpace`): registers it with
    /// the analyzer and dedicates it if it becomes newly confirmed.
    ///
    /// # Errors
    ///
    /// Returns [`TaoptError::UnknownSubspace`] if the newly confirmed
    /// subspace cannot be resolved (see [`TestCoordinator::process_trace`]).
    pub fn register_report(
        &mut self,
        instance: InstanceId,
        entry: EntrypointRule,
        screens: std::collections::BTreeSet<taopt_ui_model::AbstractScreenId>,
        now: VirtualTime,
    ) -> Result<Option<SubspaceId>, TaoptError> {
        let confirmed = self.analyzer.register_report(instance, entry, screens, now);
        if let Some(sid) = confirmed {
            self.dedicate(sid, now)?;
        }
        Ok(confirmed)
    }

    /// Dedicates a confirmed subspace: picks an owner and broadcasts the
    /// block rules to everyone else.
    ///
    /// # Errors
    ///
    /// Returns [`TaoptError::UnknownSubspace`] when `sid` is not in the
    /// analyzer's registry. Confirmed ids always are, so callers treat
    /// this as a diagnosable internal error rather than a panic.
    fn dedicate(&mut self, sid: SubspaceId, now: VirtualTime) -> Result<(), TaoptError> {
        let _span = self.metrics.span.span();
        let (owner, entrypoints) = {
            let info = self
                .analyzer
                .subspace(sid)
                .ok_or(TaoptError::UnknownSubspace(sid.0))?;
            let owner = info
                .reporters
                .iter()
                .copied()
                .find(|r| self.blocklists.contains_key(r))
                .or_else(|| self.blocklists.keys().next().copied());
            (owner, info.entrypoints.clone())
        };
        let Some(owner) = owner else { return Ok(()) };
        self.analyzer.set_owner(sid, owner);
        self.events.push(CoordinatorEvent::SubspaceDedicated {
            subspace: sid,
            owner,
            at: now,
        });
        self.metrics.dedicated.inc();
        for (inst, bl) in &self.blocklists {
            if *inst == owner {
                // The owner keeps access; make sure nothing lingers from
                // an earlier registration.
                let mut bl = bl.write();
                for rule in &entrypoints {
                    bl.unblock(rule);
                }
                continue;
            }
            let mut bl = bl.write();
            for rule in &entrypoints {
                bl.block(rule.clone());
                self.metrics.entrypoints_blocked.inc();
                self.events.push(CoordinatorEvent::EntrypointBlocked {
                    subspace: sid,
                    instance: *inst,
                    rule: rule.clone(),
                });
            }
        }
        Ok(())
    }

    /// Whether an instance should be deallocated: it "does not discover
    /// new UI screens for `l_min^short` = 1 minute" (§5.3).
    pub fn should_deallocate(&self, last_new_screen: VirtualTime, now: VirtualTime) -> bool {
        now.since(last_new_screen) >= self.stall_timeout
    }

    /// Subspaces deliberately retired because their (dead) owner had
    /// substantially explored them.
    pub fn tombstoned(&self) -> impl Iterator<Item = SubspaceId> + '_ {
        self.tombstoned.iter().copied()
    }

    /// Confirmed subspaces whose owner is no longer registered and that
    /// were *not* tombstoned — i.e. unfinished territory currently blocked
    /// on every live instance. An empty return is the liveness invariant
    /// the resilience layer maintains: no subspace is permanently
    /// unreachable while instances remain.
    pub fn orphaned_subspaces(&self) -> Vec<SubspaceId> {
        self.analyzer
            .confirmed()
            .filter(|s| !self.tombstoned.contains(&s.id))
            .filter(|s| s.owner.is_none_or(|o| !self.blocklists.contains_key(&o)))
            .map(|s| s.id)
            .collect()
    }

    /// Whether any confirmed subspace is currently orphaned — the
    /// allocation-free check the per-round repair pass runs first, since
    /// orphans are rare even under churn.
    pub fn has_orphans(&self) -> bool {
        self.analyzer
            .confirmed()
            .filter(|s| !self.tombstoned.contains(&s.id))
            .any(|s| s.owner.is_none_or(|o| !self.blocklists.contains_key(&o)))
    }

    /// Re-dedicates an orphaned subspace to a currently registered
    /// instance: the heir's entrypoints are unblocked, everyone else's
    /// stay (idempotently) blocked. Returns the heir, or `None` when no
    /// instance is registered.
    pub fn rededicate(&mut self, sid: SubspaceId, now: VirtualTime) -> Option<InstanceId> {
        let heir = self.blocklists.keys().next().copied()?;
        let entrypoints = self.analyzer.subspace(sid).map(|s| s.entrypoints.clone())?;
        taopt_telemetry::global()
            .counter("subspaces_rededicated_total")
            .inc();
        self.analyzer.set_owner(sid, heir);
        for (inst, bl) in &self.blocklists {
            let mut bl = bl.write();
            for rule in &entrypoints {
                if *inst == heir {
                    bl.unblock(rule);
                } else {
                    bl.block(rule.clone());
                }
            }
        }
        self.events.push(CoordinatorEvent::SubspaceDedicated {
            subspace: sid,
            owner: heir,
            at: now,
        });
        Some(heir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use taopt_toller::enforce::shared_block_list;
    use taopt_ui_model::AbstractScreenId;

    fn rule(host: u64, rid: &str) -> EntrypointRule {
        EntrypointRule::new(AbstractScreenId(host), rid)
    }

    fn screens(ids: &[u64]) -> BTreeSet<AbstractScreenId> {
        ids.iter().map(|i| AbstractScreenId(*i)).collect()
    }

    /// A trace event observing abstract screen `id`.
    fn visit(id: u64) -> taopt_ui_model::TraceEvent {
        use taopt_ui_model::abstraction::{AbstractHierarchy, AbstractNode};
        use taopt_ui_model::{ActivityId, ScreenId, WidgetClass};
        taopt_ui_model::TraceEvent {
            time: VirtualTime::ZERO,
            screen: ScreenId(0),
            activity: ActivityId(0),
            abstract_id: AbstractScreenId(id),
            abstraction: Arc::new(AbstractHierarchy::from_root(AbstractNode {
                class: WidgetClass::FrameLayout,
                resource_id: None,
                children: Vec::new(),
            })),
            action: None,
            action_widget_rid: None,
        }
    }

    #[test]
    fn dedication_blocks_everyone_but_the_owner() {
        let mut c = TestCoordinator::new(AnalyzerConfig::resource_mode());
        let bl0 = shared_block_list();
        let bl1 = shared_block_list();
        c.register_instance(InstanceId(0), bl0.clone());
        c.register_instance(InstanceId(1), bl1.clone());
        // Simulate the analyzer confirming a subspace reported by inst 0.
        let sid = c
            .analyzer
            .register_report(
                InstanceId(0),
                rule(1, "tab_shop"),
                screens(&[5, 6]),
                VirtualTime::ZERO,
            )
            .expect("resource mode confirms at once");
        c.dedicate(sid, VirtualTime::ZERO).unwrap();
        assert!(bl0.read().is_empty(), "owner keeps access");
        assert_eq!(bl1.read().rules().len(), 1, "other instance blocked");
        assert_eq!(
            c.analyzer().subspace(sid).unwrap().owner,
            Some(InstanceId(0))
        );
        assert!(matches!(
            c.events()[0],
            CoordinatorEvent::SubspaceDedicated {
                owner: InstanceId(0),
                ..
            }
        ));
    }

    #[test]
    fn late_instances_inherit_existing_blocks() {
        let mut c = TestCoordinator::new(AnalyzerConfig::resource_mode());
        let bl0 = shared_block_list();
        c.register_instance(InstanceId(0), bl0);
        let sid = c
            .analyzer
            .register_report(
                InstanceId(0),
                rule(1, "tab_a"),
                screens(&[2, 3]),
                VirtualTime::ZERO,
            )
            .unwrap();
        c.dedicate(sid, VirtualTime::ZERO).unwrap();
        // Instance 2 arrives later: blocked on registration.
        let bl2 = shared_block_list();
        c.register_instance(InstanceId(2), bl2.clone());
        assert_eq!(bl2.read().rules().len(), 1);
    }

    #[test]
    fn dedicating_an_unknown_subspace_is_a_typed_error() {
        let mut c = TestCoordinator::new(AnalyzerConfig::resource_mode());
        c.register_instance(InstanceId(0), shared_block_list());
        assert_eq!(
            c.dedicate(SubspaceId(999), VirtualTime::ZERO),
            Err(crate::error::TaoptError::UnknownSubspace(999))
        );
        // Nothing was dedicated or logged on the failure path.
        assert!(c.events().is_empty());
    }

    #[test]
    fn stall_detection_uses_timeout() {
        let c = TestCoordinator::new(AnalyzerConfig::duration_mode())
            .with_stall_timeout(VirtualDuration::from_secs(30));
        let t0 = VirtualTime::from_secs(100);
        assert!(!c.should_deallocate(t0, VirtualTime::from_secs(120)));
        assert!(c.should_deallocate(t0, VirtualTime::from_secs(130)));
    }

    #[test]
    fn orphaned_subspaces_can_be_rededicated_to_late_arrivals() {
        let mut c = TestCoordinator::new(AnalyzerConfig::resource_mode());
        let bl0 = shared_block_list();
        c.register_instance(InstanceId(0), bl0);
        let sid = c
            .analyzer
            .register_report(
                InstanceId(0),
                rule(2, "tab_x"),
                screens(&[7, 8]),
                VirtualTime::ZERO,
            )
            .unwrap();
        c.dedicate(sid, VirtualTime::ZERO).unwrap();
        // The sole owner dies with the subspace barely explored: no
        // survivors, so it becomes an orphan (not a tombstone).
        c.unregister_instance(InstanceId(0));
        assert_eq!(c.orphaned_subspaces(), vec![sid]);
        assert_eq!(c.tombstoned().count(), 0);
        // A later instance arrives blocked (register blocks confirmed
        // subspaces), then inherits the orphan.
        let bl1 = shared_block_list();
        c.register_instance(InstanceId(1), bl1.clone());
        assert_eq!(bl1.read().rules().len(), 1);
        let heir = c.rededicate(sid, VirtualTime::from_secs(9));
        assert_eq!(heir, Some(InstanceId(1)));
        assert!(bl1.read().is_empty(), "heir regains access");
        assert!(c.orphaned_subspaces().is_empty());
    }

    #[test]
    fn exhausted_subspaces_tombstone_instead_of_orphaning() {
        let mut c = TestCoordinator::new(AnalyzerConfig::resource_mode());
        let bl0 = shared_block_list();
        c.register_instance(InstanceId(0), bl0);
        let sid = c
            .analyzer
            .register_report(
                InstanceId(0),
                rule(3, "tab_y"),
                screens(&[1, 2]),
                VirtualTime::ZERO,
            )
            .unwrap();
        c.dedicate(sid, VirtualTime::ZERO).unwrap();
        // The owner dies having visited every subspace screen.
        let trace = [1, 2, 1].into_iter().map(visit).collect();
        c.unregister_instance_with_trace(InstanceId(0), &trace);
        assert_eq!(c.tombstoned().collect::<Vec<_>>(), vec![sid]);
        assert!(
            c.orphaned_subspaces().is_empty(),
            "tombstones are not orphans"
        );
    }

    #[test]
    fn warm_seeded_subspaces_block_everyone_then_rededicate_immediately() {
        use crate::warmstart::{WarmStart, WarmSubspace};
        let warm = WarmStart {
            subspaces: vec![WarmSubspace {
                entrypoints: vec![rule(1, "tab_shop")],
                screens: screens(&[5, 6, 7]),
            }],
            ..WarmStart::default()
        };
        let mut c = TestCoordinator::with_warm_start(AnalyzerConfig::duration_mode(), &warm);
        // Booting instances inherit the block: carried territory is
        // sealed until an owner is chosen.
        let bl0 = shared_block_list();
        let bl1 = shared_block_list();
        c.register_instance(InstanceId(0), bl0.clone());
        c.register_instance(InstanceId(1), bl1.clone());
        assert_eq!(bl0.read().rules().len(), 1);
        assert_eq!(bl1.read().rules().len(), 1);
        // Ownerless + confirmed = orphaned: the per-round repair pass
        // re-dedicates at the first opportunity.
        let orphans = c.orphaned_subspaces();
        assert_eq!(orphans.len(), 1);
        let heir = c.rededicate(orphans[0], VirtualTime::from_secs(10));
        assert_eq!(heir, Some(InstanceId(0)));
        assert!(bl0.read().is_empty(), "heir regains access");
        assert_eq!(bl1.read().rules().len(), 1, "non-owner stays blocked");
    }

    #[test]
    fn unregister_stops_future_blocks() {
        let mut c = TestCoordinator::new(AnalyzerConfig::resource_mode());
        let bl0 = shared_block_list();
        let bl1 = shared_block_list();
        c.register_instance(InstanceId(0), bl0);
        c.register_instance(InstanceId(1), bl1.clone());
        c.unregister_instance(InstanceId(1));
        let sid = c
            .analyzer
            .register_report(
                InstanceId(0),
                rule(4, "t"),
                screens(&[9]),
                VirtualTime::ZERO,
            )
            .unwrap();
        c.dedicate(sid, VirtualTime::ZERO).unwrap();
        assert!(
            bl1.read().is_empty(),
            "deallocated instance no longer updated"
        );
    }
}
