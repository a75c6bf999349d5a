//! The write-behind checkpoint writer: one thread per service that
//! performs every *cadence* checkpoint write, so a campaign's round loop
//! never waits for the disk.
//!
//! A runner [`CheckpointWriter::hand_off`]s a snapshot and advances. The
//! writer keeps at most one unwritten hand-off per campaign — a newer one
//! replaces it, since its rename would overwrite the older file anyway —
//! and serves campaigns round-robin, one [`CheckpointStore::save`] at a
//! time. The rules that keep this safe:
//!
//! - **Nothing older lands on top of something newer.** A campaign's
//!   hand-offs come from its one runner in round order and the single
//!   writer thread writes them in that order. Before a runner writes a
//!   checkpoint itself (pause) or its checkpoint is deleted (completion)
//!   it calls [`CheckpointWriter::cancel`], which discards the campaign's
//!   unwritten hand-off and waits out one in flight.
//! - **A failed write fails the campaign.** The error is counted, parked,
//!   and returned from that campaign's next hand-off.
//! - **A crash writes nothing more.** [`CheckpointWriter::stop`] with
//!   `discard` drops every unwritten hand-off and refuses later ones;
//!   without it the writer drains what it holds before its thread exits.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use taopt_telemetry::Counter;

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::error::ServiceError;

/// One cadence snapshot on its way to disk.
pub(crate) struct HandOff {
    /// What to write.
    pub checkpoint: Checkpoint,
    /// Rounds the runner had executed, since it started, at this snapshot.
    pub executed: u64,
    /// Where the writer publishes `executed` once the snapshot is durable;
    /// the runner reads it for `service_checkpoint_lag_rounds`. A
    /// statistic only: it orders no other memory.
    pub durable: Arc<AtomicU64>,
}

#[derive(Default)]
struct State {
    /// Unwritten hand-offs, at most one per campaign.
    pending: BTreeMap<u64, HandOff>,
    /// Campaign whose checkpoint is being written right now.
    in_flight: Option<u64>,
    /// Failed writes, until the campaign's next hand-off collects them.
    failed: BTreeMap<u64, ServiceError>,
    /// Campaign served last; the next one is the next higher pending id.
    cursor: u64,
    /// The writer thread exits once `pending` is empty.
    stop: bool,
    /// Crashed: hand-offs are dropped, not queued.
    discard: bool,
}

impl State {
    /// Takes the next hand-off in round-robin order: the lowest pending
    /// campaign id above the one served last, wrapping around.
    fn take_next(&mut self) -> Option<HandOff> {
        let id = *self
            .pending
            .range((Bound::Excluded(self.cursor), Bound::Unbounded))
            .chain(self.pending.range(..=self.cursor))
            .next()?
            .0;
        self.cursor = id;
        self.pending.remove(&id)
    }
}

/// The hand-off slot table and its thread's wake-ups. The thread itself is
/// [`CheckpointWriter::run`], spawned and joined by the service.
pub(crate) struct CheckpointWriter {
    state: Mutex<State>,
    /// Wakes the writer thread: a hand-off arrived, or `stop`.
    work: Condvar,
    /// Wakes [`CheckpointWriter::cancel`]: a write finished.
    written: Condvar,
    /// `service_checkpoints_superseded_total`: hand-offs dropped unwritten
    /// because something newer took their place.
    superseded: Counter,
    /// `service_checkpoint_write_errors_total`.
    errors: Counter,
}

impl CheckpointWriter {
    pub(crate) fn new() -> Self {
        let telemetry = taopt_telemetry::global();
        CheckpointWriter {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            written: Condvar::new(),
            superseded: telemetry.counter("service_checkpoints_superseded_total"),
            errors: telemetry.counter("service_checkpoint_write_errors_total"),
        }
    }

    /// Queues a snapshot for writing and returns at once. Replaces the
    /// campaign's unwritten hand-off if it has one. Returns the error of
    /// the campaign's last write if that failed (the snapshot is then
    /// dropped: the campaign is about to fail).
    pub(crate) fn hand_off(&self, hand_off: HandOff) -> Result<(), ServiceError> {
        let id = hand_off.checkpoint.campaign;
        let mut st = self.state.lock();
        if let Some(e) = st.failed.remove(&id) {
            return Err(e);
        }
        if st.discard {
            return Ok(());
        }
        if st.pending.insert(id, hand_off).is_some() {
            self.superseded.inc();
        }
        drop(st);
        self.work.notify_one();
        Ok(())
    }

    /// Discards the campaign's unwritten hand-off and blocks until none of
    /// its writes is in flight. On return no write for `id` will reach
    /// the disk until its runner hands off again, so the caller may write
    /// or delete the campaign's checkpoint itself. A parked write error is
    /// dropped with it: the caller's own write, or the campaign being
    /// finished, supersedes it.
    pub(crate) fn cancel(&self, id: u64) {
        let mut st = self.state.lock();
        if st.pending.remove(&id).is_some() {
            self.superseded.inc();
        }
        while st.in_flight == Some(id) {
            self.written.wait(&mut st);
        }
        st.failed.remove(&id);
    }

    /// Asks the writer thread to exit: after writing what it holds, or —
    /// with `discard`, process death — at once, dropping it and every
    /// later hand-off. A write already in flight completes either way;
    /// joining the thread waits for it.
    pub(crate) fn stop(&self, discard: bool) {
        let mut st = self.state.lock();
        st.stop = true;
        if discard {
            st.discard = true;
            st.pending.clear();
        }
        drop(st);
        self.work.notify_one();
    }

    /// The writer thread's body.
    pub(crate) fn run(&self, store: &CheckpointStore) {
        let mut st = self.state.lock();
        loop {
            let Some(hand_off) = st.take_next() else {
                if st.stop {
                    return;
                }
                self.work.wait(&mut st);
                continue;
            };
            let id = hand_off.checkpoint.campaign;
            st.in_flight = Some(id);
            drop(st);
            let result = store.save(&hand_off.checkpoint);
            st = self.state.lock();
            st.in_flight = None;
            match result {
                Ok(_) => hand_off.durable.store(hand_off.executed, Ordering::Relaxed),
                Err(e) => {
                    self.errors.inc();
                    eprintln!("taopt-service: checkpoint write for campaign {id} failed: {e}");
                    // The campaign fails at its next hand-off; a snapshot
                    // it queued meanwhile would only fail the same way.
                    st.pending.remove(&id);
                    st.failed.insert(id, e);
                }
            }
            self.written.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::{sample, tmp_store};

    fn hand_off(campaign: u64, round: u64) -> HandOff {
        HandOff {
            checkpoint: Checkpoint {
                campaign,
                ..sample(round)
            },
            executed: round,
            durable: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Runs a writer thread over `store` for the duration of `body`, then
    /// stops it gracefully and joins it.
    fn with_writer(store: &CheckpointStore, body: impl FnOnce(&CheckpointWriter)) {
        let writer = CheckpointWriter::new();
        std::thread::scope(|s| {
            s.spawn(|| writer.run(store));
            // Stop the thread even if `body` panics, or the scope never joins.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&writer)));
            writer.stop(false);
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        });
    }

    #[test]
    fn newer_hand_off_replaces_the_unwritten_one_and_service_is_round_robin() {
        // No thread: the slot table alone decides what is written next.
        let writer = CheckpointWriter::new();
        for (campaign, round) in [(3, 1), (1, 1), (2, 1), (1, 2), (1, 3)] {
            writer.hand_off(hand_off(campaign, round)).unwrap();
        }
        let mut st = writer.state.lock();
        let mut served = Vec::new();
        // Campaign 1 keeps handing off while the others wait: it must not
        // be served twice before they are served once.
        for refill in [4, 5, 6] {
            let next = st.take_next().unwrap();
            served.push((next.checkpoint.campaign, next.checkpoint.round));
            st.pending.insert(1, hand_off(1, refill));
        }
        assert_eq!(served, vec![(1, 3), (2, 1), (3, 1)]);
        assert_eq!(st.take_next().unwrap().checkpoint.round, 6);
        assert!(st.take_next().is_none());
    }

    #[test]
    fn graceful_stop_drains_and_publishes_what_became_durable() {
        let store = tmp_store("writer-drain");
        let durable = Arc::new(AtomicU64::new(0));
        with_writer(&store, |writer| {
            for round in 1..=50 {
                let mut h = hand_off(7, round);
                h.durable = Arc::clone(&durable);
                writer.hand_off(h).unwrap();
            }
        });
        // Whatever was superseded on the way, the last hand-off is the one
        // on disk once the writer has stopped.
        assert_eq!(store.load(&store.path_for(7)).unwrap().round, 50);
        assert_eq!(durable.load(Ordering::Relaxed), 50);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn cancel_orders_the_callers_write_after_the_writers() {
        let store = tmp_store("writer-cancel");
        with_writer(&store, |writer| {
            for round in 1..=200 {
                writer.hand_off(hand_off(4, round)).unwrap();
                if round % 4 == 0 {
                    // The pause path: whatever the writer was doing with
                    // older rounds, the caller's checkpoint must stand.
                    writer.cancel(4);
                    store.save(&hand_off(4, round + 1000).checkpoint).unwrap();
                    assert_eq!(store.load(&store.path_for(4)).unwrap().round, round + 1000);
                    // The completion path: once removed, it stays removed.
                    store.remove(4);
                    std::thread::yield_now();
                    assert!(!store.path_for(4).exists());
                }
            }
            writer.cancel(4);
            store.remove(4);
        });
        assert!(store.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn crash_stop_discards_and_refuses() {
        let store = tmp_store("writer-crash");
        let writer = CheckpointWriter::new();
        writer.hand_off(hand_off(1, 1)).unwrap();
        writer.stop(true);
        writer.hand_off(hand_off(1, 2)).unwrap();
        // The thread starts only now and must find nothing to write.
        writer.run(&store);
        assert!(store.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn failed_write_surfaces_at_the_next_hand_off_and_is_counted() {
        let store = tmp_store("writer-fail");
        // A directory squatting on the temp path makes `File::create` fail.
        std::fs::create_dir_all(store.tmp_path_for(5)).unwrap();
        let errors = taopt_telemetry::global().counter("service_checkpoint_write_errors_total");
        let before = errors.get();
        with_writer(&store, |writer| {
            writer.hand_off(hand_off(5, 1)).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while errors.get() == before {
                assert!(std::time::Instant::now() < deadline, "write never failed");
                std::thread::yield_now();
            }
            // Campaign 6 is unaffected; campaign 5 learns of it next time.
            writer.hand_off(hand_off(6, 1)).unwrap();
            assert!(matches!(
                writer.hand_off(hand_off(5, 2)),
                Err(ServiceError::Io(_))
            ));
        });
        assert!(store.path_for(6).exists());
        assert!(!store.path_for(5).exists());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
