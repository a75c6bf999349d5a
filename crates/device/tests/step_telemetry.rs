//! The device seam's telemetry cadence: an emulator tallies its actions
//! itself and publishes them to `emulator_actions_total` once per
//! [`BATCH`] actions and when it is dropped, and times only the action
//! that completes a batch into `emulator_step_ns`. So a step between
//! batches reads no clock and writes nothing another emulator shares.
//!
//! The registry is process-global, so the tests take one lock and compare
//! deltas.

use std::sync::{Arc, Mutex};

use taopt_app_sim::{generate_app, GeneratorConfig};
use taopt_device::{DeviceId, Emulator};
use taopt_telemetry::BATCH;
use taopt_ui_model::{Action, VirtualTime};

const ACTIONS: &str = "emulator_actions_total{seam=\"device\"}";
const STEP_NS: &str = "emulator_step_ns{seam=\"device\"}";

static REGISTRY: Mutex<()> = Mutex::new(());

/// `(emulator_actions_total, emulator_step_ns count)` now.
fn reading() -> (u64, u64) {
    let snap = taopt_telemetry::global().snapshot();
    let actions = snap.counters.get(ACTIONS).copied().unwrap_or(0);
    let timed = snap.histograms.get(STEP_NS).map_or(0, |h| h.count);
    (actions, timed)
}

fn boot(seed: u64) -> Emulator {
    taopt_telemetry::global().set_enabled(true);
    let app = Arc::new(generate_app(&GeneratorConfig::small("cadence", seed)).unwrap());
    Emulator::boot(DeviceId(0), app, seed, VirtualTime::ZERO)
}

/// Fires `n` actions: the screen's first enabled widget, or Back.
fn step(emu: &mut Emulator, n: u64) {
    for _ in 0..n {
        let action = emu
            .observe()
            .enabled_actions()
            .first()
            .map_or(Action::Back, |&(id, _)| Action::Widget(id));
        emu.execute(action).expect("the action is offered");
    }
}

#[test]
fn actions_publish_per_batch_and_on_drop_and_one_in_a_batch_is_timed() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let batch = u64::from(BATCH);
    for n in [0, batch - 1, batch, 3 * batch + 17] {
        let mut emu = boot(n + 1);
        let (actions0, timed0) = reading();
        step(&mut emu, n);
        let (actions, timed) = reading();
        assert_eq!(actions - actions0, batch * (n / batch), "{n} actions, live");
        assert_eq!(timed - timed0, n / batch, "{n} actions, timed");
        drop(emu);
        let (actions, timed) = reading();
        assert_eq!(actions - actions0, n, "{n} actions, dropped");
        assert_eq!(timed - timed0, n / batch, "dropping times nothing");
    }
}

#[test]
fn a_clone_publishes_nothing_of_its_source() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let batch = u64::from(BATCH);
    let mut source = boot(5);
    let (actions0, _) = reading();
    step(&mut source, batch + 6);
    let mut clone = source.clone();
    step(&mut clone, 10);
    drop(clone);
    let (actions, _) = reading();
    assert_eq!(
        actions - actions0,
        batch + 10,
        "the clone publishes only its own"
    );
    drop(source);
    let (actions, _) = reading();
    assert_eq!(actions - actions0, batch + 16, "every action counted once");
}
