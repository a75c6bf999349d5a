//! Tool-agnosticism demonstrated: plug a *custom* testing tool into the
//! stack and let TaOPT coordinate it without knowing anything about it.
//!
//! TaOPT's contract with the tool is exactly two observable surfaces:
//! what the tool *sees* (enforcement-filtered UI hierarchies) and what it
//! *does* (the monitored transitions). The coordinator code path never
//! branches on the tool, so a tool written after TaOPT still benefits —
//! the paper's central claim.
//!
//! ```sh
//! cargo run --release --example custom_tool
//! ```

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taopt::session::SessionConfig;
use taopt_app_sim::{generate_app, App, GeneratorConfig};
use taopt_device::DeviceId;
use taopt_toller::{InstanceId, InstrumentedInstance};
use taopt_tools::TestingTool;
use taopt_ui_model::{Action, ActionId, ScreenObservation, VirtualDuration, VirtualTime};

/// A depth-first prober: always clicks the *last* enabled widget (deepest
/// in document order), backing out once per screen revisit. Deliberately
/// unlike Monkey/Ape/WCTester.
#[derive(Debug)]
struct DepthProber {
    rng: StdRng,
    last_screen: Option<taopt_ui_model::AbstractScreenId>,
    revisits: u32,
}

impl DepthProber {
    fn new(seed: u64) -> Self {
        DepthProber {
            rng: StdRng::seed_from_u64(seed),
            last_screen: None,
            revisits: 0,
        }
    }
}

impl TestingTool for DepthProber {
    fn name(&self) -> &'static str {
        "DepthProber"
    }

    fn next_action(&mut self, obs: &ScreenObservation) -> Action {
        let enabled = obs.enabled_actions();
        if self.last_screen == Some(obs.abstract_id()) {
            self.revisits += 1;
            if self.revisits > 3 {
                self.revisits = 0;
                return Action::Back;
            }
        } else {
            self.revisits = 0;
        }
        self.last_screen = Some(obs.abstract_id());
        match enabled.len() {
            0 => Action::Back,
            n => {
                // Bias towards the deepest affordances, with some noise.
                let idx = if self.rng.gen::<f64>() < 0.7 {
                    n - 1
                } else {
                    self.rng.gen_range(0..n)
                };
                let (id, _): (ActionId, _) = enabled[idx];
                Action::Widget(id)
            }
        }
    }
}

/// Runs one instrumented instance for `minutes`, with the block list left
/// empty (baseline conditions), and reports coverage.
fn solo_run(app: Arc<App>, minutes: u64, seed: u64) -> usize {
    let mut inst = InstrumentedInstance::boot(
        InstanceId(0),
        DeviceId(0),
        app,
        Box::new(DepthProber::new(seed)),
        seed,
        VirtualTime::ZERO,
    );
    inst.run_until(VirtualTime::ZERO + VirtualDuration::from_mins(minutes));
    inst.emulator().covered().len()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = Arc::new(generate_app(&GeneratorConfig::industrial(
        "CustomToolDemo",
        5,
    ))?);

    // The custom tool runs standalone through the same Toller shim...
    let covered = solo_run(Arc::clone(&app), 10, 1);
    println!("DepthProber alone, 10 min: {covered} methods");

    // ...and the full TaOPT session machinery accepts any ToolKind; for a
    // custom tool we drive the instrumented instances and the coordinator
    // directly, exactly as `taopt::session` does internally.
    use taopt::coordinator::TestCoordinator;
    let cfg = SessionConfig::new(
        taopt_tools::ToolKind::Monkey,
        taopt::session::RunMode::TaoptDuration,
    );
    let mut coordinator = TestCoordinator::new(cfg.analyzer.clone());
    let mut instances: Vec<InstrumentedInstance> = (0..3)
        .map(|i| {
            let inst = InstrumentedInstance::boot(
                InstanceId(i),
                DeviceId(i),
                Arc::clone(&app),
                Box::new(DepthProber::new(100 + i as u64)),
                100 + i as u64,
                VirtualTime::ZERO,
            );
            coordinator.register_instance(inst.id(), inst.blocklist());
            inst
        })
        .collect();

    let end = VirtualTime::ZERO + VirtualDuration::from_mins(10);
    let mut now = VirtualTime::ZERO;
    while now < end {
        now += VirtualDuration::from_secs(10);
        for inst in instances.iter_mut() {
            inst.run_until(now.min(end));
            coordinator
                .process_trace(inst.id(), inst.trace(), now)
                .expect("analyzer-reported subspaces are always known");
        }
    }
    let union: std::collections::BTreeSet<_> = instances
        .iter()
        .flat_map(|i| i.emulator().covered().iter())
        .collect();
    let confirmed = coordinator.analyzer().confirmed().count();
    println!(
        "3 coordinated DepthProber instances, 10 min: {} methods, {} subspaces dedicated",
        union.len(),
        confirmed
    );
    println!(
        "TaOPT never inspected the tool: the same coordinator drove a tool it has never seen."
    );
    Ok(())
}
