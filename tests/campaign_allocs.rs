//! Exact allocation count of a whole campaign per tool step, and the
//! sharing of boot coverage between the instances of an app.
//!
//! A counting global allocator wraps the system one and counts every
//! allocation made on the calling thread; at `host_threads = 1` the
//! campaign runs inline on it, so the count is exact and does not depend
//! on host speed. A step covers methods into buffers its instance owns
//! and reuses, and a round steps its instances without collecting their
//! reports, so what is left is per round, per boot and amortised growth;
//! the bound keeps it that way.
//!
//! ```sh
//! cargo test --release -q --test campaign_allocs -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use taopt::experiments::ExperimentScale;
use taopt::{run_campaign, CampaignApp, CampaignConfig, CampaignResult, RunMode};
use taopt_app_sim::{catalog_entries, generate_app, GeneratorConfig, MethodSet};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualDuration;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The measured value, 3.19, plus 0.25 (release build).
const BOUND: f64 = 3.44;

/// Three small apps and one catalog app, TaOPT duration mode, 20 virtual
/// minutes: long enough that stalled instances retire and replacements
/// boot.
fn apps() -> Vec<CampaignApp> {
    let scale = ExperimentScale {
        duration: VirtualDuration::from_mins(20),
        ..ExperimentScale::quick()
    };
    let catalog = catalog_entries()[0].config();
    let configs = (0..3)
        .map(|i| GeneratorConfig::small(&format!("allocs-{i}"), i))
        .chain([catalog]);
    configs
        .enumerate()
        .map(|(i, config)| CampaignApp {
            name: config.name.clone(),
            app: Arc::new(generate_app(&config).unwrap()),
            config: scale.session_config(
                ToolKind::ALL[i % ToolKind::ALL.len()],
                RunMode::TaoptDuration,
                i as u64,
            ),
        })
        .collect()
}

/// Tool steps the campaign ran (trace events that carry an action).
fn steps(result: &CampaignResult) -> usize {
    let instances = result.apps.iter().flat_map(|a| &a.session.instances);
    let events = instances.flat_map(|i| i.trace.events());
    events.filter(|e| e.action.is_some()).count()
}

#[test]
fn a_campaign_step_allocates_within_bound_and_boot_coverage_is_shared() {
    let apps = apps();
    let config = CampaignConfig {
        host_threads: 1,
        ..CampaignConfig::default()
    };
    let before = ALLOCS.with(Cell::get);
    let result = run_campaign(apps, &config);
    let allocs = ALLOCS.with(Cell::get) - before;
    let steps = steps(&result);
    let per_step = allocs as f64 / steps as f64;
    println!("{allocs} allocations over {steps} steps: {per_step:.3} per step (bound {BOUND})");

    for app in &result.apps {
        let instances = &app.session.instances;
        assert!(instances.len() > 3, "{}: replacements booted", app.name);
        let boot = &instances[0].boot_covered;
        assert!(!boot.is_empty());
        for i in instances {
            assert!(
                Arc::ptr_eq(&i.boot_covered, boot),
                "{} {}: one boot set per app",
                app.name,
                i.instance
            );
            assert_eq!(i.cover_event_count(), i.covered.len());
            let mut from_events = MethodSet::default();
            from_events.extend(i.cover_events().map(|(_, m)| m));
            assert_eq!(from_events.len(), i.covered.len());
            assert_eq!(from_events.intersection_len(&i.covered), i.covered.len());
        }
    }
    assert!(
        per_step <= BOUND,
        "{per_step:.3} allocations per step over bound {BOUND}"
    );
}
