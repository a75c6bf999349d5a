//! Exact allocation count of one instrumented step (tool → toller →
//! device), per tool, with enforcement idle and with most observations
//! enforced.
//!
//! A counting global allocator wraps the system one and counts every
//! allocation made on the calling thread, so the count is exact and does
//! not depend on host speed. Observations share each page's template and
//! an instance copies a blocked page once per rule set, so a step renders
//! and copies no widget tree; these bounds keep it that way.
//!
//! ```sh
//! cargo test --release -q -p taopt-toller --test step_allocs -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use taopt_app_sim::{generate_app, App, GeneratorConfig};
use taopt_device::DeviceId;
use taopt_toller::{EntrypointRule, InstanceId, InstrumentedInstance};
use taopt_tools::ToolKind;
use taopt_ui_model::{abstract_hierarchy, VirtualTime};

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

const WARMUP_STEPS: usize = 2_000;
const MEASURED_STEPS: usize = 20_000;

// The measured value plus 0.5 (release build): what is left is the trace's
// amortised growth and the rare step that covers new methods.
const BOUND_MONKEY: f64 = 0.505;
const BOUND_MONKEY_BLOCKED: f64 = 0.507;
const BOUND_WCTESTER: f64 = 0.509;
const BOUND_WCTESTER_BLOCKED: f64 = 0.517;
const BOUND_APE: f64 = 0.508;
const BOUND_APE_BLOCKED: f64 = 0.504;

/// One rule per screen offering two or more widgets (the hub among
/// them): its first widget is blocked, so most observations are enforced
/// and every screen keeps something to fire.
fn block_rules(app: &App) -> Vec<EntrypointRule> {
    app.screens()
        .filter(|s| s.actions.len() >= 2)
        .map(|s| {
            let screen = abstract_hierarchy(&app.render_screen(s.id, 0)).id();
            EntrypointRule::new(screen, s.actions[0].widget_rid.clone())
        })
        .collect()
}

/// Allocations per step after warm-up, on a small generated app, and the
/// share of measured steps whose observation enforcement changed.
fn allocs_per_step(tool: ToolKind, blocked: bool) -> (f64, f64) {
    let app = Arc::new(generate_app(&GeneratorConfig::small("allocs", 3)).unwrap());
    let rules = block_rules(&app);
    let mut inst = InstrumentedInstance::boot(
        InstanceId(0),
        DeviceId(0),
        app,
        tool.build(3),
        3,
        VirtualTime::ZERO,
    );
    if blocked {
        let list = inst.blocklist();
        let mut list = list.write();
        for rule in rules {
            list.block(rule);
        }
    }
    for _ in 0..WARMUP_STEPS {
        inst.step();
    }
    let mut enforced = 0;
    let before = ALLOCS.with(Cell::get);
    for _ in 0..MEASURED_STEPS {
        enforced += usize::from(inst.step().widgets_blocked > 0);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    (
        allocs as f64 / MEASURED_STEPS as f64,
        enforced as f64 / MEASURED_STEPS as f64,
    )
}

#[test]
fn step_allocations_stay_bounded_per_tool() {
    // (tool, bound unblocked, bound blocked)
    let bounds = [
        (ToolKind::Monkey, BOUND_MONKEY, BOUND_MONKEY_BLOCKED),
        (ToolKind::WcTester, BOUND_WCTESTER, BOUND_WCTESTER_BLOCKED),
        (ToolKind::Ape, BOUND_APE, BOUND_APE_BLOCKED),
    ];
    let mut over = Vec::new();
    for (tool, unblocked_bound, blocked_bound) in bounds {
        for (blocked, bound) in [(false, unblocked_bound), (true, blocked_bound)] {
            let (per_step, enforced) = allocs_per_step(tool, blocked);
            let case = if blocked { "blocked" } else { "unblocked" };
            println!(
                "{} ({case}): {per_step:.3} allocations per step (bound {bound}), \
                 {:.0} % of steps enforced",
                tool.name(),
                enforced * 100.0
            );
            if blocked {
                assert!(enforced > 0.5, "{}: most steps are enforced", tool.name());
            } else {
                assert_eq!(enforced, 0.0);
            }
            if per_step > bound {
                over.push(format!("{} ({case}): {per_step:.2} > {bound}", tool.name()));
            }
        }
    }
    assert!(over.is_empty(), "allocations per step over bound: {over:?}");
}
