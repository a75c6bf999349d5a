//! Exact allocation count of one instrumented step (tool → toller →
//! device), per tool.
//!
//! A counting global allocator wraps the system one and counts every
//! allocation made on the calling thread, so the count is exact and does
//! not depend on host speed. Observations share each page's template, so
//! a step renders no widget tree; these bounds keep it that way.
//!
//! ```sh
//! cargo test --release -q -p taopt-toller --test step_allocs -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use taopt_app_sim::{generate_app, GeneratorConfig};
use taopt_device::DeviceId;
use taopt_toller::{InstanceId, InstrumentedInstance};
use taopt_tools::ToolKind;
use taopt_ui_model::VirtualTime;

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

/// Allocations per step after warm-up, on a small generated app.
fn allocs_per_step(tool: ToolKind) -> f64 {
    let app = Arc::new(generate_app(&GeneratorConfig::small("allocs", 3)).unwrap());
    let mut inst = InstrumentedInstance::boot(
        InstanceId(0),
        DeviceId(0),
        app,
        tool.build(3),
        3,
        VirtualTime::ZERO,
    );
    for _ in 0..WARMUP_STEPS {
        inst.step();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..MEASURED_STEPS {
        inst.step();
    }
    (ALLOCS.with(Cell::get) - before) as f64 / MEASURED_STEPS as f64
}

#[test]
fn step_allocations_stay_bounded_per_tool() {
    let bounds = [
        (ToolKind::Monkey, 4.0),
        (ToolKind::WcTester, 4.0),
        (ToolKind::Ape, 20.0),
    ];
    let mut over = Vec::new();
    for (tool, bound) in bounds {
        let per_step = allocs_per_step(tool);
        println!(
            "{}: {per_step:.2} allocations per step (bound {bound})",
            tool.name()
        );
        if per_step > bound {
            over.push(format!("{}: {per_step:.2} > {bound}", tool.name()));
        }
    }
    assert!(over.is_empty(), "allocations per step over bound: {over:?}");
}
