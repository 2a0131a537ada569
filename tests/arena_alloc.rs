//! Allocation-count regression anchors for the arena.
//!
//! Two claims the arena makes are about the allocator, not about
//! semantics, so they need an allocator to witness them:
//!
//! * snapshot cloning is a constant number of allocations (one per
//!   column), independent of how many messages the configuration holds —
//!   this is what makes campaign shards cheap;
//! * after warm-up, stepping allocates nothing: a full identical re-run
//!   on a warmed kernel performs zero heap allocations inside `step()`.
//!
//! The counting allocator only counts; it delegates all placement to the
//! system allocator. The counter is per thread: cargo runs the two tests on
//! two threads of one process, and a process-wide counter let one test's
//! allocations land in the other's window. Each measurement brackets its
//! own region and the assertions are on *deltas*, so unrelated allocations
//! outside a window don't interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use genoc::core::arena::{ArenaConfig, ArenaKernel, ArenaSpec};
use genoc::core::trace::Trace;
use genoc::prelude::*;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor runs into a torn-down slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

fn workload_arena(side: usize, messages: usize) -> (Mesh, Config, ArenaConfig) {
    let mesh = Mesh::new(side, side, 1);
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(mesh.node_count(), messages, 2..=5, 19);
    let cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
    let arena = ArenaConfig::from_config(&mesh, &cfg).unwrap();
    (mesh, cfg, arena)
}

/// The arena is ~15 columns, so a snapshot is at most one allocation per
/// column regardless of workload size. `Config::clone` allocates per
/// travel (route and flit vectors each), so it scales with the workload.
#[test]
fn snapshot_clone_is_a_constant_allocation_count() {
    let (_, small_cfg, small_arena) = workload_arena(4, 16);
    let (_, large_cfg, large_arena) = workload_arena(8, 256);

    let (small_clone, small_allocs) = allocations_during(|| small_arena.clone());
    let (large_clone, large_allocs) = allocations_during(|| large_arena.clone());
    assert_eq!(
        small_allocs, large_allocs,
        "snapshot cost must not scale with the workload"
    );
    assert!(
        large_allocs <= 16,
        "one allocation per column at most, got {large_allocs}"
    );

    let (_, cfg_small_allocs) = allocations_during(|| small_cfg.clone());
    let (_, cfg_large_allocs) = allocations_during(|| large_cfg.clone());
    assert!(
        cfg_large_allocs > cfg_small_allocs,
        "Config::clone scales with travels ({cfg_small_allocs} vs {cfg_large_allocs})"
    );
    assert!(
        large_allocs < cfg_large_allocs,
        "the snapshot must beat the per-travel deep clone"
    );
    drop(small_clone);
    drop(large_clone);
}

/// Warm the kernel with one full run, then replay the identical run on a
/// fresh copy of the arena: every `step()` must perform zero allocations
/// (wake lists, freed-port log, transition and move buffers are all at
/// their high-water marks and reused; the run-queue bitsets, the rank →
/// slot column and the completed-travel log are sized by `resync` and never
/// grow). Only `drain_arrived` may allocate, amortised growth of the
/// arrived list. The second workload spans four 64-rank words and has
/// travels complete while others are still in flight, so the drain's
/// compaction and the word-crossing sweep are both inside the window.
#[test]
fn stepping_allocates_nothing_after_warmup() {
    for (side, messages) in [(4, 24), (8, 200)] {
        let (_, _, arena0) = workload_arena(side, messages);
        let spec =
            ArenaSpec::from_kernel_spec(&WormholePolicy::default().kernel_spec().unwrap()).unwrap();

        // Warm-up run: grows every reusable buffer to its high-water mark.
        let mut arena = arena0.clone();
        let mut kernel = ArenaKernel::new(&arena, spec);
        let mut trace = Trace::new(false);
        let mut steps = 0u64;
        while !arena.is_evacuated() {
            assert!(!kernel.is_deadlock(&arena), "XY mesh workloads evacuate");
            kernel.step(&mut arena, &mut trace).unwrap();
            if kernel.take_saw_arrival() {
                kernel.drain_arrived(&mut arena);
            }
            steps += 1;
            assert!(steps < 10_000);
        }

        // Identical re-run on the warmed kernel: zero allocations per step.
        let mut arena = arena0.clone();
        kernel.resync(&arena);
        let mut drain_allocs = 0u64;
        let mut mid_run_drains = 0;
        for step in 0..steps {
            let (result, step_allocs) = allocations_during(|| kernel.step(&mut arena, &mut trace));
            result.unwrap();
            assert_eq!(
                step_allocs, 0,
                "step {step} of the warmed re-run allocated {step_allocs} times"
            );
            if kernel.take_saw_arrival() {
                let (_, d) = allocations_during(|| kernel.drain_arrived(&mut arena));
                drain_allocs += d;
                mid_run_drains += usize::from(!arena.is_evacuated());
            }
        }
        assert!(arena.is_evacuated(), "re-run reproduces the warm-up run");
        assert!(mid_run_drains > 0, "some travel arrives before the last");
        assert!(
            drain_allocs <= 8,
            "arrived-list growth is amortised, got {drain_allocs} allocations"
        );
    }
}
