//! Allocation-count regression anchors for the arena.
//!
//! Two claims the arena makes are about the allocator, not about
//! semantics, so they need an allocator to witness them:
//!
//! * snapshot cloning is a constant number of allocations (one per
//!   column), independent of how many messages the configuration holds —
//!   this is what makes campaign shards cheap;
//! * after warm-up, stepping allocates nothing: a full identical re-run
//!   on a warmed kernel performs zero heap allocations inside `step()`,
//!   across a recovery applied to the arena in place.
//!
//! A third anchor is about growth: with no rebuild to compact them, the
//! route and flit pools are bounded by what was pushed into the arena. A
//! fourth is about reuse: a deadlock hunt's attempts after the first
//! allocate a constant few, not per travel.
//!
//! The counting allocator only counts; it delegates all placement to the
//! system allocator. The counter is per thread: cargo runs the tests on
//! threads of one process, and a process-wide counter let one test's
//! allocations land in the other's window. Each measurement brackets its
//! own region and the assertions are on *deltas*, so unrelated allocations
//! outside a window don't interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

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
    let specs = genoc::sim::workload::uniform_random(mesh.node_count(), messages, 2..=5, 19);
    arena_of(mesh, &specs)
}

/// An 8×8 mesh where two messages in five go to one node: the queue for
/// it is woken by every flit that leaves a port on the way and parked again
/// when the worm's next flit takes the port back.
fn hotspot_arena() -> (Mesh, Config, ArenaConfig) {
    let mesh = Mesh::new(8, 8, 1);
    let specs = genoc::sim::workload::hotspot(mesh.node_count(), 160, 27, 40, 4, 19);
    arena_of(mesh, &specs)
}

fn arena_of(mesh: Mesh, specs: &[MessageSpec]) -> (Mesh, Config, ArenaConfig) {
    let cfg = Config::from_specs(&mesh, &XyRouting::new(&mesh), specs).unwrap();
    let arena = ArenaConfig::from_config(&mesh, &cfg).unwrap();
    (mesh, cfg, arena)
}

/// The arena is 14 columns — six per slot, two pools, three membership
/// lists, the id map, the port records and the ejection stamps — so a
/// snapshot is at most one allocation per column regardless of workload
/// size. `Config::clone` allocates per
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
        large_allocs <= 14,
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

/// What [`evicting_run`] saw.
struct EvictingRun {
    steps: u64,
    /// Allocations inside `step()` before and after the eviction.
    step_allocs: [u64; 2],
    /// Allocations inside `drain_arrived`.
    drain_allocs: u64,
    /// Drains that left travels in flight.
    mid_run_drains: usize,
    /// Travels woken and parked again on the same port in one step.
    reparks: u64,
}

/// One run to evacuation in which the youngest travel still in flight after
/// step `EVICT_AFTER` is removed from the arena in place and the kernel
/// reclassifies (`resync`), as a listened arena run answers an abort.
fn evicting_run(
    mesh: &Mesh,
    ids: &[MsgId],
    arena: &mut ArenaConfig,
    kernel: &mut ArenaKernel,
) -> EvictingRun {
    const EVICT_AFTER: u64 = 5;
    let mut trace = Trace::new(false);
    let mut run = EvictingRun {
        steps: 0,
        step_allocs: [0; 2],
        drain_allocs: 0,
        mid_run_drains: 0,
        reparks: 0,
    };
    // Outside the windows: each travel's last park, and who woke this step.
    let mut parked_on: HashMap<MsgId, PortId> = HashMap::new();
    let mut woken = HashSet::new();
    while !arena.is_evacuated() {
        assert!(!kernel.is_deadlock(arena), "XY mesh workloads evacuate");
        let (result, allocs) = allocations_during(|| kernel.step(arena, &mut trace));
        result.unwrap();
        run.step_allocs[usize::from(run.steps > EVICT_AFTER)] += allocs;
        woken.clear();
        for t in kernel.transitions() {
            match t.status {
                TravelStatus::Active => _ = woken.insert(t.msg),
                TravelStatus::Blocked(p) => {
                    let again = parked_on.insert(t.msg, p) == Some(p);
                    run.reparks += u64::from(again && woken.contains(&t.msg));
                }
                _ => {}
            }
        }
        if kernel.take_saw_arrival() {
            let (_, d) = allocations_during(|| kernel.drain_arrived(arena));
            run.drain_allocs += d;
            run.mid_run_drains += usize::from(!arena.is_evacuated());
        }
        if run.steps == EVICT_AFTER {
            // The removal may allocate: it returns the `Travel` it evicted.
            let evicted = (ids.iter().rev()).find_map(|&id| arena.remove_travel(mesh, id).ok());
            assert!(evicted.is_some(), "some travel is still in flight");
            kernel.resync(arena);
            parked_on.clear();
        }
        run.steps += 1;
        assert!(run.steps < 10_000);
    }
    assert!(run.steps > 2 * EVICT_AFTER, "the run outlasts the eviction");
    run
}

/// Warm the kernel with one full run, then replay the identical run on a
/// fresh copy of the arena: every `step()` must perform zero allocations
/// (wake lists, freed-port log, transition and move buffers are all at
/// their high-water marks and reused; the run-queue bitsets, the rank →
/// slot column and the completed-travel log are sized by `resync` and never
/// grow) — before an in-place `remove_travel` and after it, where the
/// survivors run on from the arena they were in, orphaned pool ranges and a
/// freed slot included, with no rebuild in between. Only `drain_arrived`
/// may allocate, amortised growth of the arrived list. The second workload
/// spans four 64-rank words and has travels complete while others are still
/// in flight, so the drain's compaction and the word-crossing sweep are both
/// inside the window. Every workload has travels woken and parked again on
/// their gate in one step, a serve that never reaches the worm; the third,
/// hotspot traffic, has ≈ 1,800 of them.
#[test]
fn stepping_allocates_nothing_after_warmup() {
    warmed_steps_allocate_nothing(true);
}

/// The same guard for a quiet kernel, the one a plain arena run steps: it keeps
/// no log, so it has no transition feed to count re-parks from.
#[test]
fn quiet_stepping_allocates_nothing_after_warmup() {
    warmed_steps_allocate_nothing(false);
}

/// The body of the two guards above, on an `observed` kernel or a quiet
/// one.
fn warmed_steps_allocate_nothing(observed: bool) {
    let workloads = [
        workload_arena(4, 24),
        workload_arena(8, 200),
        hotspot_arena(),
    ];
    for (i, (mesh, cfg, arena0)) in workloads.into_iter().enumerate() {
        let ids: Vec<MsgId> = cfg.travels().iter().map(|t| t.id()).collect();
        let spec =
            ArenaSpec::from_kernel_spec(&Switching::default().kernel_spec().unwrap()).unwrap();

        // Warm-up run: grows every reusable buffer to its high-water mark.
        let mut arena = arena0.clone();
        let mut kernel = ArenaKernel::new(&arena, spec);
        kernel.set_observed(observed);
        let warm = evicting_run(&mesh, &ids, &mut arena, &mut kernel);

        // Identical re-run on the warmed kernel: zero allocations per step.
        let mut arena = arena0.clone();
        kernel.resync(&arena);
        let run = evicting_run(&mesh, &ids, &mut arena, &mut kernel);
        assert_eq!(run.steps, warm.steps, "re-run reproduces the warm-up run");
        assert_eq!(run.reparks, warm.reparks);
        assert_eq!(
            run.step_allocs,
            [0, 0],
            "workload {i}: `step()` allocated on the warmed re-run, [before, after] the eviction"
        );
        assert!(
            run.mid_run_drains > 0,
            "some travel arrives before the last"
        );
        assert!(
            run.drain_allocs <= 8,
            "arrived-list growth is amortised, got {} allocations",
            run.drain_allocs
        );
        assert_eq!(
            run.reparks > 0,
            observed,
            "workload {i}: travels parked again, as the feed tells"
        );
    }
}

/// No rebuild compacts the pools any more, so what bounds them is what went
/// in: on a drain-and-restart run — `DrainAll` evicts every travel at the
/// first deadlock and `on_drained` pushes them back one at a time — the
/// route and flit pools never exceed the arena the run started from plus the
/// routes and flits of the travels actually pushed. The loop is the arena
/// loop's listened path, cut down to what moves the arena.
#[test]
fn pools_grow_by_what_was_pushed_and_no_more() {
    let mesh = Mesh::new(4, 4, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(mesh.node_count(), 96, 2..=6, 7);
    let mut cfg = Config::from_specs(&mesh, &routing, &specs).unwrap();
    let mut arena = ArenaConfig::from_config(&mesh, &cfg).unwrap();
    let spec = ArenaSpec::from_kernel_spec(&Switching::default().kernel_spec().unwrap()).unwrap();
    let mut kernel = ArenaKernel::new(&arena, spec);
    kernel.set_observed(true);
    let mut engine = DetectionEngine::with_policy(EngineOptions::default(), Box::new(DrainAll));
    let mut trace = Trace::new(false);
    let (mut routes, mut flits) = (arena.route_pool_len(), arena.flit_pool_len());
    let (mut steps, mut pushes) = (0u64, 0usize);
    loop {
        if cfg.is_evacuated() {
            if !engine.on_drained(&mesh, &mut cfg, steps).unwrap() {
                break;
            }
            let pushed = cfg.travels().last().expect("on_drained pushed one");
            routes += pushed.route().len();
            flits += pushed.flit_count();
            pushes += 1;
        } else if kernel.is_deadlock(&arena) {
            assert!(engine.on_deadlock(&mesh, &mut cfg, steps).unwrap());
        } else {
            kernel.step(&mut arena, &mut trace).unwrap();
            kernel.replay_moves(&mut cfg).unwrap();
            if kernel.take_saw_arrival() {
                kernel.drain_arrived(&mut arena);
                cfg.drain_arrived();
            }
            steps += 1;
            continue;
        }
        kernel.follow(&mesh, &mut arena, &cfg).unwrap();
        assert!(
            arena.route_pool_len() <= routes && arena.flit_pool_len() <= flits,
            "pools {}/{} past {routes}/{flits} after {pushes} pushes",
            arena.route_pool_len(),
            arena.flit_pool_len()
        );
    }
    assert!(pushes > 0, "the run deadlocked and was restarted");
    assert_eq!(cfg.arrived().len(), specs.len(), "nothing is lost");
    assert_eq!(arena.to_config(&mesh).unwrap(), cfg);
}

/// A hunt keeps one arena and one kernel for all of its attempts and builds
/// no `Config` for one that evacuates: an attempt after the first allocates
/// its workload's spec list, the route computation's hop buffer and the four
/// steps by which its arrival order grows to 32, and nothing per travel
/// (≈ 170 allocations an attempt when each built a `Config` and an arena of
/// its own, 70 for a fresh arena and kernel without the `Config`). On the
/// acyclic XY mesh every attempt of 32 messages evacuates; hunting with one
/// attempt more than the last counts the allocations of that attempt alone,
/// which stay at the pin however many attempts came before it.
#[test]
fn a_hunt_attempt_after_the_first_allocates_a_constant_few() {
    const PIN: u64 = 6;
    let mesh = Mesh::new(4, 4, 2);
    let routing = XyRouting::new(&mesh);
    let hunt = |attempts| {
        let options = HuntOptions {
            attempts,
            first_seed: 3,
            messages: 32,
            flits: 4,
            ..HuntOptions::default()
        };
        let (found, allocs) = allocations_during(|| {
            hunt_random(&mesh, &routing, &mut Switching::default(), &options).unwrap()
        });
        assert!(found.is_none(), "XY meshes do not deadlock");
        allocs
    };
    let totals: Vec<u64> = (1..=10).map(hunt).collect();
    let per_attempt: Vec<u64> = totals.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(
        per_attempt, [PIN; 9],
        "allocations of attempts 2..=10, after a first of {}",
        totals[0]
    );
}
