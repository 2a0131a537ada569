//! Allocation regression anchors for the WAL writer and reader.
//!
//! Five claims the log makes are about the allocator, not about semantics,
//! so they need an allocator to witness them:
//!
//! * a fixed-size record is framed on the stack: appending any number of
//!   them to a file-backed writer allocates nothing;
//! * a snapshot is encoded into buffers the writer keeps, sized once: after
//!   the first, a snapshot allocates a bounded number of times, however
//!   many travels it holds;
//! * reading a log verifies every record and builds none of them: the
//!   allocations are the read buffer (a copy of the intact prefix, for a
//!   log read from bytes) and the snapshot index, so their number is
//!   bounded by the log's snapshots, not by its records;
//! * `replay_to` builds the travels of the one snapshot it seeks to, and
//!   allocates nothing per record it reads after it;
//! * a file-backed log is read through one buffer and never held whole:
//!   the heap that reading it and replaying it to its end peaks at is the
//!   buffer, the largest record, the index and the replayed configuration,
//!   for a log eight times longer too.
//!
//! The counting allocator is the one of `tests/arena_alloc.rs`, extended by
//! the live bytes and their peak: it only counts, per thread, and each
//! measurement brackets its own region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use genoc::core::moves::MoveKind;
use genoc::obs::{
    read_wal, read_wal_bytes, recorded_outcome, replay_to, WalEvent, WalLog, WAL_READ_BUFFER,
    WAL_VERSION,
};
use genoc::prelude::*;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator neither allocates nor runs into a torn-down slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (negative when it
    /// frees what another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`heap_peak_during`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation or reallocation that changes the live bytes by
/// `grown`.
fn count_one(grown: i64) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    let live = LIVE.with(|l| {
        l.set(l.get() + grown);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
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

/// `f`'s value, the most heap it held at once beyond what was live when it
/// began, and the heap its value holds.
fn heap_peak_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let value = f();
    let held = LIVE.with(Cell::get) - before;
    let peak = PEAK.with(Cell::get) - before;
    (value, peak as u64, held as u64)
}

/// A recovering run on the 4×4 mixed mesh — long worms, several cycles
/// closed and aborted — recorded in memory `runs` times over, with a
/// snapshot every `snapshot_every` steps and at every recovery.
fn recorded_log(snapshot_every: u64, runs: usize) -> (Mesh, Vec<u8>) {
    let mesh = Mesh::new(4, 4, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 8);
    let wal = genoc::obs::shared(WalWriter::in_memory());
    for _ in 0..runs {
        let cfg = Config::from_specs(&mesh, &routing, &specs).expect("routable workload");
        let mut recorder = Recorder::build(
            Some(Rc::clone(&wal)),
            0,
            None,
            RecorderOptions { snapshot_every },
        );
        let engine =
            DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));
        let mut hook = ObservedEngine::new(engine, Some(Rc::clone(&wal)));
        let result = simulate_observed_config(
            &mesh,
            &mut Switching::default(),
            cfg,
            &SimOptions::default(),
            &mut hook,
            &mut recorder,
        )
        .expect("recorded run");
        assert_eq!(result.run.outcome, Outcome::Evacuated, "recovery evacuates");
    }
    let writer = Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
    (
        mesh,
        writer.finish().expect("flush").expect("in-memory bytes"),
    )
}

/// Every fixed-size record kind, with ids drawn from `i`.
fn fixed_size_records(i: usize) -> [WalEvent; 7] {
    let (msg, port) = (MsgId::from_index(i % 997), PortId::from_index(i % 509));
    [
        WalEvent::StepBegin { step: i as u64 },
        WalEvent::Move {
            msg,
            flit: (i % 7) as u32,
            kind: MoveKind::Advance,
            port,
        },
        WalEvent::Transition {
            msg,
            status: TravelStatus::Blocked(port),
        },
        WalEvent::FreedPort { port },
        WalEvent::EdgeAdd {
            msg,
            wants: port,
            on: (!i.is_multiple_of(3)).then_some(msg),
        },
        WalEvent::EdgeRemove { msg },
        WalEvent::RunEnd {
            outcome: Outcome::StepLimit,
            steps: i as u64,
        },
    ]
}

#[test]
fn fixed_size_records_are_appended_without_allocating() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_alloc_fixed.wal");
    let mut w = WalWriter::create(&file).expect("create the log");
    // Warm-up: one record of every kind.
    for ev in &fixed_size_records(0) {
        w.append(ev).expect("append");
    }
    let ((), allocs) = allocations_during(|| {
        for i in 1..=10_000 {
            for ev in &fixed_size_records(i) {
                w.append(ev).expect("append");
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "70,000 fixed-size records allocated {allocs} times"
    );
    assert_eq!(w.records_written(), 7 * 10_001);
    assert!(w.finish().expect("flush").is_none());
    let log = read_wal(&file).expect("read back");
    assert!(log.damage.is_none(), "{:?}", log.damage);
    assert_eq!(log.events.len(), 7 * 10_001);
    std::fs::remove_file(&file).expect("remove the log");
}

/// One configuration every few steps of a run on the 4×4 XY mesh, from the
/// initial one to the last: travels arrive between any two of them.
fn configurations_along_a_run() -> Vec<Config> {
    let mesh = Mesh::new(4, 4, 1);
    let routing = XyRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(16, 96, 2..=6, 5);
    let mut configs = Vec::new();
    for max_steps in (0..).step_by(6) {
        let cfg = Config::from_specs(&mesh, &routing, &specs).expect("routable workload");
        let options = SimOptions {
            max_steps,
            ..SimOptions::default()
        };
        let result = simulate_config(&mesh, &mut Switching::default(), cfg, &options, None, None)
            .expect("run");
        configs.push(result.run.config);
        if result.run.outcome == Outcome::Evacuated {
            return configs;
        }
    }
    unreachable!("the loop returns when the run evacuates")
}

#[test]
fn a_snapshot_allocates_a_bounded_number_of_times() {
    let configs = configurations_along_a_run();
    assert!(configs.len() > 8, "{} configurations", configs.len());
    let last = configs.last().expect("configurations");
    assert!(last.travels().is_empty() && last.arrived().len() == 96);
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_alloc_snapshot.wal");
    let mut w = WalWriter::create(&file).expect("create the log");
    w.append(&WalEvent::RunStart {
        version: WAL_VERSION,
        seed: 5,
        meta: None,
    })
    .expect("append");
    // Warm-up: the first snapshot sizes the writer's buffers.
    w.append_snapshot(0, configs[0].travels(), configs[0].arrived())
        .expect("snapshot");
    for (i, cfg) in configs.iter().enumerate().skip(1) {
        let (result, allocs) =
            allocations_during(|| w.append_snapshot(i as u64, cfg.travels(), cfg.arrived()));
        result.expect("snapshot");
        // None in release; debug builds check the kept images against a
        // fresh encoding, in a buffer of its own.
        assert!(
            allocs <= u64::from(cfg!(debug_assertions)),
            "snapshot {i} ({} travels in flight, {} arrived) allocated {allocs} times",
            cfg.travels().len(),
            cfg.arrived().len()
        );
    }
    assert!(w.finish().expect("flush").is_none());
    let log = read_wal(&file).expect("read back");
    assert!(log.damage.is_none(), "{:?}", log.damage);
    assert_eq!(census(&log), (configs.len() + 1, configs.len()));
    std::fs::remove_file(&file).expect("remove the log");
}

/// Every record of `log`, read back and decoded.
fn decoded(log: &WalLog) -> impl Iterator<Item = WalEvent> + '_ {
    (log.events.iter()).map(|e| e.expect("an unchanged log reads back"))
}

/// `(records, snapshots)` of a log, counted by decoding it.
fn census(log: &WalLog) -> (usize, usize) {
    let snapshots = decoded(log)
        .filter(|e| matches!(e, WalEvent::Snapshot { .. }))
        .count();
    (log.events.len(), snapshots)
}

/// Reading a log — from bytes, or from a file — allocates its buffer and
/// grows its snapshot index: at most one allocation a snapshot plus a
/// couple, whatever the number of records (the injections, detections and
/// recoveries among them included, each of which carries a list).
#[test]
fn reading_allocates_by_snapshots_not_by_records() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_alloc.wal");
    for snapshot_every in [4, 64] {
        let (_, bytes) = recorded_log(snapshot_every, 1);
        std::fs::write(&file, &bytes).expect("write the log out");
        let (log, from_bytes) = allocations_during(|| read_wal_bytes(&bytes));
        let (from_file, from_path) = allocations_during(|| read_wal(&file).expect("read back"));
        assert!(log.damage.is_none() && from_file.damage.is_none());
        let (records, snapshots) = census(&log);
        assert_eq!(census(&from_file), (records, snapshots));
        assert!(
            records > 50 * snapshots.max(1),
            "{records} records are not many per snapshot ({snapshots})"
        );
        for (how, allocs) in [("bytes", from_bytes), ("file", from_path)] {
            assert!(
                allocs <= snapshots as u64 + 4,
                "reading from {how} allocated {allocs} times for {records} records \
                 and {snapshots} snapshots"
            );
        }
    }
    std::fs::remove_file(&file).expect("remove the log");
}

/// A replay to the end builds the travels of the last snapshot — a route
/// and a flit vector an image, a flit vector a `Travel` — and the
/// configuration around them, and nothing for the records it reads after
/// it: replaying to the end costs what replaying to that snapshot costs, up
/// to the arrived list's growth.
#[test]
fn a_replay_builds_one_snapshot() {
    let (mesh, bytes) = recorded_log(4, 1);
    let log = read_wal_bytes(&bytes);
    let (_, steps) = recorded_outcome(&log.events).expect("clean footer");
    let (at, travels) = decoded(&log)
        .filter_map(|e| match e {
            WalEvent::Snapshot { step, images } => {
                Some((step, images.inflight_len() + images.arrived_len()))
            }
            _ => None,
        })
        .last()
        .expect("snapshots");
    assert!(at < steps, "records follow the last snapshot");
    let (replayed, to_end) = allocations_during(|| replay_to(&mesh, &log.events, steps));
    assert!(replayed.expect("replay to the end").is_evacuated());
    let (_, to_snapshot) = allocations_during(|| replay_to(&mesh, &log.events, at));
    // Beside the travels: the block, the travel list, the configuration's
    // port state and its two lists.
    assert!(
        to_end <= 3 * travels as u64 + 8,
        "replay allocated {to_end} times for a snapshot of {travels} travels"
    );
    assert!(
        to_end <= to_snapshot + 2,
        "the records after the snapshot allocated {} times",
        to_end - to_snapshot
    );
}

/// Byte length of the longest frame of the log `bytes`.
fn largest_frame(bytes: &[u8]) -> usize {
    let (mut at, mut largest) = (12, 0);
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let frame = 4 + 1 + len + 8;
        largest = largest.max(frame);
        at += frame;
    }
    largest
}

/// Reading a file-backed recovering run's log and replaying it to its end
/// holds, at its peak, the read buffer (grown to the largest frame if that
/// is longer), that frame twice more — the decoded snapshot's block, and the
/// travel images decoded from it one at a time — the snapshot index (a
/// doubling vector of 24-byte marks) and the replayed configuration: never
/// the log, and for a log eight times longer no more than the longer index.
#[test]
fn a_file_backed_replay_holds_a_buffer_not_the_log() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_alloc_bounded.wal");
    let mut peaks = Vec::new();
    for runs in [4, 32] {
        let (mesh, bytes) = recorded_log(4, runs);
        std::fs::write(&file, &bytes).expect("write the log out");
        let ((log, replayed), peak, held) = heap_peak_during(|| {
            let log = read_wal(&file).expect("read back");
            let (_, steps) = recorded_outcome(&log.events).expect("clean footer");
            let replayed = replay_to(&mesh, &log.events, steps).expect("replay to the end");
            (log, replayed)
        });
        assert!(log.damage.is_none(), "{:?}", log.damage);
        assert!(replayed.is_evacuated());
        let (_, snapshots) = census(&log);
        let (_, _, configuration) = heap_peak_during(|| drop(log));
        // What is left of `held` once the log is dropped.
        let configuration = held.wrapping_add(configuration);
        let largest = largest_frame(&bytes);
        let index = 2 * 24 * snapshots as u64;
        let bound = (WAL_READ_BUFFER.max(largest) + 2 * largest) as u64 + index + configuration;
        assert!(
            bound < bytes.len() as u64 / 2,
            "a log of {} bytes is too short to tell a buffer from the log",
            bytes.len()
        );
        assert!(
            peak <= bound,
            "{runs} runs ({} bytes, largest frame {largest}, {snapshots} snapshots, \
             configuration {configuration}): peak heap {peak} > {bound}",
            bytes.len()
        );
        peaks.push((peak, index));
    }
    let [(short, short_index), (long, long_index)] = peaks[..] else {
        unreachable!("two logs")
    };
    assert!(
        long <= short + (long_index - short_index),
        "eight times the log peaked at {long} bytes, one time at {short}"
    );
    std::fs::remove_file(&file).expect("remove the log");
}
