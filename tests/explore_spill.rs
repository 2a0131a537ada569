//! Disk spill must be invisible to every verdict-facing observable.
//!
//! The spill tier (`--mem-limit` + `--spill-dir`) changes only where bytes
//! live, never which states exist: on every deadlocking oracle cell a run
//! under a punitive memory budget must report the same verdict, the same
//! minimal counterexample depth and trace, and the same stored-state count
//! as the identical all-in-RAM run. The suite drives the same cells as
//! `explore_por.rs` plus the cyclic comparators at full pressure, and
//! additionally checks the `BoundReason` split: without a spill directory a
//! breached memory budget is a *memory*-bound stop, with one the search
//! keeps going. Last, the parallel engine refuses more jobs or shards than
//! it allows, at once, from the library and from `bin/explore`.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

use genoc::prelude::*;
use genoc_core::error::Error;
use genoc_explore::{BoundReason, MAX_PARALLELISM};

#[test]
fn spilling_runs_match_all_in_ram_runs_on_every_deadlocking_cell() {
    let cells = ScenarioMatrix::oracle().expand();
    let comparators = [
        (Instance::ring_shortest(4, 1), SwitchingKind::Wormhole),
        (Instance::mesh_mixed(2, 2, 1), SwitchingKind::Wormhole),
    ];
    let sweep = cells
        .iter()
        .map(|cell| {
            let instance = Instance::from_meta(&cell.meta)
                .unwrap_or_else(|e| panic!("{}: construction failed: {e}", cell.name()));
            (instance, cell.switching, 3usize)
        })
        .chain(
            comparators
                .into_iter()
                .map(|(instance, switching)| (instance, switching, 0)),
        );
    let mut deadlock_cells = 0usize;
    let mut spilled_runs = 0usize;
    for (instance, switching, truncate) in sweep {
        if !instance.deterministic {
            continue;
        }
        let flits = if switching.requires_whole_packet_buffering() {
            2usize.min(instance.meta.capacity as usize).max(1)
        } else {
            2
        };
        let mut specs = pressure_specs(&instance.meta, flits);
        if truncate > 0 {
            specs.truncate(truncate);
        }
        let policy = Switching::new(switching);
        let run = |options: &ExploreOptions| {
            explore_policy(
                instance.net.as_ref(),
                instance.routing.as_ref(),
                &instance.meta,
                &specs,
                &policy,
                options,
            )
            .unwrap_or_else(|e| panic!("{}: exploration failed: {e}", instance.name))
        };
        let ram_options = ExploreOptions {
            max_states: 200_000,
            jobs: 2,
            ..ExploreOptions::default()
        };
        let ram = run(&ram_options);
        if ram.counterexample().is_none() {
            continue;
        }
        deadlock_cells += 1;
        let spilling = run(&ExploreOptions {
            // A budget far below any cell's working set: every level spills.
            mem_limit: Some(8 * 1024),
            spill_dir: Some(std::env::temp_dir()),
            ..ram_options.clone()
        });
        if spilling.spilled_bytes > 0 {
            spilled_runs += 1;
        }
        assert_eq!(
            spilling.verdict.label(),
            ram.verdict.label(),
            "{}: spilling changed the verdict",
            instance.name
        );
        assert_eq!(
            (spilling.states, spilling.depth),
            (ram.states, ram.depth),
            "{}: spilling changed the stored-state count or the minimal depth",
            instance.name
        );
        assert_eq!(
            spilling.counterexample().map(|c| c.trace.len()),
            ram.counterexample().map(|c| c.trace.len()),
            "{}: spilling changed the minimal counterexample",
            instance.name
        );
    }
    assert!(
        deadlock_cells >= 2,
        "only {deadlock_cells} deadlocking cells reached the comparison"
    );
    assert!(
        spilled_runs >= 1,
        "no run under the punitive budget ever spilled — the tier is untested"
    );
}

#[test]
fn memory_bound_stops_are_labelled_and_spill_lifts_them() {
    let instance = Instance::mesh_mixed(2, 2, 1);
    let specs = pressure_specs(&instance.meta, 2);
    let run = |options: &ExploreOptions| {
        explore(
            instance.net.as_ref(),
            instance.routing.as_ref(),
            &instance.meta,
            &specs,
            &genoc_core::step::AlwaysAdmit,
            options,
        )
        .expect("exploration failed")
    };
    let base = ExploreOptions {
        max_states: 200_000,
        jobs: 2,
        mem_limit: Some(8 * 1024),
        ..ExploreOptions::default()
    };
    // Without a spill directory the budget is a hard stop, labelled as such.
    let stopped = run(&base);
    assert!(matches!(stopped.verdict, Verdict::BoundExceeded));
    assert_eq!(stopped.bound, Some(BoundReason::Memory));
    assert_eq!(stopped.bound.unwrap().label(), "memory-bound");
    // With one, the same budget only moves bytes to disk.
    let spilled = run(&ExploreOptions {
        spill_dir: Some(std::env::temp_dir()),
        ..base.clone()
    });
    assert!(
        !matches!(spilled.verdict, Verdict::BoundExceeded),
        "the spill tier must lift the memory bound"
    );
    assert_eq!(spilled.bound, None);
    assert!(
        spilled.spilled_bytes > 0,
        "nothing spilled under the budget"
    );
    assert!(spilled.peak_bytes > 0);
    // A state-count stop keeps its own label.
    let state_bound = run(&ExploreOptions {
        max_states: 50,
        mem_limit: None,
        ..base
    });
    assert!(matches!(state_bound.verdict, Verdict::BoundExceeded));
    assert_eq!(state_bound.bound, Some(BoundReason::States));
}

/// `bin/explore` on the 2×2 XY mesh, two one-flit messages, with
/// `--jobs jobs`, and how long it took.
fn explore_mesh_2x2(jobs: &str) -> (Output, Duration) {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["--routing", "xy", "--width", "2", "--height", "2"])
        .args(["--capacity", "1", "--flits", "1", "--messages", "2"])
        .args(["--jobs", jobs])
        .output()
        .expect("bin/explore runs");
    (out, start.elapsed())
}

#[test]
fn jobs_and_shards_past_the_bound_are_refused_at_once() {
    // Every block of a level holds jobs × shards buckets: unbounded, a
    // few thousand jobs allocated gigabytes of empty ones.
    let (out, took) = explore_mesh_2x2("2000");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains(
            "2000 jobs and 2000 shards asked for: the parallel explorer's bound is 64 of each"
        ),
        "{stderr}"
    );
    assert!(took < Duration::from_secs(1), "refusal took {took:?}");
    let (out, _) = explore_mesh_2x2("64");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let instance = Instance::mesh_xy(2, 2, 1);
    let mut specs = pressure_specs(&instance.meta, 1);
    specs.truncate(2);
    let run = |jobs, shards| {
        explore(
            instance.net.as_ref(),
            instance.routing.as_ref(),
            &instance.meta,
            &specs,
            &genoc_core::step::AlwaysAdmit,
            &ExploreOptions {
                jobs,
                shards,
                ..ExploreOptions::default()
            },
        )
    };
    assert_eq!(
        run(2, MAX_PARALLELISM + 1).err(),
        Some(Error::ParallelismBound {
            jobs: 2,
            shards: MAX_PARALLELISM + 1,
            max: MAX_PARALLELISM,
        })
    );
    assert!(run(2, MAX_PARALLELISM).is_ok());
}

/// `bin/explore` on the 3-message 2×2 XY cell at capacity 2, stopped by a
/// three-state bound, with `extra` arguments: its `states` line and its
/// `verdict` line.
fn explore_bounded_lines(extra: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["--routing", "xy", "--width", "2", "--height", "2"])
        .args(["--capacity", "2", "--flits", "2", "--messages", "3"])
        .args(["--bound", "3"])
        .args(extra)
        .output()
        .expect("bin/explore runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // An inconclusive verdict goes to stderr, after the summary on stdout.
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    stdout
        .lines()
        .chain(stderr.lines())
        .filter(|l| l.starts_with("states ") || l.starts_with("verdict"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn a_spill_dir_without_a_memory_limit_changes_nothing() {
    // The sequential search stops at the state that reaches the bound, the
    // level-synchronised one at the end of that level: a spill directory
    // alone must not switch from the first to the second.
    let dir = std::env::temp_dir();
    let dir = dir.to_str().expect("a UTF-8 temp dir");
    let plain = explore_bounded_lines(&[]);
    assert_eq!(plain.len(), 2, "{plain:?}");
    assert!(plain[0].starts_with("states 3 "), "{plain:?}");
    assert_eq!(explore_bounded_lines(&["--spill-dir", dir]), plain);
}
