//! The replay equivalence contract, differentially: on **every**
//! smoke-matrix scenario, record a run through the WAL observer, then check
//! that `replay_to(events, n)` reconstructs *exactly* the configuration a
//! fresh rerun capped at `n` steps produces — same travel routes and flit
//! positions (hence the same kernel classification) and the same wait-for
//! structure — at the start, the middle, and the end of the run.
//!
//! Plus the deadlock path: the corner storm on the mixed 2×2 mesh is
//! recorded under an [`ObservedEngine`]; the log must carry the detector's
//! firing, and the replayed final state must contain a wait-for cycle
//! re-derivable from the reconstructed configuration alone.
//!
//! Plus the seek: a recovering run with a short snapshot period is replayed
//! to *every* step, so each snapshot — periodic or mutation barrier — is the
//! base of some replay and is skipped, still encoded, by the others.
//!
//! Plus the refusals: a log whose records pass their checksums and name a
//! port, a route index or a flit that does not exist is an
//! `Error::Invariant` naming the record, never a panic; and a file-backed
//! log cut short or rewritten after it was read is an `Error::WalChanged`
//! naming the byte it changed at, from every reader.

use std::rc::Rc;

use genoc::campaign::{scenario_seed, ScenarioMatrix, ScenarioSpec};
use genoc::core::error::Error;
use genoc::core::moves::MoveKind;
use genoc::obs::{
    describe, read_wal_bytes, tail_lines, ObservedEngine, Recorder, SnapshotImages, TravelImage,
    WalEvent, WalLog, WalMeta, WalRecords,
};
use genoc::prelude::*;
use genoc::verif::Instance;

/// Every record of `records`, read back and decoded.
fn decoded(records: &WalRecords) -> Vec<WalEvent> {
    (records.iter().collect::<Result<_, _>>()).expect("an unchanged log reads back")
}

/// Records one run of `cfg` into an in-memory WAL, returning the records
/// read back and the recorded step count.
fn record(
    instance: &Instance,
    spec: &ScenarioSpec,
    cfg: Config,
    seed: u64,
    max_steps: u64,
) -> (WalRecords, u64) {
    let wal = genoc::obs::shared(WalWriter::in_memory());
    let mut recorder = Recorder::with_wal(
        Rc::clone(&wal),
        seed,
        Some(WalMeta {
            meta: spec.meta,
            switching: spec.switching,
        }),
    );
    let mut policy = Switching::new(spec.switching);
    let result = simulate_observed_config(
        instance.net.as_ref(),
        &mut policy,
        cfg,
        &SimOptions {
            max_steps,
            stepper: Stepper::Arena,
            ..SimOptions::default()
        },
        &mut NullHook,
        &mut recorder,
    )
    .expect("recorded run");
    drop(recorder);
    let writer = Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
    let bytes = writer.finish().expect("flush").expect("in-memory bytes");
    let log = read_wal_bytes(&bytes);
    assert!(log.damage.is_none(), "fresh log damaged: {:?}", log.damage);
    (log.events, result.run.steps)
}

/// Runs the same configuration fresh, capped at `n` steps, on the legacy
/// interpreter. The recorder observed the arena, so replay ≡ rerun crosses
/// the two steppers as well.
fn rerun_to(instance: &Instance, spec: &ScenarioSpec, cfg: Config, n: u64) -> Config {
    let mut policy = Switching::new(spec.switching);
    let result = run(
        instance.net.as_ref(),
        &IdentityInjection,
        &mut policy,
        cfg,
        &RunOptions {
            max_steps: n,
            ..RunOptions::default()
        },
    )
    .expect("rerun");
    result.config
}

/// The scenario's seeded workload configuration, exactly as the campaign's
/// metrics probe builds it.
fn workload_config(instance: &Instance, spec: &ScenarioSpec, seed: u64) -> Config {
    let nodes = instance.net.node_count();
    let flits = spec.workload_flits(4);
    let specs = genoc::sim::workload::uniform_random(nodes.max(2), nodes * 2, 1..=flits, seed);
    if instance.deterministic {
        Config::from_specs(instance.net.as_ref(), instance.routing.as_ref(), &specs)
            .expect("routable workload")
    } else {
        config_with_selected_routes(
            instance.net.as_ref(),
            instance.routing.as_ref(),
            &specs,
            seed,
        )
        .expect("selectable workload")
    }
}

fn assert_replay_matches(replayed: &Config, rerun: &Config, what: &str) {
    assert_eq!(
        replayed, rerun,
        "{what}: replayed configuration diverges from the rerun"
    );
    // Config equality already pins routes and flit positions; re-deriving
    // the wait-for structure from both sides makes the contract explicit.
    let a = block_events(replayed);
    let b = block_events(rerun);
    assert_eq!(a.len(), b.len(), "{what}: wait-for edge count diverges");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.msg, x.wants), (y.msg, y.wants), "{what}: edge diverges");
    }
}

#[test]
fn every_smoke_scenario_replays_identically_to_a_rerun() {
    let scenarios = ScenarioMatrix::smoke().expand();
    assert!(scenarios.len() >= 20, "smoke matrix shrank unexpectedly");
    for spec in &scenarios {
        let name = spec.name();
        let seed = scenario_seed(11, &name);
        let instance = Instance::from_meta(&spec.meta).expect("smoke scenarios construct");
        let cfg = workload_config(&instance, spec, seed);
        let (events, steps) = record(&instance, spec, cfg.clone(), seed, 2_000);

        let mut checkpoints = vec![0, steps / 2, steps];
        checkpoints.dedup();
        for n in checkpoints {
            let replayed = genoc::obs::replay_to(instance.net.as_ref(), &events, n)
                .unwrap_or_else(|e| panic!("{name}: replay to {n} failed: {e}"));
            let rerun = rerun_to(&instance, spec, cfg.clone(), n);
            assert_replay_matches(&replayed, &rerun, &format!("{name} @ step {n}/{steps}"));
        }
    }
}

/// The corner storm on a 2×2 mixed XY/YX mesh, recorded under a detecting
/// engine: the mesh, the run, the step the detector first fired at, and the
/// log read back.
fn recorded_storm() -> (Mesh, SimResult, u64, WalLog) {
    let mesh = Mesh::new(2, 2, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 4);
    let cfg = Config::from_specs(&mesh, &routing, &specs).expect("routable storm");

    let wal = genoc::obs::shared(WalWriter::in_memory());
    let mut recorder = Recorder::with_wal(Rc::clone(&wal), 0, None);
    let mut hook = ObservedEngine::new(
        DetectionEngine::detector(EngineOptions {
            heuristic_threshold: None,
        }),
        Some(Rc::clone(&wal)),
    );
    let result = simulate_observed_config(
        &mesh,
        &mut Switching::default(),
        cfg,
        &SimOptions::default(),
        &mut hook,
        &mut recorder,
    )
    .expect("storm run");
    assert_eq!(result.run.outcome, Outcome::Deadlock, "the storm deadlocks");
    let detected_at = hook.first_detection_step().expect("detector fired");

    drop(recorder);
    drop(hook);
    let writer = Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
    let bytes = writer.finish().expect("flush").expect("in-memory bytes");
    let log = read_wal_bytes(&bytes);
    assert!(log.damage.is_none());
    (mesh, result, detected_at, log)
}

#[test]
fn recorded_deadlock_replays_to_a_detector_confirmed_cycle() {
    let (mesh, result, detected_at, log) = recorded_storm();

    // The log carries the firing, at the step the engine reported.
    let logged = genoc::obs::detections(&log.events)
        .find_map(|e| match e.expect("the log reads back") {
            WalEvent::Detection { step, msgs, .. } => Some((step, msgs)),
            _ => None,
        })
        .expect("Detection record in the WAL");
    assert_eq!(logged.0, detected_at);
    assert!(!logged.1.is_empty(), "detection names the cycle members");

    // The footer agrees, and the replayed final state proves the deadlock
    // on its own: a wait-for cycle re-derived from the configuration.
    let (outcome, steps) = genoc::obs::recorded_outcome(&log.events).expect("clean footer");
    assert_eq!(outcome, Outcome::Deadlock);
    let replayed = genoc::obs::replay_to(&mesh, &log.events, steps).expect("replay to the end");
    let cycle = find_wait_cycle(&replayed).expect("replayed state contains the cycle");
    for m in &logged.1 {
        assert!(
            cycle.msgs.contains(m),
            "detector member {m} missing from the replayed cycle"
        );
    }
    assert_eq!(replayed, result.run.config, "final state replays exactly");
}

/// A tail longer than the log is the whole evidence: every evidence line
/// before the first detection, then the verdict lines, and the ring holding
/// them is sized by the log, not by `k` (`replay --last 4294967295` once
/// asked the allocator for `k` frames up front and aborted).
#[test]
fn a_tail_longer_than_the_log_is_every_evidence_line() {
    let (_, _, _, log) = recorded_storm();
    let all = decoded(&log.events);
    let mut events = all.iter().cloned();
    let mut expected: Vec<String> = (events.by_ref())
        .take_while(|e| !matches!(e, WalEvent::Detection { .. }))
        .filter(|e| {
            matches!(
                e,
                WalEvent::StepBegin { .. }
                    | WalEvent::Move { .. }
                    | WalEvent::Transition { .. }
                    | WalEvent::FreedPort { .. }
                    | WalEvent::EdgeAdd { .. }
                    | WalEvent::EdgeRemove { .. }
                    | WalEvent::Recovery { .. }
            )
        })
        .map(|e| describe(&e))
        .collect();
    let evidence = expected.len();
    assert!(evidence > 0);
    let first = all.iter().find(|e| matches!(e, WalEvent::Detection { .. }));
    expected.push(describe(first.expect("the storm is detected")));
    let verdicts =
        events.filter(|e| matches!(e, WalEvent::Detection { .. } | WalEvent::RunEnd { .. }));
    expected.extend(verdicts.map(|e| describe(&e)));
    for k in [evidence, evidence + 1, u32::MAX as usize, usize::MAX] {
        assert_eq!(tail_lines(&log.events, k).unwrap(), expected, "k = {k}");
    }
}

#[test]
fn a_recovering_run_replays_identically_at_every_step() {
    const SNAPSHOT_EVERY: u64 = 4;
    let mesh = Mesh::new(4, 4, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    // Long worms turning both ways at once: several cycles close, more than
    // one of them in the same step.
    let specs = genoc::sim::workload::bit_complement(&mesh, 8);
    let cfg = Config::from_specs(&mesh, &routing, &specs).expect("routable workload");
    let recovering =
        || DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));

    let wal = genoc::obs::shared(WalWriter::in_memory());
    let mut recorder = Recorder::build(
        Some(Rc::clone(&wal)),
        0,
        None,
        RecorderOptions {
            snapshot_every: SNAPSHOT_EVERY,
        },
    );
    let mut hook = ObservedEngine::new(recovering(), Some(Rc::clone(&wal)));
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
    let steps = result.run.steps;
    drop(recorder);
    drop(hook);
    let writer = Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
    let bytes = writer.finish().expect("flush").expect("in-memory bytes");
    let log = read_wal_bytes(&bytes);
    assert!(log.damage.is_none(), "fresh log damaged: {:?}", log.damage);

    // Periodic snapshots land on multiples of the period; the barriers a
    // recovery writes land wherever a cycle closed.
    let snapshot_steps: Vec<u64> = (decoded(&log.events).into_iter())
        .filter_map(|e| match e {
            WalEvent::Snapshot { step, .. } => Some(step),
            _ => None,
        })
        .collect();
    let periodic = steps / SNAPSHOT_EVERY;
    assert!(periodic >= 3, "only {periodic} periodic snapshots");
    assert!(
        snapshot_steps.len() as u64 > periodic,
        "no mutation barrier among {snapshot_steps:?}"
    );
    assert!(
        snapshot_steps.iter().any(|s| s % SNAPSHOT_EVERY != 0),
        "every barrier fell on a period boundary: {snapshot_steps:?}"
    );

    for n in 0..=steps {
        let replayed = genoc::obs::replay_to(&mesh, &log.events, n)
            .unwrap_or_else(|e| panic!("replay to {n} failed: {e}"));
        let mut engine = recovering();
        let rerun = simulate_config(
            &mesh,
            &mut Switching::default(),
            Config::from_specs(&mesh, &routing, &specs).unwrap(),
            &SimOptions {
                max_steps: n,
                stepper: Stepper::Legacy,
                ..SimOptions::default()
            },
            Some(&mut engine),
            None,
        )
        .expect("rerun");
        assert_replay_matches(
            &replayed,
            &rerun.run.config,
            &format!("recovering 4x4 @ step {n}/{steps}"),
        );
    }
}

/// A 2×2 mesh and a hand-built log on it — one message from node 0 to node
/// 3, a snapshot of it mid-route at step 1, a move in step 1 — with `edit`
/// applied, written and read back so every checksum is valid.
fn hand_built_log(edit: impl Fn(&mut WalEvent)) -> (Mesh, WalRecords) {
    let mesh = Mesh::new(2, 2, 1);
    let routing = XyRouting::new(&mesh);
    let spec = MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 2);
    let cfg = Config::from_specs(&mesh, &routing, &[spec]).expect("routable");
    let t = &cfg.travels()[0];
    let mut events = vec![
        WalEvent::Inject {
            msg: t.id(),
            flits: 2,
            route: t.route().to_vec(),
        },
        WalEvent::StepBegin { step: 0 },
        WalEvent::Move {
            msg: t.id(),
            flit: 0,
            kind: MoveKind::Enter,
            port: t.route()[0],
        },
        WalEvent::Snapshot {
            step: 1,
            images: SnapshotImages::from_images(
                &[TravelImage {
                    id: t.id(),
                    route: t.route().to_vec(),
                    flits: vec![FlitPos::InNetwork(0), FlitPos::Pending],
                }],
                &[],
            ),
        },
        WalEvent::StepBegin { step: 1 },
        WalEvent::Move {
            msg: t.id(),
            flit: 0,
            kind: MoveKind::Advance,
            port: t.route()[1],
        },
    ];
    events.iter_mut().for_each(edit);
    let mut w = WalWriter::in_memory();
    for e in &events {
        w.append(e).expect("in-memory append");
    }
    let log = read_wal_bytes(&w.finish().expect("flush").expect("in-memory bytes"));
    assert!(log.damage.is_none(), "{:?}", log.damage);
    assert_eq!(decoded(&log.events), events);
    (mesh, log.events)
}

/// The images of the hand-built log's snapshot, with `edit` applied.
fn edited_snapshot(images: &SnapshotImages, edit: impl Fn(&mut TravelImage)) -> SnapshotImages {
    let mut inflight: Vec<TravelImage> = images.inflight().collect();
    inflight.iter_mut().for_each(edit);
    SnapshotImages::from_images(&inflight, &[])
}

fn assert_refused(result: Result<Config, Error>, record: &str, what: &str) {
    match result {
        Err(Error::Invariant(msg)) => {
            assert!(
                msg.contains(record),
                "{what}: {msg:?} does not name {record}"
            );
        }
        other => panic!("{what}: expected Error::Invariant, got {other:?}"),
    }
}

#[test]
fn ill_formed_logs_are_refused_not_panicked_on() {
    // The log as built replays: the checks below refuse nothing valid.
    let (mesh, events) = hand_built_log(|_| {});
    for n in 0..=2 {
        genoc::obs::replay_to(&mesh, &events, n).expect("the unedited log replays");
    }
    let beyond = PortId::from_index(mesh.port_count());

    let (mesh, events) = hand_built_log(|e| {
        if let WalEvent::Snapshot { images, .. } = e {
            *images = edited_snapshot(images, |img| {
                img.flits[0] = FlitPos::InNetwork(img.route.len());
            });
        }
    });
    assert_refused(
        genoc::obs::replay_to(&mesh, &events, 1),
        "WAL record 3 (snapshot at step 1",
        "snapshot flit position past its route",
    );

    let (mesh, events) = hand_built_log(|e| {
        if let WalEvent::Snapshot { images, .. } = e {
            *images = edited_snapshot(images, |img| img.route[1] = beyond);
        }
    });
    assert_refused(
        genoc::obs::replay_to(&mesh, &events, 1),
        "WAL record 3 (snapshot at step 1",
        "snapshot route port outside the network",
    );

    let (mesh, events) = hand_built_log(|e| {
        if let WalEvent::Inject { route, .. } = e {
            route[0] = beyond;
        }
    });
    for result in [
        genoc::obs::initial_config(&mesh, &events),
        genoc::obs::replay_to(&mesh, &events, 0),
    ] {
        assert_refused(
            result,
            "WAL record 0 (inject",
            "inject route port outside the network",
        );
    }

    let (mesh, events) = hand_built_log(|e| {
        if let WalEvent::Move { flit, .. } = e {
            *flit = 2;
        }
    });
    assert_refused(
        genoc::obs::replay_to(&mesh, &events, 2),
        "WAL record 5 (",
        "move of a flit the travel does not have",
    );
}

/// `(offset, length, kind)` of every frame of the intact log `bytes`.
fn frames(bytes: &[u8]) -> Vec<(u64, usize, u8)> {
    let mut frames = Vec::new();
    let mut at = 12;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        frames.push((at as u64, 5 + len + 8, bytes[at + 4]));
        at += 5 + len + 8;
    }
    frames
}

/// A file-backed log is read back from the file at every pass, and each
/// record is checked again on the way in: once the file is cut short, or
/// one byte of a record after the last snapshot is flipped, every reader
/// reports `Error::WalChanged` naming that record's byte offset — none
/// panics, and none yields a shorter stream as if the log ended there.
#[test]
fn a_log_changed_on_disk_is_an_error_at_its_byte() {
    const SNAPSHOT_EVERY: u64 = 16;
    const SNAPSHOT: u8 = 11;
    let mesh = Mesh::new(4, 4, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::bit_complement(&mesh, 8);
    let cfg = Config::from_specs(&mesh, &routing, &specs).expect("routable workload");
    let wal = genoc::obs::shared(WalWriter::in_memory());
    let mut recorder = Recorder::build(
        Some(Rc::clone(&wal)),
        0,
        None,
        RecorderOptions {
            snapshot_every: SNAPSHOT_EVERY,
        },
    );
    let engine = DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));
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
    drop(recorder);
    drop(hook);
    let writer = Rc::try_unwrap(wal).ok().expect("sole owner").into_inner();
    let bytes = writer.finish().expect("flush").expect("in-memory bytes");
    let frames = frames(&bytes);
    let last_snapshot = (frames.iter())
        .rposition(|&(_, _, kind)| kind == SNAPSHOT)
        .expect("snapshots");
    let after = &frames[last_snapshot + 1..];
    assert!(
        after.len() > 8,
        "{} records after the last snapshot",
        after.len()
    );

    // A cut on a frame boundary, and a flipped payload byte, past the last
    // snapshot: the record at `at` is the first that no longer reads back.
    let (cut, _, _) = after[after.len() / 2];
    let (flipped, _, _) = after[after.len() / 3];
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_replay_changed.wal");
    for (what, at) in [("truncated", cut), ("flipped", flipped)] {
        std::fs::write(&file, &bytes).expect("write the log out");
        let log = genoc::obs::read_wal(&file).expect("read back");
        assert!(log.damage.is_none(), "{what}: {:?}", log.damage);
        assert_eq!(log.events.len(), frames.len());
        if what == "truncated" {
            let f = std::fs::OpenOptions::new().write(true).open(&file).unwrap();
            f.set_len(cut).unwrap();
        } else {
            let mut changed = bytes.clone();
            changed[flipped as usize + 6] ^= 0x20;
            std::fs::write(&file, changed).unwrap();
        }

        let changed_at = |result: Result<(), Error>, reader: &str| match result {
            Err(Error::WalChanged { offset, what: text }) => {
                assert_eq!(offset, at, "{what}: {reader}: {text}");
                assert!(
                    text.contains(&format!("at byte {at}")),
                    "{what}: {reader}: {text}"
                );
            }
            other => panic!("{what}: {reader} gave {other:?}"),
        };
        let (_, steps) = genoc::obs::recorded_outcome(&log.events).expect("the index holds");
        assert_eq!(steps, result.run.steps);
        changed_at(
            genoc::obs::replay_to(&mesh, &log.events, steps).map(drop),
            "replay_to",
        );
        changed_at(tail_lines(&log.events, 12).map(drop), "tail_lines");
        changed_at(
            genoc::obs::detections(&log.events).try_for_each(|d| d.map(drop)),
            "detections",
        );
        // Every record before the changed one, then the error, then nothing.
        let mut records = log.events.iter();
        let intact = frames.partition_point(|&(offset, _, _)| offset < at);
        assert_eq!(
            records.by_ref().take(intact).filter(Result::is_ok).count(),
            intact
        );
        changed_at(
            records.next().expect("an error, not an end").map(drop),
            "iter",
        );
        assert!(
            records.next().is_none(),
            "{what}: iter goes on past the error"
        );
    }
    std::fs::remove_file(&file).expect("remove the log");
}
