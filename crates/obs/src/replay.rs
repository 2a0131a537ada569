//! Deterministic replay: reconstructing the full [`Config`] at any step of
//! a recorded run from the nearest snapshot plus the move tail — so every
//! campaign failure and deadlock-hunt witness is replayable by
//! `(wal, step-offset)` instead of rerun.
//!
//! The equivalence contract (pinned by `tests/obs_replay.rs` on every
//! smoke-matrix scenario): `replay_to(net, events, n)` is *identical* to a
//! fresh rerun of the recorded workload capped at `n` steps — same travel
//! positions and routes, hence the same kernel status classification and
//! the same wait-for graph (both are pure functions of the configuration).
//!
//! Everything here reads a [`WalRecords`] back from where it lies, through
//! the reader's one window, and decodes only the records it looks at
//! (`wal`'s module doc, "Reading"). A record that no longer reads back as
//! it was verified is an [`Error::WalChanged`] naming its byte offset.

use std::collections::VecDeque;

use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::interpreter::Outcome;
use genoc_core::network::Network;
use genoc_core::travel::{FlitPos, Travel};
use genoc_core::{MsgId, PortId};

use crate::wal::{
    TravelImage, WalEvent, WalMeta, WalRecords, Walker, Window, KIND_DETECTION, KIND_EDGE_ADD,
    KIND_EDGE_REMOVE, KIND_FREED_PORT, KIND_MOVE, KIND_RECOVERY, KIND_RUN_END, KIND_STEP_BEGIN,
    KIND_TRANSITION,
};

/// The run header's `(seed, meta)`, when the log has one.
pub fn run_start(events: &WalRecords) -> Option<(u64, Option<WalMeta>)> {
    events.run_start
}

/// The recorded `(outcome, steps)` footer, when the run ended cleanly.
pub fn recorded_outcome(events: &WalRecords) -> Option<(Outcome, u64)> {
    events.run_end
}

/// Total switching steps the log covers: the footer's count when present,
/// otherwise one past the last step marker.
pub fn final_steps(events: &WalRecords) -> u64 {
    match (events.run_end, events.last_step) {
        (Some((_, steps)), _) => steps,
        (None, Some(step)) => step + 1,
        (None, None) => 0,
    }
}

/// The detector firings the log records, read back and decoded as they are
/// yielded; an item is [`Error::WalChanged`] when a record no longer reads
/// back as it was verified, and nothing follows it.
pub fn detections(events: &WalRecords) -> impl Iterator<Item = Result<WalEvent>> + '_ {
    events.records_of(Some(KIND_DETECTION))
}

/// The error for a record that passed its checksum and still cannot be
/// replayed: a log of another instance, or one written by hand.
fn ill_formed(index: usize, e: &WalEvent, what: String) -> Error {
    Error::Invariant(format!(
        "WAL record {index} ({}) is ill-formed: {what}",
        describe(e)
    ))
}

/// Refuses a route through a port `net` does not have, which
/// [`Travel::from_route`] would look up unchecked.
fn check_route(net: &dyn Network, msg: MsgId, route: &[PortId]) -> std::result::Result<(), String> {
    let ports = net.port_count();
    match route.iter().find(|p| p.index() >= ports) {
        Some(p) => Err(format!(
            "{msg} routes through {p} and the network has {ports} ports"
        )),
        None => Ok(()),
    }
}

/// The travel `img` pictures, after checking what the `Travel` mutators
/// assert: `bad` turns a complaint into the error naming the record.
fn travel_of(net: &dyn Network, img: TravelImage, bad: impl Fn(String) -> Error) -> Result<Travel> {
    check_route(net, img.id, &img.route).map_err(&bad)?;
    for (i, &pos) in img.flits.iter().enumerate() {
        if matches!(pos, FlitPos::InNetwork(k) if k >= img.route.len()) {
            return Err(bad(format!(
                "flit {i} of {} is at {pos:?} on a route of {} ports",
                img.id,
                img.route.len()
            )));
        }
    }
    let mut t = Travel::from_route(net, img.id, img.route, img.flits.len())?;
    for (i, &pos) in img.flits.iter().enumerate() {
        t.set_flit_pos(i, pos);
    }
    Ok(t)
}

/// The initial (all-pending) configuration from the log's `Inject` records.
///
/// # Errors
///
/// Reports [`Error::Invariant`] when the log has no injections or a route
/// names a port `net` does not have, [`Error::InvalidSpec`] when a route
/// does not run from a local in-port to a local out-port, and
/// [`Error::WalChanged`] when a record no longer reads back as it was
/// verified.
pub fn initial_config(net: &dyn Network, events: &WalRecords) -> Result<Config> {
    let mut travels = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let e = e?;
        if let WalEvent::Inject { msg, route, .. } = &e {
            check_route(net, *msg, route).map_err(|what| ill_formed(i, &e, what))?;
        }
        match e {
            WalEvent::Inject { msg, flits, route } => {
                travels.push(Travel::from_route(net, msg, route, flits as usize)?);
            }
            WalEvent::StepBegin { .. } => break,
            _ => {}
        }
    }
    if travels.is_empty() {
        return Err(Error::Invariant(
            "WAL has no Inject records to rebuild the initial configuration".into(),
        ));
    }
    Config::from_travels(net, travels)
}

/// Reconstructs the configuration after `steps` completed switching steps:
/// seeks to the last snapshot at or before `steps`, then applies the
/// recorded flit moves of the remaining steps (draining arrivals at every
/// step boundary, exactly as the runner does).
///
/// # Errors
///
/// Reports [`Error::Invariant`] on logs without injections/snapshots
/// covering the range, whose moves are inconsistent with the configuration
/// (a damaged or cross-wired log), or with a record naming a port, route
/// index or flit that does not exist — checked before anything is built or
/// moved, so no log panics the replayer — and [`Error::WalChanged`], naming
/// the byte offset, when a record it reads no longer reads back as it was
/// verified.
pub fn replay_to(net: &dyn Network, events: &WalRecords, steps: u64) -> Result<Config> {
    // Seek: the latest snapshot not past the target. A snapshot written
    // after a recovery mutation supersedes earlier records entirely — the
    // intervening moves were already applied to the snapshotted state.
    // Only the snapshot picked here is decoded.
    let base = events.snapshots.iter().rev().find(|m| m.step <= steps);
    let (from, initial) = match base {
        Some(mark) => ((mark.offset, mark.record), None),
        None => (WalRecords::FIRST, Some(initial_config(net, events)?)),
    };
    events.walk(from, |frames| {
        let cfg = match initial {
            Some(cfg) => cfg,
            None => snapshot_config(net, frames, from)?,
        };
        apply_moves(cfg, frames, steps)
    })
}

/// `cfg` with the recorded moves that `frames` read applied, up to the
/// marker of step `steps`, arrivals drained at every step boundary.
fn apply_moves(
    mut cfg: Config,
    frames: &mut Walker<'_, dyn Window + '_>,
    steps: u64,
) -> Result<Config> {
    let mut in_step = false;
    // Step markers and moves are all a replay reads; the rest stay encoded.
    while let Some(frame) = frames.read()? {
        if !matches!(frame.kind, KIND_STEP_BEGIN | KIND_MOVE) {
            continue;
        }
        let e = frame.decode()?;
        match e {
            WalEvent::StepBegin { step } => {
                if in_step {
                    cfg.drain_arrived();
                }
                if step >= steps {
                    in_step = false;
                    break;
                }
                in_step = true;
            }
            WalEvent::Move {
                msg, flit, kind, ..
            } if in_step => {
                let i = cfg
                    .travels()
                    .iter()
                    .position(|t| t.id() == msg)
                    .ok_or_else(|| {
                        Error::Invariant(format!("WAL moves unknown travel {msg} during replay"))
                    })?;
                let flit = flit as usize;
                if flit >= cfg.travels()[i].flit_count() {
                    return Err(ill_formed(
                        frame.record,
                        &e,
                        format!("{msg} has {} flits", cfg.travels()[i].flit_count()),
                    ));
                }
                cfg.move_flit(i, flit, kind)?;
            }
            _ => {}
        }
    }
    if in_step {
        cfg.drain_arrived();
    }
    Ok(cfg)
}

/// The configuration the snapshot framed at `(byte offset, record number)`
/// pictures, read with `frames`, which then stand past it.
fn snapshot_config(
    net: &dyn Network,
    frames: &mut Walker<'_, dyn Window + '_>,
    (at, record): (u64, usize),
) -> Result<Config> {
    let frame = frames.read_at(at, record)?;
    let e = frame.decode()?;
    let WalEvent::Snapshot { images, .. } = &e else {
        let what = format!("record {record} at byte {at} is no longer a snapshot");
        return Err(Error::WalChanged { offset: at, what });
    };
    let mut travels = Vec::with_capacity(images.inflight_len() + images.arrived_len());
    for img in images.inflight().chain(images.arrived()) {
        travels.push(travel_of(net, img, |what| ill_formed(record, &e, what))?);
    }
    Config::from_travels(net, travels)
}

fn describe_msgs(msgs: &[MsgId]) -> String {
    msgs.iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(" → ")
}

/// One human line per event, for post-mortem printing.
pub fn describe(e: &WalEvent) -> String {
    match e {
        WalEvent::RunStart { seed, meta, .. } => match meta {
            Some(m) => format!(
                "run start: seed {seed}, {} + {:?}",
                m.meta.instance_name(),
                m.switching
            ),
            None => format!("run start: seed {seed}"),
        },
        WalEvent::Inject { msg, flits, route } => {
            format!("inject {msg}: {flits} flits over {} hops", route.len())
        }
        WalEvent::StepBegin { step } => format!("── step {step}"),
        WalEvent::Move {
            msg,
            flit,
            kind,
            port,
        } => format!("{msg}.{flit} {} {port}", kind.label()),
        WalEvent::Transition { msg, status } => format!("{msg} ⇒ {status:?}"),
        WalEvent::FreedPort { port } => format!("{port} freed"),
        WalEvent::EdgeAdd { msg, wants, on } => match on {
            Some(owner) => format!("edge + {msg} waits for {wants} (held by {owner})"),
            None => format!("edge + {msg} waits for {wants}"),
        },
        WalEvent::EdgeRemove { msg } => format!("edge - {msg} released"),
        WalEvent::Detection { step, msgs, .. } => {
            format!("DEADLOCK detected at step {step}: {}", describe_msgs(msgs))
        }
        WalEvent::Recovery { action, msgs } => match action {
            crate::wal::RecoveryAction::Abort => format!("recovery: abort {}", describe_msgs(msgs)),
            crate::wal::RecoveryAction::Reroute => {
                format!("recovery: reroute {}", describe_msgs(msgs))
            }
            crate::wal::RecoveryAction::Restart => "recovery: drain and restart".into(),
        },
        WalEvent::Snapshot { step, images } => format!(
            "snapshot at step {step}: {} in flight, {} arrived",
            images.inflight_len(),
            images.arrived_len()
        ),
        WalEvent::RunEnd { outcome, steps } => format!("run end: {outcome:?} after {steps} steps"),
    }
}

/// The post-mortem tail: the last `k` evidence lines (moves, transitions,
/// edges, freed ports, step markers) leading up to the first detector
/// firing — or to the end of the log when nothing fired — followed by the
/// detection/footer lines themselves.
///
/// One forward pass: the positions of the last `k` evidence records are
/// kept in a ring, and only they and the lines after the cut are read back
/// again and decoded. The ring is sized for at most the log's records, so
/// any `k` is fine.
///
/// # Errors
///
/// [`Error::WalChanged`], naming the byte offset, when a record no longer
/// reads back as it was verified.
pub fn tail_lines(events: &WalRecords, k: usize) -> Result<Vec<String>> {
    events.walk(WalRecords::FIRST, |frames| {
        let mut ring = VecDeque::with_capacity(k.min(events.len()));
        let mut verdicts = Vec::new();
        while let Some(f) = frames.read()? {
            let at = (f.offset, f.record);
            if !verdicts.is_empty() {
                if matches!(f.kind, KIND_DETECTION | KIND_RUN_END) {
                    verdicts.push(at);
                }
                continue;
            }
            let evidence = matches!(
                f.kind,
                KIND_STEP_BEGIN
                    | KIND_MOVE
                    | KIND_TRANSITION
                    | KIND_FREED_PORT
                    | KIND_EDGE_ADD
                    | KIND_EDGE_REMOVE
                    | KIND_RECOVERY
            );
            if evidence && k > 0 {
                if ring.len() == k {
                    ring.pop_front();
                }
                ring.push_back(at);
            }
            if f.kind == KIND_DETECTION {
                verdicts.push(at);
            }
        }
        (ring.into_iter().chain(verdicts))
            .map(|(at, record)| Ok(describe(&frames.read_at(at, record)?.decode()?)))
            .collect()
    })
}
