//! Feeding the WAL and metrics from a live run: [`Recorder`] implements the
//! runner's [`RunObserver`] (the passive sibling of `DetectorHook`), and
//! [`ObservedEngine`] wraps a `DetectionEngine` so detector firings and
//! recovery actions land in the same log.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use genoc_core::blocking::block_event;
use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::interpreter::Outcome;
use genoc_core::kernel::{Transition, TravelStatus};
use genoc_core::network::Network;
use genoc_core::trace::{Event, Zone};
use genoc_core::{MsgId, PortId};
use genoc_detect::engine::DetectionEngine;
use genoc_sim::runner::{DetectorHook, RunObserver};

use crate::wal::{RecoveryAction, WalEvent, WalMeta, WalWriter, WAL_VERSION};

/// A WAL writer shared between a [`Recorder`] and an [`ObservedEngine`], so
/// per-step evidence and detector firings interleave in one log.
pub type SharedWal = Rc<RefCell<WalWriter>>;

/// Wraps a [`WalWriter`] for sharing (see [`SharedWal`]).
pub fn shared(writer: WalWriter) -> SharedWal {
    Rc::new(RefCell::new(writer))
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Invariant(format!("WAL {what} failed: {e}"))
}

/// Tuning knobs for a [`Recorder`].
#[derive(Clone, Copy, Debug)]
pub struct RecorderOptions {
    /// Write a full state snapshot every this many steps (seek granularity
    /// for the replayer). Snapshots are also written after every recovery
    /// mutation, regardless of this cadence.
    pub snapshot_every: u64,
}

impl Default for RecorderOptions {
    fn default() -> Self {
        RecorderOptions {
            snapshot_every: 256,
        }
    }
}

/// Aggregate counters a [`Recorder`] accumulates; the per-scenario metrics
/// surface (campaign.json, Prometheus snapshot) is filled from this.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ObsSummary {
    /// Switching steps observed.
    pub steps: u64,
    /// Flit movements observed (0 when the WAL is disabled and no trace was
    /// recorded).
    pub moves: u64,
    /// Messages that arrived.
    pub arrived_msgs: u64,
    /// Flits delivered by the end of the run.
    pub delivered_flits: u64,
    /// Delivered flits per wall-clock second over the whole run.
    pub flits_per_sec: f64,
    /// Peak size of the blocked set (wait-for edges alive at once).
    pub blocked_peak: u64,
    /// Bytes appended to the WAL (0 when disabled).
    pub wal_bytes: u64,
    /// Records appended to the WAL (0 when disabled).
    pub wal_records: u64,
}

/// A [`RunObserver`] that tracks metrics on every run and, when constructed
/// with a [`SharedWal`], streams the kernel's full evidence log into it:
/// injections, per-step flit moves, status transitions, freed ports, and
/// derived wait-for edge add/remove records, with periodic state snapshots
/// for seekable replay.
pub struct Recorder {
    wal: Option<SharedWal>,
    options: RecorderOptions,
    seed: u64,
    meta: Option<WalMeta>,
    // Dense by message index: `on_step` touches this once per transition in
    // the hot loop, so it must be an array poke, not a hash probe.
    blocked: Vec<bool>,
    blocked_count: u64,
    blocked_peak: u64,
    steps: u64,
    moves: u64,
    arrived_msgs: u64,
    delivered_flits: u64,
    started: Instant,
    elapsed_secs: f64,
}

impl Recorder {
    /// A metrics-only recorder (no WAL, near-zero overhead).
    pub fn new(seed: u64) -> Recorder {
        Recorder::build(None, seed, None, RecorderOptions::default())
    }

    /// A recorder streaming into `wal`; `meta` (when known) is embedded in
    /// the `RunStart` record so `bin/replay` can rebuild the instance.
    pub fn with_wal(wal: SharedWal, seed: u64, meta: Option<WalMeta>) -> Recorder {
        Recorder::build(Some(wal), seed, meta, RecorderOptions::default())
    }

    /// Full-control constructor.
    pub fn build(
        wal: Option<SharedWal>,
        seed: u64,
        meta: Option<WalMeta>,
        options: RecorderOptions,
    ) -> Recorder {
        Recorder {
            wal,
            options,
            seed,
            meta,
            blocked: Vec::new(),
            blocked_count: 0,
            blocked_peak: 0,
            steps: 0,
            moves: 0,
            arrived_msgs: 0,
            delivered_flits: 0,
            started: Instant::now(),
            elapsed_secs: 0.0,
        }
    }

    fn append(&self, ev: &WalEvent) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.borrow_mut()
                .append(ev)
                .map_err(|e| io_err("append", e))?;
        }
        Ok(())
    }

    /// Marks `m` blocked; true if it was not blocked before.
    fn block(&mut self, m: MsgId) -> bool {
        let i = m.index();
        if self.blocked.len() <= i {
            self.blocked.resize(i + 1, false);
        }
        let fresh = !self.blocked[i];
        if fresh {
            self.blocked[i] = true;
            self.blocked_count += 1;
        }
        fresh
    }

    /// Clears `m`'s blocked mark; true if it was blocked.
    fn unblock(&mut self, m: MsgId) -> bool {
        let was = self.blocked.get(m.index()).copied().unwrap_or(false);
        if was {
            self.blocked[m.index()] = false;
            self.blocked_count -= 1;
        }
        was
    }

    fn snapshot(&self, cfg: &Config, step: u64) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.borrow_mut()
                .append_snapshot(step, cfg.travels(), cfg.arrived())
                .map_err(|e| io_err("append", e))?;
        }
        Ok(())
    }

    /// The counters accumulated so far (complete once the run ended).
    pub fn summary(&self) -> ObsSummary {
        let secs = if self.elapsed_secs > 0.0 {
            self.elapsed_secs
        } else {
            self.started.elapsed().as_secs_f64()
        };
        let (wal_bytes, wal_records) = match &self.wal {
            Some(wal) => {
                let w = wal.borrow();
                (w.bytes_written(), w.records_written())
            }
            None => (0, 0),
        };
        ObsSummary {
            steps: self.steps,
            moves: self.moves,
            arrived_msgs: self.arrived_msgs,
            delivered_flits: self.delivered_flits,
            flits_per_sec: if secs > 0.0 {
                self.delivered_flits as f64 / secs
            } else {
                0.0
            },
            blocked_peak: self.blocked_peak,
            wal_bytes,
            wal_records,
        }
    }
}

/// Appends `ev` to `w`. Inlined where the record is built, so that the
/// writer's dispatch on the kind folds away.
#[inline(always)]
fn put(w: &mut WalWriter, ev: &WalEvent) -> Result<()> {
    w.append(ev).map_err(|e| io_err("append", e))
}

/// Maps a trace movement event to its WAL record.
fn move_record(e: &Event) -> WalEvent {
    use genoc_core::moves::MoveKind;
    let (kind, port) = match (e.from, e.to) {
        (Zone::Source, Zone::Port(p)) => (MoveKind::Enter, p),
        (Zone::Port(p), Zone::Delivered) => (MoveKind::Eject, p),
        (_, Zone::Port(p)) => (MoveKind::Advance, p),
        // A flit never moves Source→Delivered or Delivered→anything; encode
        // defensively as an eject at a synthetic port rather than panicking
        // inside an observer.
        _ => (MoveKind::Eject, PortId::from_index(0)),
    };
    WalEvent::Move {
        msg: e.msg,
        flit: e.flit,
        kind,
        port,
    }
}

impl RunObserver for Recorder {
    fn wants_moves(&self) -> bool {
        self.wal.is_some()
    }

    fn on_run_start(&mut self, _net: &dyn Network, cfg: &Config) -> Result<()> {
        self.started = Instant::now();
        if self.wal.is_none() {
            return Ok(());
        }
        self.append(&WalEvent::RunStart {
            version: WAL_VERSION,
            seed: self.seed,
            meta: self.meta,
        })?;
        for t in cfg.travels() {
            self.append(&WalEvent::Inject {
                msg: t.id(),
                flits: t.flit_count() as u32,
                route: t.route().to_vec(),
            })?;
        }
        Ok(())
    }

    fn on_step(
        &mut self,
        cfg: &Config,
        step: u64,
        transitions: &[Transition],
        freed: &[PortId],
        moves: &[Event],
        arrived: &[MsgId],
    ) -> Result<()> {
        self.steps += 1;
        self.moves += moves.len() as u64;
        self.arrived_msgs += arrived.len() as u64;
        match self.wal.clone() {
            Some(wal) => {
                // One borrow for the whole step's record burst.
                let mut w = wal.borrow_mut();
                put(&mut w, &WalEvent::StepBegin { step })?;
                for e in moves {
                    put(&mut w, &move_record(e))?;
                }
                for t in transitions {
                    put(
                        &mut w,
                        &WalEvent::Transition {
                            msg: t.msg,
                            status: t.status,
                        },
                    )?;
                    match t.status {
                        TravelStatus::Blocked(wants) => {
                            if self.block(t.msg) {
                                let on = cfg.state().port(wants).owner();
                                put(
                                    &mut w,
                                    &WalEvent::EdgeAdd {
                                        msg: t.msg,
                                        wants,
                                        on,
                                    },
                                )?;
                            }
                        }
                        TravelStatus::Active | TravelStatus::Delivered => {
                            if self.unblock(t.msg) {
                                put(&mut w, &WalEvent::EdgeRemove { msg: t.msg })?;
                            }
                        }
                        TravelStatus::Pending => {}
                    }
                }
                for &p in freed {
                    put(&mut w, &WalEvent::FreedPort { port: p })?;
                }
                drop(w);
                let done = step + 1;
                if self.options.snapshot_every > 0
                    && done.is_multiple_of(self.options.snapshot_every)
                {
                    self.snapshot(cfg, done)?;
                }
            }
            None => {
                // Metrics-only: just keep the blocked census current.
                for t in transitions {
                    match t.status {
                        TravelStatus::Blocked(_) => {
                            self.block(t.msg);
                        }
                        TravelStatus::Active | TravelStatus::Delivered => {
                            self.unblock(t.msg);
                        }
                        TravelStatus::Pending => {}
                    }
                }
            }
        }
        self.blocked_peak = self.blocked_peak.max(self.blocked_count);
        Ok(())
    }

    fn on_mutation(&mut self, cfg: &Config, steps_done: u64) -> Result<()> {
        // A recovery mutation voids transition-derived state: re-derive the
        // blocked set from the configuration and mark the log with a
        // snapshot barrier (replay resumes from here).
        self.blocked.iter_mut().for_each(|b| *b = false);
        self.blocked_count = 0;
        for i in 0..cfg.travels().len() {
            if let Some(ev) = block_event(cfg, i) {
                self.block(ev.msg);
            }
        }
        self.blocked_peak = self.blocked_peak.max(self.blocked_count);
        self.snapshot(cfg, steps_done)
    }

    fn on_run_end(&mut self, outcome: Outcome, steps: u64, cfg: &Config) -> Result<()> {
        self.elapsed_secs = self.started.elapsed().as_secs_f64();
        self.arrived_msgs = cfg.arrived().len() as u64;
        self.delivered_flits = cfg.delivered_flits();
        self.append(&WalEvent::RunEnd { outcome, steps })?;
        if let Some(wal) = &self.wal {
            wal.borrow_mut().flush().map_err(|e| io_err("flush", e))?;
        }
        Ok(())
    }
}

/// A [`DetectorHook`] wrapping a [`DetectionEngine`] so that every detector
/// firing and recovery action is mirrored into the shared WAL, interleaved
/// with the [`Recorder`]'s per-step records at exactly the step they
/// happened.
pub struct ObservedEngine {
    engine: DetectionEngine,
    wal: Option<SharedWal>,
    detections_seen: usize,
    aborted_seen: usize,
    rerouted_seen: usize,
    restarts_seen: u64,
}

impl ObservedEngine {
    /// Wraps `engine`; `wal` is typically the same [`SharedWal`] the run's
    /// [`Recorder`] writes to.
    pub fn new(engine: DetectionEngine, wal: Option<SharedWal>) -> ObservedEngine {
        ObservedEngine {
            engine,
            wal,
            detections_seen: 0,
            aborted_seen: 0,
            rerouted_seen: 0,
            restarts_seen: 0,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &DetectionEngine {
        &self.engine
    }

    /// Unwraps the engine (e.g. to build a post-run summary).
    pub fn into_engine(self) -> DetectionEngine {
        self.engine
    }

    /// Step of the first detection, if any fired.
    pub fn first_detection_step(&self) -> Option<u64> {
        self.engine.detections().first().map(|d| d.step)
    }

    fn sync(&mut self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut wal = wal.borrow_mut();
        let mut append = |ev: &WalEvent| wal.append(ev).map_err(|e| io_err("append", e));
        for d in &self.engine.detections()[self.detections_seen..] {
            append(&WalEvent::Detection {
                step: d.step,
                msgs: d.cycle.msgs.clone(),
                ports: d.cycle.ports.clone(),
            })?;
        }
        self.detections_seen = self.engine.detections().len();
        let stats = self.engine.stats();
        if stats.aborted.len() > self.aborted_seen {
            append(&WalEvent::Recovery {
                action: RecoveryAction::Abort,
                msgs: stats.aborted[self.aborted_seen..].to_vec(),
            })?;
            self.aborted_seen = stats.aborted.len();
        }
        if stats.rerouted.len() > self.rerouted_seen {
            append(&WalEvent::Recovery {
                action: RecoveryAction::Reroute,
                msgs: stats.rerouted[self.rerouted_seen..].to_vec(),
            })?;
            self.rerouted_seen = stats.rerouted.len();
        }
        for _ in self.restarts_seen..stats.restarts {
            append(&WalEvent::Recovery {
                action: RecoveryAction::Restart,
                msgs: Vec::new(),
            })?;
        }
        self.restarts_seen = stats.restarts;
        Ok(())
    }
}

impl DetectorHook for ObservedEngine {
    fn after_kernel_step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        transitions: &[Transition],
        step: u64,
    ) -> Result<bool> {
        let mutated = self.engine.after_kernel_step(net, cfg, transitions, step)?;
        self.sync()?;
        Ok(mutated)
    }

    fn on_deadlock(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<bool> {
        let recovered = self.engine.on_deadlock(net, cfg, step)?;
        self.sync()?;
        Ok(recovered)
    }

    fn on_drained(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<bool> {
        let continued = self.engine.on_drained(net, cfg, step)?;
        self.sync()?;
        Ok(continued)
    }
}
