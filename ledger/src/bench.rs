//! One workload, one process: set-up, timed reps, output checks, and the
//! result object the driver reads from the last line of standard output.

use std::time::Instant;

use genoc_campaign::json::Json;

use crate::check::{self, Checked};
use crate::probes;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Stats;
use crate::sys::{self, TempDir};
use crate::workloads::{self, Output, Prepared, Rep, WorkloadId};
use crate::yardstick::{self, Yardstick};

/// Times the set-up (instance + workload generation + one warm-up rep) is
/// repeated in a run, each time on an input of its own; `setup_s` is the
/// median.
const SETUPS: usize = 5;

/// Timed reps a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Failure lines a result carries in full; `failed_ops` counts them all.
pub const SHOWN_FAILURES: usize = 20;

/// One metric of a finished run.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Central value and spread over the run's samples.
    pub stats: Stats,
    /// Whether the workload measures this itself (`false`: the value repeats
    /// the workload's always-defined metric of the same unit, because the
    /// contract wants every metric on every workload).
    pub native: bool,
}

/// What one run of one workload produced.
pub struct RunResult {
    /// The workload.
    pub id: WorkloadId,
    /// The seed its inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Reps, probes and output comparisons attempted.
    pub ops: u64,
    /// One line per operation that failed.
    pub failures: Vec<String>,
    /// The metrics: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// What the timings were scaled by and from, as measured: the
    /// yardstick's passes and the reps' wall time before scaling, in seconds
    /// of this machine. Reported beside the metrics, never compared.
    pub machine: Vec<(&'static str, Stats)>,
    /// The first rep's outputs (of the traced run: the probe's).
    pub outputs: Vec<(&'static str, Output)>,
}

impl RunResult {
    fn new(id: WorkloadId, seed: u64, traced: bool) -> RunResult {
        RunResult {
            id,
            seed,
            traced,
            ops: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            machine: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn absorb(&mut self, checked: Checked) {
        self.ops += checked.ops;
        self.failures.extend(checked.failures);
    }

    /// The object the driver parses: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::U64(self.ops.max(1))),
            ("failed", Json::U64(self.failures.len() as u64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let value = Json::obj([
                                ("value", Json::F64(m.stats.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.to_string(), value)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Everything `ledger run`, `ledger trace` and `ledger diff` want beyond
    /// the contract: spreads, outputs, failure lines, and only the metrics
    /// the workload measures itself.
    pub fn detail_json(&self) -> Json {
        let spread = |unit: &str, s: &Stats| {
            Json::obj([
                ("unit", Json::str(unit)),
                ("median", Json::F64(s.value)),
                ("q1", Json::F64(s.q1)),
                ("q3", Json::F64(s.q3)),
                ("min", Json::F64(s.min)),
                ("max", Json::F64(s.max)),
                ("n", Json::U64(s.n as u64)),
            ])
        };
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.native)
            .map(|m| (m.name.to_string(), spread(m.unit, &m.stats)));
        let machine = self
            .machine
            .iter()
            .map(|(name, stats)| (name.to_string(), spread("s", stats)));
        let outputs = self.outputs.iter().map(|(name, output)| {
            let value = match output {
                Output::Count(c) => Json::U64(*c),
                Output::Label(l) => Json::str(*l),
            };
            (name.to_string(), value)
        });
        Json::obj([
            ("workload", Json::str(self.id.name())),
            ("seed", Json::U64(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("ops", Json::U64(self.ops)),
            ("failed_ops", Json::U64(self.failures.len() as u64)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .take(SHOWN_FAILURES)
                        .map(Json::str)
                        .collect(),
                ),
            ),
            ("metrics", Json::Obj(metrics.collect())),
            ("machine", Json::Obj(machine.collect())),
            ("outputs", Json::Obj(outputs.collect())),
        ])
    }
}

fn single(value: f64) -> Stats {
    Stats {
        value,
        q1: value,
        q3: value,
        min: value,
        max: value,
        n: 1,
    }
}

/// A rep with the machine's speed while it ran.
struct Timed {
    rep: Rep,
    /// Which of the run's inputs it ran on.
    input: usize,
    /// [`yardstick::speed`] from the passes on either side of the rep.
    speed: f64,
    /// Peak resident bytes over the rep, the yardstick's own taken off.
    peak_rss: f64,
}

/// The untraced run: reps, each followed by a pass of the yardstick, until
/// both together have taken `seconds`, with `SETUPS` set-ups spaced evenly
/// among them.
fn measure(id: WorkloadId, seed: u64, seconds: f64, tmp: &TempDir) -> Result<RunResult, String> {
    let pinned = check::pinned()?;
    let mut result = RunResult::new(id, seed, false);

    // Set-ups are spread over the measuring window rather than stacked in
    // front of it, so that `setup_s` sees the same stretch of machine
    // weather as the reps do. Their time does not count towards `seconds`.
    // Each generates its own input from the seed (`workloads::input_seed`),
    // so a run measures `SETUPS` inputs, not one: how many deadlocks a batch
    // of random traffic runs into moves `sim-recover-wal`'s WAL, and with it
    // every time of a rep, by 8% from seed to seed.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setups_made = 0;
    let mut input_seed = seed;
    let mut prepared: Option<Prepared> = None;
    let mut reps: Vec<Timed> = Vec::new();
    let mut passes = Vec::new();
    let mut yardstick = Yardstick::new(id.threads());
    // The newest pass: the one before whatever is timed next.
    let mut pass_s = yardstick.pass_s();
    let mut measured_s = 0.0;
    while reps.len() < MIN_REPS || measured_s < seconds {
        if result.failures.len() > 100 {
            break;
        }
        let due = (measured_s / seconds * SETUPS as f64) as usize;
        let current = match prepared.take() {
            Some(current) if setups_made > due || setups_made == SETUPS => current,
            stale => {
                drop(stale); // one instance resident at a time, as for a user
                let start = Instant::now();
                input_seed = workloads::input_seed(seed, setups_made);
                let fresh = workloads::prepare(id, input_seed, tmp.path());
                result.ops += 1;
                setups_made += 1;
                let warm_up = workloads::rep(&fresh, input_seed);
                let setup_s = start.elapsed().as_secs_f64();
                let before_s = std::mem::replace(&mut pass_s, yardstick.pass_s());
                match warm_up {
                    Ok(_) => setups.push(setup_s * yardstick::speed(before_s, pass_s)),
                    Err(e) => result
                        .failures
                        .push(format!("{}: warm-up rep: {e}", id.name())),
                }
                fresh
            }
        };
        let start = Instant::now();
        result.ops += 1;
        // Peak resident size per rep — read-back and replay included — with
        // the kernel's watermark restarted before each.
        sys::reset_peak_rss();
        let rep = workloads::rep(&current, input_seed);
        let peak_rss = sys::peak_rss_bytes().saturating_sub(yardstick.resident_bytes());
        let before_s = std::mem::replace(&mut pass_s, yardstick.pass_s());
        passes.push(pass_s);
        match rep {
            Ok(rep) => {
                result.absorb(check::check(id, input_seed, &rep.outputs, &pinned));
                reps.push(Timed {
                    rep,
                    input: setups_made - 1,
                    speed: yardstick::speed(before_s, pass_s),
                    peak_rss: peak_rss as f64,
                });
            }
            // A failed rep contributes no timing.
            Err(e) => result.failures.push(format!("{}: rep: {e}", id.name())),
        }
        measured_s += start.elapsed().as_secs_f64();
        prepared = Some(current);
    }
    let prepared = prepared.ok_or("no set-up was made")?;

    // Every timing is in reference seconds: what was measured, times the
    // machine's speed while it was measured. A metric's value is the median
    // over the run's inputs of its central value on each input — for a
    // count, the middle one of `SETUPS` constants, however the reps fell —
    // and its spread is that of all reps.
    let column = |central: fn(&[f64]) -> Option<Stats>, f: &dyn Fn(&Timed) -> Option<f64>| {
        let of = |input: Option<usize>| -> Vec<f64> {
            let reps = reps.iter().filter(|t| input.is_none_or(|i| i == t.input));
            reps.filter_map(f).collect()
        };
        let per_input: Vec<f64> = (0..setups_made)
            .filter_map(|input| Some(central(&of(Some(input)))?.value))
            .collect();
        let mut stats = Stats::of(&of(None))?;
        stats.value = Stats::of(&per_input)?.value;
        Some(stats)
    };
    let wall_s = |t: &Timed| t.rep.cost.wall_s * t.speed;
    let native: Vec<(&'static str, Stats)> = [
        ("setup_s", Stats::of(&setups)),
        ("wall_s", column(Stats::of, &|t| Some(wall_s(t)))),
        (
            "cpu_s",
            column(Stats::around_mean, &|t| Some(t.rep.cost.cpu_s * t.speed)),
        ),
        (
            id.throughput_metric(),
            column(Stats::of, &|t| Some(t.rep.work as f64 / wall_s(t))),
        ),
        (
            "wal_replay_s",
            column(Stats::of, &|t| Some(t.rep.wal_replay_s? * t.speed)),
        ),
        // The mean over all reps: the heap a two-thread workload holds on
        // to steps up by a fifth at some rep of a run, and a median lands on
        // one side of the step or the other from run to run.
        (
            "peak_rss_bytes",
            Stats::around_mean(&reps.iter().map(|t| t.peak_rss).collect::<Vec<_>>()),
        ),
        (
            "explore_peak_bytes",
            column(Stats::of, &|t| t.rep.explore_peak_bytes.map(|b| b as f64)),
        ),
        (
            "io_bytes",
            column(Stats::of, &|t| t.rep.io_bytes.map(|b| b as f64)),
        ),
    ]
    .into_iter()
    .filter_map(|(name, stats)| Some((name, stats?)))
    .collect();
    let own = |name: &str| {
        native
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.clone())
    };
    for (name, unit) in END_TO_END {
        // The contract wants every metric on every workload, and never 0.
        // A time or a rate this workload has no use for repeats the
        // workload's own `wall_s` or throughput; a byte count repeats the
        // size of the generated inputs, which no change to the program can
        // move.
        let (stats, is_native) = match (own(name), unit) {
            (Some(stats), _) => (Some(stats), true),
            (None, "s") => (own("wall_s"), false),
            (None, "bytes") => (Some(single(prepared.input_bytes() as f64)), false),
            (None, _) => (own(id.throughput_metric()), false),
        };
        if let Some(stats) = stats {
            result.metrics.push(Metric {
                name,
                unit,
                stats,
                native: is_native,
            });
        }
    }
    result.machine = [
        ("yardstick_pass_s", Stats::of(&passes)),
        (
            "raw_wall_s",
            column(Stats::of, &|t| Some(t.rep.cost.wall_s)),
        ),
    ]
    .into_iter()
    .filter_map(|(name, stats)| Some((name, stats?)))
    .collect();
    // The first input's outputs: at seed 23 the ones `pinned.json` records.
    if !reps.is_empty() {
        result.outputs = reps.swap_remove(0).rep.outputs;
    }
    Ok(result)
}

/// The traced run: the probe once, its outputs checked like a rep's.
fn trace(id: WorkloadId, seed: u64, tmp: &TempDir) -> Result<RunResult, String> {
    let pinned = check::pinned()?;
    let mut result = RunResult::new(id, seed, true);
    result.ops = 1;
    let values = match probes::run(id, seed, tmp.path()) {
        Ok(probed) => {
            result.absorb(check::check(id, seed, &probed.outputs, &pinned));
            result.outputs = probed.outputs;
            let spans = sys::scratch_root().join(format!("ledger-trace-{}.json", id.name()));
            if let Err(e) = std::fs::write(&spans, probed.tracer.to_json().render()) {
                result
                    .failures
                    .push(format!("writing {}: {e}", spans.display()));
            }
            probed.values
        }
        Err(e) => {
            result.failures.push(format!("{}: probe: {e}", id.name()));
            probes::Values::new()
        }
    };
    for (name, unit) in PER_LAYER {
        result.metrics.push(Metric {
            name,
            unit,
            stats: single(values.get(name).copied().unwrap_or(0.0)),
            native: true,
        });
    }
    Ok(result)
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Only what keeps the run from starting — a scratch directory that cannot
/// be made, a `pinned.json` that does not parse. Engine errors and output
/// mismatches are failed operations in the result.
pub fn run(id: WorkloadId, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let tmp = TempDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    if traced {
        trace(id, seed, &tmp)
    } else {
        measure(id, seed, seconds, &tmp)
    }
}
