//! The replay CLI: reconstruct any step of a recorded run from its event
//! WAL and print a deadlock post-mortem — the last K events before the
//! cycle closed — without re-running anything.
//!
//! ```text
//! cargo run --release -p genoc --bin replay -- --wal <FILE> [FLAGS]
//!
//!   --wal <file>       the event WAL to replay (required)
//!   --to-step <N>      reconstruct the state after N steps [default: the whole run]
//!   --last <K>         print the last K evidence events     [default: 12, 0 hides]
//!   --metrics          print a Prometheus-format summary of the log
//!   --expect <what>    evacuated|deadlock|steplimit|recorded — verify and gate
//! ```
//!
//! `--expect deadlock` additionally requires the replayed final state to
//! contain a wait-for cycle (the detector's evidence, re-derived from the
//! reconstructed configuration alone). Exit status is non-zero on damage,
//! replay failure, an `--expect` mismatch or a usage error, so CI can gate
//! on it; every error is one line on stderr. `--help` or `-h` prints the
//! usage line on stdout and exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

use genoc::obs::MetricKind;
use genoc::prelude::*;
use genoc::verif::Instance;

mod cli;

struct Args {
    wal: PathBuf,
    to_step: Option<u64>,
    last: usize,
    metrics: bool,
    expect: Option<String>,
}

const USAGE: &str = "usage: replay --wal FILE [--to-step N] [--last K] [--metrics] \
    [--expect evacuated|deadlock|steplimit|recorded]";

fn parse_args() -> Result<Args, String> {
    let mut wal = None;
    let mut args = Args {
        wal: PathBuf::new(),
        to_step: None,
        last: 12,
        metrics: false,
        expect: None,
    };
    let mut argv = cli::Argv::new(USAGE);
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--wal" => wal = Some(argv.value()?.into()),
            "--to-step" => args.to_step = Some(argv.parse()?),
            "--last" => args.last = argv.parse()?,
            "--metrics" => args.metrics = true,
            "--expect" => args.expect = Some(argv.value()?),
            _ => return Err(argv.unknown()),
        }
    }
    args.wal = wal.ok_or("--wal is required (try --help)")?;
    Ok(args)
}

fn log_metrics(
    log: &WalLog,
    replayed: &Config,
    steps: u64,
) -> Result<String, genoc::core::error::Error> {
    let mut reg = MetricsRegistry::new();
    reg.declare(
        "genoc_replay_records_total",
        MetricKind::Gauge,
        "Records decoded from the WAL",
    );
    reg.declare(
        "genoc_replay_steps",
        MetricKind::Gauge,
        "Steps the reconstruction covers",
    );
    reg.declare(
        "genoc_replay_detections_total",
        MetricKind::Gauge,
        "Detector firings recorded in the log",
    );
    reg.declare(
        "genoc_replay_inflight",
        MetricKind::Gauge,
        "Travels still in flight at the reconstructed step",
    );
    reg.declare(
        "genoc_replay_arrived",
        MetricKind::Gauge,
        "Messages fully arrived at the reconstructed step",
    );
    reg.declare(
        "genoc_replay_delivered_flits",
        MetricKind::Gauge,
        "Flits delivered at the reconstructed step",
    );
    let detections = genoc::obs::detections(&log.events).try_fold(0, |n, d| d.map(|_| n + 1))?;
    reg.set("genoc_replay_records_total", &[], log.events.len() as f64);
    reg.set("genoc_replay_steps", &[], steps as f64);
    reg.set("genoc_replay_detections_total", &[], detections as f64);
    reg.set(
        "genoc_replay_inflight",
        &[],
        replayed.travels().len() as f64,
    );
    reg.set("genoc_replay_arrived", &[], replayed.arrived().len() as f64);
    reg.set(
        "genoc_replay_delivered_flits",
        &[],
        replayed.delivered_flits() as f64,
    );
    Ok(reg.render())
}

fn main() -> ExitCode {
    cli::main(run, ExitCode::FAILURE)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let log = genoc::obs::read_wal(&args.wal)
        .map_err(|e| format!("cannot read {}: {e}", args.wal.display()))?;
    if let Some(damage) = &log.damage {
        eprintln!("warning: WAL damaged — {damage}");
        eprintln!(
            "         replaying the intact prefix ({} records)",
            log.events.len()
        );
    }
    let (seed, meta) = genoc::obs::run_start(&log.events)
        .ok_or_else(|| format!("{}: no RunStart record", args.wal.display()))?;
    let meta = meta.ok_or_else(|| {
        format!(
            "{}: RunStart carries no instance metadata; cannot rebuild the network",
            args.wal.display()
        )
    })?;
    let instance = Instance::from_meta(&meta.meta)
        .map_err(|e| format!("cannot rebuild instance {}: {e}", meta.meta.instance_name()))?;
    println!(
        "run: {} + {:?}, seed {seed}",
        meta.meta.instance_name(),
        meta.switching
    );

    let recorded = genoc::obs::recorded_outcome(&log.events);
    let total = genoc::obs::final_steps(&log.events);
    let target = args.to_step.unwrap_or(total).min(total);
    let replayed = genoc::obs::replay_to(instance.net.as_ref(), &log.events, target)
        .map_err(|e| format!("replay to step {target} failed: {e}"))?;
    match recorded {
        Some((outcome, steps)) => println!("recorded: {outcome:?} after {steps} steps"),
        None => println!("recorded: no footer (run did not end cleanly)"),
    }
    println!(
        "replayed to step {target}/{total}: {} in flight, {} arrived, {} flits delivered",
        replayed.travels().len(),
        replayed.arrived().len(),
        replayed.delivered_flits()
    );
    let cycle = find_wait_cycle(&replayed);
    if let Some(c) = &cycle {
        println!(
            "wait-for cycle in the replayed state: {}",
            c.msgs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" → ")
        );
    }

    if args.last > 0 {
        let lines = genoc::obs::tail_lines(&log.events, args.last)
            .map_err(|e| format!("cannot read the last {} events: {e}", args.last))?;
        println!("\nlast {} events before the verdict:", args.last);
        for line in lines {
            println!("  {line}");
        }
    }
    if args.metrics {
        let metrics = log_metrics(&log, &replayed, target)
            .map_err(|e| format!("cannot count the log's detections: {e}"))?;
        println!("\n{metrics}");
    }

    if let Some(expect) = &args.expect {
        let verdict = match expect.as_str() {
            "recorded" => recorded.is_some(),
            "evacuated" => matches!(recorded, Some((Outcome::Evacuated, _))),
            "steplimit" => matches!(recorded, Some((Outcome::StepLimit, _))),
            // A deadlock claim must be re-derivable from the reconstructed
            // state itself, not just the footer.
            "deadlock" => matches!(recorded, Some((Outcome::Deadlock, _))) && cycle.is_some(),
            other => {
                return Err(format!(
                    "--expect {other:?}: expected evacuated, deadlock, steplimit, or recorded"
                ))
            }
        };
        if !verdict {
            return Err(format!("expectation {expect:?} VIOLATED"));
        }
        println!("expectation {expect:?} holds");
    }
    // A damaged log replays its intact prefix, but never passes.
    Ok(if log.damage.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
