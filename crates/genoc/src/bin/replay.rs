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
//! replay failure, or an `--expect` mismatch, so CI can gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

use genoc::obs::MetricKind;
use genoc::prelude::*;
use genoc::verif::Instance;

struct Args {
    wal: PathBuf,
    to_step: Option<u64>,
    last: usize,
    metrics: bool,
    expect: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut wal = None;
    let mut args = Args {
        wal: PathBuf::new(),
        to_step: None,
        last: 12,
        metrics: false,
        expect: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--wal" => wal = Some(PathBuf::from(value("--wal")?)),
            "--to-step" => {
                args.to_step = Some(
                    value("--to-step")?
                        .parse()
                        .map_err(|e| format!("--to-step: {e}"))?,
                );
            }
            "--last" => {
                args.last = value("--last")?
                    .parse()
                    .map_err(|e| format!("--last: {e}"))?;
            }
            "--metrics" => args.metrics = true,
            "--expect" => args.expect = Some(value("--expect")?),
            "--help" | "-h" => {
                return Err(
                    "usage: replay --wal FILE [--to-step N] [--last K] [--metrics] \
                            [--expect evacuated|deadlock|steplimit|recorded]"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
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
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let log = match genoc::obs::read_wal(&args.wal) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.wal.display());
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    if let Some(damage) = &log.damage {
        eprintln!("warning: WAL damaged — {damage}");
        eprintln!(
            "         replaying the intact prefix ({} records)",
            log.events.len()
        );
        ok = false;
    }
    let Some((seed, meta)) = genoc::obs::run_start(&log.events) else {
        eprintln!("{}: no RunStart record", args.wal.display());
        return ExitCode::FAILURE;
    };
    let Some(meta) = meta else {
        eprintln!(
            "{}: RunStart carries no instance metadata; cannot rebuild the network",
            args.wal.display()
        );
        return ExitCode::FAILURE;
    };
    let instance = match Instance::from_meta(&meta.meta) {
        Ok(instance) => instance,
        Err(e) => {
            eprintln!("cannot rebuild instance {}: {e}", meta.meta.instance_name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "run: {} + {:?}, seed {seed}",
        meta.meta.instance_name(),
        meta.switching
    );

    let recorded = genoc::obs::recorded_outcome(&log.events);
    let total = genoc::obs::final_steps(&log.events);
    let target = args.to_step.unwrap_or(total).min(total);
    let replayed = match genoc::obs::replay_to(instance.net.as_ref(), &log.events, target) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("replay to step {target} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
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
        let lines = match genoc::obs::tail_lines(&log.events, args.last) {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("cannot read the last {} events: {e}", args.last);
                return ExitCode::FAILURE;
            }
        };
        println!("\nlast {} events before the verdict:", args.last);
        for line in lines {
            println!("  {line}");
        }
    }
    if args.metrics {
        match log_metrics(&log, &replayed, target) {
            Ok(metrics) => println!("\n{metrics}"),
            Err(e) => {
                eprintln!("cannot count the log's detections: {e}");
                return ExitCode::FAILURE;
            }
        }
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
                eprintln!(
                    "--expect {other:?}: expected evacuated, deadlock, steplimit, or recorded"
                );
                return ExitCode::FAILURE;
            }
        };
        if verdict {
            println!("expectation {expect:?} holds");
        } else {
            eprintln!("expectation {expect:?} VIOLATED");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
