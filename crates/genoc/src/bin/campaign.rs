//! The campaign CLI: expand a scenario matrix, shard it across worker
//! threads, write `target/campaign.json`, and print a markdown summary.
//!
//! ```text
//! cargo run --release -p genoc --bin campaign -- [FLAGS]
//!
//!   --matrix <smoke|default|full|large|oracle>  preset to expand   [default: default]
//!   --jobs <N>                      worker threads, 0=auto  [default: 0]
//!   --seed <N>                      campaign seed           [default: 0]
//!   --filter <substring>            keep scenarios whose name contains this
//!   --out <path>                    JSON path  [default: target/campaign.json]
//!   --wal-dir <dir>                 record a per-scenario event WAL into this directory
//!   --metrics-out <path>            write a Prometheus text metrics snapshot
//!   --list                          print scenario names and exit
//! ```
//!
//! Exit status is non-zero when any scenario fails, so CI can gate on it,
//! and on an error, which is one line on stderr; `--help` or `-h` prints
//! the usage line on stdout and exits 0. Each `--matrix` preset also sets
//! the effort its cells run at (`genoc_campaign::preset`).

use std::path::PathBuf;
use std::process::ExitCode;

use genoc::prelude::*;

mod cli;

struct Args {
    matrix: String,
    jobs: usize,
    seed: u64,
    filter: Option<String>,
    out: PathBuf,
    wal_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    list: bool,
}

const USAGE: &str = "usage: campaign [--matrix smoke|default|full|large|oracle] [--jobs N] \
    [--seed N] [--filter SUBSTRING] [--out PATH] [--wal-dir DIR] [--metrics-out PATH] [--list]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        matrix: "default".into(),
        jobs: 0,
        seed: 0,
        filter: None,
        out: PathBuf::from("target/campaign.json"),
        wal_dir: None,
        metrics_out: None,
        list: false,
    };
    let mut argv = cli::Argv::new(USAGE);
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--matrix" => args.matrix = argv.value()?,
            "--jobs" => args.jobs = argv.parse()?,
            "--seed" => args.seed = argv.parse()?,
            "--filter" => args.filter = Some(argv.value()?),
            "--out" => args.out = argv.value()?.into(),
            "--wal-dir" => args.wal_dir = Some(argv.value()?.into()),
            "--metrics-out" => args.metrics_out = Some(argv.value()?.into()),
            "--list" => args.list = true,
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

/// Campaign-level aggregates plus per-scenario labeled samples, in the
/// Prometheus text exposition format.
fn metrics_snapshot(report: &CampaignReport) -> MetricsRegistry {
    use genoc::obs::MetricKind;

    let mut reg = MetricsRegistry::new();
    reg.declare(
        "genoc_campaign_scenarios_total",
        MetricKind::Gauge,
        "Scenarios executed by the campaign",
    );
    reg.declare(
        "genoc_campaign_failed_total",
        MetricKind::Gauge,
        "Scenarios with at least one failed check",
    );
    reg.declare(
        "genoc_campaign_deadlocks_seen_total",
        MetricKind::Gauge,
        "Live deadlocks observed across hunts, evacuation runs, and sweeps",
    );
    reg.declare(
        "genoc_campaign_wall_seconds",
        MetricKind::Gauge,
        "Wall-clock seconds for the whole campaign",
    );
    reg.set("genoc_campaign_scenarios_total", &[], report.total() as f64);
    reg.set("genoc_campaign_failed_total", &[], report.failed() as f64);
    reg.set(
        "genoc_campaign_deadlocks_seen_total",
        &[],
        report.deadlocks_seen() as f64,
    );
    reg.set("genoc_campaign_wall_seconds", &[], report.wall_ms / 1e3);

    reg.declare(
        "genoc_scenario_steps",
        MetricKind::Gauge,
        "Switching steps of the scenario's Theorem 2 run",
    );
    reg.declare(
        "genoc_scenario_flits_per_sec",
        MetricKind::Gauge,
        "Delivered flits per wall-clock second of the Theorem 2 run",
    );
    reg.declare(
        "genoc_scenario_blocked_peak",
        MetricKind::Gauge,
        "Peak number of simultaneously blocked travels",
    );
    reg.declare(
        "genoc_scenario_detector_first_step",
        MetricKind::Gauge,
        "Step of the first exact-detector firing (absent when none)",
    );
    reg.declare(
        "genoc_scenario_detection_latency_steps",
        MetricKind::Gauge,
        "Heuristic-vs-exact detection latency in steps",
    );
    reg.declare(
        "genoc_scenario_wal_bytes",
        MetricKind::Gauge,
        "Bytes written to the scenario's event WAL",
    );
    reg.declare(
        "genoc_scenario_wal_records",
        MetricKind::Gauge,
        "Records written to the scenario's event WAL",
    );
    for o in &report.outcomes {
        let (Some(t), Some(m)) = (&o.throughput, &o.metrics) else {
            continue;
        };
        let labels = [("scenario", o.name.as_str())];
        reg.set("genoc_scenario_steps", &labels, t.steps as f64);
        reg.set("genoc_scenario_flits_per_sec", &labels, t.flits_per_sec);
        reg.set(
            "genoc_scenario_blocked_peak",
            &labels,
            m.blocked_peak as f64,
        );
        if let Some(step) = m.detector_first_step {
            reg.set("genoc_scenario_detector_first_step", &labels, step as f64);
        }
        if let Some(lat) = m.detection_latency {
            reg.set(
                "genoc_scenario_detection_latency_steps",
                &labels,
                lat as f64,
            );
        }
        reg.set("genoc_scenario_wal_bytes", &labels, m.wal_bytes as f64);
        reg.set("genoc_scenario_wal_records", &labels, m.wal_records as f64);
    }
    reg
}

fn main() -> ExitCode {
    cli::main(run, ExitCode::FAILURE)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let (matrix, effort) = genoc::campaign::preset(&args.matrix).ok_or_else(|| {
        format!(
            "unknown matrix {:?}: expected smoke, default, full, large, or oracle",
            args.matrix
        )
    })?;
    let expansion = matrix.expand_with_stats();
    let mut scenarios = expansion.scenarios;
    if let Some(filter) = &args.filter {
        scenarios.retain(|s| s.name().contains(filter.as_str()));
    }
    eprintln!(
        "matrix {:?}: {} scenarios ({} candidates, {} invalid dropped{})",
        args.matrix,
        scenarios.len(),
        expansion.candidates,
        expansion.invalid,
        match &args.filter {
            Some(f) => format!(", filter {f:?}"),
            None => String::new(),
        }
    );
    if args.list {
        for s in &scenarios {
            println!("{}", s.name());
        }
        return Ok(ExitCode::SUCCESS);
    }
    if scenarios.is_empty() {
        return Err("nothing to run".into());
    }

    let options = CampaignOptions {
        jobs: args.jobs,
        seed: args.seed,
        effort,
        matrix: args.matrix.clone(),
        wal_dir: args.wal_dir.clone(),
    };
    eprintln!("running on {} worker thread(s)…", options.effective_jobs());
    let report = run_campaign(&scenarios, &options);

    report
        .write_json(&args.out)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    if let Some(path) = &args.metrics_out {
        metrics_snapshot(&report)
            .write(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("metrics snapshot: {}", path.display());
    }
    if let Some(dir) = &args.wal_dir {
        println!("per-scenario WALs: {}", dir.display());
    }
    println!("{}", report.render_markdown());
    println!("JSON report: {}", args.out.display());
    if !report.all_passed() {
        return Err(format!("{} scenario(s) failed", report.failed()));
    }
    Ok(ExitCode::SUCCESS)
}
