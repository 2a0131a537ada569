//! `ledger` — the repository's benchmark.
//!
//! ```text
//! ledger bench --workload W --seed N --seconds S --trace 0|1
//! ledger run   [--seed N] [--workload W] [--out FILE]
//! ledger trace [--seed N] [--workload W] [--out FILE]
//! ledger diff  A.json B.json
//! ledger list
//! ```
//!
//! `bench` is what `BENCHMARK.json`'s command runs: one workload in this
//! process, the result object on the last line of standard output. `run` and
//! `trace` start one `bench` child per workload — so that each workload's
//! peak memory is its own — at the run length `BENCHMARK.json` fixes, print
//! every metric by name with its unit, and exit non-zero if any operation
//! failed. See `README.md` beside `Cargo.toml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod check;
mod diff;
mod jsonio;
mod probes;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;
mod yardstick;

use std::process::{Command, ExitCode, Stdio};

use genoc_campaign::json::Json;

use crate::jsonio::{as_f64, as_str, fields, get, items, parse};
use crate::spec::{layer_of, Spec, END_TO_END, PER_LAYER};
use crate::workloads::{WorkloadId, DEFAULT_SEED};

const USAGE: &str = "usage: ledger bench --workload W --seed N --seconds S --trace 0|1
       ledger run   [--seed N] [--workload W] [--out FILE]
       ledger trace [--seed N] [--workload W] [--out FILE]
       ledger diff  A.json B.json
       ledger list";

/// The line of a `bench` child's output that carries spreads and outputs.
const DETAIL_PREFIX: &str = "detail ";

#[derive(Default)]
struct Flags {
    workload: Option<WorkloadId>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = || format!("`{flag} {value}` is not valid");
        match flag.as_str() {
            "--workload" => flags.workload = Some(WorkloadId::from_name(value).ok_or_else(bad)?),
            "--seed" => flags.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => flags.out = Some(value.clone()),
        }
    }
    Ok(flags)
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let (Some(id), Some(seed), Some(seconds), Some(traced)) =
        (flags.workload, flags.seed, flags.seconds, flags.trace)
    else {
        return Err("bench needs --workload, --seed, --seconds and --trace".into());
    };
    let result = bench::run(id, seed, seconds, traced)?;
    for failure in result.failures.iter().take(bench::SHOWN_FAILURES) {
        eprintln!("FAILED {failure}");
    }
    println!("{DETAIL_PREFIX}{}", result.detail_json().render());
    println!("{}", result.contract_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Runs `bench` for one workload in a child process and returns its detail
/// object.
fn child_detail(id: WorkloadId, seed: u64, seconds: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["bench", "--workload", id.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} child: {e}", id.name()))?;
    if !output.status.success() {
        return Err(format!(
            "the {} child ended with {}",
            id.name(),
            output.status
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or(format!("the {} child printed no detail line", id.name()))
        .and_then(parse)
}

fn print_workload(detail: &Json) {
    let text = |k| get(detail, k).and_then(as_str).unwrap_or("?");
    let number = |k| get(detail, k).and_then(as_f64).unwrap_or(0.0);
    println!(
        "\n## {}  (ops {}, failed_ops {})",
        text("workload"),
        number("ops"),
        number("failed_ops")
    );
    println!(
        "{:<30} {:>10} {:>16} {:>16} {:>16} {:>16} {:>16} {:>4}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    // The metrics, then what this machine measured before scaling.
    let metrics = get(detail, "metrics").map_or(&[][..], fields);
    let machine = get(detail, "machine").map_or(&[][..], fields);
    for (name, m) in metrics.iter().chain(machine) {
        let f = |k| get(m, k).and_then(as_f64).unwrap_or(f64::NAN);
        println!(
            "{:<30} {:>10} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>4}",
            name,
            get(m, "unit").and_then(as_str).unwrap_or("?"),
            f("median"),
            f("q1"),
            f("q3"),
            f("min"),
            f("max"),
            f("n")
        );
    }
    for failure in get(detail, "failures").map_or(&[][..], items) {
        println!("FAILED {}", as_str(failure).unwrap_or("?"));
    }
}

fn cmd_all(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--workload", "--seed", "--out"])?;
    let spec = Spec::load()?;
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let mut details = Vec::new();
    let mut failed = 0.0;
    for id in WorkloadId::ALL {
        if flags.workload.is_some_and(|only| only != id) {
            continue;
        }
        let detail = child_detail(id, seed, spec.run_seconds, traced)?;
        print_workload(&detail);
        failed += get(&detail, "failed_ops").and_then(as_f64).unwrap_or(1.0);
        details.push(detail);
    }
    if let Some(path) = flags.out {
        let file = Json::obj([
            ("benchmark", Json::str("genoc-ledger")),
            ("kind", Json::str(if traced { "trace" } else { "run" })),
            ("seed", Json::U64(seed)),
            ("run_seconds", Json::U64(spec.run_seconds)),
            ("nproc", Json::U64(sys::nproc() as u64)),
            ("workloads", Json::Arr(details)),
        ]);
        std::fs::write(&path, file.render() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("\nfailed_ops over all workloads: {failed}");
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("diff needs two result files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| parse(&text))
    };
    let rows = diff::diff(&read(a)?, &read(b)?, &Spec::load()?);
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    let (table, code) = diff::render(&rows);
    print!("{table}");
    Ok(ExitCode::from(code as u8))
}

fn cmd_list() {
    println!("{:<30} {:<10} layer", "metric", "unit");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        println!("{name:<30} {unit:<10} {}", layer_of(name));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "bench" => cmd_bench(rest),
            "run" => cmd_all(rest, false),
            "trace" => cmd_all(rest, true),
            "diff" => cmd_diff(rest),
            "list" if rest.is_empty() => {
                cmd_list();
                Ok(ExitCode::SUCCESS)
            }
            _ => Err(format!("unknown command `{cmd}`")),
        },
        None => Err("no command".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}\n{USAGE}");
        ExitCode::from(3)
    })
}
