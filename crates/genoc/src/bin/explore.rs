//! The explorer CLI: exhaustively enumerate the reachable configurations of
//! a pressure workload on one instance, print the verdict (and the minimal
//! counterexample trace, if a deadlock is reachable), and optionally export
//! the state graph.
//!
//! ```text
//! cargo run --release -p genoc --bin explore -- [FLAGS]
//!
//!   --routing <label>        routing kind, e.g. xy, shortest, dor  [default: xy]
//!   --width <N>              mesh/torus width; ring/spidergon size [default: 2]
//!   --height <N>             mesh/torus height (1-D topologies: 1) [default: 2]
//!   --capacity <N>           per-port buffer capacity              [default: 1]
//!   --switching <label>      wormhole|vct|store-forward     [default: wormhole]
//!   --flits <N>              flits per message                     [default: 2]
//!   --messages <N>           keep only the first N pressure messages, 0 = all
//!   --bound <N>              state bound                      [default: 100000]
//!   --symmetry <on|off>      node-automorphism reduction          [default: on]
//!   --por <on|off>           partial-order reduction             [default: off]
//!   --jobs <N>               frontier worker threads, at most 64   [default: 1]
//!   --mem-limit <BYTES>      stop past this state-storage size (k/m/g suffix)
//!   --spill-dir <path>       with --mem-limit: spill cold state to disk here
//!                            instead of stopping
//!   --aut <path>             write the state graph in Aldebaran (.aut) format
//!   --dot <path>             write the state graph as Graphviz DOT
//! ```
//!
//! Exit status distinguishes the outcomes so scripts can gate precisely:
//! `0` is an exhaustive deadlock-freedom proof, `1` a reachable deadlock
//! (with its minimal trace printed), `2` a bound or memory-limit stop —
//! explicitly *not* a proof, and the INCONCLUSIVE line on stderr says
//! which of the two limits stopped the search and how far it had got
//! (`the search stopped at N states, depth D, after T transitions`) — and
//! `3` a usage or harness error, one line on stderr (`--jobs` past 64 is
//! one, refused at once). `--help` or `-h` prints the usage line on stdout
//! and exits 0. The summary line reports throughput (states/second) and
//! the peak resident frontier bytes; a spilling run also reports how many
//! bytes went to disk.
//!
//! The sequential search (one job, or an export) checks `--bound` after
//! each state it stores, so it stops at the bound, or at 2 states (the root
//! and its first successor) under `--bound` 0 or 1. The parallel search
//! (`--jobs` above 1, or `--spill-dir`, without an export) checks it when a
//! BFS level ends, so it stops past the bound by up to a level. The
//! `--aut`/`--dot` exports work on partial spaces too: a graph cut short by
//! the bound is still a valid (under-approximate) LTS.

use std::path::PathBuf;
use std::process::ExitCode;

use genoc::prelude::*;

mod cli;

struct Args {
    routing: String,
    width: usize,
    height: Option<usize>,
    capacity: u32,
    switching: String,
    flits: usize,
    messages: usize,
    bound: usize,
    symmetry: bool,
    por: bool,
    jobs: usize,
    mem_limit: Option<usize>,
    spill_dir: Option<PathBuf>,
    aut: Option<PathBuf>,
    dot: Option<PathBuf>,
}

/// Parses a byte count with an optional `k`/`m`/`g` (×1024) suffix.
fn parse_bytes(text: &str) -> Result<usize, String> {
    let lower = text.to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(digits) => match lower.as_bytes()[lower.len() - 1] {
            b'k' => (digits, 10),
            b'm' => (digits, 20),
            _ => (digits, 30),
        },
        None => (lower.as_str(), 0),
    };
    let n: usize = digits.parse().map_err(|e| format!("{e}"))?;
    n.checked_shl(shift)
        .filter(|&v| v >> shift == n)
        .ok_or_else(|| format!("{text:?} overflows"))
}

const USAGE: &str = "usage: explore [--routing LABEL] [--width N] [--height N] [--capacity N] \
    [--switching wormhole|vct|store-forward] [--flits N] [--messages N] [--bound N] \
    [--symmetry on|off] [--por on|off] [--jobs N] [--mem-limit BYTES] [--spill-dir PATH] \
    [--aut PATH] [--dot PATH]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        routing: "xy".into(),
        width: 2,
        height: None,
        capacity: 1,
        switching: "wormhole".into(),
        flits: 2,
        messages: 0,
        bound: 100_000,
        symmetry: true,
        por: false,
        jobs: 1,
        mem_limit: None,
        spill_dir: None,
        aut: None,
        dot: None,
    };
    let mut argv = cli::Argv::new(USAGE);
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--routing" => args.routing = argv.value()?,
            "--width" => args.width = argv.parse()?,
            "--height" => args.height = Some(argv.parse()?),
            "--capacity" => args.capacity = argv.parse()?,
            "--switching" => args.switching = argv.value()?,
            "--flits" => args.flits = argv.parse()?,
            "--messages" => args.messages = argv.parse()?,
            "--bound" => args.bound = argv.parse()?,
            "--symmetry" => args.symmetry = argv.on_off()?,
            "--por" => args.por = argv.on_off()?,
            "--jobs" => args.jobs = argv.parse::<usize>()?.max(1),
            "--mem-limit" => args.mem_limit = Some(argv.read(parse_bytes)?),
            "--spill-dir" => args.spill_dir = Some(argv.value()?.into()),
            "--aut" => args.aut = Some(argv.value()?.into()),
            "--dot" => args.dot = Some(argv.value()?.into()),
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

/// Exhaustive deadlock-freedom proof.
const EXIT_PROOF: u8 = 0;
/// A deadlock is reachable; the minimal trace was printed.
const EXIT_DEADLOCK: u8 = 1;
/// The state bound or memory limit stopped the search — no verdict.
const EXIT_BOUND: u8 = 2;
/// Bad usage or a harness error.
const EXIT_ERROR: u8 = 3;

fn main() -> ExitCode {
    cli::main(run, ExitCode::from(EXIT_ERROR))
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let Some(kind) = RoutingKind::ALL.iter().find(|k| k.label() == args.routing) else {
        let labels: Vec<&str> = RoutingKind::ALL.iter().map(|k| k.label()).collect();
        return Err(format!(
            "unknown routing {:?}: expected one of {}",
            args.routing,
            labels.join(", ")
        ));
    };
    let Some(&switching) = SwitchingKind::ALL
        .iter()
        .find(|k| k.label() == args.switching)
    else {
        let labels: Vec<&str> = SwitchingKind::ALL.iter().map(|k| k.label()).collect();
        return Err(format!(
            "unknown switching {:?}: expected one of {}",
            args.switching,
            labels.join(", ")
        ));
    };
    let policy = Switching::new(switching);
    let height = args.height.unwrap_or(match kind.topology() {
        TopologyKind::Ring | TopologyKind::Spidergon => 1,
        TopologyKind::Mesh | TopologyKind::Torus => 2,
    });
    let meta = InstanceMeta::new(*kind, args.width, height, args.capacity);
    let instance =
        Instance::from_meta(&meta).map_err(|e| format!("{}: {e}", meta.instance_name()))?;
    let mut specs = pressure_specs(&meta, args.flits);
    if args.messages > 0 {
        specs.truncate(args.messages);
    }
    let record_graph = args.aut.is_some() || args.dot.is_some();
    if record_graph && args.jobs > 1 {
        eprintln!("note: graph export forces the sequential frontier; --jobs ignored");
    }
    if record_graph && args.spill_dir.is_some() {
        eprintln!("note: graph export forces the sequential frontier; --spill-dir ignored");
    }
    if args.spill_dir.is_some() && args.mem_limit.is_none() {
        eprintln!("note: --spill-dir only takes effect together with --mem-limit");
    }
    let options = ExploreOptions {
        max_states: args.bound,
        symmetry: args.symmetry,
        record_graph,
        por: args.por,
        jobs: args.jobs,
        mem_limit: args.mem_limit,
        // A directory without a budget never spills, so it must not pick
        // the engine either: the note above would otherwise be false.
        spill_dir: args.spill_dir.clone().filter(|_| args.mem_limit.is_some()),
        ..ExploreOptions::default()
    };
    let start = std::time::Instant::now();
    let result = explore_policy(
        instance.net.as_ref(),
        instance.routing.as_ref(),
        &meta,
        &specs,
        &policy,
        &options,
    )
    .map_err(|e| format!("{}: exploration failed: {e}", instance.name))?;
    let wall = start.elapsed();

    println!(
        "{} · {} · {} message(s) × {} flit(s)",
        instance.name,
        args.switching,
        specs.len(),
        args.flits
    );
    println!(
        "states {} · transitions {} · enabled {} · depth {} · symmetry group {}{}",
        result.states,
        result.transitions,
        result.enabled_moves,
        result.depth,
        result.group_size,
        if args.por {
            format!(
                " · por {:.2}x",
                result.enabled_moves as f64 / (result.transitions.max(1)) as f64
            )
        } else {
            String::new()
        }
    );
    println!(
        "wall {wall:.2?} · {:.0} states/s · peak resident {} bytes{}",
        result.states as f64 / wall.as_secs_f64().max(1e-9),
        result.peak_bytes,
        if result.spilled_bytes > 0 {
            format!(" · spilled {} bytes", result.spilled_bytes)
        } else {
            String::new()
        }
    );
    match &result.verdict {
        Verdict::NoReachableDeadlock => {
            println!("verdict: no reachable deadlock (exhaustive within the bound)");
        }
        Verdict::Deadlock(cex) => {
            println!(
                "verdict: deadlock reachable in {} move(s); minimal trace:",
                cex.trace.len()
            );
            for (i, mv) in cex.trace.iter().enumerate() {
                println!("  {i:>4}  {mv}");
            }
        }
        Verdict::BoundExceeded => {
            let memory_bound = result.bound == Some(genoc::explore::BoundReason::Memory);
            let (what, fix) = if memory_bound {
                (
                    format!(
                        "memory-bound: state storage outgrew --mem-limit {} bytes",
                        args.mem_limit.unwrap_or(0)
                    ),
                    "raise --mem-limit or add --spill-dir to keep searching on disk",
                )
            } else {
                let checked = if options.runs_parallel() {
                    "the parallel search checks it when a BFS level ends"
                } else {
                    "the sequential search checks it after each state it stores"
                };
                (
                    format!(
                        "state-bound: the --bound {} state cap was reached; {checked}",
                        args.bound
                    ),
                    "raise --bound to finish",
                )
            };
            eprintln!(
                "verdict: INCONCLUSIVE ({what}) — the search stopped at {} states, \
                 depth {}, after {} transitions; this is NOT a deadlock-freedom proof, {fix}",
                result.states, result.depth, result.transitions,
            );
        }
    }

    for (path, rendered, what) in [
        (&args.aut, genoc::explore::to_aut(&result), ".aut"),
        (
            &args.dot,
            genoc::explore::to_dot(&result, &instance.name),
            "DOT",
        ),
    ] {
        let Some(path) = path else { continue };
        let text = rendered.expect("record_graph is on whenever an export path is given");
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write {what} export {}: {e}", path.display()))?;
        eprintln!("{what} export: {}", path.display());
    }

    Ok(ExitCode::from(match result.verdict {
        Verdict::NoReachableDeadlock => EXIT_PROOF,
        Verdict::Deadlock(_) => EXIT_DEADLOCK,
        Verdict::BoundExceeded => EXIT_BOUND,
    }))
}
