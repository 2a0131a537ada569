//! The command-line grammar of `explore`, `campaign` and `replay`. Every
//! argv in the table fails before a search, a campaign or a replay starts,
//! and each row pins the whole stderr and the exit status: 3 for
//! `explore`, 1 for the other two, never 101 (a panic). 600 more argv,
//! generated from each binary's grammar at a fixed seed with one malformed
//! token each, are held to the same. `--help` and `-h` print the usage
//! line on stdout and exit 0.

use std::process::Command;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const EXPLORE: &str = env!("CARGO_BIN_EXE_explore");
const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");
const REPLAY: &str = env!("CARGO_BIN_EXE_replay");

/// Runs `bin` on `args` in the test's scratch directory, so that nothing a
/// broken row might write lands in the checkout; returns the exit code,
/// stdout and stderr.
fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    let code = out.status.code().expect("exited, not killed by a signal");
    (code, text(out.stdout), text(out.stderr))
}

/// `(binary, argv split at spaces, exit code, stderr)`: argv that no binary
/// may act on.
#[rustfmt::skip]
const USAGE_ERRORS: &[(&str, &str, i32, &str)] = &[
    (EXPLORE, "--width", 3, "--width expects a value"),
    (EXPLORE, "--width -1", 3, "--width: invalid digit found in string"),
    (EXPLORE, "--symmetry maybe", 3, "--symmetry: expected on|off, got \"maybe\""),
    (EXPLORE, "--por maybe", 3, "--por: expected on|off, got \"maybe\""),
    (EXPLORE, "--mem-limit 99999999999999999g", 3, "--mem-limit: \"99999999999999999g\" overflows"),
    (EXPLORE, "--bogus", 3, "unknown flag \"--bogus\" (try --help)"),
    (EXPLORE, "--routing bogus", 3, "unknown routing \"bogus\": expected one of xy, yx, \
        xy-yx-mixed, west-first, north-last, negative-first, minimal-adaptive, shortest, \
        dateline, dor, dor-dateline, across-first, across-first-dateline"),
    (EXPLORE, "--switching bogus", 3, "unknown switching \"bogus\": expected one of wormhole, \
        vct, store-forward"),
    (EXPLORE, "--width 0", 3, "mesh-0x2/xy: mesh needs width and height of at least 2, got 0x2"),
    (EXPLORE, "--jobs 65", 3, "mesh-2x2/xy: exploration failed: 65 jobs asked for: the \
        parallel explorer's bound is 64 jobs"),
    (CAMPAIGN, "--jobs", 1, "--jobs expects a value"),
    (CAMPAIGN, "--seed -1", 1, "--seed: invalid digit found in string"),
    (CAMPAIGN, "--bogus", 1, "unknown flag \"--bogus\" (try --help)"),
    (CAMPAIGN, "--matrix bogus", 1, "unknown matrix \"bogus\": expected smoke, default, full, \
        large, or oracle"),
    (CAMPAIGN, "--matrix smoke --filter zzz", 1, "matrix \"smoke\": 0 scenarios (24 candidates, \
        0 invalid dropped, filter \"zzz\")\nnothing to run"),
    (REPLAY, "", 1, "--wal is required (try --help)"),
    (REPLAY, "--wal", 1, "--wal expects a value"),
    (REPLAY, "--last -3", 1, "--last: invalid digit found in string"),
    (REPLAY, "--bogus", 1, "unknown flag \"--bogus\" (try --help)"),
    (REPLAY, "--wal no-such.wal", 1, "cannot read no-such.wal: No such file or directory \
        (os error 2)"),
];

#[test]
fn usage_errors_name_their_flag_and_exit_with_the_binary_s_error_code() {
    for &(bin, argv, code, stderr) in USAGE_ERRORS {
        let args: Vec<&str> = argv.split(' ').filter(|a| !a.is_empty()).collect();
        let (got, out, err) = run(bin, &args);
        assert_ne!(got, 101, "{bin} {argv} panicked: {err}");
        assert_eq!(
            (got, err.as_str(), out.as_str()),
            (code, format!("{stderr}\n").as_str(), ""),
            "{bin} {argv}"
        );
    }
}

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Value {
    /// It takes none.
    Switch,
    /// An unsigned count.
    Count,
    /// A byte count with an optional `k`/`m`/`g` suffix.
    Bytes,
    /// `on` or `off`.
    OnOff,
    /// Any text; these values are well formed for it.
    Text(&'static [&'static str]),
}

/// Every flag of a binary, `--help` aside, with how it takes its value.
type Grammar = &'static [(&'static str, Value)];

/// `(binary, error exit code, grammar)` for the three binaries.
#[rustfmt::skip]
const GRAMMARS: &[(&str, i32, Grammar)] = &[
    (EXPLORE, 3, &[
        ("--routing", Value::Text(&["xy", "yx", "xy-yx-mixed"])),
        ("--width", Value::Count),
        ("--height", Value::Count),
        ("--capacity", Value::Count),
        ("--switching", Value::Text(&["wormhole", "vct", "store-forward"])),
        ("--flits", Value::Count),
        ("--messages", Value::Count),
        ("--bound", Value::Count),
        ("--symmetry", Value::OnOff),
        ("--por", Value::OnOff),
        ("--jobs", Value::Count),
        ("--mem-limit", Value::Bytes),
        ("--spill-dir", Value::Text(&["spill"])),
        ("--aut", Value::Text(&["space.aut"])),
        ("--dot", Value::Text(&["space.dot"])),
    ]),
    (CAMPAIGN, 1, &[
        ("--matrix", Value::Text(&["smoke", "oracle", "full"])),
        ("--jobs", Value::Count),
        ("--seed", Value::Count),
        ("--filter", Value::Text(&["mesh", "ring"])),
        ("--out", Value::Text(&["campaign.json"])),
        ("--wal-dir", Value::Text(&["wal"])),
        ("--metrics-out", Value::Text(&["metrics.prom"])),
        ("--list", Value::Switch),
    ]),
    (REPLAY, 1, &[
        ("--wal", Value::Text(&["run.wal"])),
        ("--to-step", Value::Count),
        ("--last", Value::Count),
        ("--metrics", Value::Switch),
        ("--expect", Value::Text(&["evacuated", "deadlock", "steplimit", "recorded"])),
    ]),
];

#[test]
fn every_value_flag_names_itself_when_its_value_is_missing_or_not_a_number() {
    for &(bin, code, flags) in GRAMMARS {
        for &(flag, value) in flags {
            if matches!(value, Value::Switch) {
                continue;
            }
            let expected = format!("{flag} expects a value\n");
            assert_eq!(run(bin, &[flag]), (code, String::new(), expected));
            if matches!(value, Value::Count | Value::Bytes) {
                let expected = format!("{flag}: invalid digit found in string\n");
                assert_eq!(run(bin, &[flag, "x"]), (code, String::new(), expected));
            }
        }
    }
}

/// Numbers no count takes, each refused as `str::parse::<u64>` refuses it.
const BAD_COUNTS: &[&str] = &[
    "x",
    "-1",
    "",
    "3.5",
    "1e3",
    "0x10",
    "99999999999999999999999",
];
/// `on|off` values that are neither.
const BAD_SWITCHES: &[&str] = &["yes", "ON", "1", "", "of"];
/// Tokens no binary takes as a flag.
const UNKNOWN_FLAGS: &[&str] = &["--bogus", "-x", "--Width", "--jobs=2", "3", "--", "-"];

/// One argv for `flags`: up to four well-formed flags, and exactly one
/// malformed token among them — a value flag last without its value, a
/// count that is no count, an `on|off` that is neither, or a token that is
/// no flag. Returns the argv and the one line the binary must print.
fn malformed_argv(rng: &mut StdRng, flags: Grammar) -> (Vec<String>, String) {
    let pick = |rng: &mut StdRng, items: &[&'static str]| items[rng.random_range(0..items.len())];
    let mut argv: Vec<String> = Vec::new();
    for _ in 0..rng.random_range(0..=4usize) {
        let (flag, value) = flags[rng.random_range(0..flags.len())];
        argv.push(flag.into());
        match value {
            Value::Switch => {}
            Value::Count => argv.push(rng.random_range(0..100u64).to_string()),
            Value::Bytes => argv.push(pick(rng, &["4096", "2k", "1m", "1g"]).into()),
            Value::OnOff => argv.push(pick(rng, &["on", "off"]).into()),
            Value::Text(values) => argv.push(pick(rng, values).into()),
        }
    }
    // Flags are whole pairs, so the bad token goes in between two of them.
    let pairs: Vec<usize> = (0..=argv.len())
        .filter(|&i| i == argv.len() || argv[i].starts_with("--"))
        .collect();
    let at = pairs[rng.random_range(0..pairs.len())];
    let taking = |wanted: fn(Value) -> bool| -> Vec<&'static str> {
        (flags.iter())
            .filter(|&&(_, value)| wanted(value))
            .map(|&(flag, _)| flag)
            .collect()
    };
    let counts = taking(|v| matches!(v, Value::Count | Value::Bytes));
    let switches = taking(|v| matches!(v, Value::OnOff));
    let (bad, expected) = match rng.random_range(0..4u32) {
        0 => {
            let flag = pick(rng, &taking(|v| !matches!(v, Value::Switch)));
            argv.push(flag.into());
            return (argv, format!("{flag} expects a value"));
        }
        1 => {
            let (flag, number) = (pick(rng, &counts), pick(rng, BAD_COUNTS));
            let error = number.parse::<u64>().expect_err("not a count");
            (vec![flag, number], format!("{flag}: {error}"))
        }
        2 if !switches.is_empty() => {
            let (flag, word) = (pick(rng, &switches), pick(rng, BAD_SWITCHES));
            (
                vec![flag, word],
                format!("{flag}: expected on|off, got {word:?}"),
            )
        }
        _ => {
            let token = pick(rng, UNKNOWN_FLAGS);
            (vec![token], format!("unknown flag {token:?} (try --help)"))
        }
    };
    argv.splice(at..at, bad.into_iter().map(String::from));
    (argv, expected)
}

/// 200 argv per binary, generated from its own grammar at a fixed seed,
/// each holding exactly one malformed token: every one is refused while
/// the flags are read, before any work starts, with the binary's error
/// code and the line that names the bad token, never a panic.
#[test]
fn generated_argv_with_one_malformed_token_fail_before_any_work() {
    const PER_BINARY: usize = 200;
    let mut rng = StdRng::seed_from_u64(42);
    for &(bin, code, flags) in GRAMMARS {
        for _ in 0..PER_BINARY {
            let (argv, expected) = malformed_argv(&mut rng, flags);
            let args: Vec<&str> = argv.iter().map(String::as_str).collect();
            let (got, out, err) = run(bin, &args);
            assert_ne!(got, 101, "{bin} {argv:?} panicked: {err}");
            assert_eq!(
                (got, err.as_str(), out.as_str()),
                (code, format!("{expected}\n").as_str(), ""),
                "{bin} {argv:?}"
            );
        }
    }
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for (bin, usage) in [
        (EXPLORE, "usage: explore [--routing LABEL] "),
        (
            CAMPAIGN,
            "usage: campaign [--matrix smoke|default|full|large|oracle] ",
        ),
        (REPLAY, "usage: replay --wal FILE "),
    ] {
        for flag in ["--help", "-h"] {
            // Help wins over any flag after it, as an error would.
            for args in [&[flag][..], &[flag, "--bogus"]] {
                let (code, out, err) = run(bin, args);
                assert_eq!((code, err.as_str()), (0, ""), "{bin} {args:?}");
                assert!(out.starts_with(usage), "{bin} {args:?}: {out}");
                assert_eq!(out.lines().count(), 1, "{bin} {args:?}: {out}");
            }
        }
    }
}
