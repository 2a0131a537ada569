//! The command-line grammar of `explore`, `campaign` and `replay`. Every
//! argv in the table fails before a search, a campaign or a replay starts,
//! and each row pins the whole stderr and the exit status: 3 for
//! `explore`, 1 for the other two, never 101 (a panic). `--help` and `-h`
//! print the usage line on stdout and exit 0.

use std::process::Command;

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
    (EXPLORE, "--jobs 65", 3, "mesh-2x2/xy: exploration failed: 65 jobs and 65 shards asked \
        for: the parallel explorer's bound is 64 of each"),
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

/// `(binary, error exit code, numeric flags, the other flags with a value)`:
/// every flag of the three binaries that takes a value.
#[rustfmt::skip]
const VALUE_FLAGS: &[(&str, i32, &[&str], &[&str])] = &[
    (
        EXPLORE, 3,
        &["--width", "--height", "--capacity", "--flits", "--messages", "--bound", "--jobs",
          "--mem-limit"],
        &["--routing", "--switching", "--symmetry", "--por", "--spill-dir", "--aut", "--dot"],
    ),
    (CAMPAIGN, 1, &["--jobs", "--seed"],
        &["--matrix", "--filter", "--out", "--wal-dir", "--metrics-out"]),
    (REPLAY, 1, &["--to-step", "--last"], &["--wal", "--expect"]),
];

#[test]
fn every_value_flag_names_itself_when_its_value_is_missing_or_not_a_number() {
    for &(bin, code, numeric, other) in VALUE_FLAGS {
        for &flag in numeric.iter().chain(other) {
            let expected = format!("{flag} expects a value\n");
            assert_eq!(run(bin, &[flag]), (code, String::new(), expected));
        }
        for &flag in numeric {
            let expected = format!("{flag}: invalid digit found in string\n");
            assert_eq!(run(bin, &[flag, "x"]), (code, String::new(), expected));
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
