//! The flag grammar `explore`, `campaign` and `replay` share: each binary
//! pulls this module in with `mod cli;`, keeps its own `Args` and defaults,
//! and matches one arm per flag. Every error is a `String` for one line on
//! stderr, and [`main`] is each binary's one error exit.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// Runs a binary's `run`, and on an error prints it on stderr and exits
/// with `error`.
pub fn main(run: fn() -> Result<ExitCode, String>, error: ExitCode) -> ExitCode {
    run().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        error
    })
}

/// A walk over the process's arguments, one flag at a time.
pub struct Argv {
    args: std::iter::Skip<std::env::Args>,
    usage: &'static str,
    flag: String,
}

impl Argv {
    /// Walks the process's arguments; `usage` is what `--help` prints.
    pub fn new(usage: &'static str) -> Argv {
        Argv {
            args: std::env::args().skip(1),
            usage,
            flag: String::new(),
        }
    }

    /// The next flag, or `None` past the last. `--help` and `-h` print the
    /// usage on stdout and exit 0 at once.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        if self.flag == "--help" || self.flag == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(self.flag.clone())
    }

    /// The current flag's value.
    pub fn value(&mut self) -> Result<String, String> {
        let flag = &self.flag;
        self.args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))
    }

    /// The current flag's value, read by `read`; its error names the flag.
    pub fn read<T, E: Display>(
        &mut self,
        read: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let value = self.value()?;
        read(&value).map_err(|e| format!("{}: {e}", self.flag))
    }

    /// The current flag's value, parsed.
    pub fn parse<T: FromStr<Err: Display>>(&mut self) -> Result<T, String> {
        self.read(str::parse)
    }

    /// The current flag's `on|off` value.
    #[allow(dead_code)] // only `explore` has on|off flags
    pub fn on_off(&mut self) -> Result<bool, String> {
        self.read(|value| match value {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(format!("expected on|off, got {other:?}")),
        })
    }

    /// The error for a flag no arm matched.
    pub fn unknown(&self) -> String {
        format!("unknown flag {:?} (try --help)", self.flag)
    }
}
