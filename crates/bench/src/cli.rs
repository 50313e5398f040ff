//! The `xt3-bench` command line: one argument reader, one error type and
//! the command table the binary dispatches from.
//!
//! Every subcommand pulls the flags it knows out of an [`Args`] and then
//! calls [`Args::finish`], so a token nothing claimed is refused by name
//! — with the subcommand's usage, exit status 2 — instead of silently
//! running the default. `tests/bench_cli.rs` reads [`COMMANDS`] to hold
//! every documented invocation to a path that exists.

use std::fmt;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use xt3_topology::coord::Dims;

use crate::cmd::{
    ablation, campaign, congestion, fig, latency, perf_core, perf_parallel, perf_rma, summary,
    table, telemetry,
};

/// Why a command line was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A token no flag of the subcommand claimed.
    Unexpected(String),
    /// The flag came without (all of) its values.
    MissingValue(String),
    /// The flag's value did not parse or is out of range.
    BadValue {
        /// The flag, or the name of a positional argument.
        flag: String,
        /// What was given for it.
        value: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unexpected(token) => write!(f, "unexpected argument {token:?}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue { flag, value } => write!(f, "bad value {value:?} for {flag}"),
        }
    }
}

/// How a subcommand ends when it does not succeed.
#[derive(Debug)]
pub enum Error {
    /// The command line was malformed: usage on stderr, exit 2.
    Usage(ArgError),
    /// The run failed — a gate, an identity, an unreadable or unwritable
    /// file: the message on stderr, exit 1.
    Failed(String),
}

impl From<ArgError> for Error {
    fn from(e: ArgError) -> Self {
        Error::Usage(e)
    }
}

impl From<String> for Error {
    fn from(message: String) -> Self {
        Error::Failed(message)
    }
}

/// What a subcommand returns.
pub type CmdResult = Result<(), Error>;

/// The tokens after the subcommand path, consumed flag by flag.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Wrap the tokens that follow the subcommand path.
    pub fn new(rest: Vec<String>) -> Self {
        Args { rest }
    }

    /// Remove `name` and the `n` tokens after it, returning those.
    fn take(&mut self, name: &str, n: usize) -> Result<Option<Vec<String>>, ArgError> {
        let Some(at) = self.rest.iter().position(|t| t == name) else {
            return Ok(None);
        };
        if at + n >= self.rest.len() {
            return Err(ArgError::MissingValue(name.to_string()));
        }
        Ok(Some(self.rest.drain(at..=at + n).skip(1).collect()))
    }

    /// Whether the bare flag `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        matches!(self.take(name, 0), Ok(Some(_)))
    }

    /// The value of `name VALUE` as `parse` reads it; a value it refuses
    /// is a [`ArgError::BadValue`].
    pub fn parsed<T>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ArgError> {
        let Some(values) = self.take(name, 1)? else {
            return Ok(None);
        };
        parse(&values[0])
            .map(Some)
            .ok_or_else(|| ArgError::BadValue {
                flag: name.to_string(),
                value: values[0].clone(),
            })
    }

    /// The value of `name VALUE`, verbatim (a path).
    pub fn value(&mut self, name: &str) -> Result<Option<String>, ArgError> {
        self.parsed(name, |v| Some(v.to_string()))
    }

    /// The Red Storm slice of `name X Y Z`.
    pub fn dims(&mut self, name: &str) -> Result<Option<Dims>, ArgError> {
        let Some(values) = self.take(name, 3)? else {
            return Ok(None);
        };
        let sides: Option<Vec<u16>> = values.iter().map(|v| positive(v)).collect();
        match sides {
            Some(s) => Ok(Some(Dims::red_storm(s[0], s[1], s[2]))),
            None => Err(ArgError::BadValue {
                flag: name.to_string(),
                value: values.join(" "),
            }),
        }
    }

    /// The next token as the positional argument called `what`.
    pub fn positional<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ArgError> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let token = self.rest.remove(0);
        parse(&token).map(Some).ok_or(ArgError::BadValue {
            flag: what.to_string(),
            value: token,
        })
    }

    /// Refuse whatever no flag claimed.
    pub fn finish(mut self) -> Result<(), ArgError> {
        match self.rest.is_empty() {
            true => Ok(()),
            false => Err(ArgError::Unexpected(self.rest.swap_remove(0))),
        }
    }
}

/// A number above zero (`--reps`, `--rounds`, a byte count, a side).
pub fn positive<T: FromStr + PartialOrd + Default>(text: &str) -> Option<T> {
    text.parse().ok().filter(|n| *n > T::default())
}

/// A comma-separated list, every item read by `item`; never empty.
pub fn csv<T>(text: &str, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    text.split(',').map(|t| item(t.trim())).collect()
}

/// One `xt3-bench` subcommand.
pub struct Command {
    /// The words after `xt3-bench` that select it.
    pub path: &'static str,
    /// Its arguments as the usage line shows them, then — after a blank
    /// line — what each flag means, where that needs saying.
    pub usage: &'static str,
    /// Parse `Args`, run, report.
    pub run: fn(Args) -> CmdResult,
}

const fn command(path: &'static str, usage: &'static str, run: fn(Args) -> CmdResult) -> Command {
    Command { path, usage, run }
}

/// Every subcommand, in the order the command list prints them. What
/// each one reproduces is on its function in `cmd/`.
pub const COMMANDS: &[Command] = &[
    command("fig 4", "[--table] [--quick]", |a| fig::netpipe(4, a)),
    command("fig 5", "[--quick]", |a| fig::netpipe(5, a)),
    command("fig 6", "[--quick]", |a| fig::netpipe(6, a)),
    command("fig 7", "[--quick]", |a| fig::netpipe(7, a)),
    command("fig distance", "", fig::distance),
    command("fig accel", "", fig::accel),
    command("table exhaustion", "", table::exhaustion),
    command("table interrupts", "", table::interrupts),
    command("table overhead", "", table::overhead),
    command("table requirements", "", table::requirements),
    command("table sram", "", table::sram),
    command("ablation eager", "", ablation::eager),
    command("ablation ppc", "", ablation::ppc),
    command("sweep", "[message_bytes]", ablation::sweep),
    command("summary", "", summary::summary),
    command("trace-put", "[bytes]", summary::trace_put),
    command("campaign", campaign::USAGE, campaign::run),
    command("perf core", perf_core::USAGE, perf_core::run),
    command("perf parallel", perf_parallel::USAGE, perf_parallel::run),
    command("perf rma", perf_rma::USAGE, perf_rma::run),
    command("explain latency", latency::USAGE, latency::run),
    command("explain congestion", congestion::USAGE, congestion::run),
    command("explain telemetry", "[--out DIR]", telemetry::run),
];

/// The command `tokens` selects (two words before one) and what follows it.
pub fn find(tokens: &[String]) -> Option<(&'static Command, &[String])> {
    [2, 1].into_iter().find_map(|words| {
        let path = tokens.get(..words)?.join(" ");
        let command = COMMANDS.iter().find(|c| c.path == path)?;
        Some((command, &tokens[words..]))
    })
}

/// Write `text` to `path`; the error names the path.
pub fn write_file(path: impl AsRef<Path>, text: impl AsRef<[u8]>) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, text).map_err(|e| format!("failed to write {}: {e}", path.display()))
}

/// Run `run` over `rest` and turn how it ended into the exit status:
/// 0, 1 for a failed run, 2 with `usage` for a refused command line
/// (`--help` is answered the same way).
pub fn exit_status(
    name: &str,
    usage: &str,
    rest: &[String],
    run: impl FnOnce(Args) -> CmdResult,
) -> ExitCode {
    if rest.iter().any(|t| t == "--help" || t == "-h") {
        eprintln!("{usage}");
        return ExitCode::from(2);
    }
    match run(Args::new(rest.to_vec())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Failed(message)) => {
            eprintln!("{name}: {message}");
            ExitCode::FAILURE
        }
        Err(Error::Usage(e)) => {
            eprintln!("{name}: {e}\n{usage}");
            ExitCode::from(2)
        }
    }
}

/// `xt3-bench`'s `main`: dispatch `tokens` (the arguments after the
/// program name) through [`COMMANDS`].
pub fn main(tokens: &[String]) -> ExitCode {
    let Some((command, rest)) = find(tokens) else {
        match tokens.first() {
            Some(word) => eprintln!("xt3-bench: no subcommand {word:?}"),
            None => eprintln!("xt3-bench: no subcommand given"),
        }
        eprintln!("usage: xt3-bench <subcommand> [arguments]\n");
        for c in COMMANDS {
            let arguments = c.usage.lines().next().unwrap_or("");
            eprintln!("  {} {arguments}", c.path);
        }
        return ExitCode::from(2);
    };
    let name = format!("xt3-bench {}", command.path);
    let usage = format!("usage: {name} {}", command.usage);
    exit_status(&name, &usage, rest, command.run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::new(tokens.iter().map(|t| t.to_string()).collect())
    }

    #[test]
    fn flags_and_values_are_consumed_in_any_order() {
        let mut a = args(&["--out", "x.json", "--quick", "--reps", "3"]);
        assert_eq!(a.parsed("--reps", positive::<u32>), Ok(Some(3)));
        assert!(a.flag("--quick"));
        assert!(!a.flag("--serial"));
        assert_eq!(a.value("--out"), Ok(Some("x.json".to_string())));
        assert_eq!(a.value("--check"), Ok(None));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn refusals_name_the_offending_token() {
        assert_eq!(
            args(&["--bogus"]).finish(),
            Err(ArgError::Unexpected("--bogus".into()))
        );
        assert_eq!(
            args(&["--reps"]).parsed("--reps", positive::<u32>),
            Err(ArgError::MissingValue("--reps".into()))
        );
        let bad = |value: &str| ArgError::BadValue {
            flag: "--reps".into(),
            value: value.into(),
        };
        for value in ["0", "abc", "-1"] {
            let got = args(&["--reps", value]).parsed("--reps", positive::<u32>);
            assert_eq!(got, Err(bad(value)));
        }
        let dims = args(&["--dims", "2", "x", "2"]).dims("--dims");
        assert!(matches!(dims, Err(ArgError::BadValue { value, .. }) if value == "2 x 2"));
        let short = args(&["--dims", "2", "2"]).dims("--dims");
        assert_eq!(short, Err(ArgError::MissingValue("--dims".into())));
        let size = args(&["abc"]).positional("message_bytes", positive::<u64>);
        assert!(matches!(size, Err(ArgError::BadValue { value, .. }) if value == "abc"));
    }

    #[test]
    fn two_word_paths_win_and_unknown_paths_find_nothing() {
        let tokens = |t: &[&str]| t.iter().map(|t| t.to_string()).collect::<Vec<_>>();
        let t = tokens(&["fig", "4", "--table"]);
        let (command, rest) = find(&t).expect("fig 4");
        assert_eq!((command.path, rest), ("fig 4", &t[2..]));
        let t = tokens(&["sweep", "8"]);
        assert_eq!(find(&t).expect("sweep").0.path, "sweep");
        assert!(find(&tokens(&["fig", "9"])).is_none());
        assert!(find(&[]).is_none());
    }
}
