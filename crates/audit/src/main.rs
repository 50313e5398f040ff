//! Determinism audit CLI.
//!
//! ```text
//! cargo run -p audit -- lint          # 8-rule lint engine; exit 1 on any violation
//! cargo run -p audit -- lint --json   # machine-readable findings (CI artifact)
//! cargo run -p audit -- replay        # replay-divergence check; exit 1 on divergence
//! cargo run -p audit -- all           # both
//! cargo run -p audit -- inventory     # DESIGN.md §2's generated code-line block
//! ```
//!
//! Anything else — an unknown subcommand, an unknown argument, `--json`
//! after a subcommand that prints no findings — names the token, prints
//! the usage line and exits 2 without running anything.

use std::process::ExitCode;

use audit::{inventory, replay, rules};

const USAGE: &str = "usage: audit <lint [--json]|replay|all [--json]|inventory>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return refuse("no subcommand given");
    };
    let run: fn(bool) -> ExitCode = match command.as_str() {
        "lint" => run_lint,
        "replay" => |_| run_replay(),
        "all" => |json| {
            let a = run_lint(json);
            let b = run_replay();
            if a == ExitCode::SUCCESS && b == ExitCode::SUCCESS {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        },
        "inventory" => |_| run_inventory(),
        other => return refuse(&format!("no subcommand {other:?}")),
    };
    let json =
        matches!(command.as_str(), "lint" | "all") && rest.first().is_some_and(|a| a == "--json");
    if let Some(extra) = rest.get(usize::from(json)) {
        return refuse(&format!("unexpected argument {extra:?}"));
    }
    run(json)
}

/// A malformed command line: what was wrong, the usage line, exit 2.
fn refuse(what: &str) -> ExitCode {
    eprintln!("audit: {what}\n{USAGE}");
    ExitCode::from(2)
}

fn run_lint(json: bool) -> ExitCode {
    let root = rules::repo_root();
    match rules::run(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("audit lint: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_inventory() -> ExitCode {
    match inventory::render(&rules::repo_root()) {
        Ok(block) => {
            print!("{block}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("audit inventory: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_replay() -> ExitCode {
    let scenarios = replay::all_scenarios();
    let mut failed = false;
    for s in &scenarios {
        match s.check() {
            Ok(run) => {
                println!(
                    "ok   {:<28} {:>8} events  digest {:#018x}",
                    run.name, run.dispatched, run.digest
                );
            }
            Err(d) => {
                println!("FAIL {d}");
                failed = true;
            }
        }
    }
    println!(
        "{} scenario(s), {}",
        scenarios.len(),
        if failed {
            "divergence detected"
        } else {
            "all deterministic"
        }
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
