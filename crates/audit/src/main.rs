//! Determinism audit CLI.
//!
//! ```text
//! cargo run -p audit -- replay        # replay-divergence check; exit 1 on divergence
//! cargo run -p audit -- inventory     # every generated doc block, between its marker lines
//! ```
//!
//! The source rules are clippy's (DESIGN §11). Anything else — an
//! unknown subcommand, an argument after one — names the token, prints
//! the usage line and exits 2 without running anything.

use std::process::ExitCode;

use audit::{inventory, replay};

const USAGE: &str = "usage: audit <replay|inventory>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return refuse("no subcommand given");
    };
    let run: fn() -> ExitCode = match command.as_str() {
        "replay" => run_replay,
        "inventory" => run_inventory,
        other => return refuse(&format!("no subcommand {other:?}")),
    };
    if let Some(extra) = rest.first() {
        return refuse(&format!("unexpected argument {extra:?}"));
    }
    run()
}

/// A malformed command line: what was wrong, the usage line, exit 2.
fn refuse(what: &str) -> ExitCode {
    eprintln!("audit: {what}\n{USAGE}");
    ExitCode::from(2)
}

fn run_inventory() -> ExitCode {
    match inventory::render_all(&inventory::repo_root()) {
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
