//! Determinism audit CLI.
//!
//! ```text
//! cargo run -p audit -- lint          # 8-rule lint engine; exit 1 on any violation
//! cargo run -p audit -- lint --json   # machine-readable findings (CI artifact)
//! cargo run -p audit -- replay        # replay-divergence check; exit 1 on divergence
//! cargo run -p audit -- all           # both
//! cargo run -p audit -- inventory     # DESIGN.md §2's generated code-line block
//! ```

use std::process::ExitCode;

use audit::{inventory, lint, replay, rules};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(json),
        Some("replay") => run_replay(),
        Some("all") => {
            let a = run_lint(json);
            let b = run_replay();
            if a == ExitCode::SUCCESS && b == ExitCode::SUCCESS {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("inventory") => match inventory::render(&lint::repo_root()) {
            Ok(block) => {
                print!("{block}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("audit inventory: i/o error: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: audit <lint [--json]|replay|all|inventory>");
            ExitCode::from(2)
        }
    }
}

fn run_lint(json: bool) -> ExitCode {
    let root = lint::repo_root();
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
