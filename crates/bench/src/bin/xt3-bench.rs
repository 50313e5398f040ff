//! `xt3-bench <subcommand>`: the evaluation harness (see `xt3_bench::cli`).

fn main() -> std::process::ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    xt3_bench::cli::main(&tokens)
}
