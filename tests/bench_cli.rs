//! The fence around the `xt3-bench` command line and its BENCH gates.
//!
//! (a) Every `-p xt3-bench` invocation the docs, the verify skill and CI
//! spell out names `--bin mem_footprint` or a subcommand path present in
//! the table the binary dispatches from, so a renamed subcommand cannot
//! leave a stale instruction behind. (b) Each committed `BENCH_*.json`
//! loads through the gate module and yields every key its gate reads —
//! key drift is caught here in milliseconds instead of by a one-minute
//! `--check` run.

use std::path::Path;

use xt3_bench::cli;
use xt3_bench::gate::{self, Baseline};
use xt3_bench::machines::DEEP;

const DOCS: [&str; 5] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

const PACKAGE: &str = "-p xt3-bench";

fn repo(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    path.to_str().expect("utf-8 repo path").to_string()
}

/// The words that follow each `-p xt3-bench` in `text` (up to the end of
/// the command: a closing backtick, a `#` comment or the line's end,
/// backslash continuations joined), with the text before it on the line.
fn invocations(text: &str) -> Vec<(String, Vec<String>)> {
    let joined = text.replace("\\\n", " ");
    let mut found = Vec::new();
    for line in joined.lines() {
        let mut rest = line;
        while let Some(at) = rest.find(PACKAGE) {
            let (before, after) = rest.split_at(at);
            let after = &after[PACKAGE.len()..];
            let end = after.find(['`', '#']).unwrap_or(after.len());
            let words = after[..end].split_whitespace().map(str::to_string);
            found.push((before.to_string(), words.collect()));
            rest = after;
        }
    }
    found
}

/// Why `words` (what follows `-p xt3-bench` after `before`) is not a
/// command this tree can run, if it is not.
fn refusal(before: &str, words: &[String]) -> Option<String> {
    let words: Vec<&str> = words.iter().map(String::as_str).collect();
    match words[..] {
        [] | ["--bin", "mem_footprint", ..] => None,
        ["--bin", other, ..] => Some(format!("no such executable: {other}")),
        ["--", ref path @ ..] => {
            let tokens: Vec<String> = path.iter().map(|w| w.to_string()).collect();
            match cli::find(&tokens) {
                Some(_) => None,
                None => Some(format!("no such subcommand: {}", path.join(" "))),
            }
        }
        // `cargo test -q -p xt3-bench parallel` names a test filter.
        _ if before.contains("cargo test") || before.contains("cargo build") => None,
        _ => Some(format!("arguments without `--`: {}", words.join(" "))),
    }
}

#[test]
fn every_documented_invocation_names_a_command_that_exists() {
    let mut seen = 0;
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo(doc)).expect("the documents exist");
        for (before, words) in invocations(&text) {
            seen += 1;
            if let Some(why) = refusal(&before, &words) {
                stale.push(format!("{doc}: {why}"));
            }
        }
    }
    assert!(stale.is_empty(), "stale invocations:\n{}", stale.join("\n"));
    assert!(
        seen > 60,
        "sanity: the scan must find the invocations (saw {seen})"
    );
}

#[test]
fn the_scan_itself_tells_a_live_command_from_a_stale_one() {
    let text = "run `cargo run -p xt3-bench -- fig 4 --table` then\n\
                cargo run --release -p xt3-bench -- perf core \\\n  --quick  # smoke\n\
                cargo run -p xt3-bench --bin fig4_latency\n\
                cargo run -p xt3-bench -- trace_put 13\n\
                cargo test -q -p xt3-bench parallel\n\
                cargo run -p xt3-bench sweep\n";
    let verdicts: Vec<Option<String>> = invocations(text)
        .iter()
        .map(|(before, words)| refusal(before, words))
        .collect();
    let stale: Vec<bool> = verdicts.iter().map(Option::is_some).collect();
    assert_eq!(
        stale,
        [false, false, true, true, false, true],
        "{verdicts:?}"
    );
}

#[test]
fn every_committed_bench_file_yields_the_keys_its_gate_reads() {
    let load = |file: &str| Baseline::load(&repo(file)).expect("committed file loads");
    // Measurements no gate can object to: what is under test is that
    // every lookup finds its key.
    let fast = f64::INFINITY;

    let core = load("BENCH_core.json");
    let deep = DEEP.map(|(name, _, _)| (name, fast));
    gate::check_core(&core, fast, &deep, 0.0).expect("BENCH_core.json keys");
    core.number("sink_overhead").expect("carried as before_*");
    core.row_number(
        "scenarios",
        "name",
        "netpipe/put-pingpong",
        "events_per_sec",
    )
    .expect("carried as before_*");

    let parallel = load("BENCH_parallel.json");
    gate::check_parallel(&parallel, 10_368, fast, 0.0, fast).expect("BENCH_parallel.json keys");
    for config in ["serial", "par-1", "par-2", "par-3", "par-4", "par-8"] {
        parallel
            .row_number("sweep", "config", config, "events_per_sec")
            .expect("carried as before_*");
    }

    let rma = load("BENCH_rma.json");
    let curves = [
        "rma-put",
        "rma-get",
        "rma-acc",
        "rma-stream",
        "rma-bidir",
        "mpich1-pingpong",
        "mpich2-pingpong",
        "mpich1-stream",
        "mpich2-stream",
    ];
    let points: Vec<(&str, u64, f64)> = curves
        .iter()
        .flat_map(|&curve| [1, 4096, 65_536].map(|size| (curve, size, 0.0)))
        .collect();
    let compared = gate::check_rma(&rma, &points).expect("BENCH_rma.json keys");
    assert_eq!(
        compared,
        points.len(),
        "every curve and size is in the file"
    );

    let mem = load("BENCH_mem.json");
    let peaks = [512, 2_048, 10_368].map(|nodes| (nodes, 0));
    let observed = [
        "peak_bytes",
        "unobserved_peak_bytes",
        "spans",
        "bytes_per_span",
        "records",
        "bytes_per_record",
        "nonzero_buckets",
        "bytes_per_nonzero_bucket",
        "series_heap_ratio",
        "rx_pending_host_bytes",
        "rx_pending_paper_bytes",
    ]
    .map(|name| (name, 0.0));
    let counts: Vec<gate::MemCount> = [
        "node_bytes",
        "live_blocks_per_node",
        "paper_bytes_per_node",
        "live_mds",
        "live_eq_slots",
    ]
    .iter()
    .flat_map(|&field| peaks.map(|(nodes, _)| (nodes, field, 0)))
    .collect();
    gate::check_mem(&mem, &peaks, &counts, &observed).expect("BENCH_mem.json keys");
    gate::check_series(&mem, &peaks).expect("the --series gate");
    mem.row_number("sizes", "nodes", "10368", "built_bytes")
        .expect("carried as before_*");

    let congestion = repo("BENCH_congestion.json");
    let committed = std::fs::read_to_string(&congestion).expect("committed file reads");
    gate::check_congestion(&congestion, &committed).expect("a file equals itself");
    let drifted = committed.replacen("\"stalled\": 23", "\"stalled\": 24", 1);
    let drift = gate::check_congestion(&congestion, &drifted).expect_err("one field moved");
    assert!(drift.contains("\"pattern\": \"uniform\""), "{drift}");
    let other = committed.replacen("\"policy\": \"panic\"", "\"policy\": \"gbn\"", 1);
    let refused = gate::check_congestion(&congestion, &other).expect_err("another policy");
    assert!(
        refused.contains("policy panic, this sweep ran policy gbn"),
        "{refused}"
    );
}
