//! The simulator's benchmark: six named workloads, end-to-end metrics with
//! bounds, and a per-layer ledger measured from outside, through the
//! public functions of each crate. See `README.md` beside this package for
//! the tables; `BENCHMARK.json` at the repo root lists every name.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--out PATH] [--baseline PATH] [--self-check N] [--quick]
//! ```
//!
//! One process; only `redstorm_round_par` and the campaign's parallel
//! runner (a traced-run probe) use threads, never more than two at work.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod catalog;
mod layers;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use catalog::{check_benchmark_json, Kind, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{run_workload, RunConfig, WorkloadRun};
use workloads::{Workload, DEFAULT_SEED};
use xt3_telemetry::{parse_json, JsonValue};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the traced run writes its span files (git-ignored).
const TRACE_DIR: &str = "results/benchmark";

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                [--out PATH] [--baseline PATH] [--self-check N] [--quick]\n\
         \n\
         --workload NAME  one of {}, or all (default)\n\
         --seed N         input seed, decimal or 0x hex (default {DEFAULT_SEED:#x}): feeds the\n\
         \x20                uniform permutation and the campaign base seed\n\
         --seconds S      how long an untraced run measures (default {RUN_SECONDS}, the run length\n\
         \x20                BENCHMARK.json fixes; whoever compares two commits passes the same)\n\
         --trace 0|1      1: one traced pass plus the layer probes; prints the per-layer\n\
         \x20                metrics and the ledger, writes {TRACE_DIR}/trace-<workload>.json\n\
         --out PATH       also write manifest and every metric as one JSON document\n\
         --baseline PATH  an --out document of another commit, same seed and --trace: fail if\n\
         \x20                any simulated result or digest differs from it at all\n\
         --self-check N   run N sets of the same build (default 5) and fail if a host\n\
         \x20                metric spreads beyond its bound or an exact one differs at all\n\
         --quick          one pass each, smoke only (refused by --self-check)",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2)
}

struct Args {
    workloads: Vec<Workload>,
    config: RunConfig,
    out: Option<String>,
    baseline: Option<String>,
    self_check: Option<usize>,
}

fn parse_args() -> Args {
    let mut workloads = Workload::ALL.to_vec();
    let mut config = RunConfig {
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut out = None;
    let mut baseline = None;
    let mut self_check = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => match args.next().as_deref() {
                Some("all") => workloads = Workload::ALL.to_vec(),
                Some(name) => {
                    workloads = vec![Workload::from_name(name).unwrap_or_else(|| usage())]
                }
                None => usage(),
            },
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                config.seed = parsed.unwrap_or_else(|_| usage());
            }
            "--seconds" => {
                config.seconds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => match args.next().as_deref() {
                Some("0") => config.trace = false,
                Some("1") => config.trace = true,
                _ => usage(),
            },
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--baseline" => baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--self-check" => {
                let n = match args.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        args.next();
                        n
                    }
                    None => 5,
                };
                if n < 2 {
                    eprintln!("--self-check needs at least 2 sets");
                    usage();
                }
                self_check = Some(n);
            }
            "--quick" => config.quick = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if config.quick && self_check.is_some() {
        eprintln!("--quick is smoke only; --self-check refuses it");
        std::process::exit(2);
    }
    Args {
        workloads,
        config,
        out,
        baseline,
        self_check,
    }
}

/// First line of `cmd`'s standard output, or "unknown".
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| String::from("unknown"))
}

/// The run manifest: what makes two outputs comparable.
struct Manifest {
    git_rev: String,
    nproc: usize,
    rustc: String,
    profile: &'static str,
}

impl Manifest {
    fn collect() -> Self {
        Manifest {
            git_rev: first_line("git", &["rev-parse", "--short", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line("rustc", &["-V"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    fn print(&self, config: &RunConfig) {
        println!(
            "# benchmark manifest: git_rev={} nproc={} rustc=\"{}\" profile={} seed={:#x} seconds={} trace={} quick={}",
            self.git_rev,
            self.nproc,
            self.rustc,
            self.profile,
            config.seed,
            config.seconds,
            u8::from(config.trace),
            config.quick
        );
    }
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The simulated results of a run, which repeat digit for digit: the
/// untraced run's, or every `Sim` metric of the traced run's.
fn exact_values(run: &WorkloadRun, trace: bool) -> Vec<(&'static str, f64)> {
    if !trace {
        return run.exact.clone();
    }
    let sim = PER_LAYER.iter().filter(|d| d.kind == Kind::Sim);
    sim.map(|d| (d.name, run.metrics.get(d.name))).collect()
}

/// The sample of timed passes behind an untraced run's numbers: count,
/// minimum, median, tail and maximum of the timed regions.
fn sample_line(walls_ms: &[f64]) -> String {
    let (tail_ms, tail_pct) = stats::tail(walls_ms);
    let min = walls_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls_ms.iter().copied().fold(0.0, f64::max);
    format!(
        "{} timed passes, ms: min {min:.3}, p50 {:.3}, p{tail_pct} {tail_ms:.3}, max {max:.3}",
        walls_ms.len(),
        stats::median(walls_ms)
    )
}

/// The manifest lines and metric table of one run, for reading.
fn print_run(run: &WorkloadRun, config: &RunConfig) {
    let w = run.workload;
    println!(
        "# workload {}: {} good passes, {} of {} attempted failed, sinks={}, reference_digest={:#018x}, reference_s={:.3}",
        w.name(),
        run.passes,
        run.failed,
        run.attempted,
        w.sinks().label(),
        run.digest,
        run.reference_s
    );
    println!("#   why: {}", w.why());
    if !run.walls_ms.is_empty() {
        println!("#   sample: {}", sample_line(&run.walls_ms));
    }
    for e in &run.errors {
        println!("#   error: {e}");
    }
    for d in defs(config.trace) {
        let bound = d
            .bound
            .map_or_else(String::new, |b| format!(", bound {:.0}%", b * 100.0));
        println!(
            "  {:<42} {:>18.6} {:<6} ({} is better{bound})",
            d.name,
            run.metrics.get(d.name),
            d.unit,
            d.better.as_str()
        );
    }
    if !config.trace {
        // The per-layer catalogue's exact results, as far as an untraced
        // run has them.
        for (name, value) in &run.exact {
            println!("  {name:<42} {value:>18.6}        (simulated, exact)");
        }
    }
    if let Some(shape) = &run.shape {
        println!("# probes shaped with: {shape}");
    }
    if !run.ledger.is_empty() {
        println!(
            "# ledger: what a faster layer could save of one {} pass, at most",
            w.name()
        );
        println!(
            "  {:<42} {:>12} {:>10} {:>8}",
            "probe", "count", "ns/op", "share"
        );
        for row in &run.ledger {
            let mut note = String::new();
            if !row.counted {
                note.push_str("  (inside another row; not summed)");
            }
            if let Some(why) = row.unverified {
                let _ = write!(note, "  (unverified: {why})");
            }
            println!(
                "  {:<42} {:>12} {:>10.2} {:>7.2}%{note}",
                row.probe,
                row.count,
                row.ns_per_op,
                row.share * 100.0
            );
        }
        println!(
            "  {:<42} {:>12} {:>10} {:>7.2}%",
            "xt3.machine.unattributed_share",
            "",
            "",
            run.metrics.get("xt3.machine.unattributed_share") * 100.0
        );
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `defs`.
fn metrics_json(run: &WorkloadRun, defs: &[MetricDef]) -> String {
    let mut s = String::from("{");
    for (i, d) in defs.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            run.metrics.get(d.name),
            d.unit
        );
    }
    s.push('}');
    s
}

/// `{"name": v, ...}` over the exact results.
fn exact_json(exact: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = exact
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line the driver reads.
fn result_json(run: &WorkloadRun, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct(),
        run.attempted.max(1),
        run.failed,
        metrics_json(run, defs(trace))
    )
}

/// The `--out` document: manifest plus every run.
fn out_json(manifest: &Manifest, config: &RunConfig, runs: &[WorkloadRun]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"manifest\": {{\"git_rev\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}}},",
        manifest.git_rev,
        manifest.nproc,
        manifest.rustc,
        manifest.profile,
        config.seed,
        config.seconds,
        config.trace,
        config.quick
    );
    s.push_str("  \"workloads\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"passes\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"sinks\": \"{}\", \"reference_digest\": \"{:#018x}\", \"pass_ms\": {:?}, \"exact\": {}, \"metrics\": {}}}{comma}",
            run.workload.name(),
            run.passes,
            run.attempted,
            run.failed,
            run.correct(),
            run.workload.sinks().label(),
            run.digest,
            run.walls_ms,
            exact_json(&exact_values(run, config.trace)),
            metrics_json(run, defs(config.trace))
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn write_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

/// Run every selected workload once and print it.
fn run_set(args: &Args, manifest: &Manifest, quiet: bool) -> Vec<WorkloadRun> {
    let mut runs = Vec::new();
    for &w in &args.workloads {
        let run = run_workload(w, &args.config);
        if !quiet {
            print_run(&run, &args.config);
        }
        if let Some(spans) = &run.spans_json {
            write_file(&format!("{TRACE_DIR}/trace-{}.json", w.name()), spans);
        }
        runs.push(run);
    }
    if let Some(path) = &args.out {
        write_file(path, &out_json(manifest, &args.config, &runs));
    }
    runs
}

/// `--self-check N`: N sets of the same build must agree — bounded host
/// metrics within their bounds by the driver's rule, exact ones digit for
/// digit.
fn self_check(args: &Args, manifest: &Manifest, sets: usize) -> ExitCode {
    let all: Vec<Vec<WorkloadRun>> = (0..sets)
        .map(|i| {
            println!("# self-check: set {} of {sets}", i + 1);
            run_set(args, manifest, true)
        })
        .collect();
    let mut ok = true;
    for (k, &w) in args.workloads.iter().enumerate() {
        let runs: Vec<&WorkloadRun> = all.iter().map(|set| &set[k]).collect();
        println!("# workload {}", w.name());
        println!(
            "  {:<42} {:>16} {:>16} {:>16} {:>8} {:>7}",
            "metric", "min", "median", "max", "spread", "bound"
        );
        if runs.iter().any(|r| !r.correct()) {
            println!("  FAIL: a set had failed passes");
            ok = false;
        }
        for d in defs(args.config.trace) {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics.get(d.name)).collect();
            let (min, med, max, rel) = stats::spread(&values);
            // The driver's rule: quartile spread within the bound, set-up
            // time exempt (its bound applies to medians of ten runs).
            let (limit, shown) = match (d.kind, d.bound) {
                (Kind::Sim, _) => (Some(0.0), String::from("exact")),
                (Kind::Host, Some(_)) if d.name == "setup_s" => (None, String::from("exempt")),
                (Kind::Host, Some(b)) => (Some(b), format!("{:.0}%", b * 100.0)),
                (Kind::Host, None) => (None, String::from("-")),
            };
            let pass = limit.is_none_or(|l| rel <= l);
            ok &= pass;
            println!(
                "  {:<42} {min:>16.6} {med:>16.6} {max:>16.6} {:>7.2}% {shown:>7}{}",
                d.name,
                rel * 100.0,
                if pass { "" } else { "  FAIL" }
            );
        }
        // Simulated results and digests of the untraced sets are exact too.
        let same = runs
            .iter()
            .all(|r| r.exact == runs[0].exact && r.digest == runs[0].digest);
        if !same {
            println!("  FAIL: simulated results or digests differ between sets");
            ok = false;
        }
    }
    println!("# self-check {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--baseline PATH`: the `--out` document of another commit, if it was
/// made with this run's seed and `--trace`.
fn comparable_baseline(text: &str, config: &RunConfig) -> Result<JsonValue, String> {
    let baseline = parse_json(text)?;
    let manifest = baseline.get("manifest")?;
    if manifest.get("seed")?.as_u64()? != config.seed {
        return Err(String::from("it was made with another --seed"));
    }
    let traced = matches!(manifest.get("trace")?, JsonValue::Bool(true));
    if traced != config.trace {
        return Err(String::from("it was made with another --trace"));
    }
    Ok(baseline)
}

/// What in `runs` differs from `baseline`: a host-only change leaves every
/// simulated result and digest identical.
fn baseline_differences(
    baseline: &JsonValue,
    trace: bool,
    runs: &[WorkloadRun],
) -> Result<Vec<String>, String> {
    let theirs = baseline.get("workloads")?.as_array()?;
    let mut differences = Vec::new();
    for run in runs {
        let name = run.workload.name();
        let Some(base) = theirs
            .iter()
            .find(|b| b.get("name").and_then(JsonValue::as_str) == Ok(name))
        else {
            differences.push(format!("{name}: not in the baseline"));
            continue;
        };
        let digest = format!("{:#018x}", run.digest);
        if base.get("reference_digest")?.as_str()? != digest {
            differences.push(format!("{name}: reference digest differs"));
        }
        let exact = base.get("exact")?;
        for (metric, value) in exact_values(run, trace) {
            let was = exact.get(metric).and_then(JsonValue::as_f64);
            if was != Ok(value) {
                differences.push(format!("{name}: {metric} was {was:?}, is {value}"));
            }
        }
    }
    Ok(differences)
}

fn main() -> ExitCode {
    let args = parse_args();
    // The names this binary prints are the ones BENCHMARK.json lists.
    let listed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let checked = std::fs::read_to_string(listed)
        .map_err(|e| e.to_string())
        .and_then(|text| check_benchmark_json(&text));
    if let Err(e) = checked {
        eprintln!("{listed} does not list this benchmark's catalogue: {e}");
        return ExitCode::FAILURE;
    }
    let baseline = match &args.baseline {
        None => None,
        Some(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| comparable_baseline(&text, &args.config));
            match doc {
                Ok(doc) => Some((path, doc)),
                Err(e) => {
                    eprintln!("cannot compare with {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let manifest = Manifest::collect();
    manifest.print(&args.config);
    if let Some(sets) = args.self_check {
        return self_check(&args, &manifest, sets);
    }
    let runs = run_set(&args, &manifest, false);
    let mut code = ExitCode::SUCCESS;
    if let Some((path, doc)) = &baseline {
        match baseline_differences(doc, args.config.trace, &runs) {
            Ok(d) if d.is_empty() => println!("# baseline {path}: every exact result identical"),
            Ok(d) => {
                for line in &d {
                    println!("# baseline {path}: {line}");
                }
                code = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cannot compare with {path}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    // One result line per workload; the driver reads the last (it runs one
    // workload at a time).
    for run in &runs {
        println!("{}", result_json(run, args.config.trace));
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Metrics;

    fn sample_run(trace: bool) -> WorkloadRun {
        let mut metrics = Metrics::default();
        for (i, d) in defs(trace).iter().enumerate() {
            metrics.set(d.name, 1.5 + i as f64);
        }
        WorkloadRun {
            workload: Workload::NetpipeSweep,
            passes: 3,
            attempted: 3,
            failed: 0,
            metrics,
            exact: vec![("sim_elapsed_us", 12.5)],
            digest: 0xABCD,
            walls_ms: vec![1.0, 2.5],
            reference_s: 0.0,
            errors: Vec::new(),
            shape: None,
            ledger: Vec::new(),
            spans_json: None,
        }
    }

    /// The result line round-trips through the repo's JSON parser and has
    /// exactly the contract's keys and this mode's metrics.
    #[test]
    fn result_line_round_trips_with_exactly_the_modes_metrics() {
        for trace in [false, true] {
            let run = sample_run(trace);
            let doc = parse_json(&result_json(&run, trace)).unwrap();
            let xt3_telemetry::JsonValue::Object(fields) = &doc else {
                panic!("result is an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("attempted").unwrap().as_u64().unwrap(), 3);
            let xt3_telemetry::JsonValue::Object(metrics) = doc.get("metrics").unwrap() else {
                panic!("metrics is an object");
            };
            assert_eq!(metrics.len(), defs(trace).len());
            for (i, ((name, value), d)) in metrics.iter().zip(defs(trace)).enumerate() {
                assert_eq!(name, d.name);
                assert_eq!(value.get("unit").unwrap().as_str().unwrap(), d.unit);
                assert_eq!(
                    value.get("value").unwrap().as_f64().unwrap(),
                    1.5 + i as f64
                );
            }
        }
    }

    #[test]
    fn out_document_parses_and_names_every_workload_run() {
        let manifest = Manifest {
            git_rev: String::from("abc1234"),
            nproc: 2,
            rustc: String::from("rustc 1.0"),
            profile: "release",
        };
        let config = RunConfig {
            seed: 7,
            seconds: 1.0,
            trace: false,
            quick: true,
        };
        let doc = parse_json(&out_json(&manifest, &config, &[sample_run(false)])).unwrap();
        assert_eq!(
            doc.get("manifest")
                .unwrap()
                .get("nproc")
                .unwrap()
                .as_u64()
                .unwrap(),
            2
        );
        let runs = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(
            runs[0].get("name").unwrap().as_str().unwrap(),
            "netpipe_sweep"
        );
    }

    #[test]
    fn baseline_comparison_finds_exactly_what_moved() {
        let manifest = Manifest {
            git_rev: String::from("abc1234"),
            nproc: 2,
            rustc: String::from("rustc 1.0"),
            profile: "release",
        };
        for trace in [false, true] {
            let config = RunConfig {
                seed: 7,
                seconds: 1.0,
                trace,
                quick: false,
            };
            let run = sample_run(trace);
            let runs = std::slice::from_ref(&run);
            let text = out_json(&manifest, &config, runs);
            let doc = comparable_baseline(&text, &config).unwrap();
            let same = baseline_differences(&doc, trace, runs).unwrap();
            assert_eq!(same, Vec::<String>::new());

            let mut moved = run.clone();
            moved.digest += 1;
            moved.exact[0].1 += 0.5;
            moved.metrics.set("sim.engine.events", 1e9);
            // A host metric may move freely.
            moved.metrics.set("sim.engine.loop_ns", 1e9);
            let found = baseline_differences(&doc, trace, &[moved]).unwrap();
            assert_eq!(found.len(), 2, "{found:?}");
            assert!(found[0].contains("digest"));
            let exact = if trace {
                "sim.engine.events"
            } else {
                "sim_elapsed_us"
            };
            assert!(found[1].contains(exact), "{found:?}");

            let other_seed = RunConfig { seed: 8, ..config };
            assert!(comparable_baseline(&text, &other_seed).is_err());
            let other_mode = RunConfig {
                trace: !trace,
                ..config
            };
            assert!(comparable_baseline(&text, &other_mode).is_err());
        }
    }

    /// The numbers only compare with the repo's own bins when both build
    /// with the same release profile; nothing else keeps the copy equal.
    #[test]
    fn release_profile_is_the_workspace_roots() {
        let section = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap();
            let after = text.lines().skip_while(|l| l.trim() != "[profile.release]");
            let settings = after.skip(1).take_while(|l| !l.starts_with('['));
            let mut lines: Vec<String> = settings
                .map(|l| l.split('#').next().unwrap().trim().to_owned())
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        };
        let here = env!("CARGO_MANIFEST_DIR");
        let own = section(&format!("{here}/Cargo.toml"));
        assert!(own.contains(&String::from("lto = \"fat\"")));
        assert_eq!(own, section(&format!("{here}/../Cargo.toml")));
    }
}
