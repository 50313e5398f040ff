//! A malformed `xt3-bench` command line is refused by name — the
//! offending token and the subcommand's usage on stderr, exit status 2,
//! nothing on stdout — for every subcommand, including the sixteen that
//! take no flags at all. (As separate bins, `sweep abc`, `trace_put abc`
//! and `fig5_unidir --bogus` ran their defaults and exited 0.) A
//! well-formed command runs, and `trace-put` prints the causal records
//! that show the piggyback edge.

use std::process::{Command, Output};

use xt3_bench::cli::COMMANDS;

fn run(exe: &str, args: &[&str]) -> Output {
    let out = Command::new(exe).args(args).output();
    out.expect("the executable cargo built for this test runs")
}

fn xt3_bench(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_xt3-bench"), args)
}

fn assert_refused(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "a refused command prints no results");
    for needle in needles {
        assert!(stderr.contains(needle), "{needle:?} not in: {stderr}");
    }
}

#[test]
fn the_cases_the_separate_bins_swallowed_are_refused() {
    let cases: [(&[&str], &[&str]); 6] = [
        (&["sweep", "abc"], &["\"abc\"", "usage: xt3-bench sweep"]),
        (
            &["trace-put", "abc"],
            &["\"abc\"", "usage: xt3-bench trace-put"],
        ),
        (
            &["fig", "5", "--bogus"],
            &["\"--bogus\"", "usage: xt3-bench fig 5 [--quick]"],
        ),
        (
            &["explain", "congestion", "--dims", "2x2"],
            &["\"2x2\"", "--dims XxYxZ"],
        ),
        (&["perf", "core", "--reps"], &["--reps needs a value"]),
        (&["campaign", "--rates", "0.1,2"], &["\"0.1,2\"", "--rates"]),
    ];
    for (args, needles) in cases {
        assert_refused(&xt3_bench(args), needles);
    }
}

#[test]
fn every_subcommand_refuses_an_unknown_flag_before_doing_any_work() {
    for command in COMMANDS {
        let mut args: Vec<&str> = command.path.split(' ').collect();
        args.push("--no-such-flag");
        let usage = format!("usage: xt3-bench {}", command.path);
        assert_refused(&xt3_bench(&args), &["\"--no-such-flag\"", &usage]);
    }
}

#[test]
fn no_subcommand_or_an_unknown_one_lists_them_all() {
    for args in [&[][..], &["figz"], &["fig", "9"], &["--quick"]] {
        let out = xt3_bench(args);
        let paths: Vec<&str> = COMMANDS.iter().map(|c| c.path).collect();
        assert_refused(&out, &paths);
    }
}

#[test]
fn mem_footprint_reads_its_flags_through_the_same_reader() {
    let exe = env!("CARGO_BIN_EXE_mem_footprint");
    assert_refused(
        &run(exe, &["--bogus"]),
        &["\"--bogus\"", "usage: mem_footprint"],
    );
    assert_refused(&run(exe, &["--dims", "2", "2"]), &["--dims needs a value"]);
    assert_refused(&run(exe, &["--dims", "2", "0", "2"]), &["\"2 0 2\""]);
}

#[test]
fn trace_put_shows_the_second_interrupt_past_the_piggyback() {
    // Up to 12 B a put rides in its header packet and completes on the
    // header's interrupt; a 13 B put is deposited by DMA and interrupts
    // the receiving host a second time (`FwEvent::RxComplete`).
    // `trace-put` prints the causal log's records, one a line, the
    // message id last: count the `int-deliver` lines per message.
    let int_delivers = |bytes: &str| {
        let out = xt3_bench(&["trace-put", bytes]);
        assert!(out.status.success(), "trace-put {bytes}");
        let mut per_msg: Vec<(String, u32)> = Vec::new();
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| l.contains(" int-deliver ")) {
            let msg = line.rsplit(' ').next().expect("a message id").to_string();
            match per_msg.iter_mut().find(|(m, _)| *m == msg) {
                Some((_, n)) => *n += 1,
                None => per_msg.push((msg, 1)),
            }
        }
        per_msg
    };
    let counts = |per_msg: &[(String, u32)]| per_msg.iter().map(|&(_, n)| n).collect::<Vec<_>>();
    let (piggybacked, deposited) = (int_delivers("12"), int_delivers("13"));
    let ids =
        |per_msg: &[(String, u32)]| per_msg.iter().map(|(m, _)| m.clone()).collect::<Vec<_>>();
    assert_eq!(
        ids(&piggybacked),
        ids(&deposited),
        "the same three messages"
    );
    // The zero-byte READY, then the ping and the pong.
    assert_eq!(counts(&piggybacked), [1, 1, 1]);
    assert_eq!(counts(&deposited), [1, 2, 2]);
}

#[test]
fn a_well_formed_command_still_runs() {
    let out = xt3_bench(&["table", "sram"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("SeaStar SRAM occupancy (paper §4.2)"));
}
