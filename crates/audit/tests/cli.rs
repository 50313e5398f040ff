//! A malformed `audit` command line is refused by name — the offending
//! token and the usage line on stderr, exit status 2, nothing on stdout —
//! before any replay or inventory runs.

use std::process::Command;

#[test]
fn unknown_subcommands_and_arguments_are_refused() {
    let cases: [(&[&str], &str); 6] = [
        (&[], "no subcommand given"),
        (&["replya"], "\"replya\""),
        (&["lint"], "\"lint\""),
        (&["all"], "\"all\""),
        (&["replay", "--json"], "\"--json\""),
        (&["inventory", "extra"], "\"extra\""),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_audit"))
            .args(args)
            .output()
            .expect("the executable cargo built for this test runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran: a refusal prints no results"
        );
        assert!(stderr.contains(needle), "{needle:?} not in: {stderr}");
        assert!(
            stderr.contains("usage: audit <replay|inventory>"),
            "{stderr}"
        );
    }
}
