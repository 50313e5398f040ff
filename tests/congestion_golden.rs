//! Golden fence for the incast congestion attribution table.
//!
//! The k-to-1 incast is the congestion observatory's flagship pattern:
//! every sender funnels into node 0, so the hotspot ranking and the
//! per-flow attribution rows are a sharp fingerprint of the router's
//! arbitration, the HOL-stall accounting and the causal-trace join. The
//! simulator is bit-deterministic and the table is integer picoseconds,
//! so this fence is **byte-exact** — any drift means the timing model,
//! the routing, or the attribution engine changed, and the golden file
//! must be re-blessed deliberately:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test congestion_golden
//! ```
//!
//! Geometry matches the `explain congestion` defaults (4×4×2 mesh, two
//! rounds, 4 KiB puts), so this fence and `BENCH_congestion.json` pin
//! the same run from two directions: the bench baseline pins digests
//! and hotspot totals, the golden pins every attribution row.

use std::fmt::Write as _;
use std::path::PathBuf;

use xt3_node::workloads::{traffic_machine, TrafficPattern};
use xt3_sim::RunOutcome;
use xt3_telemetry::{attribute, extract_chains, SeriesConfig};
use xt3_topology::coord::Dims;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/congestion_incast.txt")
}

#[test]
fn incast_attribution_table_matches_golden() {
    let mut m = traffic_machine(TrafficPattern::Incast, Dims::mesh(4, 4, 2), 2, 4096);
    m.config.telemetry = true;
    m.set_causal_enabled(true);
    m.enable_link_series(SeriesConfig {
        occupancy_cap: 65_536,
        ..SeriesConfig::default()
    });
    let mut engine = m.into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained, "incast must drain");
    let m = engine.into_model();

    let chains = extract_chains(m.causal()).expect("causal DAG is well-formed");
    let series = m.link_series().expect("series enabled");
    let mut table =
        attribute(&chains, m.causal(), Some(series), 8, 4).expect("the log holds the run whole");
    assert_eq!(
        table.residual(&chains),
        0,
        "attribution must sum exactly to the hop-queueing class"
    );
    table.canonicalize();

    let mut fresh = String::new();
    writeln!(fresh, "hotspots:").expect("string write");
    for h in series.hotspots(8) {
        writeln!(
            fresh,
            "n{} port{} stall_ps={} busy_ps={} msgs={}",
            h.node,
            h.port,
            h.stall.ps(),
            h.busy.ps(),
            h.msgs
        )
        .expect("string write");
    }
    writeln!(fresh, "table:").expect("string write");
    fresh.push_str(&table.render_text());

    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        let header = "# Incast congestion attribution — byte-exact golden (4x4x2, 2 rounds, \
                      4096 B puts).\n\
                      # Regenerate: UPDATE_GOLDEN=1 cargo test --test congestion_golden\n";
        std::fs::write(&path, header.to_string() + &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test congestion_golden",
            path.display()
        )
    });
    let golden_body: String = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        golden_body, fresh,
        "incast attribution drifted from the golden — re-bless only if the \
         timing-model change is intentional"
    );
}
