//! Golden fence around `xt3::machine`: every replay-audit scenario, run
//! once with the telemetry registry, the causal log and the link series
//! all on, pinned to one line of outcomes in
//! `tests/golden/machine_paths.txt`.
//!
//! The replay audit compares two runs of the *same* build and the
//! figure goldens allow 0.1 %; this file compares *across* builds, to the
//! bit, on the things a restructure of the machine can move without
//! changing a NetPIPE curve: dispatch order (event digest), fault
//! decisions and per-node health (state fingerprint), causal record
//! order and parents (causal digest), every span and series bucket
//! (registry hash), and the hardware counters behind
//! `telemetry_report`.
//!
//! To bless an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test machine_paths_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use audit::replay;
use portals_xt3::sim::EventDigest;
use portals_xt3::xt3::Machine;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/machine_paths.txt")
}

/// FNV over everything the observation sinks hold after the run.
fn registry_hash(m: &Machine) -> u64 {
    let mut d = EventDigest::new();
    let tele = m.telemetry();
    d.write_str(&tele.perfetto_json_full(Some(m.causal()), m.link_series()));
    d.write_str(&m.link_series().expect("series on").to_json());
    d.value()
}

/// FNV over the hardware-model counters `telemetry_report` harvests
/// (folded field by field, so a new report field does not move it).
fn hardware_hash(m: &Machine, elapsed: portals_xt3::sim::SimTime) -> u64 {
    let mut d = EventDigest::new();
    for n in &m.telemetry_report("golden", elapsed).nodes {
        for v in [
            n.host_busy.ps(),
            n.host_interrupts,
            n.host_traps,
            n.ppc_busy.ps(),
            n.tx_dma.transfers,
            n.tx_dma.bytes,
            n.tx_dma.busy.ps(),
            n.rx_dma.transfers,
            n.rx_dma.bytes,
            n.rx_dma.busy.ps(),
            n.rx_headers,
            n.rx_piggybacked,
            n.rx_header_interrupts,
            n.rx_complete_interrupts,
            n.tx_interrupts,
            u64::from(n.mailbox_cmd_high_water),
            u64::from(n.rx_pool_high_water),
            u64::from(n.eq_high_water),
        ] {
            d.write_u64(v);
        }
        for l in &n.links {
            d.write_u8(l.port);
            for v in [l.packets, l.retries, l.busy.ps(), l.stall.ps()] {
                d.write_u64(v);
            }
        }
    }
    d.value()
}

fn render() -> String {
    let mut out = String::new();
    for scenario in replay::all_scenarios() {
        let mut m = scenario.build_machine();
        m.set_telemetry_enabled(true);
        m.set_causal_enabled(true);
        m.enable_link_series(Default::default());
        let mut engine = m.into_engine();
        engine.run();
        let (dispatched, now, digest) = (engine.dispatched(), engine.now(), engine.digest());
        let state = engine.state_fingerprint();
        let m = engine.into_model();
        writeln!(
            out,
            "{} dispatched={dispatched} now_ps={} running={} events={digest:#018x} \
             state={state:#018x} causal={:#018x} registry={:#018x} hardware={:#018x}",
            scenario.name,
            now.ps(),
            m.running_apps(),
            m.causal().digest(),
            registry_hash(&m),
            hardware_hash(&m, now),
        )
        .expect("string write");
    }
    out
}

#[test]
fn machine_paths_match_golden() {
    let path = golden_path();
    let fresh = render();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        let header =
            "# xt3::machine path fence: one line per replay-audit scenario, all sinks on.\n\
                      # Regenerate: UPDATE_GOLDEN=1 cargo test --test machine_paths_golden\n";
        std::fs::write(&path, header.to_string() + &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test machine_paths_golden",
            path.display()
        )
    });
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = fresh.lines().collect();
    assert_eq!(want.len(), got.len(), "scenario inventory changed");
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w, g, "machine path drifted from the golden line");
    }
}
