//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! at the repo root lists exactly these; a unit test keeps the two equal.

use std::collections::BTreeMap;

use crate::workloads::Workload;
use xt3_telemetry::{parse_json, JsonValue};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What kind of quantity a metric is — which decides how two runs of the
/// same code may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or host memory: subject to the box's noise.
    Host,
    /// A simulated time or an exact count read after a run: identical on
    /// every run of the same code and seed.
    Sim,
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Host-noisy or exact.
    pub kind: Kind,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Host,
        bound: Some(bound),
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Host,
        bound: None,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Sim,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// How long one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// What a user of the simulator sees, per workload, and may hold a later
/// change to. All host-side: the simulated results are exact and live in
/// [`PER_LAYER`] (`sim_elapsed_us`, `fig_error_pct`, `fail_ratio`), where
/// a zero or a value that repeats digit for digit is legitimate.
///
/// Throughput is the best timed pass's, not the mean's or the median's:
/// on a shared box interference only ever adds time, and over five
/// ten-run experiments the best pass spread 1-20 % where sum over sum
/// spread 5-25 % and the median pass 3-24 % (one episode on the parallel
/// workload aside), against a bound that may not exceed 25 % (README,
/// "Steadiness"). Every untraced run still describes
/// its sample of pass times: count, minimum, median, tail, maximum.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("peak_heap_bytes", "bytes", Lower, 0.02),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics, read after the traced pass (`Sim`) or timed by a
/// probe loop around the layer's public function (`Host`). A count is 0 on
/// a workload that does not execute the layer.
pub const PER_LAYER: [MetricDef; 84] = [
    // Exact end-to-end results (see END_TO_END for why they live here).
    sim("fail_ratio", "ratio", Lower),
    sim("sim_elapsed_us", "us", Lower),
    sim("fig_error_pct", "%", Lower),
    // sim::queue
    host("sim.queue.push_pop_ns", "ns", Lower),
    sim("sim.queue.depth_p50", "count", Lower),
    sim("sim.queue.depth_max", "count", Lower),
    // sim::engine
    host("sim.engine.loop_ns", "ns", Lower),
    sim("sim.engine.events", "count", Lower),
    // sim::par
    sim("sim.par.windows", "count", Lower),
    sim("sim.par.events_per_window", "count", Higher),
    host("sim.par.merge_runs_ns", "ns", Lower),
    host("sim.par.speedup", "ratio", Higher),
    // sim::causal
    host("sim.causal.record_ns", "ns", Lower),
    sim("sim.causal.kept_ratio", "ratio", Higher),
    host("sim.causal.overhead_ratio", "ratio", Lower),
    // sim::faults
    sim("sim.faults.injected", "count", Lower),
    // topology::route
    host("topology.route.next_port_ns", "ns", Lower),
    // topology::fabric / link
    host("topology.fabric.send_ns_per_hop", "ns", Lower),
    host("topology.fabric.send_observed_ns_per_hop", "ns", Lower),
    sim("topology.fabric.msgs", "count", Lower),
    sim("topology.fabric.hops_per_msg", "ratio", Lower),
    sim("topology.fabric.hol_stall_share", "ratio", Lower),
    sim("topology.fabric.peak_link_util", "ratio", Lower),
    sim("topology.link.retries", "count", Lower),
    // seastar::{ppc,dma}
    host("seastar.ppc.run_ns", "ns", Lower),
    host("seastar.dma.occupy_ns", "ns", Lower),
    sim("seastar.ppc.busy_share", "ratio", Lower),
    sim("seastar.dma.tx_busy_share", "ratio", Lower),
    sim("seastar.dma.rx_busy_share", "ratio", Lower),
    sim("seastar.dma.transfers", "count", Lower),
    // firmware::control
    host("firmware.tx_cmd_ns", "ns", Lower),
    host("firmware.rx_header_ns", "ns", Lower),
    host("firmware.rx_complete_ns", "ns", Lower),
    sim("firmware.rx_headers", "count", Lower),
    sim("firmware.piggyback_ratio", "ratio", Higher),
    sim("firmware.mailbox_high_water", "count", Lower),
    sim("firmware.rx_pool_high_water", "count", Lower),
    // firmware::gbn
    host("firmware.gbn.send_ack_ns", "ns", Lower),
    sim("firmware.gbn.retransmissions", "count", Lower),
    sim("firmware.gbn.retransmit_ratio", "ratio", Lower),
    // portals::library
    host("portals.match_ns", "ns", Lower),
    host("portals.eq.post_get_ns", "ns", Lower),
    sim("portals.eq_high_water", "count", Lower),
    // xt3::{machine,host}
    host("xt3.machine.build_ms", "ms", Lower),
    host("xt3.machine.build_bytes_per_node", "bytes", Lower),
    host("xt3.machine.event_ns", "ns", Lower),
    host("xt3.machine.late_early_ratio", "ratio", Higher),
    host("xt3.machine.unattributed_share", "ratio", Lower),
    sim("xt3.host.interrupts_per_msg", "ratio", Lower),
    sim("xt3.host.traps_per_msg", "ratio", Lower),
    sim("xt3.host.busy_share", "ratio", Lower),
    // xt3::par
    host("xt3.par.split_ms", "ms", Lower),
    host("xt3.par.merge_ms", "ms", Lower),
    // mpi, netpipe
    host("netpipe.curve_ms.put", "ms", Lower),
    host("netpipe.curve_ms.get", "ms", Lower),
    host("netpipe.curve_ms.mpich1", "ms", Lower),
    host("netpipe.curve_ms.mpich2", "ms", Lower),
    host("netpipe.curve_ms.rma", "ms", Lower),
    sim("mpi.events_per_msg.mpich1", "ratio", Lower),
    sim("mpi.events_per_msg.mpich2", "ratio", Lower),
    sim("mpi.events_per_msg.rma", "ratio", Lower),
    sim("netpipe.lat1b_us.put", "us", Lower),
    sim("netpipe.lat1b_us.get", "us", Lower),
    sim("netpipe.lat1b_us.mpich1", "us", Lower),
    sim("netpipe.lat1b_us.mpich2", "us", Lower),
    sim("netpipe.peak_mb_s.unidir", "MB/s", Higher),
    sim("netpipe.peak_mb_s.bidir", "MB/s", Higher),
    // telemetry::{registry,series}
    host("telemetry.registry.record_ns", "ns", Lower),
    host("telemetry.registry.overhead_ratio", "ratio", Lower),
    sim("telemetry.registry.span_kept_ratio", "ratio", Higher),
    host("telemetry.series.record_hop_ns", "ns", Lower),
    host("telemetry.series.overhead_ratio", "ratio", Lower),
    host("telemetry.series.heap_ratio", "ratio", Lower),
    sim("telemetry.series.occ_dropped", "count", Lower),
    // telemetry::{congestion,perfetto,json,critpath}
    host("telemetry.congestion.attribute_ms", "ms", Lower),
    host("telemetry.series.to_json_ms", "ms", Lower),
    host("telemetry.json.parse_mb_s", "MB/s", Higher),
    host("telemetry.perfetto.export_mb_s", "MB/s", Higher),
    host("telemetry.critpath.extract_ms", "ms", Lower),
    // bench::{campaign,parallel}
    host("bench.campaign.cell_ms_p50", "ms", Lower),
    sim("bench.campaign.cells", "count", Lower),
    host("bench.parallel.speedup", "ratio", Higher),
    // the benchmark itself
    host("benchmark.trace_overhead_ratio", "ratio", Lower),
    host("benchmark.timer_ns", "ns", Lower),
];

/// Values measured in one run, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "{name} is not in the catalogue"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded under `name`; 0 for a layer the workload never
    /// executed.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `num / den`, or 0 when the layer did nothing.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether `text`, the contents of `BENCHMARK.json`, lists exactly this
/// catalogue: run length, workloads with their `why`, and every metric
/// with the same unit, direction and bound, in the same order.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text).map_err(|e| format!("BENCHMARK.json does not parse: {e:?}"))?;
    let list = |key: &str| -> Result<&[JsonValue], String> {
        let v = doc.get(key).map_err(|_| format!("no {key}"))?;
        v.as_array().map_err(|_| format!("{key} is not a list"))
    };
    let field = |v: &JsonValue, key: &str| -> String {
        v.get(key)
            .and_then(|f| f.as_str().map(str::to_owned))
            .unwrap_or_default()
    };

    let seconds = doc.get("run_seconds").and_then(JsonValue::as_u64);
    if seconds.ok() != Some(RUN_SECONDS) {
        return Err(format!("run_seconds is not {RUN_SECONDS}"));
    }
    let listed = list("workloads")?;
    if listed.len() != Workload::ALL.len() {
        return Err(format!("{} workloads listed", listed.len()));
    }
    for (w, l) in Workload::ALL.iter().zip(listed) {
        if field(l, "name") != w.name() || field(l, "why") != w.why() {
            return Err(format!("workload {} differs", w.name()));
        }
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key)?;
        if listed.len() != defs.len() {
            return Err(format!(
                "{key} lists {} metrics, not {}",
                listed.len(),
                defs.len()
            ));
        }
        for (d, l) in defs.iter().zip(listed) {
            let bound = l.get("bound").and_then(JsonValue::as_f64).ok();
            if field(l, "name") != d.name
                || field(l, "unit") != d.unit
                || field(l, "better") != d.better.as_str()
                || bound != d.bound
            {
                return Err(format!("{key} metric {} differs", d.name));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = Workload::ALL.iter().map(|w| w.name());
        let metrics = END_TO_END.iter().chain(&PER_LAYER);
        for d in metrics.clone() {
            assert!(unit_ok(d.unit), "unit {:?} of {}", d.unit, d.name);
        }
        for name in workloads.chain(metrics.map(|d| d.name)) {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(!name_ok(".leading"), "must start with a letter or digit");
        assert!(!name_ok("has space"));
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        for d in &END_TO_END {
            let b = d.bound.unwrap();
            assert!(b <= 0.25 && b <= setup.bound.unwrap(), "{}", d.name);
        }
    }

    /// Every name printed appears in BENCHMARK.json and vice versa, with
    /// the same unit, direction and bound.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        check_benchmark_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    }

    #[test]
    fn a_benchmark_json_that_differs_is_refused() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let renamed = text.replace("\"sim.engine.events\"", "\"sim.engine.evts\"");
        assert!(check_benchmark_json(&renamed)
            .unwrap_err()
            .contains("sim.engine.events"));
        let rebound = text.replace("\"bound\": 0.02", "\"bound\": 0.2");
        assert!(check_benchmark_json(&rebound)
            .unwrap_err()
            .contains("peak_heap_bytes"));
    }
}
