//! The machine-readable telemetry summary attached to benchmark results.
//!
//! [`TelemetryReport`] is the paper-facing accounting: host interrupts
//! per message (the §6 generic-mode story — two per message, one with the
//! 12-byte piggyback), host busy time per message, and per-hop link
//! utilization. The `xt3` machine fills one in from its per-node state;
//! the NetPIPE runner and the bench campaign attach it to their results,
//! and `cargo run -p xt3-bench -- explain telemetry` prints it.

use crate::json::quote;
use std::fmt::Write as _;
use xt3_sim::SimTime;

/// Summary of one DMA engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaSummary {
    /// Transfers performed.
    pub transfers: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Total engine busy time.
    pub busy: SimTime,
}

/// Summary of one outgoing fabric link that carried traffic.
#[derive(Debug, Clone)]
pub struct LinkSummary {
    /// Router port index (0..6).
    pub port: u8,
    /// Track name, e.g. `"link X+"`.
    pub name: &'static str,
    /// Wire packets carried.
    pub packets: u64,
    /// CRC retries performed.
    pub retries: u64,
    /// Total busy (serialization) time.
    pub busy: SimTime,
    /// Total head-of-line stall time (messages waiting for the link).
    pub stall: SimTime,
    /// Busy fraction of the whole run.
    pub utilization: f64,
}

/// Per-node accounting.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Node id.
    pub node: u32,
    /// Host CPU busy time.
    pub host_busy: SimTime,
    /// Host interrupts taken.
    pub host_interrupts: u64,
    /// Host traps (API entries) taken.
    pub host_traps: u64,
    /// PPC 440 busy time.
    pub ppc_busy: SimTime,
    /// Transmit DMA engine.
    pub tx_dma: DmaSummary,
    /// Receive DMA engine.
    pub rx_dma: DmaSummary,
    /// Messages whose header the firmware processed (incl. direct ones).
    pub rx_headers: u64,
    /// Messages completed via the ≤12 B header piggyback.
    pub rx_piggybacked: u64,
    /// Interrupts raised for new-message headers (one per host-path
    /// message in generic mode).
    pub rx_header_interrupts: u64,
    /// Interrupts raised for receive-DMA completions (the one the
    /// piggyback optimization eliminates).
    pub rx_complete_interrupts: u64,
    /// Interrupts raised for transmit completions.
    pub tx_interrupts: u64,
    /// Headers the firmware dropped because they named a process the
    /// node does not have.
    pub rx_bad_process_drops: u64,
    /// Deepest the firmware command mailbox ever got.
    pub mailbox_cmd_high_water: u32,
    /// SRAM receive-pending pool high-water mark.
    pub rx_pool_high_water: u32,
    /// SRAM receive-pending pool capacity.
    pub rx_pool_capacity: u32,
    /// Deepest any Portals event queue ever got.
    pub eq_high_water: u32,
    /// Links with traffic, by port.
    pub links: Vec<LinkSummary>,
}

/// How much of the run a capped recording sink still holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkKept {
    /// Entries stored.
    pub kept: u64,
    /// Entries counted and discarded at the cap.
    pub dropped: u64,
}

impl SinkKept {
    /// Stored over recorded; 1 for a sink that was offered nothing.
    pub fn ratio(&self) -> f64 {
        match self.kept + self.dropped {
            0 => 1.0,
            offered => self.kept as f64 / offered as f64,
        }
    }
}

/// The full report: one entry per node plus run-level identification.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// What ran (scenario name).
    pub label: String,
    /// Simulated run length.
    pub elapsed: SimTime,
    /// Per-node accounting.
    pub nodes: Vec<NodeReport>,
    /// Timeline spans the registry kept. Like `causal_records`, printed by
    /// [`TelemetryReport::render_table`] and not part of the JSON: it
    /// describes the recorder that watched the run, not the machine.
    pub spans: SinkKept,
    /// Records the causal log kept; anything dropped means chains cannot
    /// be extracted from it ([`crate::CritPathError::Truncated`]).
    pub causal_records: SinkKept,
}

impl TelemetryReport {
    /// Messages delivered through the host receive path (header
    /// interrupts; direct replies/acks bypass the host and are excluded).
    pub fn host_path_messages(&self) -> u64 {
        self.nodes.iter().map(|n| n.rx_header_interrupts).sum()
    }

    /// Total receive-path interrupts (header + DMA-completion).
    pub fn rx_interrupts(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.rx_header_interrupts + n.rx_complete_interrupts)
            .sum()
    }

    /// Receive-path host interrupts per delivered message: the paper's §6
    /// metric. Exactly 2.0 in generic mode, exactly 1.0 when every
    /// payload rides the 12-byte header piggyback.
    pub fn rx_interrupts_per_message(&self) -> f64 {
        let msgs = self.host_path_messages();
        if msgs == 0 {
            0.0
        } else {
            self.rx_interrupts() as f64 / msgs as f64
        }
    }

    /// Messages completed via the ≤12 B header piggyback.
    pub fn piggybacked_messages(&self) -> u64 {
        self.nodes.iter().map(|n| n.rx_piggybacked).sum()
    }

    /// Receive interrupts per full-path (>12 B, non-piggybacked) message:
    /// exactly 2.0 when every such message pays the header interrupt plus
    /// the RX-DMA completion interrupt.
    pub fn rx_interrupts_per_full_message(&self) -> f64 {
        let piggy = self.piggybacked_messages();
        let full = self.host_path_messages().saturating_sub(piggy);
        if full == 0 {
            0.0
        } else {
            // Piggybacked messages contribute exactly their header
            // interrupt; everything else belongs to the full path.
            (self.rx_interrupts() - piggy) as f64 / full as f64
        }
    }

    /// Receive interrupts per piggybacked (≤12 B) message: exactly 1.0
    /// when the piggyback eliminates the completion interrupt. Completion
    /// interrupts in excess of the full-message count are attributed here,
    /// so a piggybacked message that wrongly paid one shows up as > 1.
    pub fn rx_interrupts_per_piggybacked_message(&self) -> f64 {
        let piggy = self.piggybacked_messages();
        if piggy == 0 {
            return 0.0;
        }
        let full = self.host_path_messages().saturating_sub(piggy);
        let completes: u64 = self.nodes.iter().map(|n| n.rx_complete_interrupts).sum();
        let excess = completes.saturating_sub(full);
        (piggy + excess) as f64 / piggy as f64
    }

    /// Total host CPU time per delivered message, in microseconds.
    pub fn host_us_per_message(&self) -> f64 {
        let msgs = self.host_path_messages();
        if msgs == 0 {
            return 0.0;
        }
        let busy: f64 = self.nodes.iter().map(|n| n.host_busy.as_us_f64()).sum();
        busy / msgs as f64
    }

    /// Utilization of the busiest link in the report.
    pub fn peak_link_utilization(&self) -> f64 {
        self.nodes
            .iter()
            .flat_map(|n| n.links.iter())
            .map(|l| l.utilization)
            .fold(0.0, f64::max)
    }

    /// Render the paper-facing summary as aligned text.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== telemetry: {} ==", self.label);
        let _ = writeln!(out, "elapsed: {:.3} us", self.elapsed.as_us_f64());
        let _ = writeln!(
            out,
            "messages (host path): {}   rx interrupts/message: {:.3}   host us/message: {:.3}",
            self.host_path_messages(),
            self.rx_interrupts_per_message(),
            self.host_us_per_message()
        );
        let _ = writeln!(
            out,
            "piggybacked: {}   ints/full message: {:.3}   ints/piggybacked message: {:.3}",
            self.piggybacked_messages(),
            self.rx_interrupts_per_full_message(),
            self.rx_interrupts_per_piggybacked_message()
        );
        let _ = writeln!(
            out,
            "spans kept: {}/{} ({:.3})   causal records kept: {}/{} ({:.3})",
            self.spans.kept,
            self.spans.kept + self.spans.dropped,
            self.spans.ratio(),
            self.causal_records.kept,
            self.causal_records.kept + self.causal_records.dropped,
            self.causal_records.ratio()
        );
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8} {:>8}",
            "node",
            "host-us",
            "ppc-us",
            "ints",
            "traps",
            "piggy",
            "txdma-B",
            "rxdma-B",
            "mbox-hw",
            "eq-hw"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "{:>5} {:>10.3} {:>10.3} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8} {:>8}",
                n.node,
                n.host_busy.as_us_f64(),
                n.ppc_busy.as_us_f64(),
                n.host_interrupts,
                n.host_traps,
                n.rx_piggybacked,
                n.tx_dma.bytes,
                n.rx_dma.bytes,
                n.mailbox_cmd_high_water,
                n.eq_high_water
            );
        }
        let mut any_link = false;
        for n in &self.nodes {
            for l in &n.links {
                if !any_link {
                    any_link = true;
                    let _ = writeln!(
                        out,
                        "{:>5} {:>9} {:>10} {:>8} {:>10} {:>10} {:>8}",
                        "node", "port", "packets", "retries", "busy-us", "stall-us", "util"
                    );
                }
                let _ = writeln!(
                    out,
                    "{:>5} {:>9} {:>10} {:>8} {:>10.3} {:>10.3} {:>7.1}%",
                    n.node,
                    l.name,
                    l.packets,
                    l.retries,
                    l.busy.as_us_f64(),
                    l.stall.as_us_f64(),
                    l.utilization * 100.0
                );
            }
        }
        out
    }

    /// Serialize to JSON (hand-rolled; [`crate::parse_json`] reads it).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"label\": {},", quote(&self.label));
        let _ = writeln!(out, "  \"elapsed_ps\": {},", self.elapsed.ps());
        let _ = writeln!(
            out,
            "  \"rx_interrupts_per_message\": {:?},",
            self.rx_interrupts_per_message()
        );
        let _ = writeln!(
            out,
            "  \"host_us_per_message\": {:?},",
            self.host_us_per_message()
        );
        out.push_str("  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"node\": {},", n.node);
            let _ = writeln!(out, "      \"host_busy_ps\": {},", n.host_busy.ps());
            let _ = writeln!(out, "      \"host_interrupts\": {},", n.host_interrupts);
            let _ = writeln!(out, "      \"host_traps\": {},", n.host_traps);
            let _ = writeln!(out, "      \"ppc_busy_ps\": {},", n.ppc_busy.ps());
            for (key, d) in [("tx_dma", &n.tx_dma), ("rx_dma", &n.rx_dma)] {
                let _ = writeln!(
                    out,
                    "      \"{key}\": {{ \"transfers\": {}, \"bytes\": {}, \"busy_ps\": {} }},",
                    d.transfers,
                    d.bytes,
                    d.busy.ps()
                );
            }
            let _ = writeln!(out, "      \"rx_headers\": {},", n.rx_headers);
            let _ = writeln!(out, "      \"rx_piggybacked\": {},", n.rx_piggybacked);
            let _ = writeln!(
                out,
                "      \"rx_header_interrupts\": {},",
                n.rx_header_interrupts
            );
            let _ = writeln!(
                out,
                "      \"rx_complete_interrupts\": {},",
                n.rx_complete_interrupts
            );
            let _ = writeln!(out, "      \"tx_interrupts\": {},", n.tx_interrupts);
            let _ = writeln!(
                out,
                "      \"rx_bad_process_drops\": {},",
                n.rx_bad_process_drops
            );
            let _ = writeln!(
                out,
                "      \"mailbox_cmd_high_water\": {},",
                n.mailbox_cmd_high_water
            );
            let _ = writeln!(
                out,
                "      \"rx_pool_high_water\": {},",
                n.rx_pool_high_water
            );
            let _ = writeln!(out, "      \"rx_pool_capacity\": {},", n.rx_pool_capacity);
            let _ = writeln!(out, "      \"eq_high_water\": {},", n.eq_high_water);
            out.push_str("      \"links\": [");
            for (li, l) in n.links.iter().enumerate() {
                out.push_str(if li == 0 { "\n" } else { ",\n" });
                let _ = write!(
                    out,
                    "        {{ \"port\": {}, \"packets\": {}, \"retries\": {}, \"busy_ps\": {}, \"stall_ps\": {}, \"utilization\": {:?} }}",
                    l.port,
                    l.packets,
                    l.retries,
                    l.busy.ps(),
                    l.stall.ps(),
                    l.utilization
                );
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetryReport {
        TelemetryReport {
            label: "put pingpong 4096B".into(),
            elapsed: SimTime::from_us(500),
            nodes: vec![
                NodeReport {
                    node: 0,
                    host_busy: SimTime::from_us(40),
                    host_interrupts: 40,
                    host_traps: 20,
                    ppc_busy: SimTime::from_us(10),
                    tx_dma: DmaSummary {
                        transfers: 10,
                        bytes: 40960,
                        busy: SimTime::from_us(15),
                    },
                    rx_dma: DmaSummary {
                        transfers: 10,
                        bytes: 40960,
                        busy: SimTime::from_us(15),
                    },
                    rx_headers: 10,
                    rx_piggybacked: 0,
                    rx_header_interrupts: 10,
                    rx_complete_interrupts: 10,
                    tx_interrupts: 10,
                    rx_bad_process_drops: 1,
                    mailbox_cmd_high_water: 2,
                    rx_pool_high_water: 3,
                    rx_pool_capacity: 768,
                    eq_high_water: 2,
                    links: vec![LinkSummary {
                        port: 0,
                        name: "link X+",
                        packets: 650,
                        retries: 0,
                        busy: SimTime::from_us(17),
                        stall: SimTime::from_ns(300),
                        utilization: 0.034,
                    }],
                },
                NodeReport {
                    node: 1,
                    rx_header_interrupts: 10,
                    rx_complete_interrupts: 10,
                    ..NodeReport::default()
                },
            ],
            spans: SinkKept {
                kept: 750,
                dropped: 250,
            },
            causal_records: SinkKept::default(),
        }
    }

    #[test]
    fn paper_metrics_from_counts() {
        let r = sample();
        assert_eq!(r.host_path_messages(), 20);
        assert_eq!(r.rx_interrupts(), 40);
        assert!((r.rx_interrupts_per_message() - 2.0).abs() < 1e-12);
        assert!((r.peak_link_utilization() - 0.034).abs() < 1e-12);
        assert!(r.host_us_per_message() > 0.0);
    }

    /// The `u64` at `key` of a parsed JSON object.
    fn u64_at(v: &crate::JsonValue, key: &str) -> u64 {
        v.get(key).and_then(crate::JsonValue::as_u64).expect(key)
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let back = crate::parse_json(&r.to_json()).expect("round-trips");
        assert_eq!(
            back.get("label").and_then(|l| l.as_str()),
            Ok(r.label.as_str())
        );
        assert_eq!(u64_at(&back, "elapsed_ps"), r.elapsed.ps());
        let nodes = back.get("nodes").and_then(|n| n.as_array()).expect("nodes");
        assert_eq!(nodes.len(), 2);
        let tx_dma = nodes[0].get("tx_dma").expect("tx_dma");
        assert_eq!(u64_at(tx_dma, "bytes"), 40960);
        let links = nodes[0]
            .get("links")
            .and_then(|l| l.as_array())
            .expect("links");
        assert_eq!(u64_at(&links[0], "packets"), 650);
        let port = u64_at(&links[0], "port") as u8;
        assert_eq!(crate::Component::Link(port).track_name(), "link X+");
        let rx_interrupts: u64 = nodes
            .iter()
            .map(|n| u64_at(n, "rx_header_interrupts") + u64_at(n, "rx_complete_interrupts"))
            .sum();
        assert_eq!(rx_interrupts, r.rx_interrupts());
        assert_eq!(u64_at(&nodes[0], "rx_bad_process_drops"), 1);
    }

    #[test]
    fn table_mentions_the_paper_metrics() {
        let txt = sample().render_table();
        assert!(txt.contains("rx interrupts/message: 2.000"));
        assert!(txt.contains("link X+"));
        assert!(txt.contains("host us/message"));
        assert!(txt.contains("spans kept: 750/1000 (0.750)"));
        assert!(txt.contains("causal records kept: 0/0 (1.000)"));
    }

    #[test]
    fn empty_report_is_safe() {
        let r = TelemetryReport::default();
        assert_eq!(r.rx_interrupts_per_message(), 0.0);
        assert_eq!(r.host_us_per_message(), 0.0);
        let back = crate::parse_json(&r.to_json()).expect("parses");
        let nodes = back.get("nodes").and_then(|n| n.as_array()).expect("nodes");
        assert!(nodes.is_empty());
    }
}
