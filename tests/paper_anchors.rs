//! The paper's platform constants (§2, §3.3, §6) are the ones the model
//! charges: `netpipe::reference::platform` quotes the text, and the cost
//! model, the link and the machine's fabric must carry the same values.

use xt3_netpipe::reference::platform;
use xt3_netpipe::runner::{build_engine, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::Schedule;
use xt3_node::MachineConfig;
use xt3_seastar::cost::CostModel;
use xt3_sim::{Bandwidth, RunOutcome, SimTime};
use xt3_topology::coord::{NodeId, Port};
use xt3_topology::link::LinkConfig;

#[test]
fn the_cost_model_carries_the_quoted_platform_constants() {
    let cm = CostModel::paper();
    assert_eq!(cm.host_trap, SimTime::from_ns_f64(platform::NULL_TRAP_NS));
    assert_eq!(
        cm.host_interrupt,
        SimTime::from_ns_f64(platform::INTERRUPT_US * 1e3)
    );
    let link = LinkConfig::default();
    assert_eq!(
        link.payload_bandwidth,
        Bandwidth::from_gb_per_sec(platform::LINK_GB_S)
    );
    assert_eq!(link.header_piggyback_max, platform::PIGGYBACK_BYTES);
    let link = MachineConfig::paper_pair().fabric.link;
    assert_eq!(link.header_piggyback_max, platform::PIGGYBACK_BYTES);

    // The paper's HyperTransport payload peak bounds only the ideal
    // model: the calibrated one runs at the practical DMA rate below it.
    let ideal = CostModel::ideal();
    let ht_peak = Bandwidth::from_gb_per_sec(platform::HT_PAYLOAD_GB_S);
    assert_eq!(ideal.ht_tx_payload, ht_peak);
    assert_eq!(ideal.ht_rx_payload, ht_peak);
    assert!(cm.ht_tx_payload < ht_peak && cm.ht_rx_payload < ht_peak);
}

/// Wire packets per 8 B put, and the RX-complete interrupts both nodes
/// took, over one 8 B put ping-pong under piggyback limit `limit`. The
/// run's payload-free messages take one packet at any limit.
fn eight_byte_pingpong(limit: u32) -> (u64, u64) {
    let mut config = NetpipeConfig {
        schedule: Schedule::fixed(8, 10),
        ..NetpipeConfig::paper_latency()
    };
    config.machine.fabric.link = config.machine.fabric.link.with_piggyback_max(limit);
    let mut engine = build_engine(&config, Transport::Put, TestKind::PingPong);
    assert_eq!(engine.run(), RunOutcome::Drained);
    let m = engine.into_model();
    let packets = m.fabric.link(NodeId(0), Port::XPlus).packets_carried()
        + m.fabric.link(NodeId(1), Port::XMinus).packets_carried();
    let puts = m.fabric.bytes_sent() / 8;
    let empty = m.fabric.messages_sent() - puts;
    assert!(puts >= 20, "ten round trips of two 8 B puts");
    assert_eq!((packets - empty) % puts, 0);
    let interrupts = m
        .nodes
        .iter()
        .map(|n| n.fw.counters().rx_complete_interrupts)
        .sum();
    ((packets - empty) / puts, interrupts)
}

#[test]
fn fabric_and_firmware_read_one_piggyback_limit() {
    // Limit 0: the 8 B payload takes a packet of its own and the RX DMA
    // deposit that ends in a completion interrupt.
    let (packets, interrupts) = eight_byte_pingpong(0);
    assert_eq!(packets, 2);
    assert!(interrupts > 0);
    // The paper's 12 B: the payload rides in the header packet and the
    // firmware completes the put without one (§6).
    let (packets, interrupts) = eight_byte_pingpong(platform::PIGGYBACK_BYTES);
    assert_eq!(packets, 1);
    assert_eq!(interrupts, 0);
}
