//! The paper's platform constants (§2, §3.3, §6) are the ones the model
//! charges: `netpipe::reference::platform` quotes the text, and the cost
//! model and the fabric it configures must carry the same values.

use xt3_netpipe::reference::platform;
use xt3_node::MachineConfig;
use xt3_seastar::cost::CostModel;
use xt3_sim::{Bandwidth, SimTime};

#[test]
fn the_cost_model_carries_the_quoted_platform_constants() {
    let cm = CostModel::paper();
    assert_eq!(cm.host_trap, SimTime::from_ns_f64(platform::NULL_TRAP_NS));
    assert_eq!(
        cm.host_interrupt,
        SimTime::from_ns_f64(platform::INTERRUPT_US * 1e3)
    );
    assert_eq!(
        cm.wire_link_bw,
        Bandwidth::from_gb_per_sec(platform::LINK_GB_S)
    );
    assert_eq!(cm.piggyback_max, platform::PIGGYBACK_BYTES);
    let link = MachineConfig::paper_pair().with_cost(cm).fabric.link;
    assert_eq!(link.header_piggyback_max, platform::PIGGYBACK_BYTES);

    // The paper's HyperTransport payload peak bounds only the ideal
    // model: the calibrated one runs at the practical DMA rate below it.
    let ideal = CostModel::ideal();
    let ht_peak = Bandwidth::from_gb_per_sec(platform::HT_PAYLOAD_GB_S);
    assert_eq!(ideal.ht_tx_payload, ht_peak);
    assert_eq!(ideal.ht_rx_payload, ht_peak);
    assert!(cm.ht_tx_payload < ht_peak && cm.ht_rx_payload < ht_peak);
}
