//! Machine, node and process configuration.

use serde::{Deserialize, Serialize};
use xt3_firmware::control::FwConfig;
use xt3_nal::bridge::BridgeKind;
use xt3_seastar::cost::CostModel;
use xt3_topology::coord::Dims;
use xt3_topology::fabric::FabricConfig;

/// Operating system on a node (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OsKind {
    /// The Catamount lightweight compute-node kernel.
    Catamount,
    /// Linux (service and login nodes; Lustre servers).
    Linux,
}

/// What happens when firmware resources run out (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExhaustionPolicy {
    /// The paper's shipped behaviour: panic the node ("results in
    /// application failure").
    Panic,
    /// The paper's in-progress fix: go-back-n retransmission.
    GoBackN,
}

/// One process on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcSpec {
    /// Which bridge its API calls cross.
    pub bridge: BridgeKind,
    /// Generic (host-driven) or accelerated (NIC-offloaded) Portals.
    pub accelerated: bool,
    /// Process address-space size in bytes.
    pub mem_bytes: usize,
}

impl ProcSpec {
    /// A Catamount compute application in generic mode (the configuration
    /// every §6 benchmark ran in).
    pub fn catamount_generic() -> Self {
        ProcSpec {
            bridge: BridgeKind::Qk,
            accelerated: false,
            mem_bytes: 48 << 20,
        }
    }

    /// A Catamount compute application in accelerated mode (§3.3 future
    /// work; implemented here for the ablation).
    pub fn catamount_accelerated() -> Self {
        ProcSpec {
            bridge: BridgeKind::Qk,
            accelerated: true,
            mem_bytes: 48 << 20,
        }
    }

    /// A Linux user-level application (ukbridge).
    pub fn linux_user() -> Self {
        ProcSpec {
            bridge: BridgeKind::Uk,
            accelerated: false,
            mem_bytes: 48 << 20,
        }
    }

    /// A Linux kernel-level service (kbridge; the Lustre path).
    pub fn linux_kernel_service() -> Self {
        ProcSpec {
            bridge: BridgeKind::K,
            accelerated: false,
            mem_bytes: 48 << 20,
        }
    }
}

/// One node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Operating system.
    pub os: OsKind,
    /// Processes, indexed by Portals pid.
    pub procs: Vec<ProcSpec>,
}

impl NodeSpec {
    /// A Catamount compute node with one generic application — the §6
    /// benchmark configuration.
    pub fn catamount_compute() -> Self {
        NodeSpec {
            os: OsKind::Catamount,
            procs: vec![ProcSpec::catamount_generic()],
        }
    }

    /// A Catamount compute node with one accelerated application.
    pub fn catamount_accelerated() -> Self {
        NodeSpec {
            os: OsKind::Catamount,
            procs: vec![ProcSpec::catamount_accelerated()],
        }
    }

    /// A Linux service node with a user process and a kernel service
    /// sharing the NIC (§3.2: ukbridge and kbridge run simultaneously).
    pub fn linux_service() -> Self {
        NodeSpec {
            os: OsKind::Linux,
            procs: vec![ProcSpec::linux_user(), ProcSpec::linux_kernel_service()],
        }
    }
}

/// Whole-machine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Machine shape.
    pub dims: Dims,
    /// The platform cost model.
    pub cost: CostModel,
    /// Fabric parameters.
    pub fabric: FabricConfig,
    /// Firmware pool sizing.
    pub fw: FwConfig,
    /// Resource-exhaustion behaviour.
    pub exhaustion: ExhaustionPolicy,
    /// When true, payloads are length-only (`WireData::Synthetic`) so bulk
    /// benchmarks skip megabyte memcpys. Correctness tests set this false.
    pub synthetic_payload: bool,
    /// RAS heartbeat interval (Figure 3's control-block heartbeat); None
    /// disables the tick.
    pub ras_heartbeat: Option<xt3_sim::SimTime>,
    /// Base RNG seed (address-space layout, CRC injection).
    pub seed: u64,
    /// Enable event tracing.
    pub trace: bool,
    /// Enable the cross-layer telemetry sink (occupancy timelines,
    /// deterministic counters). Digest-neutral: simulation outcomes are
    /// bit-identical with this on or off.
    pub telemetry: bool,
    /// Deterministic fault-injection plan (inactive by default). Active
    /// plans pair naturally with [`ExhaustionPolicy::GoBackN`]; under
    /// `Panic`, injected losses kill nodes exactly like real ones.
    pub faults: xt3_sim::FaultPlan,
}

impl MachineConfig {
    /// The §6 benchmark configuration over `dims` with the calibrated cost
    /// model.
    pub fn paper(dims: Dims) -> Self {
        let cost = CostModel::paper();
        MachineConfig {
            dims,
            cost,
            fabric: FabricConfig::default(),
            fw: FwConfig::default(),
            exhaustion: ExhaustionPolicy::Panic,
            synthetic_payload: true,
            ras_heartbeat: None,
            seed: 0xC0FFEE,
            trace: false,
            telemetry: false,
            faults: xt3_sim::FaultPlan::none(),
        }
        .with_cost(cost)
    }

    /// Two adjacent nodes — the NetPIPE configuration.
    pub fn paper_pair() -> Self {
        Self::paper(Dims::mesh(2, 1, 1))
    }

    /// Use a custom cost model, propagating the wire constants into the
    /// fabric config.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self.fabric.link.payload_bandwidth = cost.wire_link_bw;
        self.fabric.link.hop_latency = cost.wire_hop_latency;
        self.fabric.link.packet_bytes = cost.wire_packet_bytes;
        self.fabric.link.header_piggyback_max = cost.piggyback_max;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_defaults() {
        let c = MachineConfig::paper_pair();
        assert_eq!(c.dims.node_count(), 2);
        assert_eq!(c.exhaustion, ExhaustionPolicy::Panic);
        assert!(c.synthetic_payload);
        assert_eq!(c.fabric.link.header_piggyback_max, 12);
    }

    #[test]
    fn with_cost_propagates_wire_constants() {
        let cost = CostModel::paper().with_piggyback_max(32);
        let c = MachineConfig::paper_pair().with_cost(cost);
        assert_eq!(c.fabric.link.header_piggyback_max, 32);
    }

    #[test]
    fn node_spec_presets() {
        assert_eq!(NodeSpec::catamount_compute().procs.len(), 1);
        assert!(!NodeSpec::catamount_compute().procs[0].accelerated);
        assert!(NodeSpec::catamount_accelerated().procs[0].accelerated);
        let svc = NodeSpec::linux_service();
        assert_eq!(svc.procs.len(), 2);
        assert_eq!(svc.procs[0].bridge, BridgeKind::Uk);
        assert_eq!(svc.procs[1].bridge, BridgeKind::K);
    }
}
