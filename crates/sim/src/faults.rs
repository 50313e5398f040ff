//! Seeded, deterministic fault injection.
//!
//! Red Storm's 10k-node torus produced link errors, SRAM pool exhaustion
//! and firmware faults as a matter of course; the GBN layer, the CRC
//! checks, and the firmware-fault isolation path exist to survive them
//! (paper §2, §6). This module turns those adversarial conditions into a
//! first-class, replayable input: a [`FaultPlan`] describes *what* can go
//! wrong, a [`FaultInjector`] decides *when* it goes wrong — from its own
//! forked [`SimRng`] streams so a plan's decisions never perturb the
//! model's other randomness — and every decision is folded into a
//! streaming [`EventDigest`] so two runs of the same seed inject the same
//! faults at the same instants, bit for bit.
//!
//! The injector is pure policy: it never touches model state. The machine
//! asks it questions ("what is this packet's fate?", "is the SRAM pool
//! pulsed off right now?") and applies the answers itself; the
//! injector's own counters ([`FaultStats`]) and decision digest are the
//! record of what was injected.

use crate::digest::{DigestLanes, EventDigest};
use crate::rng::SimRng;
use crate::time::SimTime;

/// A half-open interval of simulated time `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// First instant inside the window.
    pub start: SimTime,
    /// First instant after the window.
    pub end: SimTime,
}

impl TimeWindow {
    /// Build a window covering `[start, end)`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        TimeWindow { start, end }
    }

    /// Does `t` fall inside the window?
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// Per-message wire fault probabilities.
///
/// Applied to every non-loopback message a node injects into the fabric.
/// A *drop* loses the message entirely (the GBN timeout must repair it);
/// a *corrupt* flips payload bits that escape the 16-bit link CRC so the
/// receiver's end-to-end 32-bit check rejects the deposit (§2); a
/// *reorder* holds the message back by up to [`LinkFaults::reorder_window`]
/// so it lands behind traffic injected after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped in flight.
    pub drop_prob: f64,
    /// Probability a data payload arrives corrupted (escaped link CRC).
    pub corrupt_prob: f64,
    /// Probability a message is delayed past later traffic.
    pub reorder_prob: f64,
    /// Maximum extra delivery delay for a reordered message.
    pub reorder_window: SimTime,
}

impl LinkFaults {
    /// No wire faults at all.
    pub const NONE: LinkFaults = LinkFaults {
        drop_prob: 0.0,
        corrupt_prob: 0.0,
        reorder_prob: 0.0,
        reorder_window: SimTime(0),
    };

    /// Any fault probability non-zero?
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.corrupt_prob > 0.0 || self.reorder_prob > 0.0
    }
}

/// A pulse during which a node's SeaStar SRAM receive pool reports
/// exhaustion for every arriving header, regardless of actual occupancy.
///
/// Models the paper's §6 overflow condition (more incoming messages than
/// `rx_pendings`) as a forcible squeeze, driving the configured
/// [exhaustion policy](https://en.wikipedia.org/wiki/Go-Back-N_ARQ) —
/// NACK + go-back-N recovery, or firmware panic under the strict policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramPulse {
    /// Affected node, or `None` for every node.
    pub node: Option<u32>,
    /// When the pool is squeezed.
    pub window: TimeWindow,
}

/// What kind of firmware misbehaviour a planned event injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwFaultKind {
    /// The embedded PowerPC stops serving handlers for this long (e.g. a
    /// watchdog-recovered wedge); queued work resumes afterwards.
    Stall(SimTime),
    /// The firmware takes an unrecoverable fault: the node goes dark and
    /// must be isolated without aborting the rest of the machine.
    Fault,
}

/// One scheduled firmware fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FwFaultEvent {
    /// The node whose firmware misbehaves.
    pub node: u32,
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FwFaultKind,
}

/// A window during which host interrupt delivery on a node incurs extra
/// latency (e.g. the host OS masking interrupts through a long critical
/// section — the jitter source Catamount exists to avoid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptSpike {
    /// Affected node, or `None` for every node.
    pub node: Option<u32>,
    /// When deliveries are delayed.
    pub window: TimeWindow,
    /// Extra delay added to each interrupt raised inside the window.
    pub extra: SimTime,
}

/// A complete, declarative fault schedule for one simulation run.
///
/// The plan is data: it can be cloned into a [`crate::engine::Model`]'s
/// config, serialized, and compared. All randomness derives from
/// [`FaultPlan::seed`], so equal plans make equal decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG streams.
    pub seed: u64,
    /// Wire-level fault probabilities.
    pub link: LinkFaults,
    /// SRAM pool-exhaustion pulses.
    pub sram_pulses: Vec<SramPulse>,
    /// Scheduled firmware stall/fault events.
    pub fw_events: Vec<FwFaultEvent>,
    /// Host interrupt-delay spikes.
    pub interrupt_spikes: Vec<InterruptSpike>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing. A machine built
    /// with this plan behaves bit-identically to one with no fault
    /// subsystem at all.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            link: LinkFaults::NONE,
            sram_pulses: Vec::new(),
            fw_events: Vec::new(),
            interrupt_spikes: Vec::new(),
        }
    }

    /// A wire-noise plan: drop with probability `rate`, corrupt with
    /// `rate / 2`, reorder with `rate / 2` inside a 5 µs window. This is
    /// the standard knob the fault campaign sweeps.
    pub fn wire(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            link: LinkFaults {
                drop_prob: rate,
                corrupt_prob: rate / 2.0,
                reorder_prob: rate / 2.0,
                reorder_window: SimTime::from_us(5),
            },
            ..FaultPlan::none()
        }
    }

    /// Add an SRAM pool-exhaustion pulse.
    pub fn with_sram_pulse(mut self, node: Option<u32>, window: TimeWindow) -> Self {
        self.sram_pulses.push(SramPulse { node, window });
        self
    }

    /// Add a scheduled firmware stall or fault.
    pub fn with_fw_event(mut self, node: u32, at: SimTime, kind: FwFaultKind) -> Self {
        self.fw_events.push(FwFaultEvent { node, at, kind });
        self
    }

    /// Add a host interrupt-delay spike.
    pub fn with_interrupt_spike(
        mut self,
        node: Option<u32>,
        window: TimeWindow,
        extra: SimTime,
    ) -> Self {
        self.interrupt_spikes.push(InterruptSpike {
            node,
            window,
            extra,
        });
        self
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.link.is_active()
            || !self.sram_pulses.is_empty()
            || !self.fw_events.is_empty()
            || !self.interrupt_spikes.is_empty()
    }
}

/// The fate the injector assigns to one wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Deliver normally.
    Deliver,
    /// Lose the message entirely.
    Drop,
    /// Deliver with the payload corrupted (escaped-CRC flag set).
    Corrupt,
    /// Deliver late by this much (reordering it behind later traffic).
    Delay(SimTime),
}

/// Counters for every category of injected fault.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped in flight.
    pub dropped: u64,
    /// Data payloads delivered corrupted: each reaches its receiver's
    /// end-to-end CRC.
    pub corrupted_data: u64,
    /// Control messages (ACK/NACK) corrupted: each fails its CRC at the
    /// link and is dropped there.
    pub corrupted_control: u64,
    /// Messages delayed/reordered.
    pub reordered: u64,
    /// Headers rejected by a forced SRAM pool squeeze.
    pub sram_rejections: u64,
    /// Interrupts delivered late.
    pub interrupt_spikes: u64,
    /// Firmware stalls fired.
    pub fw_stalls: u64,
    /// Unrecoverable firmware faults fired.
    pub fw_faults: u64,
}

impl FaultStats {
    /// Total injected faults across all categories.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.corrupted_data
            + self.corrupted_control
            + self.reordered
            + self.sram_rejections
            + self.interrupt_spikes
            + self.fw_stalls
            + self.fw_faults
    }

    /// Wire-level faults only (drop + corrupt + reorder).
    pub fn wire_total(&self) -> u64 {
        self.dropped + self.corrupted_data + self.corrupted_control + self.reordered
    }
}

/// Digest codes, one per fault category, folded ahead of each decision.
const D_DROP: u8 = 1;
const D_CORRUPT: u8 = 2;
const D_REORDER: u8 = 3;
const D_SRAM: u8 = 4;
const D_INT: u8 = 5;
const D_STALL: u8 = 6;
const D_FAULT: u8 = 7;

/// The runtime half of the fault subsystem: owns the plan, the counters
/// and the fault digest.
///
/// Determinism contract: every decision is a pure function of the plan
/// and the query itself. Wire fates hash `(seed, now, src, dst, tag)`
/// into a per-message RNG, so the decision is independent of the order
/// in which messages are queried — which is exactly what lets a
/// spatially partitioned parallel run (where shards query their own
/// nodes' messages concurrently) reproduce a serial run's fault stream
/// bit for bit. Counters and per-node digest lanes accumulate as
/// queries are made and merge across shards by disjoint union.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    stats: FaultStats,
    lanes: DigestLanes,
    active: bool,
}

impl FaultInjector {
    /// Build an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let active = plan.is_active();
        FaultInjector {
            plan,
            stats: FaultStats::default(),
            lanes: DigestLanes::new(),
            active,
        }
    }

    /// Is any fault category enabled? Models use this to gate recovery
    /// hardening that must not perturb fault-free baseline runs.
    pub fn active(&self) -> bool {
        self.active
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Streaming digest over every injected fault (category, time,
    /// detail — folded into the deciding node's lane, lanes combined in
    /// canonical node order). Folded into the model's state fingerprint
    /// so replay comparison covers the fault stream, not just the event
    /// stream; a partitioned run reproduces it by merging per-node lanes.
    pub fn digest(&self) -> u64 {
        self.lanes.value()
    }

    /// Fold another injector's decisions into this one (parallel-shard
    /// merge). Shards decide faults for disjoint node sets, so per-node
    /// lanes transfer wholesale and counters sum.
    pub fn merge_from(&mut self, other: &FaultInjector) {
        let s = other.stats;
        self.stats.dropped += s.dropped;
        self.stats.corrupted_data += s.corrupted_data;
        self.stats.corrupted_control += s.corrupted_control;
        self.stats.reordered += s.reordered;
        self.stats.sram_rejections += s.sram_rejections;
        self.stats.interrupt_spikes += s.interrupt_spikes;
        self.stats.fw_stalls += s.fw_stalls;
        self.stats.fw_faults += s.fw_faults;
        self.lanes.merge_from(&other.lanes);
    }

    /// Decide the fate of one wire message injected at `now` from `src`
    /// to `dst` with correlation `tag`. Loopback traffic never reaches
    /// the wire, so callers skip it.
    ///
    /// The decision hashes the message's identity `(now, src, dst, tag)`
    /// with the plan seed into a one-shot RNG, so it depends only on the
    /// message itself — never on how many other messages were queried
    /// first. Digest folds land in `src`'s lane: the fate is decided at
    /// the sending node's dispatch, on the sending node's shard. `control`
    /// says the message is an ACK or NACK, so that a corruption is counted
    /// as one of a control message; the decision does not read it.
    pub fn packet_fate(
        &mut self,
        now: SimTime,
        src: u32,
        dst: u32,
        tag: u64,
        control: bool,
    ) -> PacketFate {
        let lf = self.plan.link;
        if !lf.is_active() {
            return PacketFate::Deliver;
        }
        let mut mix = EventDigest::new();
        mix.write_u64(self.plan.seed ^ 0xFA17_0000_0000_0001);
        mix.write_u64(now.0);
        mix.write_u32(src);
        mix.write_u32(dst);
        mix.write_u64(tag);
        let mut rng = SimRng::new(mix.value());
        if lf.drop_prob > 0.0 && rng.chance(lf.drop_prob) {
            self.stats.dropped += 1;
            self.fold(D_DROP, now, src, u64::from(dst) ^ tag);
            return PacketFate::Drop;
        }
        if lf.corrupt_prob > 0.0 && rng.chance(lf.corrupt_prob) {
            match control {
                true => self.stats.corrupted_control += 1,
                false => self.stats.corrupted_data += 1,
            }
            self.fold(D_CORRUPT, now, src, u64::from(dst) ^ tag);
            return PacketFate::Corrupt;
        }
        if lf.reorder_prob > 0.0 && rng.chance(lf.reorder_prob) {
            let window_ps = lf.reorder_window.0.max(1);
            let delay = SimTime(rng.range(1, window_ps));
            self.stats.reordered += 1;
            self.fold(D_REORDER, now, src, u64::from(dst) ^ tag ^ delay.0);
            return PacketFate::Delay(delay);
        }
        PacketFate::Deliver
    }

    /// Is `node`'s SRAM receive pool forcibly exhausted at `now`?
    /// Counts and digests each rejection it causes.
    pub fn sram_exhausted(&mut self, now: SimTime, node: u32) -> bool {
        let hit = self
            .plan
            .sram_pulses
            .iter()
            .any(|p| p.window.contains(now) && p.node.is_none_or(|n| n == node));
        if hit {
            self.stats.sram_rejections += 1;
            self.fold(D_SRAM, now, node, 0);
        }
        hit
    }

    /// Extra latency for an interrupt raised on `node` at `now`
    /// (zero outside every spike window).
    pub fn interrupt_extra(&mut self, now: SimTime, node: u32) -> SimTime {
        let extra: u64 = self
            .plan
            .interrupt_spikes
            .iter()
            .filter(|s| s.window.contains(now) && s.node.is_none_or(|n| n == node))
            .map(|s| s.extra.0)
            .sum();
        if extra > 0 {
            self.stats.interrupt_spikes += 1;
            self.fold(D_INT, now, node, extra);
        }
        SimTime(extra)
    }

    /// Record that a planned firmware stall fired.
    pub fn note_fw_stall(&mut self, now: SimTime, node: u32, duration: SimTime) {
        self.stats.fw_stalls += 1;
        self.fold(D_STALL, now, node, duration.0);
    }

    /// Record that a planned unrecoverable firmware fault fired.
    pub fn note_fw_fault(&mut self, now: SimTime, node: u32) {
        self.stats.fw_faults += 1;
        self.fold(D_FAULT, now, node, 0);
    }

    fn fold(&mut self, code: u8, now: SimTime, node: u32, detail: u64) {
        self.lanes.write_lane(node, |digest| {
            digest.write_u8(code);
            digest.write_u64(now.0);
            digest.write_u64(detail);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(!inj.active());
        for i in 0..100 {
            assert_eq!(
                inj.packet_fate(SimTime::from_ns(i), 0, 1, i, false),
                PacketFate::Deliver
            );
        }
        assert!(!inj.sram_exhausted(SimTime::from_us(1), 0));
        assert_eq!(inj.interrupt_extra(SimTime::from_us(1), 0), SimTime::ZERO);
        assert_eq!(inj.stats().total(), 0);
        assert_eq!(inj.digest(), EventDigest::new().value());
    }

    #[test]
    fn same_plan_same_decisions() {
        let plan = FaultPlan::wire(42, 0.3);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for i in 0..500 {
            let fa = a.packet_fate(SimTime::from_ns(i), 0, 1, i, false);
            let fb = b.packet_fate(SimTime::from_ns(i), 0, 1, i, false);
            assert_eq!(fa, fb);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().wire_total() > 0, "30% noise must inject");
    }

    #[test]
    fn a_control_corruption_is_counted_apart_and_decided_alike() {
        let plan = FaultPlan {
            seed: 5,
            link: LinkFaults {
                corrupt_prob: 0.3,
                ..LinkFaults::NONE
            },
            ..FaultPlan::none()
        };
        let (mut data, mut control) = (FaultInjector::new(plan.clone()), FaultInjector::new(plan));
        for i in 0..500 {
            let at = SimTime::from_ns(i);
            assert_eq!(
                data.packet_fate(at, 0, 1, i, false),
                control.packet_fate(at, 0, 1, i, true)
            );
        }
        let (d, c) = (data.stats(), control.stats());
        assert!(d.corrupted_data > 0);
        assert_eq!((d.corrupted_control, c.corrupted_data), (0, 0));
        assert_eq!(c.corrupted_control, d.corrupted_data);
        assert_eq!((c.total(), c.wire_total()), (d.total(), d.wire_total()));
        assert_eq!(data.digest(), control.digest());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(FaultPlan::wire(1, 0.3));
        let mut b = FaultInjector::new(FaultPlan::wire(2, 0.3));
        let mut differ = false;
        for i in 0..200 {
            let fa = a.packet_fate(SimTime::from_ns(i), 0, 1, i, false);
            let fb = b.packet_fate(SimTime::from_ns(i), 0, 1, i, false);
            differ |= fa != fb;
        }
        assert!(differ, "independent seeds should disagree somewhere");
    }

    #[test]
    fn drop_rate_roughly_matches() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 7,
            link: LinkFaults {
                drop_prob: 0.25,
                ..LinkFaults::NONE
            },
            ..FaultPlan::none()
        });
        let n = 10_000u64;
        for i in 0..n {
            inj.packet_fate(SimTime::from_ns(i), 0, 1, i, false);
        }
        let dropped = inj.stats().dropped;
        assert!(
            (2_000..3_000).contains(&dropped),
            "expected ~2500 drops, got {dropped}"
        );
    }

    #[test]
    fn sram_pulse_windows_are_honored() {
        let plan = FaultPlan::none().with_sram_pulse(
            Some(3),
            TimeWindow::new(SimTime::from_us(10), SimTime::from_us(20)),
        );
        let mut inj = FaultInjector::new(plan);
        assert!(inj.active());
        assert!(!inj.sram_exhausted(SimTime::from_us(9), 3));
        assert!(inj.sram_exhausted(SimTime::from_us(10), 3));
        assert!(inj.sram_exhausted(SimTime::from_us(19), 3));
        assert!(
            !inj.sram_exhausted(SimTime::from_us(20), 3),
            "end exclusive"
        );
        assert!(!inj.sram_exhausted(SimTime::from_us(15), 4), "wrong node");
        assert_eq!(inj.stats().sram_rejections, 2);
    }

    #[test]
    fn interrupt_spikes_sum_and_filter() {
        let w = TimeWindow::new(SimTime::ZERO, SimTime::from_ms(1));
        let plan = FaultPlan::none()
            .with_interrupt_spike(None, w, SimTime::from_us(2))
            .with_interrupt_spike(Some(1), w, SimTime::from_us(3));
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.interrupt_extra(SimTime::from_us(5), 1),
            SimTime::from_us(5)
        );
        assert_eq!(
            inj.interrupt_extra(SimTime::from_us(5), 0),
            SimTime::from_us(2)
        );
        assert_eq!(inj.interrupt_extra(SimTime::from_ms(2), 1), SimTime::ZERO);
        assert_eq!(inj.stats().interrupt_spikes, 2);
    }

    #[test]
    fn reorder_delay_bounded_by_window() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 11,
            link: LinkFaults {
                reorder_prob: 1.0,
                reorder_window: SimTime::from_us(5),
                ..LinkFaults::NONE
            },
            ..FaultPlan::none()
        });
        for i in 0..1000 {
            match inj.packet_fate(SimTime::from_ns(i), 0, 1, i, false) {
                PacketFate::Delay(d) => {
                    assert!(d > SimTime::ZERO && d <= SimTime::from_us(5));
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn fw_notes_count_and_digest() {
        let mut inj = FaultInjector::new(FaultPlan::none().with_fw_event(
            2,
            SimTime::from_us(50),
            FwFaultKind::Fault,
        ));
        let before = inj.digest();
        inj.note_fw_stall(SimTime::from_us(10), 1, SimTime::from_us(100));
        inj.note_fw_fault(SimTime::from_us(50), 2);
        assert_eq!(inj.stats().fw_stalls, 1);
        assert_eq!(inj.stats().fw_faults, 1);
        assert_ne!(inj.digest(), before);
    }
}
