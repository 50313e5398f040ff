//! Timing invariants of the platform model: properties the cost model
//! must satisfy regardless of calibration values.

use std::any::Any;
use xt3_node::config::{MachineConfig, NodeSpec};
use xt3_node::{App, AppCtx, AppEvent, Machine};
use xt3_portals::event::EventKind;
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::types::{AckReq, EqHandle, ProcessId};
use xt3_seastar::cost::CostModel;
use xt3_sim::SimTime;

const PT: u32 = 4;
const BITS: u64 = 0x717E;

struct OnePut {
    len: u64,
    done_at: SimTime,
}
struct OneSink {
    len: u64,
    eq: Option<EqHandle>,
    put_end_at: SimTime,
}

impl App for OnePut {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let eq = ctx.eq_alloc(8).unwrap();
                let md = ctx
                    .md_bind(
                        0,
                        self.len,
                        MdOptions::default(),
                        Threshold::Count(1),
                        Some(eq),
                        0,
                    )
                    .unwrap();
                ctx.put(md, AckReq::NoAck, ProcessId::new(1, 0), PT, 0, BITS, 0, 0)
                    .unwrap();
                ctx.wait_eq(eq);
            }
            AppEvent::Ptl(_) => {
                self.done_at = ctx.now();
                ctx.finish();
            }
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

impl App for OneSink {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let eq = ctx.eq_alloc(8).unwrap();
                self.eq = Some(eq);
                let me = ctx
                    .me_attach(
                        PT,
                        ProcessId::any(),
                        BITS,
                        0,
                        UnlinkOp::Retain,
                        InsertPos::After,
                    )
                    .unwrap();
                ctx.md_attach(
                    me,
                    0,
                    self.len.max(64),
                    MdOptions {
                        manage_remote: true,
                        event_start_disable: true,
                        ..MdOptions::put_target()
                    },
                    Threshold::Infinite,
                    Some(eq),
                    0,
                )
                .unwrap();
                ctx.wait_eq(eq);
            }
            AppEvent::Ptl(ev) if ev.kind == EventKind::PutEnd => {
                self.put_end_at = ctx.now();
                ctx.finish();
            }
            _ => ctx.wait_eq(self.eq.unwrap()),
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The NetPIPE pair under `cost`.
fn pair(cost: CostModel) -> MachineConfig {
    MachineConfig {
        cost,
        ..MachineConfig::paper_pair()
    }
}

/// The idealized pair: free host and firmware, and a zero-latency hop.
fn ideal_pair() -> MachineConfig {
    let mut config = pair(CostModel::ideal());
    config.fabric.link.hop_latency = SimTime::ZERO;
    config
}

fn put_end_time(len: u64, config: MachineConfig) -> SimTime {
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(
        0,
        0,
        Box::new(OnePut {
            len,
            done_at: SimTime::ZERO,
        }),
    );
    m.spawn(
        1,
        0,
        Box::new(OneSink {
            len,
            eq: None,
            put_end_at: SimTime::ZERO,
        }),
    );
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    let mut s = m.take_app(1, 0).unwrap();
    s.as_any().downcast_mut::<OneSink>().unwrap().put_end_at
}

#[test]
fn delivery_time_is_monotone_in_message_size() {
    let cost = CostModel::paper();
    let mut last = SimTime::ZERO;
    for len in [1u64, 12, 13, 64, 1024, 64 << 10, 1 << 20] {
        let t = put_end_time(len, pair(cost));
        assert!(
            t >= last,
            "delivery time must not decrease with size: {len} B at {t} (prev {last})"
        );
        last = t;
    }
}

#[test]
fn cheaper_interrupts_never_slow_delivery() {
    let slow = put_end_time(1024, pair(CostModel::paper()));
    let fast = put_end_time(
        1024,
        pair(CostModel::paper().with_interrupt_cost(SimTime::from_ns(100))),
    );
    assert!(fast < slow, "cheaper interrupts: {fast} vs {slow}");
}

#[test]
fn ideal_model_is_a_lower_bound() {
    for len in [1u64, 4096, 1 << 20] {
        let paper = put_end_time(len, pair(CostModel::paper()));
        let ideal = put_end_time(len, ideal_pair());
        assert!(
            ideal < paper,
            "ideal must lower-bound paper at {len} B: {ideal} vs {paper}"
        );
        // And never below raw wire time: one hop plus serialization.
        let wire = ideal_pair()
            .fabric
            .link
            .payload_bandwidth
            .transfer_time(len + 64);
        assert!(ideal >= wire, "nothing beats the wire at {len} B");
    }
}

#[test]
fn bulk_transfer_time_tracks_the_ht_read_rate() {
    // For multi-megabyte puts the pipe rate dominates; the delivery time
    // per extra byte must match the calibrated TX DMA rate within 5%.
    let cost = CostModel::paper();
    let t4 = put_end_time(4 << 20, pair(cost));
    let t8 = put_end_time(8 << 20, pair(cost));
    let per_byte_ns = (t8 - t4).as_ns_f64() / (4 << 20) as f64;
    let expect = 1e9 / cost.ht_tx_payload.bytes_per_sec();
    let err = (per_byte_ns - expect).abs() / expect;
    assert!(
        err < 0.05,
        "marginal per-byte cost {per_byte_ns:.4} ns vs calibrated {expect:.4} ns"
    );
}
