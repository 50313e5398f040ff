//! The Portals-level NetPIPE drivers.
//!
//! Faithful to the paper's module (§5.2): a single match entry on a
//! dedicated portal, a receive MD rebuilt once per round (so setup stays
//! out of the measurement), and put/get variants for ping-pong, streaming
//! and bidirectional patterns. Round synchronization uses zero-byte
//! control puts on a second portal, which cost one header packet and
//! carry their information in `hdr_data`.

use crate::measure::{fill, Record, Rounds};
use crate::report::RoundResult;
use crate::schedule::Schedule;
use std::any::Any;
use xt3_node::{App, AppCtx, AppEvent};
use xt3_portals::event::EventKind;
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::types::{AckReq, EqHandle, MdHandle, MeHandle, ProcessId};

/// Portal index for benchmark data.
pub const PT_DATA: u32 = 4;
/// Portal index for round-control messages.
pub const PT_CTRL: u32 = 5;
/// Match bits for data messages.
pub const DATA_BITS: u64 = 0xDA7A;
/// Match-bit base for control messages; the low byte is the kind.
pub const CTRL_BITS: u64 = 0xC700;
/// Control kind: round ready.
pub const CTRL_READY: u64 = 1;
/// Control kind: round done (streaming).
pub const CTRL_DONE: u64 = 2;
/// user_ptr marking control-plane events.
const UPTR_CTRL: u64 = 99;
/// user_ptr marking data receive events.
const UPTR_DATA: u64 = 0;
/// user_ptr marking transmit-side events (streaming throttle).
const UPTR_TX: u64 = 7;
/// Outstanding-message window for the streaming driver.
const STREAM_WINDOW: u32 = 32;
/// The `expect` message for a driver's plumbing, which `Started` sets up.
const SET_UP: &str = "the plumbing is set up at Started";

/// Buffer layout for a benchmark process.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Transmit buffer base.
    pub tx: u64,
    /// Receive buffer base.
    pub rx: u64,
    /// Process memory size needed.
    pub mem_bytes: u64,
}

impl Layout {
    /// Layout for a maximum message size.
    pub fn for_max(max_size: u64) -> Self {
        let align = |x: u64| (x + 4095) & !4095;
        let tx = 0;
        let rx = align(max_size.max(64));
        Layout {
            tx,
            rx,
            mem_bytes: rx + align(max_size.max(64)) + 8192,
        }
    }
}

/// Shared per-app plumbing: EQ, control-plane entries, this round's
/// descriptors.
struct Plumbing {
    eq: EqHandle,
    peer: ProcessId,
    layout: Layout,
    data_me: Option<MeHandle>,
    tx_md: Option<MdHandle>,
    /// READY received before this side finished its round (ordering
    /// slack between data completion and control messages).
    ready_pending: bool,
}

impl Plumbing {
    fn setup(ctx: &mut AppCtx<'_>, peer: ProcessId, layout: Layout) -> Self {
        let eq = ctx.eq_alloc(2048).expect("eq");
        // Persistent control entry: matches any CTRL kind, deposits
        // nothing (control puts are zero-length).
        let me = ctx
            .me_attach(
                PT_CTRL,
                ProcessId::any(),
                CTRL_BITS,
                0xFF,
                UnlinkOp::Retain,
                InsertPos::After,
            )
            .expect("ctrl me");
        ctx.md_attach(
            me,
            layout.rx,
            8,
            MdOptions {
                manage_remote: true,
                event_start_disable: true,
                ..MdOptions::put_target()
            },
            Threshold::Infinite,
            Some(eq),
            UPTR_CTRL,
        )
        .expect("ctrl md");
        Plumbing {
            eq,
            peer,
            layout,
            data_me: None,
            tx_md: None,
            ready_pending: false,
        }
    }

    /// Send a zero-length control put.
    fn send_ctrl(&mut self, ctx: &mut AppCtx<'_>, kind: u64, info: u64) {
        let md = ctx
            .md_bind(0, 0, MdOptions::default(), Threshold::Count(1), None, 0)
            .expect("ctrl tx md");
        ctx.put(
            md,
            AckReq::NoAck,
            self.peer,
            PT_CTRL,
            0,
            CTRL_BITS | kind,
            0,
            info,
        )
        .expect("ctrl put");
        ctx.md_unlink(md).expect("ctrl md unlink");
    }

    /// Rebuild the data receive entry for a round ("the memory descriptor
    /// is created once for each round", §5.2).
    fn rebuild_rx(&mut self, ctx: &mut AppCtx<'_>, size: u64, for_get: bool) {
        if let Some(me) = self.data_me.take() {
            ctx.me_unlink(me).expect("stale data me");
        }
        let me = ctx
            .me_attach(
                PT_DATA,
                ProcessId::any(),
                DATA_BITS,
                0,
                UnlinkOp::Retain,
                InsertPos::After,
            )
            .expect("data me");
        let options = if for_get {
            MdOptions {
                manage_remote: true,
                event_start_disable: true,
                ..MdOptions::get_target()
            }
        } else {
            MdOptions {
                manage_remote: true,
                event_start_disable: true,
                ..MdOptions::put_target()
            }
        };
        let base = if for_get {
            self.layout.tx
        } else {
            self.layout.rx
        };
        ctx.md_attach(
            me,
            base,
            size.max(1),
            options,
            Threshold::Infinite,
            Some(self.eq),
            UPTR_DATA,
        )
        .expect("data md");
        self.data_me = Some(me);
    }

    /// Rebuild the initiator-bound MD for a round: the transmit buffer
    /// for puts, or the receive buffer a get deposits into.
    fn rebuild_tx(&mut self, ctx: &mut AppCtx<'_>, base: u64, size: u64, with_events: bool) {
        if let Some(md) = self.tx_md.take() {
            ctx.md_unlink(md).expect("stale tx md");
        }
        let eq = if with_events { Some(self.eq) } else { None };
        let md = ctx
            .md_bind(
                base,
                size,
                MdOptions::default(),
                Threshold::Infinite,
                eq,
                UPTR_TX,
            )
            .expect("tx md");
        self.tx_md = Some(md);
    }

    fn put_data(&mut self, ctx: &mut AppCtx<'_>) {
        let md = self.tx_md.expect("tx md built");
        ctx.put(md, AckReq::NoAck, self.peer, PT_DATA, 0, DATA_BITS, 0, 0)
            .expect("data put");
    }

    fn get_data(&mut self, ctx: &mut AppCtx<'_>) {
        let md = self.tx_md.expect("get md");
        ctx.get(md, self.peer, PT_DATA, 0, DATA_BITS, 0)
            .expect("get");
    }
}

/// Which benchmark pattern a driver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtlPattern {
    /// Ping-pong with puts (Figs. 4, 5).
    PingPongPut,
    /// Serial gets (Figs. 4, 5; a get is its own round trip). A get
    /// blocks, so it is also Fig. 6's streamed get curve.
    PingPongGet,
    /// Uni-directional streaming puts (Fig. 6).
    StreamPut,
    /// Bidirectional simultaneous ping-pong (Fig. 7).
    Bidir,
    /// Bidirectional gets: both sides pull from each other simultaneously
    /// (Fig. 7's get curve).
    BidirGet,
}

/// The initiator-side driver (node 0). For streaming, the measurement is
/// taken at the receiver — see [`PtlResponder`].
pub struct PtlInitiator {
    pattern: PtlPattern,
    peer_nid: u32,
    p: Option<Plumbing>,
    rounds: Rounds,
    /// Completed round measurements (empty for streaming; the responder
    /// records those).
    pub results: Vec<RoundResult>,
}

impl PtlInitiator {
    /// Create a driver for `pattern` over `schedule`, talking to node 1.
    pub fn new(pattern: PtlPattern, schedule: Schedule) -> Self {
        Self::with_peer(pattern, schedule, 1)
    }

    /// Create a driver whose peer is node `peer_nid` (symmetric patterns
    /// run an initiator on both nodes).
    pub fn with_peer(pattern: PtlPattern, schedule: Schedule, peer_nid: u32) -> Self {
        PtlInitiator {
            pattern,
            peer_nid,
            p: None,
            rounds: Rounds::new(schedule),
            results: Vec::new(),
        }
    }

    /// Rebuild this round's descriptors; a bidirectional side then tells
    /// its peer it is ready.
    fn begin_round(&mut self, ctx: &mut AppCtx<'_>) {
        let size = self.rounds.size();
        let p = self.p.as_mut().expect(SET_UP);
        let (tx, rx) = (p.layout.tx, p.layout.rx);
        match self.pattern {
            PtlPattern::PingPongPut | PtlPattern::StreamPut | PtlPattern::Bidir => {
                p.rebuild_rx(ctx, size, false);
                p.rebuild_tx(ctx, tx, size, self.pattern == PtlPattern::StreamPut);
            }
            PtlPattern::PingPongGet => p.rebuild_tx(ctx, rx, size, true),
            PtlPattern::BidirGet => {
                // Expose the tx region for the peer's gets AND bind the
                // local get descriptor over the rx buffer.
                p.rebuild_rx(ctx, size, true);
                p.rebuild_tx(ctx, rx, size, true);
            }
        }
        if matches!(self.pattern, PtlPattern::Bidir | PtlPattern::BidirGet) {
            p.send_ctrl(ctx, CTRL_READY, self.rounds.index() as u64);
        }
    }

    fn start_round(&mut self, ctx: &mut AppCtx<'_>) {
        self.rounds.start(ctx.now());
        match self.pattern {
            PtlPattern::PingPongPut | PtlPattern::Bidir => {
                self.p.as_mut().expect(SET_UP).put_data(ctx)
            }
            PtlPattern::PingPongGet | PtlPattern::BidirGet => {
                self.p.as_mut().expect(SET_UP).get_data(ctx)
            }
            PtlPattern::StreamPut => self.pump_stream(ctx),
        }
    }

    fn pump_stream(&mut self, ctx: &mut AppCtx<'_>) {
        for _ in 0..self.rounds.pump(STREAM_WINDOW) {
            self.p.as_mut().expect(SET_UP).put_data(ctx);
        }
    }

    /// Record the round this side measured, then go on.
    fn round_complete(&mut self, ctx: &mut AppCtx<'_>) {
        let how = match self.pattern {
            PtlPattern::PingPongPut => Record::PingPong,
            PtlPattern::PingPongGet => Record::Get,
            PtlPattern::Bidir | PtlPattern::BidirGet => Record::Bidir,
            PtlPattern::StreamPut => unreachable!("the receiver measures a stream"),
        };
        self.rounds.record(how, ctx.now(), &mut self.results);
        self.advance_round(ctx);
    }

    fn advance_round(&mut self, ctx: &mut AppCtx<'_>) {
        if !self.rounds.advance() {
            ctx.finish();
            return;
        }
        self.begin_round(ctx);
        let p = self.p.as_mut().expect(SET_UP);
        if p.ready_pending {
            p.ready_pending = false;
            self.start_round(ctx);
        }
    }
}

impl App for PtlInitiator {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let layout = Layout::for_max(self.rounds.max_size());
                fill(ctx, layout.tx, self.rounds.max_size(), 253);
                let peer = ProcessId::new(self.peer_nid, 0);
                self.p = Some(Plumbing::setup(ctx, peer, layout));
                self.begin_round(ctx);
            }
            AppEvent::Ptl(ev) => match (ev.user_ptr, ev.kind) {
                (UPTR_CTRL, EventKind::PutEnd) => match ev.match_bits & 0xFF {
                    // Peer ready for the current round.
                    CTRL_READY if self.rounds.idle() => self.start_round(ctx),
                    CTRL_READY => self.p.as_mut().expect(SET_UP).ready_pending = true,
                    // Streaming round acknowledged by the receiver.
                    CTRL_DONE => self.advance_round(ctx),
                    _ => {}
                },
                // A pong (ping-pong put), the peer's data (bidir) or a
                // get's reply.
                (UPTR_DATA, EventKind::PutEnd) | (UPTR_TX, EventKind::ReplyEnd) => {
                    let last = self.rounds.arrive(ctx.now());
                    let p = self.p.as_mut().expect(SET_UP);
                    match ev.kind {
                        _ if last => self.round_complete(ctx),
                        EventKind::ReplyEnd => p.get_data(ctx),
                        _ => p.put_data(ctx),
                    }
                }
                // Streaming throttle.
                (UPTR_TX, EventKind::SendEnd) => {
                    self.rounds.retire();
                    self.pump_stream(ctx);
                }
                _ => {}
            },
            _ => {}
        }
        ctx.wait_eq(self.p.as_ref().expect(SET_UP).eq);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The responder-side driver (the machine's last node; node 1 of a pair).
pub struct PtlResponder {
    pattern: PtlPattern,
    p: Option<Plumbing>,
    rounds: Rounds,
    /// Streaming measurements (receiver side, steady-state intervals).
    pub results: Vec<RoundResult>,
}

impl PtlResponder {
    /// Create the responder for `pattern` over `schedule`.
    pub fn new(pattern: PtlPattern, schedule: Schedule) -> Self {
        PtlResponder {
            pattern,
            p: None,
            rounds: Rounds::new(schedule),
            results: Vec::new(),
        }
    }

    fn begin_round(&mut self, ctx: &mut AppCtx<'_>) {
        let size = self.rounds.size();
        let p = self.p.as_mut().expect(SET_UP);
        match self.pattern {
            PtlPattern::PingPongPut | PtlPattern::Bidir => {
                p.rebuild_rx(ctx, size, false);
                p.rebuild_tx(ctx, p.layout.tx, size, false);
            }
            PtlPattern::StreamPut => p.rebuild_rx(ctx, size, false),
            // Expose the source buffer for gets.
            PtlPattern::PingPongGet => p.rebuild_rx(ctx, size, true),
            PtlPattern::BidirGet => unreachable!("BidirGet runs an initiator on both nodes"),
        }
        p.send_ctrl(ctx, CTRL_READY, self.rounds.index() as u64);
    }

    fn end_round(&mut self, ctx: &mut AppCtx<'_>) {
        if self.pattern == PtlPattern::StreamPut {
            self.rounds
                .record(Record::Stream, ctx.now(), &mut self.results);
            self.p.as_mut().expect(SET_UP).send_ctrl(ctx, CTRL_DONE, 0);
        }
        if !self.rounds.advance() {
            ctx.finish();
            return;
        }
        self.begin_round(ctx);
        let p = self.p.as_mut().expect(SET_UP);
        if p.ready_pending {
            p.ready_pending = false;
            // Bidir: we already got the peer's READY for this round.
            if self.pattern == PtlPattern::Bidir {
                p.put_data(ctx);
            }
        }
    }
}

impl App for PtlResponder {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let layout = Layout::for_max(self.rounds.max_size());
                fill(ctx, layout.tx, self.rounds.max_size(), 253);
                self.p = Some(Plumbing::setup(ctx, ProcessId::new(0, 0), layout));
                self.begin_round(ctx);
            }
            AppEvent::Ptl(ev) => match (ev.user_ptr, ev.kind) {
                // A ping, streamed or bidirectional data, or a served get.
                (UPTR_DATA, EventKind::PutEnd | EventKind::GetEnd) => {
                    let last = self.rounds.arrive(ctx.now());
                    // Ping-pong answers every ping; bidir answers all
                    // but the round's last message.
                    let bidir = self.pattern == PtlPattern::Bidir;
                    if self.pattern == PtlPattern::PingPongPut || (bidir && !last) {
                        self.p.as_mut().expect(SET_UP).put_data(ctx);
                    }
                    if last {
                        self.end_round(ctx);
                    }
                }
                // Bidir READY from the initiator.
                (UPTR_CTRL, EventKind::PutEnd)
                    if ev.match_bits & 0xFF == CTRL_READY && self.pattern == PtlPattern::Bidir =>
                {
                    let p = self.p.as_mut().expect(SET_UP);
                    if self.rounds.idle() {
                        p.put_data(ctx);
                    } else {
                        p.ready_pending = true;
                    }
                }
                _ => {}
            },
            _ => {}
        }
        ctx.wait_eq(self.p.as_ref().expect(SET_UP).eq);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
