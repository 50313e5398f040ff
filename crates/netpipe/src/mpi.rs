//! The MPI NetPIPE drivers (the `mpich-1.2.6` and `mpich2` curves).

use crate::report::RoundResult;
use crate::schedule::Schedule;
use std::any::Any;
use xt3_mpi::{CompletionKind, MpiEndpoint, Personality, ReqId};
use xt3_node::{App, AppCtx, AppEvent};
use xt3_portals::types::ProcessId;
use xt3_sim::SimTime;

/// Tag for benchmark data messages.
const TAG_DATA: u32 = 10;
/// Tag for round-ready synchronization.
const TAG_READY: u32 = 11;
/// Tag for streaming round-done synchronization.
const TAG_DONE: u32 = 12;
/// Streaming send window (outstanding sends).
const STREAM_WINDOW: u32 = 16;
/// Streaming receive prepost window.
const RECV_WINDOW: u32 = 16;

/// MPI test patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiPattern {
    /// Ping-pong (Figs. 4, 5).
    PingPong,
    /// Uni-directional streaming (Fig. 6).
    Stream,
    /// Bidirectional (Fig. 7).
    Bidir,
}

/// Buffer layout for the MPI drivers.
#[derive(Debug, Clone, Copy)]
pub struct MpiLayout {
    /// Send buffer.
    pub tx: u64,
    /// Receive buffer.
    pub rx: u64,
    /// Scratch byte for sync messages.
    pub sync: u64,
    /// MPI bounce-buffer region.
    pub bounce: u64,
    /// Total process memory needed.
    pub mem_bytes: u64,
}

impl MpiLayout {
    /// Layout for a maximum message size under `personality`.
    pub fn for_max(max_size: u64, personality: &Personality) -> Self {
        let align = |x: u64| (x + 4095) & !4095;
        let tx = 0;
        let rx = align(max_size.max(64));
        let sync = rx + align(max_size.max(64));
        let bounce = sync + 4096;
        let bounce_bytes =
            personality.unexpected_buffers as u64 * personality.unexpected_buffer_bytes;
        MpiLayout {
            tx,
            rx,
            sync,
            bounce,
            mem_bytes: bounce + bounce_bytes + 4096,
        }
    }
}

/// One side of an MPI NetPIPE test; `rank` 0 initiates.
pub struct MpiDriver {
    pattern: MpiPattern,
    personality: Personality,
    schedule: Schedule,
    rank: u32,
    layout: MpiLayout,
    ep: Option<MpiEndpoint>,
    round: usize,
    i: u32,
    issued: u32,
    outstanding_sends: u32,
    posted_recvs: u32,
    ready_req: Option<ReqId>,
    done_req: Option<ReqId>,
    ready_seen: bool,
    peer_ready: bool,
    t0: SimTime,
    t_first: SimTime,
    t_last: SimTime,
    count: u32,
    /// Round measurements (rank 0 for ping-pong/bidir; rank 1 for
    /// streaming).
    pub results: Vec<RoundResult>,
}

impl MpiDriver {
    /// Create one side.
    pub fn new(
        pattern: MpiPattern,
        personality: Personality,
        schedule: Schedule,
        rank: u32,
    ) -> Self {
        let layout = MpiLayout::for_max(schedule.max_size(), &personality);
        MpiDriver {
            pattern,
            personality,
            schedule,
            rank,
            layout,
            ep: None,
            round: 0,
            i: 0,
            issued: 0,
            outstanding_sends: 0,
            posted_recvs: 0,
            ready_req: None,
            done_req: None,
            ready_seen: false,
            peer_ready: false,
            t0: SimTime::ZERO,
            t_first: SimTime::ZERO,
            t_last: SimTime::ZERO,
            count: 0,
            results: Vec::new(),
        }
    }

    /// The memory layout this driver requires.
    pub fn layout(&self) -> MpiLayout {
        self.layout
    }

    fn size(&self) -> u64 {
        self.schedule.points[self.round].size
    }

    fn reps(&self) -> u32 {
        self.schedule.points[self.round].reps
    }

    fn peer(&self) -> u32 {
        1 - self.rank
    }

    fn begin_round(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) {
        self.i = 0;
        self.issued = 0;
        self.count = 0;
        self.ready_seen = false;
        self.peer_ready = false;
        let peer = self.peer();
        let size = self.size();
        match (self.pattern, self.rank) {
            (MpiPattern::PingPong, 0) => {
                // Wait for rank 1's ready, then send the first ping.
                self.ready_req = Some(ep.irecv(ctx, peer, TAG_READY, self.layout.sync, 8).unwrap());
            }
            (MpiPattern::PingPong, 1) => {
                ep.irecv(ctx, peer, TAG_DATA, self.layout.rx, size).unwrap();
                ep.isend(ctx, peer, TAG_READY, self.layout.sync, 1).unwrap();
            }
            (MpiPattern::Stream, 0) => {
                self.done_req = Some(ep.irecv(ctx, peer, TAG_DONE, self.layout.sync, 8).unwrap());
                self.ready_req = Some(ep.irecv(ctx, peer, TAG_READY, self.layout.sync, 8).unwrap());
            }
            (MpiPattern::Stream, 1) => {
                let w = RECV_WINDOW.min(self.reps());
                for _ in 0..w {
                    ep.irecv(ctx, peer, TAG_DATA, self.layout.rx, size).unwrap();
                }
                self.posted_recvs = w;
                ep.isend(ctx, peer, TAG_READY, self.layout.sync, 1).unwrap();
            }
            (MpiPattern::PingPong | MpiPattern::Stream, _) => unreachable!("two ranks only"),
            (MpiPattern::Bidir, _) => {
                ep.irecv(ctx, peer, TAG_DATA, self.layout.rx, size).unwrap();
                self.ready_req = Some(ep.irecv(ctx, peer, TAG_READY, self.layout.sync, 8).unwrap());
                ep.isend(ctx, peer, TAG_READY, self.layout.sync, 1).unwrap();
            }
        }
    }

    fn pump_stream_sends(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) {
        let reps = self.reps();
        while self.issued < reps && self.outstanding_sends < STREAM_WINDOW {
            ep.isend(ctx, self.peer(), TAG_DATA, self.layout.tx, self.size())
                .unwrap();
            self.issued += 1;
            self.outstanding_sends += 1;
        }
    }

    fn record(&mut self, messages: u32, elapsed: SimTime, bw_factor: u32) {
        self.results.push(RoundResult {
            size: self.size(),
            messages,
            elapsed,
            bw_factor,
        });
    }

    fn next_round(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) -> bool {
        self.round += 1;
        if self.round >= self.schedule.len() {
            ctx.finish();
            return false;
        }
        self.begin_round(ep, ctx);
        true
    }
}

impl App for MpiDriver {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::Started = event {
            let comm = vec![ProcessId::new(0, 0), ProcessId::new(1, 0)];
            let mut ep =
                MpiEndpoint::init(ctx, comm, self.rank, self.personality, self.layout.bounce)
                    .expect("mpi init");
            if !ctx.synthetic() {
                let max = self.schedule.max_size().max(64) as usize;
                let pattern: Vec<u8> = (0..max).map(|i| (i % 241) as u8).collect();
                ctx.write_mem(self.layout.tx, &pattern);
            }
            self.begin_round(&mut ep, ctx);
            ctx.wait_eq(ep.eq());
            self.ep = Some(ep);
            return;
        }

        let mut ep = self.ep.take().expect("endpoint");
        if let AppEvent::Ptl(ev) = &event {
            ep.progress(ctx, ev.clone());
        }

        // Handling a completion can synchronously produce more (an irecv
        // posted in begin_round may match an already-buffered unexpected
        // message); drain until quiescent.
        loop {
            let completions = ep.take_completions();
            if completions.is_empty() {
                break;
            }
            for c in completions {
                match (self.pattern, self.rank, c.kind) {
                    // ---- ping-pong rank 0 ----
                    (MpiPattern::PingPong, 0, CompletionKind::Recv) if c.tag == TAG_READY => {
                        // Round start: prepost pong receive, send ping.
                        self.t0 = ctx.now();
                        ep.irecv(ctx, 1, TAG_DATA, self.layout.rx, self.size())
                            .unwrap();
                        ep.isend(ctx, 1, TAG_DATA, self.layout.tx, self.size())
                            .unwrap();
                    }
                    (MpiPattern::PingPong, 0, CompletionKind::Recv) if c.tag == TAG_DATA => {
                        self.i += 1;
                        if self.i < self.reps() {
                            ep.irecv(ctx, 1, TAG_DATA, self.layout.rx, self.size())
                                .unwrap();
                            ep.isend(ctx, 1, TAG_DATA, self.layout.tx, self.size())
                                .unwrap();
                        } else {
                            let elapsed = ctx.now() - self.t0;
                            let reps = self.reps();
                            self.record(2 * reps, elapsed, 1);
                            if !self.next_round(&mut ep, ctx) {
                                self.ep = Some(ep);
                                return;
                            }
                        }
                    }
                    // ---- ping-pong rank 1 ----
                    (MpiPattern::PingPong, 1, CompletionKind::Recv) if c.tag == TAG_DATA => {
                        self.count += 1;
                        let reps = self.reps();
                        if self.count < reps {
                            ep.irecv(ctx, 0, TAG_DATA, self.layout.rx, self.size())
                                .unwrap();
                        }
                        ep.isend(ctx, 0, TAG_DATA, self.layout.tx, self.size())
                            .unwrap();
                        if self.count >= reps && !self.next_round(&mut ep, ctx) {
                            self.ep = Some(ep);
                            return;
                        }
                    }
                    // ---- streaming rank 0 (sender) ----
                    (MpiPattern::Stream, 0, CompletionKind::Recv) if c.tag == TAG_READY => {
                        self.pump_stream_sends(&mut ep, ctx);
                    }
                    #[allow(clippy::collapsible_match)]
                    #[allow(clippy::collapsible_if)]
                    (MpiPattern::Stream, 0, CompletionKind::Recv) if c.tag == TAG_DONE => {
                        if !self.next_round(&mut ep, ctx) {
                            self.ep = Some(ep);
                            return;
                        }
                    }
                    (MpiPattern::Stream, 0, CompletionKind::Send) if c.tag == TAG_DATA => {
                        self.outstanding_sends -= 1;
                        self.pump_stream_sends(&mut ep, ctx);
                    }
                    // ---- streaming rank 1 (receiver, measurer) ----
                    (MpiPattern::Stream, 1, CompletionKind::Recv) if c.tag == TAG_DATA => {
                        self.count += 1;
                        if self.count == 1 {
                            self.t_first = ctx.now();
                        }
                        self.t_last = ctx.now();
                        let reps = self.reps();
                        if self.posted_recvs < reps {
                            ep.irecv(ctx, 0, TAG_DATA, self.layout.rx, self.size())
                                .unwrap();
                            self.posted_recvs += 1;
                        }
                        if self.count >= reps {
                            if reps > 1 && self.t_last > self.t_first {
                                let elapsed = self.t_last - self.t_first;
                                self.record(reps - 1, elapsed, 1);
                            }
                            self.posted_recvs = 0;
                            ep.isend(ctx, 0, TAG_DONE, self.layout.sync, 1).unwrap();
                            if !self.next_round(&mut ep, ctx) {
                                self.ep = Some(ep);
                                return;
                            }
                        }
                    }
                    // ---- bidirectional (both ranks symmetric) ----
                    (MpiPattern::Bidir, _, CompletionKind::Recv) if c.tag == TAG_READY => {
                        self.peer_ready = true;
                        if self.i == 0 && self.issued == 0 {
                            self.t0 = ctx.now();
                            self.issued = 1;
                            ep.isend(ctx, self.peer(), TAG_DATA, self.layout.tx, self.size())
                                .unwrap();
                        }
                    }
                    (MpiPattern::Bidir, _, CompletionKind::Recv) if c.tag == TAG_DATA => {
                        self.i += 1;
                        let reps = self.reps();
                        if self.i < reps {
                            ep.irecv(ctx, self.peer(), TAG_DATA, self.layout.rx, self.size())
                                .unwrap();
                            ep.isend(ctx, self.peer(), TAG_DATA, self.layout.tx, self.size())
                                .unwrap();
                        } else {
                            if self.rank == 0 {
                                let elapsed = ctx.now() - self.t0;
                                self.record(reps, elapsed, 2);
                            }
                            if !self.next_round(&mut ep, ctx) {
                                self.ep = Some(ep);
                                return;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        ctx.wait_eq(ep.eq());
        self.ep = Some(ep);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
