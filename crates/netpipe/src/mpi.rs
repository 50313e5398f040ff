//! The MPI NetPIPE drivers (the `mpich-1.2.6` and `mpich2` curves).

use crate::measure::{fill, Record, Rounds};
use crate::report::RoundResult;
use crate::schedule::Schedule;
use std::any::Any;
use xt3_mpi::{Completion, CompletionKind, MpiEndpoint, Personality};
use xt3_node::{App, AppCtx, AppEvent};
use xt3_portals::types::ProcessId;

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
    rank: u32,
    layout: MpiLayout,
    ep: Option<MpiEndpoint>,
    rounds: Rounds,
    /// Receives a streaming receiver has posted this round.
    posted_recvs: u32,
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
            rank,
            layout,
            ep: None,
            rounds: Rounds::new(schedule),
            posted_recvs: 0,
            results: Vec::new(),
        }
    }

    fn peer(&self) -> u32 {
        1 - self.rank
    }

    fn send_data(&self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) {
        let size = self.rounds.size();
        ep.isend(ctx, self.peer(), TAG_DATA, self.layout.tx, size)
            .expect("mpi isend");
    }

    fn recv_data(&self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) {
        let size = self.rounds.size();
        ep.irecv(ctx, self.peer(), TAG_DATA, self.layout.rx, size)
            .expect("mpi irecv");
    }

    fn begin_round(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) {
        let (peer, sync) = (self.peer(), self.layout.sync);
        match (self.pattern, self.rank) {
            // Wait for rank 1's ready, then send the first ping.
            (MpiPattern::PingPong, 0) => {
                ep.irecv(ctx, peer, TAG_READY, sync, 8).expect("mpi irecv");
            }
            (MpiPattern::PingPong, 1) => {
                self.recv_data(ep, ctx);
                ep.isend(ctx, peer, TAG_READY, sync, 1).expect("mpi isend");
            }
            (MpiPattern::Stream, 0) => {
                ep.irecv(ctx, peer, TAG_DONE, sync, 8).expect("mpi irecv");
                ep.irecv(ctx, peer, TAG_READY, sync, 8).expect("mpi irecv");
            }
            (MpiPattern::Stream, 1) => {
                let w = RECV_WINDOW.min(self.rounds.reps());
                for _ in 0..w {
                    self.recv_data(ep, ctx);
                }
                self.posted_recvs = w;
                ep.isend(ctx, peer, TAG_READY, sync, 1).expect("mpi isend");
            }
            (MpiPattern::PingPong | MpiPattern::Stream, _) => unreachable!("two ranks only"),
            (MpiPattern::Bidir, _) => {
                self.recv_data(ep, ctx);
                ep.irecv(ctx, peer, TAG_READY, sync, 8).expect("mpi irecv");
                ep.isend(ctx, peer, TAG_READY, sync, 1).expect("mpi isend");
            }
        }
    }

    fn pump_stream_sends(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) {
        for _ in 0..self.rounds.pump(STREAM_WINDOW) {
            self.send_data(ep, ctx);
        }
    }

    /// Close the round; false once the schedule has run out.
    fn next_round(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) -> bool {
        if !self.rounds.advance() {
            ctx.finish();
            return false;
        }
        self.begin_round(ep, ctx);
        true
    }

    /// Act on one completion; false once this side has finished.
    fn on_completion(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>, c: Completion) -> bool {
        use CompletionKind::{Recv, Send};
        match (self.pattern, self.rank, c.kind, c.tag) {
            // ---- ping-pong rank 0 ----
            (MpiPattern::PingPong, 0, Recv, TAG_READY) => {
                // Round start: prepost pong receive, send ping.
                self.rounds.start(ctx.now());
                self.recv_data(ep, ctx);
                self.send_data(ep, ctx);
            }
            (MpiPattern::PingPong, 0, Recv, TAG_DATA) => {
                if self.rounds.arrive(ctx.now()) {
                    self.rounds
                        .record(Record::PingPong, ctx.now(), &mut self.results);
                    return self.next_round(ep, ctx);
                }
                self.recv_data(ep, ctx);
                self.send_data(ep, ctx);
            }
            // ---- ping-pong rank 1 ----
            (MpiPattern::PingPong, 1, Recv, TAG_DATA) => {
                let last = self.rounds.arrive(ctx.now());
                if !last {
                    self.recv_data(ep, ctx);
                }
                self.send_data(ep, ctx);
                if last {
                    return self.next_round(ep, ctx);
                }
            }
            // ---- streaming rank 0 (sender) ----
            (MpiPattern::Stream, 0, Recv, TAG_READY) => self.pump_stream_sends(ep, ctx),
            (MpiPattern::Stream, 0, Recv, TAG_DONE) => return self.next_round(ep, ctx),
            (MpiPattern::Stream, 0, Send, TAG_DATA) => {
                self.rounds.retire();
                self.pump_stream_sends(ep, ctx);
            }
            // ---- streaming rank 1 (receiver, measurer) ----
            (MpiPattern::Stream, 1, Recv, TAG_DATA) => {
                let last = self.rounds.arrive(ctx.now());
                if self.posted_recvs < self.rounds.reps() {
                    self.recv_data(ep, ctx);
                    self.posted_recvs += 1;
                }
                if last {
                    self.rounds
                        .record(Record::Stream, ctx.now(), &mut self.results);
                    self.posted_recvs = 0;
                    ep.isend(ctx, 0, TAG_DONE, self.layout.sync, 1)
                        .expect("mpi isend");
                    return self.next_round(ep, ctx);
                }
            }
            // ---- bidirectional (both ranks symmetric) ----
            (MpiPattern::Bidir, _, Recv, TAG_READY) if self.rounds.idle() => {
                self.rounds.start(ctx.now());
                self.send_data(ep, ctx);
            }
            (MpiPattern::Bidir, _, Recv, TAG_DATA) => {
                if !self.rounds.arrive(ctx.now()) {
                    self.recv_data(ep, ctx);
                    self.send_data(ep, ctx);
                } else {
                    if self.rank == 0 {
                        self.rounds
                            .record(Record::Bidir, ctx.now(), &mut self.results);
                    }
                    return self.next_round(ep, ctx);
                }
            }
            _ => {}
        }
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
            fill(ctx, self.layout.tx, self.rounds.max_size(), 241);
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
        'drain: loop {
            let completions = ep.take_completions();
            if completions.is_empty() {
                break;
            }
            for c in completions {
                if !self.on_completion(&mut ep, ctx, c) {
                    break 'drain;
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
