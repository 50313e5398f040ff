//! The MPI endpoint: request management and the Portals-backed
//! eager/rendezvous protocols.

use crate::personality::Personality;
use crate::types::{bits, hdr, MpiError, Rank, ReqId, Tag, ANY_SOURCE};
// Ordered collections keep request-id iteration deterministic (audit
// lint: no HashMap/HashSet in simulation-facing crates).
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use xt3_node::machine::AppCtx;
use xt3_portals::event::{Event as PtlEvent, EventKind};
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::types::{AckReq, EqHandle, MeHandle, ProcessId};

/// Portal table index for MPI point-to-point traffic.
pub const MPI_PT: u32 = 1;
/// Portal table index for rendezvous payload exposure.
pub const RDZV_PT: u32 = 2;

/// User-pointer tags on bounce-buffer MDs (distinguish them from request
/// MDs in event routing).
const BOUNCE_BASE: u64 = u64::MAX - 1024;

/// What completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// A send request finished.
    Send,
    /// A receive request finished.
    Recv,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The request.
    pub req: ReqId,
    /// Send or receive.
    pub kind: CompletionKind,
    /// Bytes transferred.
    pub len: u64,
    /// Peer rank.
    pub peer: Rank,
    /// Message tag.
    pub tag: Tag,
}

#[derive(Debug)]
struct UnexpectedMsg {
    match_bits: u64,
    hdr_data: u64,
    mlength: u64,
    /// Absolute address of the payload inside the bounce buffer.
    addr: u64,
    src: ProcessId,
}

#[derive(Debug)]
enum SendState {
    /// Eager: waiting for SendEnd.
    Eager { peer: Rank, tag: Tag, len: u64 },
    /// Rendezvous: RTS sent, buffer exposed; waiting for the target's get.
    Rendezvous { peer: Rank, tag: Tag, len: u64 },
}

#[derive(Debug)]
enum RecvState {
    /// ME posted; waiting for a matching put.
    Posted {
        addr: u64,
        len: u64,
        want_bits: u64,
        ignore: u64,
    },
    /// Pulling a rendezvous payload; waiting for ReplyEnd.
    Pulling { tag: Tag, peer: Rank },
}

/// An MPI endpoint over one Portals process.
pub struct MpiEndpoint {
    personality: Personality,
    comm: Vec<ProcessId>,
    my_rank: Rank,
    ctx_id: u16,
    eq: EqHandle,
    /// First unexpected (catch-all) ME: posted receives insert before it.
    first_unexpected_me: MeHandle,
    /// Receive requests whose MEs are currently posted.
    posted: BTreeSet<ReqId>,
    /// Posted receives in posting order (MPI matching order).
    posted_order: Vec<ReqId>,
    /// Receives completed by claiming a buffered unexpected message while
    /// their match entry was still live: if that entry later fires, the
    /// event is recycled as a fresh unexpected message from the recorded
    /// buffer.
    stolen: BTreeMap<ReqId, (u64, u64)>,
    unexpected: VecDeque<UnexpectedMsg>,
    sends: BTreeMap<ReqId, SendState>,
    recvs: BTreeMap<ReqId, RecvState>,
    next_req: ReqId,
    next_cookie: u16,
    completions: Vec<Completion>,
    /// Base address and current ME of each bounce buffer, by index.
    bounce_bases: Vec<u64>,
    bounce_mes: Vec<MeHandle>,
    /// Retired bounce entries awaiting a safe unlink (their in-flight
    /// deposits must drain first; two re-arms of slack is ample).
    retired_bounce_mes: VecDeque<MeHandle>,
    /// Bounce buffers re-armed after filling up.
    pub bounce_rearms: u64,
    /// Unexpected eager messages seen (statistics).
    pub unexpected_count: u64,
    /// Rendezvous transfers performed.
    pub rendezvous_count: u64,
}

impl MpiEndpoint {
    /// Initialize over the calling process.
    ///
    /// `bounce_base` is the start of a memory region the endpoint may use
    /// for unexpected-message bounce buffers (it needs
    /// `personality.unexpected_buffers * personality.unexpected_buffer_bytes`
    /// bytes).
    pub fn init(
        ctx: &mut AppCtx<'_>,
        comm: Vec<ProcessId>,
        my_rank: Rank,
        personality: Personality,
        bounce_base: u64,
    ) -> Result<Self, MpiError> {
        let eq = ctx.eq_alloc(4096).map_err(|_| MpiError::Portals)?;

        // Catch-all unexpected entries at the tail of the MPI portal.
        let mut first_me = None;
        let mut bounce_bases = Vec::new();
        let mut bounce_mes = Vec::new();
        for i in 0..personality.unexpected_buffers {
            let me = ctx
                .me_attach(
                    MPI_PT,
                    ProcessId::any(),
                    0,
                    u64::MAX,
                    UnlinkOp::Retain,
                    InsertPos::After,
                )
                .map_err(|_| MpiError::Portals)?;
            let base = bounce_base + i as u64 * personality.unexpected_buffer_bytes;
            bounce_bases.push(base);
            bounce_mes.push(me);
            // No truncation: a buffer without room for the whole message
            // must NOT match, so the arrival spills to the next bounce
            // entry (and, with every buffer full, drops visibly at the
            // Portals level instead of silently truncating).
            ctx.md_attach(
                me,
                base,
                personality.unexpected_buffer_bytes,
                MdOptions::put_target(),
                Threshold::Infinite,
                Some(eq),
                BOUNCE_BASE + i as u64,
            )
            .map_err(|_| MpiError::Portals)?;
            if first_me.is_none() {
                first_me = Some(me);
            }
        }

        Ok(MpiEndpoint {
            personality,
            comm,
            my_rank,
            ctx_id: 0,
            eq,
            first_unexpected_me: first_me.expect("at least one bounce buffer"),
            posted: BTreeSet::new(),
            posted_order: Vec::new(),
            stolen: BTreeMap::new(),
            unexpected: VecDeque::new(),
            sends: BTreeMap::new(),
            recvs: BTreeMap::new(),
            next_req: 1,
            next_cookie: 1,
            completions: Vec::new(),
            bounce_bases,
            bounce_mes,
            retired_bounce_mes: VecDeque::new(),
            bounce_rearms: 0,
            unexpected_count: 0,
            rendezvous_count: 0,
        })
    }

    /// The event queue apps should wait on.
    pub fn eq(&self) -> EqHandle {
        self.eq
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.my_rank
    }

    /// Communicator size.
    pub fn size(&self) -> Rank {
        self.comm.len() as Rank
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// Non-blocking send of `[addr, addr+len)` to `(dest, tag)`.
    pub fn isend(
        &mut self,
        ctx: &mut AppCtx<'_>,
        dest: Rank,
        tag: Tag,
        addr: u64,
        len: u64,
    ) -> Result<ReqId, MpiError> {
        let target = *self.comm.get(dest as usize).ok_or(MpiError::BadRank)?;
        ctx.compute(self.personality.send_overhead);
        let req = self.fresh_req();
        let match_bits = bits::encode(self.ctx_id, self.my_rank, tag);

        if len <= self.personality.eager_max {
            let md = ctx
                .md_bind(
                    addr,
                    len,
                    MdOptions::default(),
                    Threshold::Count(1),
                    Some(self.eq),
                    req,
                )
                .map_err(|_| MpiError::Portals)?;
            ctx.put(
                md,
                AckReq::NoAck,
                target,
                MPI_PT,
                0,
                match_bits,
                0,
                hdr::pack(hdr::Protocol::Eager, 0, len),
            )
            .map_err(|_| MpiError::Portals)?;
            self.sends.insert(
                req,
                SendState::Eager {
                    peer: dest,
                    tag,
                    len,
                },
            );
        } else {
            // Rendezvous: expose the buffer, send a zero-byte RTS.
            self.rendezvous_count += 1;
            let cookie = self.next_cookie;
            self.next_cookie = self.next_cookie.wrapping_add(1).max(1);
            let me = ctx
                .me_attach(
                    RDZV_PT,
                    ProcessId::any(),
                    cookie as u64,
                    0,
                    UnlinkOp::Unlink,
                    InsertPos::After,
                )
                .map_err(|_| MpiError::Portals)?;
            ctx.md_attach(
                me,
                addr,
                len,
                MdOptions::get_target(),
                Threshold::Count(1),
                Some(self.eq),
                req,
            )
            .map_err(|_| MpiError::Portals)?;
            let rts_md = ctx
                .md_bind(
                    addr,
                    0,
                    MdOptions::default(),
                    Threshold::Count(1),
                    None,
                    req,
                )
                .map_err(|_| MpiError::Portals)?;
            ctx.put(
                rts_md,
                AckReq::NoAck,
                target,
                MPI_PT,
                0,
                match_bits,
                0,
                hdr::pack(hdr::Protocol::Rendezvous, cookie, len),
            )
            .map_err(|_| MpiError::Portals)?;
            self.sends.insert(
                req,
                SendState::Rendezvous {
                    peer: dest,
                    tag,
                    len,
                },
            );
        }
        Ok(req)
    }

    /// Non-blocking receive into `[addr, addr+len)` from `(src, tag)`
    /// (wildcards allowed).
    pub fn irecv(
        &mut self,
        ctx: &mut AppCtx<'_>,
        src: Rank,
        tag: Tag,
        addr: u64,
        len: u64,
    ) -> Result<ReqId, MpiError> {
        if src != ANY_SOURCE && src as usize >= self.comm.len() {
            return Err(MpiError::BadRank);
        }
        ctx.compute(self.personality.recv_overhead);
        let req = self.fresh_req();
        let (want_bits, ignore) = bits::recv_criteria(self.ctx_id, src, tag);

        // First: search the unexpected queue in arrival order.
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|u| (u.match_bits ^ want_bits) & !ignore == 0)
        {
            let u = self.unexpected.remove(pos).expect("index valid");
            let (_, u_src, u_tag) = bits::decode(u.match_bits);
            let (proto, cookie, full_len) = hdr::unpack(u.hdr_data);
            match proto {
                hdr::Protocol::Eager => {
                    let n = u.mlength.min(len);
                    ctx.copy_mem(u.addr, addr, n as u32);
                    self.completions.push(Completion {
                        req,
                        kind: CompletionKind::Recv,
                        len: n,
                        peer: u_src,
                        tag: u_tag,
                    });
                }
                hdr::Protocol::Rendezvous => {
                    self.start_pull(
                        ctx,
                        req,
                        u.src,
                        cookie,
                        addr,
                        len.min(full_len),
                        u_src,
                        u_tag,
                    )?;
                }
            }
            return Ok(req);
        }

        // Otherwise: post a match entry ahead of the unexpected tail.
        let match_id = if src == ANY_SOURCE {
            ProcessId::any()
        } else {
            self.comm[src as usize]
        };
        let me = ctx
            .me_insert(
                self.first_unexpected_me,
                InsertPos::Before,
                match_id,
                want_bits,
                ignore,
                UnlinkOp::Unlink,
            )
            .map_err(|_| MpiError::Portals)?;
        ctx.md_attach(
            me,
            addr,
            len,
            MdOptions {
                truncate: true,
                ..MdOptions::put_target()
            },
            Threshold::Count(1),
            Some(self.eq),
            req,
        )
        .map_err(|_| MpiError::Portals)?;
        self.posted.insert(req);
        self.posted_order.push(req);
        self.recvs.insert(
            req,
            RecvState::Posted {
                addr,
                len,
                want_bits,
                ignore,
            },
        );
        Ok(req)
    }

    #[allow(clippy::too_many_arguments)]
    fn start_pull(
        &mut self,
        ctx: &mut AppCtx<'_>,
        req: ReqId,
        src: ProcessId,
        cookie: u16,
        addr: u64,
        len: u64,
        peer: Rank,
        tag: Tag,
    ) -> Result<(), MpiError> {
        let md = ctx
            .md_bind(
                addr,
                len,
                MdOptions::default(),
                Threshold::Count(1),
                Some(self.eq),
                req,
            )
            .map_err(|_| MpiError::Portals)?;
        ctx.get(md, src, RDZV_PT, 0, cookie as u64, 0)
            .map_err(|_| MpiError::Portals)?;
        self.recvs.insert(req, RecvState::Pulling { tag, peer });
        Ok(())
    }

    /// Route an unexpected message: satisfy the earliest matching posted
    /// receive (MPI matching order — the message arrived before the
    /// receive's match entry could see it), or buffer it.
    fn handle_unexpected(&mut self, ctx: &mut AppCtx<'_>, msg: UnexpectedMsg) {
        let claimed = self
            .posted_order
            .iter()
            .copied()
            .find(|r| match self.recvs.get(r) {
                Some(RecvState::Posted {
                    want_bits, ignore, ..
                }) => (msg.match_bits ^ want_bits) & !ignore == 0,
                _ => false,
            });
        let Some(req) = claimed else {
            self.unexpected.push_back(msg);
            return;
        };
        let Some(RecvState::Posted { addr, len, .. }) = self.recvs.remove(&req) else {
            unreachable!("claimed requests are posted")
        };
        self.posted.remove(&req);
        self.posted_order.retain(|&r| r != req);
        // The posted match entry may already have fired for a different
        // message whose event is still in flight; leave the entry alone
        // and remember the buffer so that event can be recycled.
        self.stolen.insert(req, (addr, len));
        let (_, u_src, u_tag) = bits::decode(msg.match_bits);
        let (proto, cookie, full_len) = hdr::unpack(msg.hdr_data);
        match proto {
            hdr::Protocol::Eager => {
                let n = msg.mlength.min(len);
                ctx.copy_mem(msg.addr, addr, n as u32);
                self.completions.push(Completion {
                    req,
                    kind: CompletionKind::Recv,
                    len: n,
                    peer: u_src,
                    tag: u_tag,
                });
            }
            hdr::Protocol::Rendezvous => {
                let _ = self.start_pull(
                    ctx,
                    req,
                    msg.src,
                    cookie,
                    addr,
                    len.min(full_len),
                    u_src,
                    u_tag,
                );
            }
        }
    }

    /// Feed one Portals event through the progress engine.
    pub fn progress(&mut self, ctx: &mut AppCtx<'_>, ev: PtlEvent) {
        ctx.compute(self.personality.event_overhead);
        match ev.kind {
            EventKind::PutEnd if ev.user_ptr >= BOUNCE_BASE => {
                // Unexpected arrival into a bounce buffer.
                self.unexpected_count += 1;
                let idx = (ev.user_ptr - BOUNCE_BASE) as u32;
                let base = self.bounce_addr(idx);
                let msg = UnexpectedMsg {
                    match_bits: ev.match_bits,
                    hdr_data: ev.hdr_data,
                    mlength: ev.mlength,
                    addr: base + ev.offset,
                    src: ev.initiator,
                };
                self.handle_unexpected(ctx, msg);
                self.maybe_rearm_bounce(ctx, idx, ev.offset + ev.mlength);
            }
            EventKind::PutEnd => {
                // A posted receive matched.
                let req = ev.user_ptr;
                if let Some((buf_addr, _len)) = self.stolen.remove(&req) {
                    // This entry's request was already satisfied by a
                    // claimed unexpected message; the message that fired
                    // the entry belongs to a later receive. Recycle it as
                    // an unexpected message whose payload sits where the
                    // deposit landed.
                    let msg = UnexpectedMsg {
                        match_bits: ev.match_bits,
                        hdr_data: ev.hdr_data,
                        mlength: ev.mlength,
                        addr: buf_addr + ev.offset,
                        src: ev.initiator,
                    };
                    self.handle_unexpected(ctx, msg);
                    return;
                }
                if !self.posted.remove(&req) {
                    return;
                }
                self.posted_order.retain(|&r| r != req);
                let (_, src_rank, tag) = bits::decode(ev.match_bits);
                let (proto, cookie, full_len) = hdr::unpack(ev.hdr_data);
                match proto {
                    hdr::Protocol::Eager => {
                        self.recvs.remove(&req);
                        self.completions.push(Completion {
                            req,
                            kind: CompletionKind::Recv,
                            len: ev.mlength,
                            peer: src_rank,
                            tag,
                        });
                    }
                    hdr::Protocol::Rendezvous => {
                        let (addr, len) = match self.recvs.get(&req) {
                            Some(RecvState::Posted { addr, len, .. }) => (*addr, *len),
                            _ => return,
                        };
                        let _ = self.start_pull(
                            ctx,
                            req,
                            ev.initiator,
                            cookie,
                            addr,
                            len.min(full_len),
                            src_rank,
                            tag,
                        );
                    }
                }
            }
            EventKind::ReplyEnd => {
                // Rendezvous pull complete.
                let req = ev.user_ptr;
                if let Some(RecvState::Pulling { tag, peer }) = self.recvs.remove(&req) {
                    let _ = ctx.md_unlink(ev.md);
                    self.completions.push(Completion {
                        req,
                        kind: CompletionKind::Recv,
                        len: ev.mlength,
                        peer,
                        tag,
                    });
                }
            }
            EventKind::SendEnd => {
                let req = ev.user_ptr;
                if let Some(SendState::Eager { peer, tag, len }) = self.sends.get(&req) {
                    let (peer, tag, len) = (*peer, *tag, *len);
                    self.sends.remove(&req);
                    let _ = ctx.md_unlink(ev.md);
                    self.completions.push(Completion {
                        req,
                        kind: CompletionKind::Send,
                        len,
                        peer,
                        tag,
                    });
                }
                // Rendezvous RTS SendEnds have no MD event (no EQ on the
                // RTS descriptor), so nothing else lands here.
            }
            EventKind::GetEnd => {
                // The target pulled an exposed rendezvous buffer: the send
                // is complete.
                let req = ev.user_ptr;
                if let Some(SendState::Rendezvous { peer, tag, len }) = self.sends.get(&req) {
                    let (peer, tag, len) = (*peer, *tag, *len);
                    self.sends.remove(&req);
                    self.completions.push(Completion {
                        req,
                        kind: CompletionKind::Send,
                        len,
                        peer,
                        tag,
                    });
                }
            }
            EventKind::PutStart
            | EventKind::GetStart
            | EventKind::ReplyStart
            | EventKind::Ack
            | EventKind::Unlink => {}
        }
    }

    /// Bounce buffer `idx`'s base address (mirrors the layout `init`
    /// created).
    fn bounce_addr(&self, idx: u32) -> u64 {
        self.bounce_bases[idx as usize]
    }

    /// Re-arm a bounce buffer whose locally-managed offset is close to the
    /// end: unlink the entry and attach a fresh one over the same region,
    /// resetting the offset. Without this, a long run of unexpected
    /// messages would eventually truncate arrivals to zero bytes.
    ///
    /// Buffered unexpected entries referencing the region stay valid for
    /// reading until new arrivals overwrite from the start — the same
    /// finite-buffer tradeoff the real unexpected queue makes; with
    /// multiple rotating buffers the queued entries are consumed long
    /// before the wrap.
    fn maybe_rearm_bounce(&mut self, ctx: &mut AppCtx<'_>, idx: u32, used: u64) {
        let total = self.personality.unexpected_buffer_bytes;
        if used + self.personality.eager_max < total {
            return;
        }
        self.bounce_rearms += 1;
        let old_me = self.bounce_mes[idx as usize];
        // The old entry stops matching on its own (no truncation + no
        // room); defer its unlink until deposits in flight against it
        // have certainly completed.
        self.retired_bounce_mes.push_back(old_me);
        if self.retired_bounce_mes.len() > 2 {
            if let Some(stale) = self.retired_bounce_mes.pop_front() {
                let _ = ctx.me_unlink(stale);
            }
        }
        let Ok(me) = ctx.me_attach(
            MPI_PT,
            ProcessId::any(),
            0,
            u64::MAX,
            UnlinkOp::Retain,
            InsertPos::After,
        ) else {
            return;
        };
        let _ = ctx.md_attach(
            me,
            self.bounce_bases[idx as usize],
            total,
            MdOptions::put_target(),
            Threshold::Infinite,
            Some(self.eq),
            BOUNCE_BASE + idx as u64,
        );
        self.bounce_mes[idx as usize] = me;
        if self.first_unexpected_me == old_me {
            // The head of the unexpected tail moved; posted receives keep
            // inserting before the earliest surviving bounce entry.
            self.first_unexpected_me = self
                .bounce_mes
                .iter()
                .copied()
                .find(|&m| m != me)
                .unwrap_or(me);
        }
    }

    /// Drain completed requests.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// The personality in use.
    pub fn personality(&self) -> &Personality {
        &self.personality
    }
}
