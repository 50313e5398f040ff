//! The Portals library: portal table, matching, delivery and events.
//!
//! One [`PortalsLib`] instance is the per-process Portals state. In
//! generic mode this state lives in the OS kernel and is manipulated in
//! interrupt context (paper §3.3/§4.3); in accelerated mode the matching
//! half runs on the NIC. Both call into the same functions here — mirroring
//! how the reference implementation shares library code across NALs.
//!
//! Processing is two-phase, following the firmware's receive path (§4.3):
//!
//! 1. [`PortalsLib::match_incoming`] — invoked when a *header* arrives.
//!    Performs access control, walks the ME list, consumes the matched
//!    MD's threshold, resolves offsets/truncation, auto-unlinks exhausted
//!    entries, and returns a [`MatchTicket`] telling the platform where to
//!    deposit.
//! 2. [`PortalsLib::complete_put`] / [`complete_get_serve`] /
//!    [`complete_reply`] / [`deliver_ack`] — invoked when the
//!    corresponding DMA completes; deposits bytes and posts events.
//!
//! [`complete_get_serve`]: PortalsLib::complete_get_serve
//! [`complete_reply`]: PortalsLib::complete_reply
//! [`deliver_ack`]: PortalsLib::deliver_ack

use crate::acl::AcEntry;
use crate::event::{Event, EventKind, EventQueue};
use crate::header::{AtomicOp, PortalsHeader, PortalsOp};
use crate::md::{Md, MdOptions, Threshold};
use crate::me::{InsertPos, Me, MeList, UnlinkOp};
use crate::memory::ProcessMemory;
use crate::slab::{fit_by_use, Slab};
use crate::types::{
    AckReq, EqHandle, MatchBits, MdHandle, MeHandle, NiLimits, ProcessId, PtlError, PtlResult,
};

/// Message payload on the wire.
///
/// `Real` carries actual bytes (used by correctness tests and examples)
/// as a boxed slice: a payload is never grown once read, so it keeps no
/// capacity word; `Synthetic` carries only a length, letting bulk
/// benchmarks skip megabyte memcpys while exercising identical protocol
/// paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireData {
    /// Actual payload bytes.
    Real(Box<[u8]>),
    /// Length-only payload for bulk benchmarking.
    Synthetic(u64),
}

/// One little-endian u64 lane at byte offset `at` (zero-padded if the
/// slice is short — unreachable for lane-aligned atomics, but kept
/// panic-free).
fn lane_at(bytes: &[u8], at: usize) -> u64 {
    let mut lane = [0u8; 8];
    if let Some(src) = bytes.get(at..at + 8) {
        lane.copy_from_slice(src);
    }
    u64::from_le_bytes(lane)
}

impl WireData {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            WireData::Real(v) => v.len() as u64,
            WireData::Synthetic(n) => *n,
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The result of matching one incoming header (the requested length is
/// the header's `rlength`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchTicket {
    /// The matched MD.
    pub md: MdHandle,
    /// Offset within the MD for the operation.
    pub offset: u64,
    /// Accepted length after MD checks and truncation.
    pub mlength: u64,
    /// Whether the match exhausted the MD and auto-unlinked the ME.
    pub unlinked: bool,
    /// For puts: whether an ack must be sent after deposit.
    pub ack_needed: bool,
    /// Absolute deposit/read address in process memory.
    pub address: u64,
}

impl MatchTicket {
    /// Keep this ticket beside the request it matched, in one word less:
    /// the request's remote offset is spent once the match has chosen
    /// its own, so the ticket's offset takes that word of `request`.
    pub fn stow(self, request: &mut PortalsHeader) -> StowedTicket {
        request.set_remote_offset(self.offset);
        StowedTicket {
            md: self.md,
            mlength: self.mlength,
            address: self.address,
            unlinked: self.unlinked,
            ack_needed: self.ack_needed,
        }
    }
}

/// A [`MatchTicket`] less its offset, which the matched request header
/// holds ([`MatchTicket::stow`]): 32 bytes instead of 40, which is what
/// lets a receive record fit a 136-byte box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StowedTicket {
    md: MdHandle,
    mlength: u64,
    address: u64,
    unlinked: bool,
    ack_needed: bool,
}

impl StowedTicket {
    /// The ticket again, given the header it was stowed with.
    pub fn ticket(&self, request: &PortalsHeader) -> MatchTicket {
        MatchTicket {
            md: self.md,
            offset: request.remote_offset(),
            mlength: self.mlength,
            unlinked: self.unlinked,
            ack_needed: self.ack_needed,
            address: self.address,
        }
    }
}

/// Outcome of header matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// Matched; proceed with deposit / reply generation.
    Matched(MatchTicket),
    /// Access control rejected the request.
    PermissionViolation,
    /// No match entry accepted the header; the message is dropped.
    NoMatch,
    /// Reply/Ack referenced a stale initiator MD (it unlinked meanwhile).
    StaleHandle,
}

/// What the target must transmit back after processing, if anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncomingAction {
    /// Nothing to send back.
    None,
    /// Send an acknowledgement header.
    SendAck(PortalsHeader),
    /// Send a reply carrying data read from the matched MD.
    SendReply(PortalsHeader, WireData),
}

/// `PtlNIStatus` registers (the subset `ptl_sr_index_t` the stack uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NiStatusRegister {
    /// Messages dropped with no matching entry (`PTL_SR_DROP_COUNT`).
    DropCount,
    /// Access-control rejections (`PTL_SR_PERMISSIONS_VIOLATIONS`).
    PermissionViolations,
    /// Headers matched successfully.
    Matched,
}

/// Counters the node model exposes to experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct LibCounters {
    /// Headers matched successfully.
    pub matched: u64,
    /// Headers dropped with no matching ME.
    pub dropped_no_match: u64,
    /// Headers rejected by access control.
    pub permission_violations: u64,
    /// Replies/acks referencing stale MDs.
    pub stale_completions: u64,
    /// Events successfully posted to event queues (drops excluded).
    /// Monotone; the causal tracer diffs it across a completion call to
    /// learn how many EQ slots that completion produced.
    pub events_posted: u64,
}

/// Per-process Portals library state.
pub struct PortalsLib {
    id: ProcessId,
    limits: NiLimits,
    mds: Slab<Md>,
    mes: Slab<Me>,
    eqs: Slab<EventQueue>,
    /// ME lists by portal index, grown to the highest index ever attached
    /// to (at most `limits.pt_size`); a valid index beyond the end is a
    /// portal with no entries.
    portal_table: Vec<MeList>,
    /// Access control entries by index, grown to the highest index ever
    /// installed (at most `limits.ac_size`); a valid index beyond the end
    /// is an entry nobody installed.
    ac_table: Vec<Option<AcEntry>>,
    counters: LibCounters,
}

impl PortalsLib {
    /// Initialize the per-process Portals state (`PtlNIInit`).
    ///
    /// AC entry 0 is installed wide open, as the reference implementation's
    /// bootstrap does, and is all the table holds until [`Self::ac_put`]
    /// names a higher index.
    pub fn new(id: ProcessId, limits: NiLimits) -> Self {
        let mut lib = PortalsLib {
            id,
            limits,
            mds: Slab::new(limits.max_mds),
            mes: Slab::new(limits.max_mes),
            eqs: Slab::new(limits.max_eqs),
            portal_table: Vec::new(),
            ac_table: Vec::new(),
            counters: LibCounters::default(),
        };
        // Out of range only under `ac_size == 0`: a table with no entries.
        let _ = lib.ac_put(0, AcEntry::open());
        lib
    }

    /// This process's Portals id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The negotiated limits.
    pub fn limits(&self) -> &NiLimits {
        &self.limits
    }

    /// Library counters.
    pub fn counters(&self) -> LibCounters {
        self.counters
    }

    /// `PtlNIStatus`-style register read: the named status counter.
    pub fn ni_status(&self, register: NiStatusRegister) -> u64 {
        match register {
            NiStatusRegister::DropCount => self.counters.dropped_no_match,
            NiStatusRegister::PermissionViolations => self.counters.permission_violations,
            NiStatusRegister::Matched => self.counters.matched,
        }
    }

    // ----- Event queues -----

    /// Allocate an event queue of `capacity` events (`PtlEQAlloc`).
    pub fn eq_alloc(&mut self, capacity: u32) -> PtlResult<EqHandle> {
        if capacity == 0 {
            return Err(PtlError::InvalidArg);
        }
        let (index, generation) = self
            .eqs
            .insert(EventQueue::new(capacity))
            .ok_or(PtlError::NoSpace)?;
        Ok(EqHandle { index, generation })
    }

    /// Free an event queue (`PtlEQFree`).
    pub fn eq_free(&mut self, h: EqHandle) -> PtlResult<()> {
        self.eqs
            .remove(h.index, h.generation)
            .map(|_| ())
            .ok_or(PtlError::InvalidHandle)
    }

    /// Non-blocking event fetch (`PtlEQGet`).
    pub fn eq_get(&mut self, h: EqHandle) -> PtlResult<Event> {
        self.eqs
            .get_mut(h.index, h.generation)
            .ok_or(PtlError::InvalidHandle)?
            .get()
    }

    /// Pending event count for an EQ.
    pub fn eq_len(&self, h: EqHandle) -> PtlResult<u32> {
        Ok(self
            .eqs
            .get(h.index, h.generation)
            .ok_or(PtlError::InvalidHandle)?
            .len())
    }

    /// MDs live and the EQ slots holding an event, over this interface's
    /// event queues: host structures a memory ledger counts beside §4.2's.
    pub fn live_mds_and_events(&self) -> (u32, u32) {
        let events = self.eqs.iter().map(|(_, _, eq)| eq.len()).sum();
        (self.mds.len(), events)
    }

    /// Deepest any of this interface's event queues has ever been
    /// (telemetry: how close the process came to an EQ overflow).
    pub fn max_eq_high_water(&self) -> u32 {
        self.eqs
            .iter()
            .map(|(_, _, eq)| eq.high_water())
            .max()
            .unwrap_or(0)
    }

    // ----- Memory descriptors -----

    /// Bind a free-floating MD for initiating operations (`PtlMDBind`).
    #[allow(clippy::too_many_arguments)]
    pub fn md_bind(
        &mut self,
        memory_size: u64,
        start: u64,
        length: u64,
        options: MdOptions,
        threshold: Threshold,
        eq: Option<EqHandle>,
        user_ptr: u64,
    ) -> PtlResult<MdHandle> {
        if let Some(e) = eq {
            if self.eqs.get(e.index, e.generation).is_none() {
                return Err(PtlError::InvalidHandle);
            }
        }
        let md = Md::new(start, length, options, threshold, eq, user_ptr, memory_size)?;
        let (index, generation) = self.mds.insert(md).ok_or(PtlError::NoSpace)?;
        Ok(MdHandle { index, generation })
    }

    /// Atomically update an MD's mutable fields if `test` approves the
    /// current value (`PtlMDUpdate`): the classic compare-and-swap used by
    /// upper layers to resize or re-arm descriptors without racing
    /// incoming matches. Returns `Ok(true)` when the update applied.
    pub fn md_update(
        &mut self,
        h: MdHandle,
        test: impl FnOnce(&Md) -> bool,
        new_threshold: Threshold,
        new_eq: Option<EqHandle>,
    ) -> PtlResult<bool> {
        if let Some(e) = new_eq {
            if self.eqs.get(e.index, e.generation).is_none() {
                return Err(PtlError::InvalidHandle);
            }
        }
        if let Threshold::Count(0) = new_threshold {
            return Err(PtlError::InvalidArg);
        }
        let md = self
            .mds
            .get_mut(h.index, h.generation)
            .ok_or(PtlError::InvalidHandle)?;
        if !test(md) {
            return Ok(false);
        }
        md.threshold = new_threshold;
        md.eq = new_eq;
        Ok(true)
    }

    /// Unlink an MD (`PtlMDUnlink`).
    pub fn md_unlink(&mut self, h: MdHandle) -> PtlResult<()> {
        self.mds
            .remove(h.index, h.generation)
            .map(|_| ())
            .ok_or(PtlError::InvalidHandle)?;
        // Detach from any ME referencing it.
        let handles: Vec<MeHandle> = self
            .mes
            .iter()
            .filter(|(_, _, me)| me.md == Some(h))
            .map(|(index, generation, _)| MeHandle { index, generation })
            .collect();
        for me_h in handles {
            if let Some(me) = self.mes.get_mut(me_h.index, me_h.generation) {
                me.md = None;
            }
        }
        Ok(())
    }

    /// Borrow an MD (diagnostics/tests).
    pub fn md(&self, h: MdHandle) -> PtlResult<&Md> {
        self.mds
            .get(h.index, h.generation)
            .ok_or(PtlError::InvalidHandle)
    }

    // ----- Match entries -----

    /// Attach a new ME to portal `pt_index` (`PtlMEAttach`), at the head
    /// or the tail of the list.
    #[allow(clippy::too_many_arguments)]
    pub fn me_attach(
        &mut self,
        pt_index: u32,
        match_id: ProcessId,
        match_bits: MatchBits,
        ignore_bits: MatchBits,
        unlink: UnlinkOp,
        pos: InsertPos,
    ) -> PtlResult<MeHandle> {
        if pt_index >= self.limits.pt_size {
            return Err(PtlError::PtIndexInvalid);
        }
        let me = Me {
            match_id,
            match_bits,
            ignore_bits,
            unlink,
            md: None,
        };
        let (index, generation) = self.mes.insert(me).ok_or(PtlError::NoSpace)?;
        let h = MeHandle { index, generation };
        let pt = pt_index as usize;
        if pt >= self.portal_table.len() {
            self.portal_table.resize_with(pt + 1, MeList::new);
        }
        let list = self.portal_table.get_mut(pt).expect("grown to pt above");
        match pos {
            InsertPos::Before => list.push_head(h),
            InsertPos::After => list.push_tail(h),
        }
        Ok(h)
    }

    /// Insert a new ME relative to an existing one (`PtlMEInsert`).
    #[allow(clippy::too_many_arguments)]
    pub fn me_insert(
        &mut self,
        reference: MeHandle,
        pos: InsertPos,
        match_id: ProcessId,
        match_bits: MatchBits,
        ignore_bits: MatchBits,
        unlink: UnlinkOp,
    ) -> PtlResult<MeHandle> {
        self.mes
            .get(reference.index, reference.generation)
            .ok_or(PtlError::InvalidHandle)?;
        let me = Me {
            match_id,
            match_bits,
            ignore_bits,
            unlink,
            md: None,
        };
        let (index, generation) = self.mes.insert(me).ok_or(PtlError::NoSpace)?;
        let h = MeHandle { index, generation };
        let inserted = self
            .portal_table
            .iter_mut()
            .any(|list| list.insert_relative(reference, pos, h));
        if !inserted {
            self.mes.remove(index, generation);
            return Err(PtlError::InvalidHandle);
        }
        Ok(h)
    }

    /// Unlink an ME (`PtlMEUnlink`). The attached MD, if any, is unlinked
    /// too, mirroring `PTL_UNLINK` semantics.
    pub fn me_unlink(&mut self, h: MeHandle) -> PtlResult<()> {
        let me = self
            .mes
            .remove(h.index, h.generation)
            .ok_or(PtlError::InvalidHandle)?;
        for list in &mut self.portal_table {
            if list.remove(h) {
                break;
            }
        }
        if let Some(md) = me.md {
            let _ = self.mds.remove(md.index, md.generation);
        }
        Ok(())
    }

    /// Attach an MD to an ME (`PtlMDAttach`).
    #[allow(clippy::too_many_arguments)]
    pub fn md_attach(
        &mut self,
        me_h: MeHandle,
        memory_size: u64,
        start: u64,
        length: u64,
        options: MdOptions,
        threshold: Threshold,
        eq: Option<EqHandle>,
        user_ptr: u64,
    ) -> PtlResult<MdHandle> {
        self.mes
            .get(me_h.index, me_h.generation)
            .ok_or(PtlError::InvalidHandle)?;
        let md_h = self.md_bind(memory_size, start, length, options, threshold, eq, user_ptr)?;
        let me = self
            .mes
            .get_mut(me_h.index, me_h.generation)
            .expect("checked above");
        if me.md.is_some() {
            let _ = self.mds.remove(md_h.index, md_h.generation);
            return Err(PtlError::MdInUse);
        }
        me.md = Some(md_h);
        Ok(md_h)
    }

    /// Install an access control entry (`PtlACEntry`).
    pub fn ac_put(&mut self, ac_index: u32, entry: AcEntry) -> PtlResult<()> {
        if ac_index >= self.limits.ac_size {
            return Err(PtlError::AcIndexInvalid);
        }
        let at = ac_index as usize;
        if at >= self.ac_table.len() {
            fit_by_use(&mut self.ac_table, at + 1);
            self.ac_table.resize(at + 1, None);
        }
        if let Some(slot) = self.ac_table.get_mut(at) {
            *slot = Some(entry);
        }
        Ok(())
    }

    // ----- Initiator side -----

    /// Initiate a put (`PtlPut`): validates the MD, consumes its
    /// threshold, and builds the wire header. The platform reads the
    /// payload and transmits.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        md_h: MdHandle,
        ack_req: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<PortalsHeader> {
        let len = self.md(md_h)?.length;
        self.put_region(
            md_h,
            0,
            len,
            ack_req,
            target,
            pt_index,
            ac_index,
            match_bits,
            remote_offset,
            hdr_data,
        )
    }

    /// Initiate a put of a sub-region of the MD (`PtlPutRegion`):
    /// `[local_offset, local_offset + length)` within the descriptor.
    #[allow(clippy::too_many_arguments)]
    pub fn put_region(
        &mut self,
        md_h: MdHandle,
        local_offset: u64,
        length: u64,
        ack_req: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<PortalsHeader> {
        let md = self
            .mds
            .get_mut(md_h.index, md_h.generation)
            .ok_or(PtlError::InvalidHandle)?;
        if local_offset
            .checked_add(length)
            .is_none_or(|end| end > md.length)
        {
            return Err(PtlError::InvalidArg);
        }
        if !md.threshold.available() {
            return Err(PtlError::MdInUse);
        }
        md.threshold.consume();
        Ok(PortalsHeader::put(
            self.id,
            target,
            pt_index,
            ac_index,
            match_bits,
            length,
            remote_offset,
            ack_req,
            hdr_data,
            md_h,
        ))
    }

    /// Initiate an atomic put of a sub-region of the MD: a put whose
    /// header carries an [`AtomicOp`] the target applies lane-wise
    /// (8-byte little-endian lanes) instead of depositing. The offsets
    /// and length must be lane-aligned.
    #[allow(clippy::too_many_arguments)]
    pub fn atomic_region(
        &mut self,
        md_h: MdHandle,
        local_offset: u64,
        length: u64,
        op: AtomicOp,
        ack_req: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<PortalsHeader> {
        if !local_offset.is_multiple_of(8)
            || !length.is_multiple_of(8)
            || !remote_offset.is_multiple_of(8)
        {
            return Err(PtlError::InvalidArg);
        }
        let header = self.put_region(
            md_h,
            local_offset,
            length,
            ack_req,
            target,
            pt_index,
            ac_index,
            match_bits,
            remote_offset,
            hdr_data,
        )?;
        Ok(header.with_atomic(op))
    }

    /// The transmit region for a region put (what the TX DMA reads).
    pub fn tx_region_at(
        &self,
        md_h: MdHandle,
        local_offset: u64,
        length: u64,
    ) -> PtlResult<(u64, u64)> {
        let md = self.md(md_h)?;
        if local_offset
            .checked_add(length)
            .is_none_or(|end| end > md.length)
        {
            return Err(PtlError::InvalidArg);
        }
        Ok((md.start + local_offset, length))
    }

    /// Initiate a get (`PtlGet`). The reply deposits at the MD's start.
    pub fn get(
        &mut self,
        md_h: MdHandle,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
    ) -> PtlResult<PortalsHeader> {
        let md = self
            .mds
            .get_mut(md_h.index, md_h.generation)
            .ok_or(PtlError::InvalidHandle)?;
        if !md.threshold.available() {
            return Err(PtlError::MdInUse);
        }
        md.threshold.consume();
        let rlength = md.length;
        Ok(PortalsHeader::get(
            self.id,
            target,
            pt_index,
            ac_index,
            match_bits,
            rlength,
            remote_offset,
            md_h,
        ))
    }

    /// The payload region for an initiated operation (what the TX DMA
    /// reads).
    pub fn tx_region(&self, md_h: MdHandle) -> PtlResult<(u64, u64)> {
        let md = self.md(md_h)?;
        Ok((md.start, md.length))
    }

    /// Post the initiator-side send completion event (`SendEnd`) for a
    /// transmit of `length` bytes (region puts may send less than the
    /// full descriptor).
    pub fn on_send_complete(&mut self, md_h: MdHandle, length: u64) {
        self.post_md_event(md_h, EventKind::SendEnd, |ev, _md| {
            ev.rlength = length;
            ev.mlength = length;
        });
    }

    // ----- Target side, phase 1: header matching -----

    /// Match an incoming Put/Get header against the portal table.
    pub fn match_incoming(&mut self, header: &PortalsHeader) -> DeliverOutcome {
        debug_assert!(matches!(header.op(), PortalsOp::Put | PortalsOp::Get));

        // Access control.
        let permitted = self
            .ac_table
            .get(header.ac_index() as usize)
            .and_then(|e| *e)
            .map(|e| e.permits(header.src(), header.pt_index()))
            .unwrap_or(false);
        if !permitted || header.pt_index() >= self.limits.pt_size {
            self.counters.permission_violations += 1;
            return DeliverOutcome::PermissionViolation;
        }

        // Walk by position: the loop returns at its first match, the only
        // point where the list changes.
        let pt = header.pt_index() as usize;
        let mut walk = 0;
        while let Some(me_h) = self.portal_table.get(pt).and_then(|list| list.get(walk)) {
            walk += 1;
            let Some(me) = self.mes.get(me_h.index, me_h.generation) else {
                continue;
            };
            if !me.matches(header.src(), header.match_bits()) {
                continue;
            }
            let Some(md_h) = me.md else { continue };
            let Some(md) = self.mds.get(md_h.index, md_h.generation) else {
                continue;
            };
            let op_ok = match header.op() {
                PortalsOp::Put if header.atomic().is_some() => md.options.op_atomic,
                PortalsOp::Put => md.options.op_put,
                PortalsOp::Get => md.options.op_get,
                _ => unreachable!(),
            };
            if !op_ok || !md.threshold.available() {
                continue;
            }
            let offset = md.operation_offset(header.remote_offset());
            let Some(mlength) = md.accept_length(offset, header.rlength()) else {
                continue;
            };
            // An atomic must land on whole lanes: a misaligned or
            // truncated-to-partial-lane target cannot be combined
            // read-modify-write, so the entry does not match.
            if header.atomic().is_some()
                && (!offset.is_multiple_of(8) || !mlength.is_multiple_of(8))
            {
                continue;
            }

            // Commit the match.
            let unlink_op = me.unlink;
            let md = self
                .mds
                .get_mut(md_h.index, md_h.generation)
                .expect("md checked above");
            let exhausted = md.threshold.consume();
            if !md.options.manage_remote {
                md.local_offset += mlength;
            }
            let address = md.start + offset;
            let ack_needed = header.op() == PortalsOp::Put
                && header.ack_req() == AckReq::Ack
                && !md.options.ack_disable;
            let start_disabled = md.options.event_start_disable;

            let mut unlinked = false;
            if exhausted && unlink_op == UnlinkOp::Unlink {
                // Auto-unlink: remove the ME from its list and retire it;
                // the MD stays alive until completion-time event posting,
                // then is removed by `finish_unlink`.
                if let Some(me) = self.mes.remove(me_h.index, me_h.generation) {
                    debug_assert_eq!(me.md, Some(md_h));
                }
                if let Some(list) = self.portal_table.get_mut(pt) {
                    list.remove(me_h);
                }
                unlinked = true;
            }

            if !start_disabled {
                let kind = match header.op() {
                    PortalsOp::Put => EventKind::PutStart,
                    PortalsOp::Get => EventKind::GetStart,
                    _ => unreachable!(),
                };
                self.post_header_event(md_h, kind, header, mlength, offset);
            }

            self.counters.matched += 1;
            return DeliverOutcome::Matched(MatchTicket {
                md: md_h,
                offset,
                mlength,
                unlinked,
                ack_needed,
                address,
            });
        }

        self.counters.dropped_no_match += 1;
        DeliverOutcome::NoMatch
    }

    // ----- Target side, phase 2: completion -----

    /// Deposit a put's payload and post `PutEnd` (plus `Unlink` when the
    /// match auto-unlinked). Returns the action to transmit back.
    pub fn complete_put(
        &mut self,
        header: &PortalsHeader,
        ticket: &MatchTicket,
        data: &WireData,
        mem: &mut dyn ProcessMemory,
    ) -> IncomingAction {
        debug_assert_eq!(header.op(), PortalsOp::Put);
        if let WireData::Real(bytes) = data {
            match header.atomic() {
                Some(op) => {
                    // Lane-wise read-modify-write: the simulated SeaStar
                    // combines at line rate during deposit, so the
                    // timing path is identical to a plain put.
                    let n = ticket.mlength as usize;
                    debug_assert_eq!(n % 8, 0, "atomic mlength is lane-aligned");
                    let old = mem.read(ticket.address, n as u32);
                    let mut combined = vec![0u8; n];
                    for lane in 0..n / 8 {
                        let at = lane * 8;
                        let merged = op.apply(lane_at(&old, at), lane_at(bytes, at));
                        if let Some(out) = combined.get_mut(at..at + 8) {
                            out.copy_from_slice(&merged.to_le_bytes());
                        }
                    }
                    mem.write(ticket.address, &combined);
                }
                None => mem.write(ticket.address, &bytes[..ticket.mlength as usize]),
            }
        }
        self.post_header_event_checked(
            ticket.md,
            EventKind::PutEnd,
            header,
            ticket.mlength,
            ticket.offset,
        );
        let action = if ticket.ack_needed {
            IncomingAction::SendAck(PortalsHeader::ack_to(header, ticket.mlength, ticket.offset))
        } else {
            IncomingAction::None
        };
        self.finish_unlink(ticket);
        action
    }

    /// Read a get's data from the matched MD, post `GetEnd`, and return
    /// the reply to transmit.
    pub fn complete_get_serve(
        &mut self,
        header: &PortalsHeader,
        ticket: &MatchTicket,
        mem: &dyn ProcessMemory,
        synthetic: bool,
    ) -> IncomingAction {
        debug_assert_eq!(header.op(), PortalsOp::Get);
        let data = if synthetic {
            WireData::Synthetic(ticket.mlength)
        } else {
            WireData::Real(mem.read(ticket.address, ticket.mlength as u32).into())
        };
        self.post_header_event_checked(
            ticket.md,
            EventKind::GetEnd,
            header,
            ticket.mlength,
            ticket.offset,
        );
        let reply = PortalsHeader::reply_to(header, ticket.mlength, ticket.offset);
        self.finish_unlink(ticket);
        IncomingAction::SendReply(reply, data)
    }

    /// Deposit a reply into the originating MD (no matching — the header
    /// carries the MD handle) and post `ReplyEnd`.
    pub fn complete_reply(
        &mut self,
        header: &PortalsHeader,
        data: &WireData,
        mem: &mut dyn ProcessMemory,
    ) -> DeliverOutcome {
        debug_assert_eq!(header.op(), PortalsOp::Reply);
        let Some(md_h) = header.initiator_md() else {
            self.counters.stale_completions += 1;
            return DeliverOutcome::StaleHandle;
        };
        let Some(md) = self.mds.get(md_h.index, md_h.generation) else {
            self.counters.stale_completions += 1;
            return DeliverOutcome::StaleHandle;
        };
        // Replies land at the MD start: PtlGet has no local offset in
        // Portals 3.3 and NetPIPE reuses one MD per round.
        let deposit_len = header.mlength().min(md.length);
        let address = md.start;
        if let WireData::Real(bytes) = data {
            mem.write(address, &bytes[..deposit_len as usize]);
        }
        let ticket = MatchTicket {
            md: md_h,
            offset: 0,
            mlength: deposit_len,
            unlinked: false,
            ack_needed: false,
            address,
        };
        self.post_header_event_checked(md_h, EventKind::ReplyEnd, header, deposit_len, 0);
        DeliverOutcome::Matched(ticket)
    }

    /// Deliver an ack to the put's originating MD.
    pub fn deliver_ack(&mut self, header: &PortalsHeader) -> DeliverOutcome {
        debug_assert_eq!(header.op(), PortalsOp::Ack);
        let Some(md_h) = header.initiator_md() else {
            self.counters.stale_completions += 1;
            return DeliverOutcome::StaleHandle;
        };
        if self.mds.get(md_h.index, md_h.generation).is_none() {
            self.counters.stale_completions += 1;
            return DeliverOutcome::StaleHandle;
        }
        self.post_header_event_checked(
            md_h,
            EventKind::Ack,
            header,
            header.mlength(),
            header.target_offset(),
        );
        DeliverOutcome::Matched(MatchTicket {
            md: md_h,
            offset: header.target_offset(),
            mlength: header.mlength(),
            unlinked: false,
            ack_needed: false,
            address: 0,
        })
    }

    // ----- helpers -----

    fn finish_unlink(&mut self, ticket: &MatchTicket) {
        if ticket.unlinked {
            self.post_md_event(ticket.md, EventKind::Unlink, |_, _| {});
            let _ = self.mds.remove(ticket.md.index, ticket.md.generation);
        }
    }

    fn post_header_event(
        &mut self,
        md_h: MdHandle,
        kind: EventKind,
        header: &PortalsHeader,
        mlength: u64,
        offset: u64,
    ) {
        self.post_header_event_checked(md_h, kind, header, mlength, offset);
    }

    fn post_header_event_checked(
        &mut self,
        md_h: MdHandle,
        kind: EventKind,
        header: &PortalsHeader,
        mlength: u64,
        offset: u64,
    ) {
        let Some(md) = self.mds.get(md_h.index, md_h.generation) else {
            return;
        };
        if md.options.event_end_disable
            && matches!(
                kind,
                EventKind::PutEnd | EventKind::GetEnd | EventKind::ReplyEnd
            )
        {
            return;
        }
        let Some(eq_h) = md.eq else { return };
        let user_ptr = md.user_ptr;
        let event = Event {
            kind,
            initiator: header.src(),
            match_bits: header.match_bits(),
            rlength: header.rlength(),
            mlength,
            offset,
            md: md_h,
            user_ptr,
            hdr_data: header.hdr_data(),
        };
        if let Some(eq) = self.eqs.get_mut(eq_h.index, eq_h.generation) {
            if eq.post(event) {
                self.counters.events_posted += 1;
            }
        }
    }

    fn post_md_event(
        &mut self,
        md_h: MdHandle,
        kind: EventKind,
        fill: impl FnOnce(&mut Event, &Md),
    ) {
        let Some(md) = self.mds.get(md_h.index, md_h.generation) else {
            return;
        };
        let Some(eq_h) = md.eq else { return };
        let mut event = Event {
            kind,
            initiator: self.id,
            match_bits: 0,
            rlength: 0,
            mlength: 0,
            offset: 0,
            md: md_h,
            user_ptr: md.user_ptr,
            hdr_data: 0,
        };
        fill(&mut event, md);
        if let Some(eq) = self.eqs.get_mut(eq_h.index, eq_h.generation) {
            if eq.post(event) {
                self.counters.events_posted += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real payload is a boxed slice (pointer and length, no capacity),
    /// so the payload is two words whichever variant it holds.
    #[test]
    fn wire_data_is_two_words() {
        assert_eq!(std::mem::size_of::<WireData>(), 16);
    }

    #[test]
    fn portal_table_is_empty_until_first_attach() {
        let mut lib = PortalsLib::new(ProcessId::new(0, 0), NiLimits::default());
        assert_eq!(lib.portal_table.capacity(), 0);
        lib.me_attach(
            3,
            ProcessId::any(),
            0,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
        assert_eq!(lib.portal_table.len(), 4);
    }

    #[test]
    fn ac_table_holds_entry_zero_until_a_higher_put() {
        let mut lib = PortalsLib::new(ProcessId::new(0, 0), NiLimits::default());
        assert_eq!(lib.ac_table, [Some(AcEntry::open())]);
        assert_eq!(lib.ac_table.capacity(), 1);
        lib.ac_put(2, AcEntry::open()).unwrap();
        assert_eq!(lib.ac_table.len(), 3);
        assert_eq!(lib.ac_table[1], None, "grown across, not installed");
        assert_eq!(lib.ac_table.capacity(), 4);
        lib.ac_put(0, AcEntry::open()).unwrap();
        assert_eq!(lib.ac_table.len(), 3, "a lower put moves nothing");

        let none = NiLimits {
            ac_size: 0,
            ..NiLimits::default()
        };
        let lib = PortalsLib::new(ProcessId::new(0, 0), none);
        assert!(lib.ac_table.is_empty(), "no table, no bootstrap entry");
    }
}
