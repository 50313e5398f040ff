//! Event queues and completion events.
//!
//! Every completion in Portals is delivered as an event in a fixed-size
//! circular queue. The firmware writes events atomically (paper §4.1:
//! "Individual events are small enough that they can be posted atomically
//! by the firmware, allowing the host to simply read the next EQ slot"),
//! and a full queue *drops* events, which the consumer observes as
//! `PtlError::EqDropped` — exactly the semantics upper layers (MPI) must
//! size their queues around.

use crate::slab::fit_ring_by_use;
use crate::types::{MatchBits, MdHandle, ProcessId, PtlError, PtlResult};

/// Event types (`ptl_event_kind_t` subset used by the stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A put began arriving into a local MD (target side).
    PutStart,
    /// A put finished arriving into a local MD (target side).
    PutEnd,
    /// A get began reading a local MD (target side).
    GetStart,
    /// A get finished reading a local MD (target side).
    GetEnd,
    /// A reply began arriving into the requesting MD (initiator side).
    ReplyStart,
    /// A reply finished arriving (initiator side; completes a get).
    ReplyEnd,
    /// An outgoing message finished sending (initiator side).
    SendEnd,
    /// The target acknowledged a put (initiator side).
    Ack,
    /// An ME/MD pair was automatically unlinked.
    Unlink,
}

/// One completion event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What completed.
    pub kind: EventKind,
    /// The process on the other side of the operation.
    pub initiator: ProcessId,
    /// Match bits from the header.
    pub match_bits: MatchBits,
    /// Requested length from the header.
    pub rlength: u64,
    /// Manipulated (accepted) length after MD checks/truncation.
    pub mlength: u64,
    /// Offset within the MD at which the operation took place.
    pub offset: u64,
    /// The local MD involved.
    pub md: MdHandle,
    /// The MD's user pointer.
    pub user_ptr: u64,
    /// Out-of-band header data carried by the put.
    pub hdr_data: u64,
}

/// A fixed-capacity circular event queue.
///
/// The *logical* capacity (the point at which posts drop, which upper
/// layers size their protocols around) is fixed at creation, but the
/// backing storage grows lazily: an `eq_alloc(2048)` used to memset a
/// ~144 KB `vec![None; 2048]` up front, which dominated short
/// simulations (allocation happens mid-run, at `AppStart` dispatch).
/// Typical queues hold a handful of events at a time, so the deque
/// (grown by [`fit_ring_by_use`]) stays tiny and the drop semantics are
/// unchanged.
#[derive(Debug, Clone)]
pub struct EventQueue {
    ring: std::collections::VecDeque<Event>,
    capacity: u32,
    dropped: u64,
    high_water: u32,
}

impl EventQueue {
    /// A queue holding at most `capacity` undelivered events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "zero-capacity event queue");
        EventQueue {
            ring: std::collections::VecDeque::new(),
            capacity,
            dropped: 0,
            high_water: 0,
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Undelivered events currently queued.
    pub fn len(&self) -> u32 {
        self.ring.len() as u32
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events dropped due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deepest the queue has ever been (undelivered events).
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Post an event. Returns `false` (and counts a drop) when full.
    pub fn post(&mut self, event: Event) -> bool {
        if self.len() == self.capacity {
            self.dropped += 1;
            return false;
        }
        let need = self.ring.len() + 1;
        fit_ring_by_use(&mut self.ring, need);
        self.ring.push_back(event);
        self.high_water = self.high_water.max(self.ring.len() as u32);
        true
    }

    /// Non-blocking get (`PtlEQGet`): returns the next event, `EqEmpty`
    /// when none is pending, or `EqDropped` (once) after an overflow so
    /// the consumer learns events were lost.
    pub fn get(&mut self) -> PtlResult<Event> {
        match self.ring.pop_front() {
            Some(ev) => Ok(ev),
            None if self.dropped > 0 => {
                self.dropped = 0;
                Err(PtlError::EqDropped)
            }
            None => Err(PtlError::EqEmpty),
        }
    }

    /// Peek the next event without consuming it.
    pub fn peek(&self) -> Option<&Event> {
        self.ring.front()
    }

    /// Drain all pending events.
    pub fn drain(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len() as usize);
        while let Ok(ev) = self.get() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, mlength: u64) -> Event {
        Event {
            kind,
            initiator: ProcessId::new(1, 1),
            match_bits: 0,
            rlength: mlength,
            mlength,
            offset: 0,
            md: MdHandle {
                index: 0,
                generation: 0,
            },
            user_ptr: 0,
            hdr_data: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = EventQueue::new(4);
        assert!(q.post(ev(EventKind::PutStart, 1)));
        assert!(q.post(ev(EventKind::PutEnd, 2)));
        assert_eq!(q.get().unwrap().mlength, 1);
        assert_eq!(q.get().unwrap().mlength, 2);
        assert_eq!(q.get().unwrap_err(), PtlError::EqEmpty);
    }

    #[test]
    fn wraparound() {
        let mut q = EventQueue::new(2);
        for i in 0..10u64 {
            assert!(q.post(ev(EventKind::SendEnd, i)));
            assert_eq!(q.get().unwrap().mlength, i);
        }
        assert!(q.is_empty());
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_reports_once() {
        let mut q = EventQueue::new(2);
        assert!(q.post(ev(EventKind::PutEnd, 0)));
        assert!(q.post(ev(EventKind::PutEnd, 1)));
        assert!(!q.post(ev(EventKind::PutEnd, 2)), "third post must drop");
        assert_eq!(q.dropped(), 1);
        // The two queued events are still delivered...
        assert!(q.get().is_ok());
        assert!(q.get().is_ok());
        // ...then the drop is reported exactly once.
        assert_eq!(q.get().unwrap_err(), PtlError::EqDropped);
        assert_eq!(q.get().unwrap_err(), PtlError::EqEmpty);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new(2);
        q.post(ev(EventKind::Ack, 7));
        assert_eq!(q.peek().unwrap().mlength, 7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.get().unwrap().mlength, 7);
        assert!(q.peek().is_none());
    }

    #[test]
    fn drain_empties_queue() {
        let mut q = EventQueue::new(8);
        for i in 0..5 {
            q.post(ev(EventKind::GetEnd, i));
        }
        let all = q.drain();
        assert_eq!(all.len(), 5);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        EventQueue::new(0);
    }
}
