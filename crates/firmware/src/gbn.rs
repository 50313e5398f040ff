//! Go-back-n resource-exhaustion recovery.
//!
//! Paper §4.3: "The C firmware currently assumes that resource exhaustion
//! does not occur. ... The current approach is to panic the node. ... We
//! are currently working on a simple go-back-n protocol to resolve
//! resource exhaustion gracefully." This module implements that protocol
//! so the `table exhaustion` experiment can compare `Panic` (the paper's
//! shipped behaviour) against `GoBackN` (the paper's in-progress fix).
//!
//! Design: every data message between a node pair carries a sequence
//! number. The receiver accepts only the next expected sequence; anything
//! else — including messages dropped because no pending/source was
//! available — triggers a NACK carrying the expected sequence. The sender
//! keeps unacknowledged messages in a window and, on NACK, rewinds and
//! retransmits from the requested sequence. Cumulative ACKs (piggybacked
//! by the platform on deliveries) advance the window.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A per-peer message sequence number.
pub type SeqNo = u64;

/// Events the receiver side emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GbnEvent {
    /// Accept and process the message; implicitly acknowledges `seq`.
    Accept {
        /// The accepted sequence.
        seq: SeqNo,
    },
    /// Drop the message and ask the sender to rewind to `expected`.
    Nack {
        /// The next sequence the receiver will accept.
        expected: SeqNo,
    },
    /// Duplicate of an already-accepted message; drop silently.
    Duplicate,
}

/// Sender-side go-back-n state for one peer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbnSender<M> {
    next_seq: SeqNo,
    /// Lowest unacknowledged sequence.
    base: SeqNo,
    /// Unacknowledged messages `(seq, message)` in order.
    window: VecDeque<(SeqNo, M)>,
    /// Maximum in-flight messages before `send` refuses.
    window_limit: usize,
    /// The `expected` value of the last NACK acted on; duplicate NACKs
    /// for the same rewind point are ignored until the window advances
    /// (suppresses retransmission storms from stale in-flight messages).
    last_nack: Option<SeqNo>,
    /// Consecutive suppressed duplicates; every `window_limit`-th one is
    /// allowed through so a lost retransmission is eventually repaired
    /// (the timeout role in a classic go-back-n).
    dup_nacks: usize,
    /// Retransmissions performed.
    pub retransmissions: u64,
}

impl<M: Clone> GbnSender<M> {
    /// A sender with the given window limit.
    pub fn new(window_limit: usize) -> Self {
        assert!(window_limit > 0);
        GbnSender {
            next_seq: 0,
            base: 0,
            window: VecDeque::new(),
            window_limit,
            last_nack: None,
            dup_nacks: 0,
            retransmissions: 0,
        }
    }

    /// Register a new message for transmission. Returns its sequence, or
    /// `None` when the window is full (caller must defer).
    pub fn send(&mut self, msg: M) -> Option<SeqNo> {
        if self.window.len() >= self.window_limit {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back((seq, msg));
        Some(seq)
    }

    /// Cumulative acknowledgement: everything below `ack_seq` is
    /// delivered.
    pub fn ack(&mut self, ack_seq: SeqNo) {
        let before = self.base;
        while let Some(&(seq, _)) = self.window.front() {
            if seq < ack_seq {
                self.window.pop_front();
                self.base = seq + 1;
            } else {
                break;
            }
        }
        if self.base != before {
            // The window advanced: a future NACK is fresh information.
            self.last_nack = None;
            self.dup_nacks = 0;
        }
    }

    /// NACK: the receiver expects `expected`; return clones of every
    /// message from `expected` onward for retransmission, in order.
    ///
    /// Duplicate NACKs for a rewind point already handled return nothing:
    /// the stale in-flight messages that trigger them are already covered
    /// by the retransmission in progress.
    pub fn nack(&mut self, expected: SeqNo) -> Vec<(SeqNo, M)> {
        if self.last_nack == Some(expected) {
            self.dup_nacks += 1;
            if !self.dup_nacks.is_multiple_of(self.window_limit) {
                return Vec::new();
            }
            // Periodic re-arm: the earlier retransmission may itself have
            // been dropped; resend.
        }
        self.last_nack = Some(expected);
        // Everything below `expected` is implicitly acknowledged.
        self.ack(expected);
        // ack() clears last_nack when it advances; restore the marker for
        // this rewind point.
        self.last_nack = Some(expected);
        let out: Vec<(SeqNo, M)> = self
            .window
            .iter()
            .filter(|(seq, _)| *seq >= expected)
            .cloned()
            .collect();
        self.retransmissions += out.len() as u64;
        out
    }

    /// Sender timeout: unconditionally retransmit the whole outstanding
    /// window and reset NACK suppression. A go-back-n sender arms this
    /// whenever the window is non-empty; it repairs the case where a
    /// retransmission itself was dropped and its NACK was suppressed.
    pub fn timeout_retransmit(&mut self) -> Vec<(SeqNo, M)> {
        self.last_nack = None;
        self.dup_nacks = 0;
        let out: Vec<(SeqNo, M)> = self.window.iter().cloned().collect();
        self.retransmissions += out.len() as u64;
        out
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// Lowest unacknowledged sequence.
    pub fn base(&self) -> SeqNo {
        self.base
    }
}

/// Receiver-side go-back-n state for one peer.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct GbnReceiver {
    expected: SeqNo,
    /// NACKs sent.
    pub nacks: u64,
    /// Messages dropped (out of order or resource exhaustion).
    pub drops: u64,
}

impl GbnReceiver {
    /// A fresh receiver expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classify an arriving sequence. `resources_available` reports
    /// whether the firmware could allocate the pending/source for it.
    pub fn on_arrival(&mut self, seq: SeqNo, resources_available: bool) -> GbnEvent {
        if seq < self.expected {
            return GbnEvent::Duplicate;
        }
        if seq > self.expected || !resources_available {
            self.drops += 1;
            self.nacks += 1;
            return GbnEvent::Nack {
                expected: self.expected,
            };
        }
        let accepted = self.expected;
        self.expected += 1;
        GbnEvent::Accept { seq: accepted }
    }

    /// The next sequence the receiver will accept (its cumulative ack
    /// value).
    pub fn expected(&self) -> SeqNo {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_flow_accepts_everything() {
        let mut tx: GbnSender<&str> = GbnSender::new(8);
        let mut rx = GbnReceiver::new();
        for i in 0..5 {
            let seq = tx.send("m").unwrap();
            assert_eq!(seq, i);
            assert_eq!(rx.on_arrival(seq, true), GbnEvent::Accept { seq: i });
            tx.ack(rx.expected());
        }
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(rx.nacks, 0);
    }

    #[test]
    fn exhaustion_triggers_nack_and_retransmit() {
        let mut tx: GbnSender<u32> = GbnSender::new(8);
        let mut rx = GbnReceiver::new();

        let s0 = tx.send(100).unwrap();
        let s1 = tx.send(101).unwrap();
        let s2 = tx.send(102).unwrap();

        assert_eq!(rx.on_arrival(s0, true), GbnEvent::Accept { seq: 0 });
        // s1 arrives while the receiver is out of pendings.
        assert_eq!(rx.on_arrival(s1, false), GbnEvent::Nack { expected: 1 });
        // s2 now arrives out of order (1 was never accepted).
        assert_eq!(rx.on_arrival(s2, true), GbnEvent::Nack { expected: 1 });

        // Sender rewinds to 1 and resends 1 and 2.
        let resend = tx.nack(1);
        assert_eq!(
            resend.iter().map(|&(s, m)| (s, m)).collect::<Vec<_>>(),
            vec![(1, 101), (2, 102)]
        );
        assert_eq!(tx.retransmissions, 2);

        // Replay succeeds.
        assert_eq!(rx.on_arrival(1, true), GbnEvent::Accept { seq: 1 });
        assert_eq!(rx.on_arrival(2, true), GbnEvent::Accept { seq: 2 });
        tx.ack(rx.expected());
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn duplicates_are_dropped_silently() {
        let mut rx = GbnReceiver::new();
        assert_eq!(rx.on_arrival(0, true), GbnEvent::Accept { seq: 0 });
        assert_eq!(rx.on_arrival(0, true), GbnEvent::Duplicate);
        assert_eq!(rx.expected(), 1);
    }

    #[test]
    fn window_limit_blocks_sender() {
        let mut tx: GbnSender<()> = GbnSender::new(2);
        assert!(tx.send(()).is_some());
        assert!(tx.send(()).is_some());
        assert!(tx.send(()).is_none(), "window full");
        tx.ack(1);
        assert!(tx.send(()).is_some());
    }

    #[test]
    fn cumulative_ack_advances_base() {
        let mut tx: GbnSender<u8> = GbnSender::new(16);
        for i in 0..10u8 {
            tx.send(i).unwrap();
        }
        tx.ack(7);
        assert_eq!(tx.base(), 7);
        assert_eq!(tx.in_flight(), 3);
    }

    #[test]
    fn duplicate_nacks_are_suppressed() {
        let mut tx: GbnSender<u8> = GbnSender::new(8);
        for i in 0..4u8 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.nack(1).len(), 3);
        assert_eq!(tx.nack(1).len(), 0, "same rewind point: suppressed");
        // Progress re-arms NACK handling.
        tx.ack(2);
        assert_eq!(tx.nack(2).len(), 2);
    }

    #[test]
    fn timeout_resends_window_and_rearms_nacks() {
        let mut tx: GbnSender<u8> = GbnSender::new(4);
        tx.send(9).unwrap();
        tx.send(8).unwrap();
        tx.nack(0);
        assert!(tx.nack(0).is_empty(), "suppressed");
        let resent = tx.timeout_retransmit();
        assert_eq!(resent.len(), 2);
        // Timeout clears suppression.
        assert_eq!(tx.nack(0).len(), 2);
    }

    #[test]
    fn nack_implicitly_acks_below_expected() {
        let mut tx: GbnSender<u8> = GbnSender::new(16);
        for i in 0..5u8 {
            tx.send(i).unwrap();
        }
        let resend = tx.nack(3);
        assert_eq!(resend.len(), 2);
        assert_eq!(tx.base(), 3);
    }
}
