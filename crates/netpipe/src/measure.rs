//! The measurement convention, kept once for every driver.
//!
//! [`Rounds`] is the ledger a driver keeps beside its transport calls:
//! which schedule point is running, how many completions and issues the
//! round has seen, when its clock started, the receiver's steady-state
//! window (first to last arrival), the streaming sender's in-flight
//! count, and the [`RoundResult`] each pattern leaves ([`Record`]). A
//! driver decodes its completions and asks the ledger what they mean.

use crate::report::RoundResult;
use crate::schedule::{Schedule, SizePoint};
use xt3_node::AppCtx;
use xt3_sim::SimTime;

/// The [`RoundResult`] a finished round records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// One iteration is ping + pong: `2 * reps` one-way messages since
    /// the round's clock started, so latency is round-trip/2.
    PingPong,
    /// A get is its own round trip: `reps` messages, each the full get
    /// time (why the paper's 5.39 µs put and 6.60 µs get coexist with
    /// Fig. 5's nearly identical large-message bandwidths).
    Get,
    /// Both directions at once: `reps` iterations, bandwidth the
    /// aggregate `2 * size` per iteration.
    Bidir,
    /// Streaming, at the receiver: `reps - 1` intervals between the
    /// round's first and last arrival. A round with no interval (one
    /// rep, or first and last arrival at one instant) records nothing.
    Stream,
}

/// One driver's round ledger over its schedule.
#[derive(Debug)]
pub struct Rounds {
    schedule: Schedule,
    round: usize,
    /// Completions counted this round: pongs, replies, arrivals.
    done: u32,
    /// Messages the stream pump issued this round.
    issued: u32,
    /// Messages in flight. Not reset at a round boundary: a send
    /// completion may land after its round closed.
    in_flight: u32,
    started: bool,
    t0: SimTime,
    first: SimTime,
    last: SimTime,
}

impl Rounds {
    /// A ledger at the first point of `schedule`.
    pub fn new(schedule: Schedule) -> Self {
        Rounds {
            schedule,
            round: 0,
            done: 0,
            issued: 0,
            in_flight: 0,
            started: false,
            t0: SimTime::ZERO,
            first: SimTime::ZERO,
            last: SimTime::ZERO,
        }
    }

    /// The running round's index in the schedule.
    pub fn index(&self) -> usize {
        self.round
    }

    /// The running round's size and repetitions.
    fn point(&self) -> SizePoint {
        self.schedule.points[self.round]
    }

    /// The running round's message size.
    pub fn size(&self) -> u64 {
        self.point().size
    }

    /// The running round's repetitions.
    pub fn reps(&self) -> u32 {
        self.point().reps
    }

    /// The schedule's largest message: what the buffers must hold.
    pub fn max_size(&self) -> u64 {
        self.schedule.max_size()
    }

    /// Has the schedule run out?
    pub fn finished(&self) -> bool {
        self.round >= self.schedule.len()
    }

    /// Neither started nor counted anything yet this round.
    pub fn idle(&self) -> bool {
        !self.started && self.done == 0
    }

    /// Start the round's clock.
    pub fn start(&mut self, now: SimTime) {
        self.started = true;
        self.t0 = now;
    }

    /// Count one arrival (a pong, a reply, a streamed message, a served
    /// get) and stretch the steady-state window over it; true when it
    /// was the round's last.
    pub fn arrive(&mut self, now: SimTime) -> bool {
        self.done += 1;
        if self.done == 1 {
            self.first = now;
        }
        self.last = now;
        self.done >= self.reps()
    }

    /// How many messages the stream sender may issue now: up to the
    /// round's repetitions, with at most `window` in flight. They count
    /// as issued and in flight.
    pub fn pump(&mut self, window: u32) -> u32 {
        let n = (self.reps() - self.issued).min(window.saturating_sub(self.in_flight));
        self.issued += n;
        self.in_flight += n;
        n
    }

    /// One message in flight completed.
    pub fn retire(&mut self) {
        self.in_flight -= 1;
    }

    /// Push the running round's result, as `how` measures it, at `now`.
    pub fn record(&self, how: Record, now: SimTime, results: &mut Vec<RoundResult>) {
        let SizePoint { size, reps } = self.point();
        let (messages, elapsed, bw_factor) = match how {
            Record::PingPong => (2 * reps, now - self.t0, 1),
            Record::Get => (reps, now - self.t0, 1),
            Record::Bidir => (reps, now - self.t0, 2),
            Record::Stream if reps > 1 && self.last > self.first => {
                (reps - 1, self.last - self.first, 1)
            }
            Record::Stream => return,
        };
        results.push(RoundResult {
            size,
            messages,
            elapsed,
            bw_factor,
        });
    }

    /// Close the round and move to the next; false once the schedule
    /// has run out.
    pub fn advance(&mut self) -> bool {
        self.round += 1;
        self.done = 0;
        self.issued = 0;
        self.started = false;
        !self.finished()
    }
}

/// Write the payload pattern `i % period` over the schedule's largest
/// message (at least 64 bytes) at `base`, unless the machine carries
/// synthetic payloads.
pub fn fill(ctx: &mut AppCtx<'_>, base: u64, max_size: u64, period: usize) {
    if !ctx.synthetic() {
        let pattern: Vec<u8> = (0..max_size.max(64) as usize)
            .map(|i| (i % period) as u8)
            .collect();
        ctx.write_mem(base, &pattern);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    fn streamed(reps: u32, arrivals: &[u64]) -> Vec<RoundResult> {
        let mut rounds = Rounds::new(Schedule::fixed(64, reps));
        for &t in arrivals {
            rounds.arrive(at(t));
        }
        let mut results = Vec::new();
        rounds.record(Record::Stream, at(100), &mut results);
        results
    }

    #[test]
    fn a_stream_round_without_an_interval_records_nothing() {
        assert!(streamed(1, &[5]).is_empty(), "one rep has no interval");
        assert!(
            streamed(3, &[5, 5, 5]).is_empty(),
            "first and last arrival at one instant"
        );
    }

    #[test]
    fn a_stream_round_records_the_intervals_between_first_and_last_arrival() {
        let results = streamed(4, &[10, 12, 15, 19]);
        assert_eq!(
            results,
            [RoundResult {
                size: 64,
                messages: 3,
                elapsed: at(9),
                bw_factor: 1,
            }]
        );
    }

    #[test]
    fn arrive_reports_the_last_rep() {
        let mut rounds = Rounds::new(Schedule::fixed(8, 3));
        assert!(!rounds.arrive(at(1)));
        assert!(!rounds.arrive(at(2)));
        assert!(rounds.arrive(at(3)));
    }

    #[test]
    fn pump_stops_at_the_window_and_at_reps() {
        let mut rounds = Rounds::new(Schedule::fixed(8, 5));
        assert_eq!(rounds.pump(2), 2, "the window");
        assert_eq!(rounds.pump(2), 0, "the window is full");
        rounds.retire();
        assert_eq!(rounds.pump(2), 1);
        rounds.retire();
        rounds.retire();
        assert_eq!(rounds.pump(8), 2, "only the reps left");
        assert_eq!(rounds.pump(8), 0, "every rep issued");
    }

    #[test]
    fn a_round_reset_keeps_the_in_flight_count() {
        let mut rounds = Rounds::new(Schedule {
            points: vec![SizePoint { size: 8, reps: 4 }; 2],
        });
        assert_eq!(rounds.pump(3), 3);
        rounds.retire();
        rounds.start(at(1));
        assert!(!rounds.idle());
        assert!(rounds.advance(), "a second round");
        assert!(rounds.idle());
        assert_eq!(rounds.pump(3), 1, "two sends of the last round still fly");
        assert!(!rounds.advance());
        assert!(rounds.finished());
    }

    #[test]
    fn each_pattern_records_its_convention() {
        let mut rounds = Rounds::new(Schedule::fixed(100, 5));
        rounds.start(at(10));
        let mut results = Vec::new();
        for how in [Record::PingPong, Record::Get, Record::Bidir] {
            rounds.record(how, at(30), &mut results);
        }
        let got: Vec<_> = results
            .iter()
            .map(|r| (r.messages, r.elapsed, r.bw_factor))
            .collect();
        assert_eq!(got, [(10, at(20), 1), (5, at(20), 1), (5, at(20), 2)]);
    }
}
