//! The bounded pipe that takes observation work off the simulation
//! thread: the paper's host → SeaStar hand-off (§3.3), applied to the
//! simulator's own sinks.
//!
//! The producer appends fixed-size records to a batch and returns at
//! once; a full batch goes down a bounded channel to one consumer thread,
//! which applies every record, in stream order, to state it owns — plain
//! single-threaded types that never see the channel. At most
//! [`IN_FLIGHT`] batches of [`BATCH`] records wait in the channel, so a
//! consumer that falls behind stops the producer (back-pressure) instead
//! of growing a queue. Emptied batches travel back on a second channel
//! and are refilled, so a steady stream allocates nothing and each batch
//! is freed by the thread that allocated it only at the end.
//!
//! [`Pipe::close`] sends the last partial batch and hangs up; the
//! consumer then drains the channel and returns its state to whoever
//! calls [`Worker::join`] — the *settle* every reader of the state waits
//! for. Nothing here can change what the consumer computes: it sees the
//! records in exactly the order they were pushed, whichever thread runs
//! it and however the two threads interleave.

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

/// Records a batch holds before it is sent.
pub const BATCH: usize = 2048;

/// Full batches the channel holds before the producer waits: with the
/// causal log's 56-byte records, about 0.9 MB in flight.
pub const IN_FLIGHT: usize = 8;

/// State a consumer thread drives with the records of one stream.
pub trait Consume: Send + 'static {
    /// The record type of the stream.
    type Rec: Send + 'static;

    /// Apply one record (in stream order).
    fn apply(&mut self, rec: &Self::Rec);
}

/// The producer end of a pipe.
#[derive(Debug)]
pub struct Pipe<R> {
    batch: Vec<R>,
    tx: SyncSender<Vec<R>>,
    spare: Receiver<Vec<R>>,
}

/// The consumer thread of a pipe, holding its state until joined.
#[derive(Debug)]
pub struct Worker<C> {
    handle: JoinHandle<C>,
}

/// Start a consumer thread that applies every record pushed into the
/// returned pipe to `state`.
#[expect(clippy::disallowed_methods, reason = "sim::par is where threads live")]
pub fn spawn<C: Consume>(mut state: C) -> (Pipe<C::Rec>, Worker<C>) {
    let (tx, rx) = mpsc::sync_channel::<Vec<C::Rec>>(IN_FLIGHT);
    let (back, spare) = mpsc::channel();
    let handle = thread::Builder::new()
        .name("observe".into())
        .spawn(move || {
            for mut batch in rx {
                for rec in &batch {
                    state.apply(rec);
                }
                batch.clear();
                // The producer may have hung up already.
                let _ = back.send(batch);
            }
            state
        })
        .expect("the observation consumer thread starts");
    let pipe = Pipe {
        batch: Vec::with_capacity(BATCH),
        tx,
        spare,
    };
    (pipe, Worker { handle })
}

impl<R> Pipe<R> {
    /// Append `rec` to the stream.
    #[inline]
    pub fn feed(&mut self, rec: R) {
        self.batch.push(rec);
        if self.batch.len() >= BATCH {
            self.flush();
        }
    }

    /// Send the current batch, taking an emptied one back if the consumer
    /// has returned any.
    #[cold]
    #[inline(never)]
    fn flush(&mut self) {
        let next = self
            .spare
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BATCH));
        let full = std::mem::replace(&mut self.batch, next);
        // A consumer that panicked has dropped its end; `Worker::join`
        // raises its panic.
        let _ = self.tx.send(full);
    }

    /// Send what is left and hang up: the consumer finishes the stream.
    /// Nothing is fed after this, so no batch replaces the last one.
    pub fn close(self) {
        if !self.batch.is_empty() {
            let _ = self.tx.send(self.batch);
        }
    }
}

impl<C> Worker<C> {
    /// Wait for the consumer to apply every record of a closed pipe; its
    /// state. A panic on the consumer thread resumes here.
    pub fn join(self) -> C {
        match self.handle.join() {
            Ok(state) => state,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum(Vec<u64>);

    impl Consume for Sum {
        type Rec = u64;
        fn apply(&mut self, rec: &u64) {
            self.0.push(*rec);
        }
    }

    #[test]
    fn every_record_arrives_in_order() {
        let (mut pipe, worker) = spawn(Sum(Vec::new()));
        let n = (BATCH * (IN_FLIGHT + 3) + 17) as u64;
        for i in 0..n {
            pipe.feed(i);
        }
        pipe.close();
        let got = worker.join().0;
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn a_consumer_panic_resumes_at_join() {
        struct Bad;
        impl Consume for Bad {
            type Rec = u8;
            fn apply(&mut self, _: &u8) {
                panic!("consumer failed");
            }
        }
        let (mut pipe, worker) = spawn(Bad);
        for _ in 0..BATCH * (IN_FLIGHT + 2) {
            pipe.feed(0);
        }
        pipe.close();
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.join()));
        assert!(joined.is_err());
    }
}
