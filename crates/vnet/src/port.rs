//! Ports — the access points of jobs to their virtual networks.
//!
//! "The access point of a job to the virtual network is denoted as a
//! *port*" (§II-A). Two port semantics exist in the DECOS model:
//!
//! * **state ports** — carry periodically refreshed state variables;
//!   update-in-place (the newest value overwrites), no queueing, never
//!   overflow; staleness is the observable failure;
//! * **event ports** — carry event messages through *bounded* queues;
//!   a queue dimensioned below the actual inter-arrival/service imbalance
//!   overflows and loses messages — the paper's canonical *job borderline
//!   (configuration) fault* (§III-D).

use decos_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Cluster-wide unique port identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId(pub u32);

impl core::fmt::Display for PortId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Port semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortKind {
    /// State semantics: overwrite, no queue.
    State,
    /// Event semantics: bounded FIFO queue.
    Event,
}

/// An application-level message exchanged through ports.
///
/// Messages carry a numeric value (the controlled-object quantity the LIF
/// specification constrains), a sequence number (omission/duplication
/// detection) and the send instant (timing analysis).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Producing port.
    pub src: PortId,
    /// Per-producer sequence number.
    pub seq: u64,
    /// Send instant (sender-local timestamp mapped to global time).
    pub sent_at: SimTime,
    /// Application value.
    pub value: f64,
}

/// Wire size of an encoded message (see [`crate::codec`]).
pub const MESSAGE_WIRE_BYTES: usize = 4 + 8 + 8 + 8;

/// A state port: holds the most recent message.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct StatePort {
    current: Option<Message>,
}

impl StatePort {
    /// Installs a new state value (overwrite semantics).
    pub(crate) fn update(&mut self, msg: Message) {
        self.current = Some(msg);
    }

    /// The current state value, if any update arrived yet.
    pub(crate) fn read(&self) -> Option<&Message> {
        self.current.as_ref()
    }
}

/// Outcome of pushing into an event port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PushOutcome {
    /// Message enqueued.
    Accepted,
    /// Queue full — message dropped (counted as an overflow).
    Overflow,
}

/// An event port: bounded FIFO.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventPort {
    depth: usize,
    queue: VecDeque<Message>,
    accepted: u64,
    overflows: u64,
}

impl EventPort {
    /// Creates an event port with the configured queue depth.
    ///
    /// Depth comes from the virtual-network configuration record; a depth
    /// chosen from wrong assumptions about the sender is exactly the
    /// configuration fault the job fault model classifies as *borderline*.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        EventPort { depth, queue: VecDeque::with_capacity(depth), accepted: 0, overflows: 0 }
    }

    /// Current fill level.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Attempts to enqueue; drops the *new* message on overflow (the
    /// standard semantics for bounded real-time queues: old data keeps
    /// its ordering guarantees).
    pub fn push(&mut self, msg: Message) -> PushOutcome {
        if self.queue.len() >= self.depth {
            self.overflows += 1;
            PushOutcome::Overflow
        } else {
            self.queue.push_back(msg);
            self.accepted += 1;
            PushOutcome::Accepted
        }
    }

    /// Dequeues the oldest message.
    pub fn pop(&mut self) -> Option<Message> {
        self.queue.pop_front()
    }

    /// Dequeues up to `n` messages.
    pub(crate) fn pop_up_to(&mut self, n: usize) -> Vec<Message> {
        let mut out = Vec::new();
        self.pop_up_to_into(n, &mut out);
        out
    }

    /// Dequeues up to `n` messages into `out`, appending. Returns how many
    /// were moved; allocates only if `out` must grow.
    pub(crate) fn pop_up_to_into(&mut self, n: usize, out: &mut Vec<Message>) -> usize {
        let k = n.min(self.queue.len());
        out.extend(self.queue.drain(..k));
        k
    }

    /// Dequeues and discards up to `n` messages, returning how many were
    /// dropped — for consumers that only need the count.
    pub(crate) fn discard_up_to(&mut self, n: usize) -> usize {
        let k = n.min(self.queue.len());
        self.queue.drain(..k);
        k
    }

    /// Messages accepted since creation.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Overflow drops since creation — the interface-state variable the
    /// queue-overflow symptom detector monitors.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64, t_ms: u64) -> Message {
        Message { src: PortId(1), seq, sent_at: SimTime::from_millis(t_ms), value: seq as f64 }
    }

    #[test]
    fn state_port_overwrites() {
        let mut p = StatePort::default();
        assert!(p.read().is_none());
        p.update(msg(1, 10));
        p.update(msg(2, 20));
        assert_eq!(p.read().unwrap().seq, 2);
    }

    #[test]
    fn event_port_fifo_order() {
        let mut p = EventPort::new(4);
        for s in 1..=3 {
            assert_eq!(p.push(msg(s, s * 10)), PushOutcome::Accepted);
        }
        assert_eq!(p.pop().unwrap().seq, 1);
        assert_eq!(p.pop().unwrap().seq, 2);
        assert_eq!(p.pop().unwrap().seq, 3);
        assert!(p.pop().is_none());
    }

    #[test]
    fn event_port_overflow_drops_newest() {
        let mut p = EventPort::new(2);
        p.push(msg(1, 1));
        p.push(msg(2, 2));
        assert_eq!(p.push(msg(3, 3)), PushOutcome::Overflow);
        assert_eq!(p.overflows(), 1);
        assert_eq!(p.accepted(), 2);
        // Oldest preserved.
        assert_eq!(p.pop().unwrap().seq, 1);
    }

    #[test]
    fn pop_up_to_drains_partially() {
        let mut p = EventPort::new(8);
        for s in 0..5 {
            p.push(msg(s, s));
        }
        let batch = p.pop_up_to(3);
        assert_eq!(batch.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(p.len(), 2);
        let rest = p.pop_up_to(10);
        assert_eq!(rest.len(), 2);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_depth_rejected() {
        EventPort::new(0);
    }
}
