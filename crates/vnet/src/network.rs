//! Virtual-network endpoints.
//!
//! A *virtual network* is an encapsulated overlay on the time-triggered
//! core network (§II-D, \[13\]): each participating component owns a fixed
//! byte segment in its TDMA frames for each network it belongs to. A
//! [`VnetEndpoint`] is the per-(component, network) runtime: it queues
//! outbound messages, drains them into frame segments when the component's
//! slot comes up, and delivers inbound segments into per-source receive
//! buffers for the local jobs.
//!
//! All loss points are counted — transmit overflow, receive overflow,
//! bandwidth-bound backlog — because those counters are exactly the
//! interface state the diagnostic configuration-fault detector monitors.

use crate::codec::{decode_segment_with, encode_segment, segment_message_capacity, DecodeError};
use crate::config::VnetConfig;
use crate::port::{EventPort, Message, PortId, PortKind, PushOutcome, StatePort};
use serde::{Deserialize, Serialize};

/// Per-(component, virtual network) runtime state.
///
/// The per-port tables are small vectors sorted by `PortId` and searched
/// linearly: an endpoint sees a handful of ports, where a tree search
/// costs more than the scan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VnetEndpoint {
    cfg: VnetConfig,
    /// Outbound: latest value per local output port (state semantics).
    tx_state: Vec<(PortId, Message)>,
    /// Outbound: bounded queue (event semantics).
    tx_queue: EventPort,
    /// Inbound state values, keyed by source port.
    rx_state: Vec<(PortId, StatePort)>,
    /// Inbound event queues, keyed by source port.
    rx_queues: Vec<(PortId, EventPort)>,
    /// Segments that failed to decode (corruption past the CRC or a
    /// sender/receiver configuration mismatch).
    decode_errors: u64,
    /// Cached sum of per-source receive-queue overflow counters, so the
    /// per-slot loss accounting reads O(1) instead of walking `rx_queues`.
    rx_overflow_total: u64,
    /// Cached sum of per-source receive-queue accepted counters.
    rx_accepted_total: u64,
}

/// Where `key` sits in a table sorted by `PortId`: `Ok(index)` if present,
/// otherwise `Err(index)` of the insertion point that keeps it sorted.
fn find<T>(table: &[(PortId, T)], key: PortId) -> Result<usize, usize> {
    match table.iter().position(|(p, _)| *p >= key) {
        Some(i) if table[i].0 == key => Ok(i),
        Some(i) => Err(i),
        None => Err(table.len()),
    }
}

/// The entry for `key`, if present.
fn get<T>(table: &[(PortId, T)], key: PortId) -> Option<&T> {
    find(table, key).ok().map(|i| &table[i].1)
}

/// The mutable entry for `key`, if present.
fn get_mut<T>(table: &mut [(PortId, T)], key: PortId) -> Option<&mut T> {
    find(table, key).ok().map(|i| &mut table[i].1)
}

/// The entry for `key`, inserted by `new` at its sorted place if absent.
fn entry<T>(table: &mut Vec<(PortId, T)>, key: PortId, new: impl FnOnce() -> T) -> &mut T {
    let i = match find(table, key) {
        Ok(i) => i,
        Err(i) => {
            table.insert(i, (key, new()));
            i
        }
    };
    &mut table[i].1
}

impl VnetEndpoint {
    /// Creates an endpoint operating under `cfg`.
    pub fn new(cfg: VnetConfig) -> Self {
        VnetEndpoint {
            cfg,
            tx_state: Vec::new(),
            tx_queue: EventPort::new(cfg.tx_queue_depth.max(1)),
            rx_state: Vec::new(),
            rx_queues: Vec::new(),
            decode_errors: 0,
            rx_overflow_total: 0,
            rx_accepted_total: 0,
        }
    }

    /// Submits an outbound message from a local job.
    ///
    /// Event networks may overflow the transmit queue; the outcome is
    /// returned so the caller can account the loss.
    pub fn send(&mut self, msg: Message) -> PushOutcome {
        match self.cfg.kind {
            PortKind::State => {
                *entry(&mut self.tx_state, msg.src, || msg) = msg;
                PushOutcome::Accepted
            }
            PortKind::Event => self.tx_queue.push(msg),
        }
    }

    /// Drains the messages this endpoint will carry in the next slot,
    /// bounded by the configured bandwidth (segment capacity).
    ///
    /// State networks broadcast the latest value of every local output port
    /// (state is not consumed); event networks dequeue from the transmit
    /// queue. Truncation order for state networks is the deterministic
    /// `PortId` order.
    pub fn drain_for_slot(&mut self) -> Vec<Message> {
        let mut out = Vec::new();
        self.drain_for_slot_into(&mut out);
        out
    }

    /// [`drain_for_slot`](VnetEndpoint::drain_for_slot) into a caller-owned
    /// buffer, appending. Returns the number of messages drained; allocates
    /// only if `out` must grow.
    pub fn drain_for_slot_into(&mut self, out: &mut Vec<Message>) -> usize {
        let fit = segment_message_capacity(self.cfg.bytes_per_slot);
        match self.cfg.kind {
            PortKind::State => {
                let n = fit.min(self.tx_state.len());
                out.extend(self.tx_state[..n].iter().map(|(_, m)| *m));
                n
            }
            PortKind::Event => self.tx_queue.pop_up_to_into(fit, out),
        }
    }

    /// Drains outbound messages for one slot and encodes them into `out`
    /// as a segment of exactly `cfg.bytes_per_slot` bytes. Returns the
    /// number of messages carried.
    pub fn drain_into_segment(&mut self, out: &mut Vec<u8>) -> usize {
        let msgs = self.drain_for_slot();
        encode_segment(&msgs, self.cfg.bytes_per_slot, out)
    }

    /// Number of messages waiting in the transmit queue (event networks).
    pub fn tx_backlog(&self) -> usize {
        self.tx_queue.len()
    }

    /// Transmit-side overflow count.
    pub fn tx_overflows(&self) -> u64 {
        self.tx_queue.overflows()
    }

    /// Delivers an inbound segment (from a remote component's frame).
    ///
    /// Returns the number of messages delivered; decode failures are
    /// counted and yield zero.
    pub fn deliver_segment(&mut self, seg: &[u8]) -> Result<usize, DecodeError> {
        // Streaming decode: messages go straight into the receive ports,
        // no intermediate vector. Validation happens before the first
        // delivery, so a bad segment delivers nothing.
        match decode_segment_with(seg, |m| self.deliver_message(m)) {
            Ok(n) => Ok(n),
            Err(e) => {
                self.decode_errors += 1;
                Err(e)
            }
        }
    }

    /// Delivers what [`deliver_segment`](VnetEndpoint::deliver_segment)
    /// would on the segment `encode_segment(msgs, seg_bytes, ..)` encodes,
    /// without the bytes: a segment too short for its count header is
    /// counted as a decode error and delivers nothing; any other delivers
    /// `msgs`. The codec is lossless, so this is exact as long as `msgs`
    /// fits the segment (at most `segment_message_capacity(seg_bytes)`
    /// messages, which a drain guarantees).
    pub fn deliver_messages(
        &mut self,
        msgs: &[Message],
        seg_bytes: usize,
    ) -> Result<usize, DecodeError> {
        debug_assert!(msgs.len() <= segment_message_capacity(seg_bytes));
        if seg_bytes < 2 {
            self.decode_errors += 1;
            return Err(DecodeError::Truncated);
        }
        for m in msgs {
            self.deliver_message(*m);
        }
        Ok(msgs.len())
    }

    /// Delivers a single inbound message.
    pub fn deliver_message(&mut self, m: Message) {
        match self.cfg.kind {
            PortKind::State => {
                entry(&mut self.rx_state, m.src, StatePort::default).update(m);
            }
            PortKind::Event => {
                let depth = self.cfg.rx_queue_depth.max(1);
                match entry(&mut self.rx_queues, m.src, || EventPort::new(depth)).push(m) {
                    PushOutcome::Accepted => self.rx_accepted_total += 1,
                    PushOutcome::Overflow => self.rx_overflow_total += 1,
                }
            }
        }
    }

    /// Reads the current state value from source port `src` (state
    /// networks).
    pub fn read_state(&self, src: PortId) -> Option<&Message> {
        get(&self.rx_state, src).and_then(|p| p.read())
    }

    /// Pops up to `n` queued event messages from source port `src`.
    pub fn receive_events(&mut self, src: PortId, n: usize) -> Vec<Message> {
        get_mut(&mut self.rx_queues, src).map(|q| q.pop_up_to(n)).unwrap_or_default()
    }

    /// Pops and discards up to `n` queued event messages from source port
    /// `src`, returning how many were consumed — the allocation-free form
    /// of [`receive_events`](VnetEndpoint::receive_events) for consumers
    /// that only need the count.
    pub fn consume_events(&mut self, src: PortId, n: usize) -> usize {
        get_mut(&mut self.rx_queues, src).map(|q| q.discard_up_to(n)).unwrap_or(0)
    }

    /// Receive-side overflow count, summed over all source ports — the
    /// message-loss indicator of a configuration (job borderline) fault.
    pub fn rx_overflows(&self) -> u64 {
        debug_assert_eq!(
            self.rx_overflow_total,
            self.rx_queues.iter().map(|(_, q)| q.overflows()).sum::<u64>()
        );
        self.rx_overflow_total
    }

    /// Total messages accepted into receive queues.
    pub fn rx_accepted(&self) -> u64 {
        debug_assert_eq!(
            self.rx_accepted_total,
            self.rx_queues.iter().map(|(_, q)| q.accepted()).sum::<u64>()
        );
        self.rx_accepted_total
    }

    /// Decode failures observed.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Clears all queues and counters (component restart with state
    /// synchronization — external faults are recovered this way, §III-C).
    pub fn restart(&mut self) {
        self.tx_state.clear();
        self.tx_queue = EventPort::new(self.cfg.tx_queue_depth.max(1));
        self.rx_state.clear();
        self.rx_queues.clear();
        self.decode_errors = 0;
        self.rx_overflow_total = 0;
        self.rx_accepted_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VnetId;
    use crate::port::MESSAGE_WIRE_BYTES;
    use decos_sim::time::SimTime;

    fn msg(src: u32, seq: u64, value: f64) -> Message {
        Message { src: PortId(src), seq, sent_at: SimTime::from_millis(seq), value }
    }

    fn state_ep(bytes: usize) -> VnetEndpoint {
        VnetEndpoint::new(VnetConfig::state(VnetId(1), bytes))
    }

    fn event_ep(bytes: usize, txd: usize, rxd: usize) -> VnetEndpoint {
        VnetEndpoint::new(VnetConfig::event(VnetId(2), bytes, txd, rxd))
    }

    #[test]
    fn state_network_end_to_end() {
        let mut tx = state_ep(2 + 2 * MESSAGE_WIRE_BYTES);
        let mut rx = state_ep(2 + 2 * MESSAGE_WIRE_BYTES);
        tx.send(msg(1, 1, 10.0));
        tx.send(msg(1, 2, 20.0)); // overwrites
        tx.send(msg(2, 1, -5.0));
        let mut seg = Vec::new();
        assert_eq!(tx.drain_into_segment(&mut seg), 2);
        assert_eq!(rx.deliver_segment(&seg).unwrap(), 2);
        assert_eq!(rx.read_state(PortId(1)).unwrap().value, 20.0);
        assert_eq!(rx.read_state(PortId(2)).unwrap().value, -5.0);
        assert!(rx.read_state(PortId(3)).is_none());
    }

    #[test]
    fn state_values_rebroadcast_every_slot() {
        let mut tx = state_ep(2 + MESSAGE_WIRE_BYTES);
        tx.send(msg(1, 1, 1.0));
        let mut a = Vec::new();
        let mut b = Vec::new();
        assert_eq!(tx.drain_into_segment(&mut a), 1);
        assert_eq!(tx.drain_into_segment(&mut b), 1, "state is not consumed by draining");
    }

    #[test]
    fn event_network_fifo_and_consumption() {
        let mut tx = event_ep(2 + 4 * MESSAGE_WIRE_BYTES, 8, 8);
        let mut rx = event_ep(2 + 4 * MESSAGE_WIRE_BYTES, 8, 8);
        for s in 0..3 {
            assert_eq!(tx.send(msg(9, s, s as f64)), PushOutcome::Accepted);
        }
        let mut seg = Vec::new();
        assert_eq!(tx.drain_into_segment(&mut seg), 3);
        assert_eq!(tx.tx_backlog(), 0);
        rx.deliver_segment(&seg).unwrap();
        let got = rx.receive_events(PortId(9), 10);
        assert_eq!(got.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        // Consumed: second read is empty.
        assert!(rx.receive_events(PortId(9), 10).is_empty());
    }

    #[test]
    fn bandwidth_limits_per_slot_drain() {
        // Segment fits 2 messages, 5 queued → backlog of 3 remains.
        let mut tx = event_ep(2 + 2 * MESSAGE_WIRE_BYTES, 8, 8);
        for s in 0..5 {
            tx.send(msg(1, s, 0.0));
        }
        let mut seg = Vec::new();
        assert_eq!(tx.drain_into_segment(&mut seg), 2);
        assert_eq!(tx.tx_backlog(), 3);
    }

    #[test]
    fn tx_overflow_counted() {
        let mut tx = event_ep(64, 2, 8);
        tx.send(msg(1, 0, 0.0));
        tx.send(msg(1, 1, 0.0));
        assert_eq!(tx.send(msg(1, 2, 0.0)), PushOutcome::Overflow);
        assert_eq!(tx.tx_overflows(), 1);
    }

    #[test]
    fn rx_overflow_counted_per_source() {
        let mut rx = event_ep(256, 8, 1);
        rx.deliver_message(msg(1, 0, 0.0));
        rx.deliver_message(msg(1, 1, 0.0)); // port 1 queue (depth 1) overflows
        rx.deliver_message(msg(2, 0, 0.0)); // port 2 has its own queue
        assert_eq!(rx.rx_overflows(), 1);
        assert_eq!(rx.rx_accepted(), 2);
    }

    #[test]
    fn corrupt_segment_counted() {
        let mut rx = event_ep(64, 8, 8);
        assert!(rx.deliver_segment(&[5]).is_err());
        assert_eq!(rx.decode_errors(), 1);
    }

    #[test]
    fn restart_clears_everything() {
        let mut ep = event_ep(64, 1, 1);
        ep.send(msg(1, 0, 0.0));
        ep.send(msg(1, 1, 0.0));
        ep.deliver_message(msg(2, 0, 0.0));
        ep.deliver_message(msg(2, 1, 0.0));
        ep.deliver_segment(&[9]).ok();
        assert!(ep.tx_overflows() > 0 && ep.rx_overflows() > 0 && ep.decode_errors() > 0);
        ep.restart();
        assert_eq!(ep.tx_overflows(), 0);
        assert_eq!(ep.rx_overflows(), 0);
        assert_eq!(ep.decode_errors(), 0);
        assert_eq!(ep.tx_backlog(), 0);
        assert!(ep.receive_events(PortId(2), 10).is_empty());
    }
}
