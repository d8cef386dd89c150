//! Property tests for the virtual-network substrate.

use decos_sim::SimTime;
use decos_vnet::{
    encode_segment, segment_message_capacity, ConfigDefect, EventPort, Message, PortId, PortKind,
    PushOutcome, VnetConfig, VnetEndpoint, VnetId, MESSAGE_WIRE_BYTES,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

fn msg(src: u32, seq: u64) -> Message {
    Message { src: PortId(src), seq, sent_at: SimTime::from_micros(seq), value: seq as f64 }
}

/// The endpoint's contract restated over `BTreeMap`s keyed by source
/// port, the structure its sorted port tables replaced.
struct Model {
    cfg: VnetConfig,
    tx_state: BTreeMap<PortId, Message>,
    tx_queue: VecDeque<Message>,
    tx_overflows: u64,
    rx_state: BTreeMap<PortId, Message>,
    rx_queues: BTreeMap<PortId, VecDeque<Message>>,
    rx_overflows: u64,
    rx_accepted: u64,
}

impl Model {
    fn new(cfg: VnetConfig) -> Self {
        Model {
            cfg,
            tx_state: BTreeMap::new(),
            tx_queue: VecDeque::new(),
            tx_overflows: 0,
            rx_state: BTreeMap::new(),
            rx_queues: BTreeMap::new(),
            rx_overflows: 0,
            rx_accepted: 0,
        }
    }

    fn send(&mut self, m: Message) -> PushOutcome {
        if self.cfg.kind == PortKind::State {
            self.tx_state.insert(m.src, m);
        } else if self.tx_queue.len() < self.cfg.tx_queue_depth.max(1) {
            self.tx_queue.push_back(m);
        } else {
            self.tx_overflows += 1;
            return PushOutcome::Overflow;
        }
        PushOutcome::Accepted
    }

    fn drain(&mut self) -> Vec<Message> {
        let fit = segment_message_capacity(self.cfg.bytes_per_slot);
        match self.cfg.kind {
            PortKind::State => self.tx_state.values().copied().take(fit).collect(),
            PortKind::Event => {
                let k = fit.min(self.tx_queue.len());
                self.tx_queue.drain(..k).collect()
            }
        }
    }

    fn deliver(&mut self, m: Message) {
        if self.cfg.kind == PortKind::State {
            self.rx_state.insert(m.src, m);
            return;
        }
        let q = self.rx_queues.entry(m.src).or_default();
        if q.len() < self.cfg.rx_queue_depth.max(1) {
            q.push_back(m);
            self.rx_accepted += 1;
        } else {
            self.rx_overflows += 1;
        }
    }

    fn receive(&mut self, src: PortId, n: usize) -> Vec<Message> {
        self.rx_queues
            .get_mut(&src)
            .map(|q| {
                let k = n.min(q.len());
                q.drain(..k).collect()
            })
            .unwrap_or_default()
    }
}

fn endpoint_cfg(event: bool, bytes: usize, tx_depth: usize, rx_depth: usize) -> VnetConfig {
    if event {
        VnetConfig::event(VnetId(3), bytes, tx_depth, rx_depth)
    } else {
        VnetConfig::state(VnetId(3), bytes)
    }
}

proptest! {
    // ------------------- endpoint port tables -------------------------------

    /// Random send / deliver / drain / consume / receive / restart
    /// sequences over up to six ports, first touched in random order: the
    /// endpoint must drain, read and count exactly like the model.
    #[test]
    fn endpoint_matches_btreemap_model(
        event in any::<bool>(),
        bytes in 0usize..200,
        tx_depth in 1usize..6,
        rx_depth in 1usize..6,
        ports in proptest::collection::vec(any::<u32>(), 6..7),
        ops in proptest::collection::vec((0u8..13, 0usize..6, 0usize..5), 0..120),
    ) {
        let cfg = endpoint_cfg(event, bytes, tx_depth, rx_depth);
        let mut ep = VnetEndpoint::new(cfg);
        let mut model = Model::new(cfg);
        for (step, &(op, p, n)) in ops.iter().enumerate() {
            let src = PortId(ports[p]);
            let m = Message { src, seq: step as u64, sent_at: SimTime::from_micros(step as u64), value: step as f64 };
            match op {
                0..=2 => prop_assert_eq!(ep.send(m), model.send(m)),
                3..=5 => {
                    ep.deliver_message(m);
                    model.deliver(m);
                }
                6 | 7 => prop_assert_eq!(ep.drain_for_slot(), model.drain()),
                8 | 9 => {
                    let want = model.receive(src, n).len();
                    prop_assert_eq!(ep.consume_events(src, n), want);
                }
                10 | 11 => prop_assert_eq!(ep.receive_events(src, n), model.receive(src, n)),
                _ => {
                    ep.restart();
                    model = Model::new(cfg);
                }
            }
            for &q in &ports {
                prop_assert_eq!(ep.read_state(PortId(q)), model.rx_state.get(&PortId(q)));
            }
            prop_assert_eq!(ep.tx_backlog(), model.tx_queue.len());
            prop_assert_eq!(ep.tx_overflows(), model.tx_overflows);
            prop_assert_eq!(ep.rx_overflows(), model.rx_overflows);
            prop_assert_eq!(ep.rx_accepted(), model.rx_accepted);
        }
    }

    /// Delivering drained messages directly is what decoding their encoded
    /// segment delivers, including the decode error of a segment too short
    /// for its count header.
    #[test]
    fn endpoint_matches_segment_decode(
        event in any::<bool>(),
        bytes in 0usize..200,
        rx_depth in 1usize..6,
        srcs in proptest::collection::vec(0u32..4, 0..8),
    ) {
        let cfg = endpoint_cfg(event, bytes, 8, rx_depth);
        let msgs: Vec<Message> = srcs
            .iter()
            .take(segment_message_capacity(bytes))
            .enumerate()
            .map(|(i, &p)| msg(p, i as u64))
            .collect();
        let mut seg = Vec::new();
        encode_segment(&msgs, bytes, &mut seg);
        let mut decoded = VnetEndpoint::new(cfg);
        let mut direct = VnetEndpoint::new(cfg);
        prop_assert_eq!(decoded.deliver_segment(&seg), direct.deliver_messages(&msgs, bytes));
        prop_assert_eq!(decoded.decode_errors(), direct.decode_errors());
        prop_assert_eq!(decoded.rx_overflows(), direct.rx_overflows());
        prop_assert_eq!(decoded.rx_accepted(), direct.rx_accepted());
        for p in 0..4 {
            prop_assert_eq!(decoded.read_state(PortId(p)), direct.read_state(PortId(p)));
            prop_assert_eq!(
                decoded.receive_events(PortId(p), usize::MAX),
                direct.receive_events(PortId(p), usize::MAX)
            );
        }
    }

    // ------------------- event port queue laws ------------------------------

    #[test]
    fn event_port_conserves_messages(
        depth in 1usize..32,
        ops in proptest::collection::vec(any::<bool>(), 0..200), // true=push, false=pop
    ) {
        let mut q = EventPort::new(depth);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for (i, &push) in ops.iter().enumerate() {
            if push {
                if q.push(msg(1, i as u64)) == PushOutcome::Accepted {
                    pushed += 1;
                }
            } else if q.pop().is_some() {
                popped += 1;
            }
        }
        prop_assert_eq!(pushed, q.accepted());
        prop_assert_eq!(q.len() as u64, pushed - popped);
        prop_assert!(q.len() <= depth);
        prop_assert_eq!(q.accepted() + q.overflows(), ops.iter().filter(|&&p| p).count() as u64);
    }

    #[test]
    fn event_port_is_fifo(
        depth in 1usize..64,
        n in 0u64..100,
    ) {
        let mut q = EventPort::new(depth);
        for s in 0..n {
            q.push(msg(1, s));
        }
        let mut last = None;
        while let Some(m) = q.pop() {
            if let Some(prev) = last {
                prop_assert!(m.seq > prev);
            }
            last = Some(m.seq);
        }
    }

    // ------------------- endpoint end-to-end --------------------------------

    #[test]
    fn event_endpoint_never_reorders_or_duplicates(
        bytes in 0usize..512,
        tx_depth in 1usize..64,
        rx_depth in 1usize..64,
        sends in 0u64..100,
        slots in 1usize..50,
    ) {
        let cfg = VnetConfig::event(VnetId(1), bytes, tx_depth, rx_depth);
        let mut tx = VnetEndpoint::new(cfg);
        let mut rx = VnetEndpoint::new(cfg);
        for s in 0..sends {
            tx.send(msg(7, s));
        }
        for _ in 0..slots {
            let mut seg = Vec::new();
            tx.drain_into_segment(&mut seg);
            let _ = rx.deliver_segment(&seg);
        }
        let got = rx.receive_events(PortId(7), usize::MAX);
        // Strictly increasing seq (order preserved, no duplicates).
        prop_assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
        // Conservation: delivered + tx drops + rx drops + still queued = sent.
        let delivered = got.len() as u64;
        let in_tx = tx.tx_backlog() as u64;
        prop_assert_eq!(
            delivered + tx.tx_overflows() + rx.rx_overflows() + in_tx,
            sends,
            "loss accounting must balance"
        );
    }

    #[test]
    fn state_endpoint_always_reflects_latest(
        updates in proptest::collection::vec(0u64..1_000, 1..50),
    ) {
        let cfg = VnetConfig::state(VnetId(2), 2 + MESSAGE_WIRE_BYTES);
        let mut tx = VnetEndpoint::new(cfg);
        let mut rx = VnetEndpoint::new(cfg);
        for (i, &v) in updates.iter().enumerate() {
            tx.send(Message {
                src: PortId(1),
                seq: i as u64,
                sent_at: SimTime::from_micros(i as u64),
                value: v as f64,
            });
            let mut seg = Vec::new();
            tx.drain_into_segment(&mut seg);
            rx.deliver_segment(&seg).unwrap();
            prop_assert_eq!(rx.read_state(PortId(1)).unwrap().value, v as f64);
        }
        // State semantics never overflow.
        prop_assert_eq!(tx.tx_overflows(), 0);
        prop_assert_eq!(rx.rx_overflows(), 0);
    }

    // ------------------- configuration defects ------------------------------

    #[test]
    fn defects_only_shrink(
        tx_depth in 1usize..64,
        rx_depth in 1usize..64,
        bytes in 2usize..512,
        factor in 1u32..64,
        which in 0u8..3,
    ) {
        let good = VnetConfig::event(VnetId(1), bytes, tx_depth, rx_depth);
        let defect = match which {
            0 => ConfigDefect::UnderDimensionedRxQueue { factor },
            1 => ConfigDefect::UnderDimensionedTxQueue { factor },
            _ => ConfigDefect::InsufficientBandwidth { factor },
        };
        let bad = defect.apply(&good);
        prop_assert!(bad.rx_queue_depth <= good.rx_queue_depth);
        prop_assert!(bad.tx_queue_depth <= good.tx_queue_depth);
        prop_assert!(bad.bytes_per_slot <= good.bytes_per_slot);
        prop_assert!(bad.rx_queue_depth >= 1);
        prop_assert!(bad.tx_queue_depth >= 1);
        prop_assert!(bad.bytes_per_slot >= 2);
        prop_assert_eq!(bad.id, good.id);
        prop_assert_eq!(bad.kind, good.kind);
    }
}
