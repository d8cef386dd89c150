//! Jobs — the basic units of work and the FRUs for software faults.
//!
//! A job's externally visible behaviour is fully described by its port
//! activity (the Linking Interface); the behaviours implemented here cover
//! the workload classes the paper's scenarios need:
//!
//! * state-based sensing/control (automotive body/chassis DASs),
//! * event-based senders/consumers (multimedia / legacy DASs — these are
//!   the ones vulnerable to configuration faults),
//! * TMR replicas and voters (safety-critical DAS, Fig. 10).

use crate::ids::{Criticality, DasId, JobId, NodeId};
use crate::tmr::{vote, DivergenceRecord, VoteError};
use crate::transducer::{Actuator, Sensor, SensorFault, SignalModel};
use decos_sim::rng::Poisson;
use decos_sim::time::{SimDuration, SimTime};
use decos_vnet::{Message, PortId, VnetEndpoint, VnetId};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Declarative description of a job's behaviour at its ports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobBehavior {
    /// Reads its (exclusive) sensor every round and publishes the reading
    /// on a state port.
    SensorPublisher {
        /// Network carrying the state variable.
        vnet: VnetId,
        /// Output port.
        port: PortId,
        /// The observed physical quantity.
        signal: SignalModel,
        /// Nominal measurement noise (std dev).
        noise_std: f64,
    },
    /// Closed-loop controller: consumes a state variable, commands its
    /// actuator and publishes the command.
    Controller {
        /// Network the input state arrives on.
        vnet_in: VnetId,
        /// Source port of the input state variable.
        input_src: PortId,
        /// Network for the published command.
        vnet_out: VnetId,
        /// Output port.
        port: PortId,
        /// Control setpoint.
        setpoint: f64,
        /// Proportional gain.
        gain: f64,
        /// Declared output range (part of the LIF specification).
        out_bounds: (f64, f64),
    },
    /// Event-triggered sender: emits `Poisson(rate · round)` messages per
    /// round with the given payload value.
    EventSender {
        /// Event network.
        vnet: VnetId,
        /// Output port.
        port: PortId,
        /// Mean emission rate in events per second.
        rate_hz: f64,
        /// Payload value of each event.
        value: f64,
    },
    /// Event consumer servicing up to `service_per_round` messages from
    /// each listed source port per round.
    EventConsumer {
        /// Event network.
        vnet: VnetId,
        /// Source ports serviced.
        sources: Vec<PortId>,
        /// Service capacity per source per round.
        service_per_round: usize,
    },
    /// TMR replica: like a sensor publisher; three replicas of the same
    /// signal hosted on three different components.
    TmrReplica {
        /// Network carrying the replica values.
        vnet: VnetId,
        /// Output port.
        port: PortId,
        /// The replicated measurement.
        signal: SignalModel,
        /// Nominal measurement noise (std dev).
        noise_std: f64,
    },
    /// Hidden gateway (§II-B): republishes a state variable of one DAS's
    /// network into another DAS's network, eliminating resource duplication
    /// (the consuming DAS needs no own sensor). "Hidden" because neither
    /// DAS's jobs see anything but their own network.
    Gateway {
        /// Source network.
        vnet_in: VnetId,
        /// Source port (in the source DAS).
        input_src: PortId,
        /// Destination network.
        vnet_out: VnetId,
        /// Republication port (in the destination DAS).
        port: PortId,
    },
    /// TMR voter: reads the three replica ports, votes, publishes the
    /// masked value and records divergences.
    TmrVoter {
        /// Network carrying the replica values.
        vnet_in: VnetId,
        /// The three replica output ports, in replica order.
        inputs: [PortId; 3],
        /// Network for the voted output.
        vnet_out: VnetId,
        /// Output port.
        port: PortId,
        /// Agreement threshold.
        epsilon: f64,
        /// Staleness bound: replica values older than this count as missing.
        max_age: SimDuration,
    },
}

impl JobBehavior {
    /// The output port of this behaviour, if it has one.
    pub fn output_port(&self) -> Option<PortId> {
        match self {
            JobBehavior::SensorPublisher { port, .. }
            | JobBehavior::Controller { port, .. }
            | JobBehavior::EventSender { port, .. }
            | JobBehavior::TmrReplica { port, .. }
            | JobBehavior::Gateway { port, .. }
            | JobBehavior::TmrVoter { port, .. } => Some(*port),
            JobBehavior::EventConsumer { .. } => None,
        }
    }

    /// Virtual networks this behaviour uses (for endpoint creation).
    pub fn vnets(&self) -> Vec<VnetId> {
        match self {
            JobBehavior::SensorPublisher { vnet, .. }
            | JobBehavior::EventSender { vnet, .. }
            | JobBehavior::EventConsumer { vnet, .. }
            | JobBehavior::TmrReplica { vnet, .. } => vec![*vnet],
            JobBehavior::Controller { vnet_in, vnet_out, .. }
            | JobBehavior::Gateway { vnet_in, vnet_out, .. }
            | JobBehavior::TmrVoter { vnet_in, vnet_out, .. } => {
                let mut v = vec![*vnet_in, *vnet_out];
                v.dedup();
                v
            }
        }
    }

    /// The networks this behaviour consumes inputs from.
    pub fn input_vnets(&self) -> Vec<VnetId> {
        match self {
            JobBehavior::Controller { vnet_in, .. }
            | JobBehavior::Gateway { vnet_in, .. }
            | JobBehavior::TmrVoter { vnet_in, .. } => {
                vec![*vnet_in]
            }
            JobBehavior::EventConsumer { vnet, .. } => vec![*vnet],
            JobBehavior::SensorPublisher { .. }
            | JobBehavior::EventSender { .. }
            | JobBehavior::TmrReplica { .. } => Vec::new(),
        }
    }

    /// The network the output port publishes on, if any.
    pub fn output_vnet(&self) -> Option<VnetId> {
        match self {
            JobBehavior::SensorPublisher { vnet, .. }
            | JobBehavior::EventSender { vnet, .. }
            | JobBehavior::TmrReplica { vnet, .. } => Some(*vnet),
            JobBehavior::Controller { vnet_out, .. }
            | JobBehavior::Gateway { vnet_out, .. }
            | JobBehavior::TmrVoter { vnet_out, .. } => Some(*vnet_out),
            JobBehavior::EventConsumer { .. } => None,
        }
    }
}

/// Static description of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Identity (the software FRU handle).
    pub id: JobId,
    /// Human-readable name (e.g. "S2" in Fig. 10).
    pub name: String,
    /// The DAS this job belongs to.
    pub das: DasId,
    /// Criticality, inherited from the DAS.
    pub criticality: Criticality,
    /// Hosting component.
    pub host: NodeId,
    /// Port behaviour.
    pub behavior: JobBehavior,
}

/// Per-dispatch context handed to the job runtime.
pub struct DispatchCtx<'a> {
    /// Current instant (start of the hosting component's slot).
    pub now: SimTime,
    /// Length of one TDMA round (the dispatch period).
    pub round: SimDuration,
    /// The hosting component's virtual-network endpoints.
    pub endpoints: &'a mut BTreeMap<VnetId, VnetEndpoint>,
    /// RNG stream of this job.
    pub rng: &'a mut SmallRng,
}

/// Counters a job accumulates over its life (interface-state view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobCounters {
    /// Messages produced (pre-filter).
    pub produced: u64,
    /// Dispatches executed.
    pub dispatches: u64,
    /// Events consumed (consumer behaviours).
    pub consumed: u64,
    /// Input reads that found no (fresh) value.
    pub input_misses: u64,
}

/// Runtime state of one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRuntime {
    spec: JobSpec,
    seq: u64,
    sensor: Option<Sensor>,
    actuator: Actuator,
    divergence: DivergenceRecord,
    counters: JobCounters,
    /// A halted job produces nothing (crashed partition).
    halted: bool,
    /// An event sender's per-round arrival distribution, built at the
    /// first dispatch, with the round length it was built for.
    arrivals: Option<(SimDuration, Poisson)>,
}

impl JobRuntime {
    /// Instantiates the runtime for a job spec.
    pub fn new(spec: JobSpec) -> Self {
        let sensor = match &spec.behavior {
            JobBehavior::SensorPublisher { signal, noise_std, .. }
            | JobBehavior::TmrReplica { signal, noise_std, .. } => {
                Some(Sensor::new(*signal, *noise_std))
            }
            _ => None,
        };
        JobRuntime {
            spec,
            seq: 0,
            sensor,
            actuator: Actuator::new(),
            divergence: DivergenceRecord::new(),
            counters: JobCounters::default(),
            halted: false,
            arrivals: None,
        }
    }

    /// The job's static description.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The job's sensor, if its behaviour has one.
    pub fn sensor(&self) -> Option<&Sensor> {
        self.sensor.as_ref()
    }

    /// Injects a sensor fault; no-op for sensorless behaviours.
    pub fn set_sensor_fault(&mut self, fault: SensorFault) {
        if let Some(s) = &mut self.sensor {
            s.set_fault(fault);
        }
    }

    /// The actuator record.
    pub fn actuator(&self) -> &Actuator {
        &self.actuator
    }

    /// Divergence record (voter behaviours).
    pub fn divergence(&self) -> &DivergenceRecord {
        &self.divergence
    }

    /// Lifetime counters.
    pub fn counters(&self) -> &JobCounters {
        &self.counters
    }

    /// Halts the job (software crash manifestation).
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Restarts a halted job (software update / partition restart).
    pub fn restart(&mut self) {
        self.halted = false;
    }

    /// Whether the job is halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Executes one dispatch: consumes inputs, produces output messages.
    ///
    /// The produced messages are returned (not yet submitted to the
    /// endpoint) so the caller can apply the environment's output filter —
    /// the hook through which software design faults manifest — before
    /// submission.
    pub fn dispatch(&mut self, ctx: &mut DispatchCtx<'_>) -> Vec<Message> {
        let mut out = Vec::new();
        self.dispatch_into(ctx, &mut out);
        out
    }

    /// [`dispatch`](JobRuntime::dispatch) appending into a caller-owned
    /// buffer — the zero-allocation form used by the slot pipeline. Returns
    /// the number of messages appended.
    pub fn dispatch_into(&mut self, ctx: &mut DispatchCtx<'_>, out: &mut Vec<Message>) -> usize {
        if self.halted {
            return 0;
        }
        let start = out.len();
        // Split borrows: match the behaviour in place while mutating the
        // runtime state fields (no clone of the behaviour handle).
        let JobRuntime { spec, seq, sensor, actuator, divergence, counters, halted: _, arrivals } =
            self;
        counters.dispatches += 1;
        let mut next_seq = || {
            *seq += 1;
            *seq
        };
        match &spec.behavior {
            JobBehavior::SensorPublisher { port, .. } | JobBehavior::TmrReplica { port, .. } => {
                let reading = sensor
                    .as_ref()
                    .expect("sensor-backed behaviour has a sensor")
                    .read(ctx.now, ctx.rng);
                if let Some(v) = reading {
                    out.push(Message { src: *port, seq: next_seq(), sent_at: ctx.now, value: v });
                }
            }
            JobBehavior::Controller {
                vnet_in,
                input_src,
                port,
                setpoint,
                gain,
                out_bounds,
                ..
            } => {
                let input =
                    ctx.endpoints.get(vnet_in).and_then(|ep| ep.read_state(*input_src)).copied();
                match input {
                    Some(m) => {
                        let cmd = (gain * (setpoint - m.value)).clamp(out_bounds.0, out_bounds.1);
                        actuator.command(ctx.now, cmd);
                        out.push(Message {
                            src: *port,
                            seq: next_seq(),
                            sent_at: ctx.now,
                            value: cmd,
                        });
                    }
                    None => counters.input_misses += 1,
                }
            }
            JobBehavior::EventSender { port, rate_hz, value, .. } => {
                let poisson = match *arrivals {
                    Some((round, p)) if round == ctx.round => p,
                    _ => {
                        let p = Poisson::new(rate_hz * ctx.round.as_secs_f64());
                        *arrivals = Some((ctx.round, p));
                        p
                    }
                };
                let k = poisson.sample(ctx.rng);
                for _ in 0..k {
                    out.push(Message {
                        src: *port,
                        seq: next_seq(),
                        sent_at: ctx.now,
                        value: *value,
                    });
                }
            }
            JobBehavior::EventConsumer { vnet, sources, service_per_round } => {
                if let Some(ep) = ctx.endpoints.get_mut(vnet) {
                    for src in sources {
                        counters.consumed += ep.consume_events(*src, *service_per_round) as u64;
                    }
                }
            }
            JobBehavior::Gateway { vnet_in, input_src, port, .. } => {
                let input =
                    ctx.endpoints.get(vnet_in).and_then(|ep| ep.read_state(*input_src)).copied();
                match input {
                    Some(m) => out.push(Message {
                        src: *port,
                        seq: next_seq(),
                        sent_at: ctx.now,
                        value: m.value,
                    }),
                    None => counters.input_misses += 1,
                }
            }
            JobBehavior::TmrVoter { vnet_in, inputs, port, epsilon, max_age, .. } => {
                let mut vals = [None; 3];
                if let Some(ep) = ctx.endpoints.get(vnet_in) {
                    for (i, src) in inputs.iter().enumerate() {
                        if let Some(m) = ep.read_state(*src) {
                            if ctx.now.saturating_since(m.sent_at) <= *max_age {
                                vals[i] = Some(m.value);
                            }
                        }
                    }
                }
                let outcome = vote(vals, *epsilon);
                divergence.observe(&outcome);
                match outcome {
                    Ok(r) => {
                        actuator.command(ctx.now, r.output);
                        out.push(Message {
                            src: *port,
                            seq: next_seq(),
                            sent_at: ctx.now,
                            value: r.output,
                        });
                    }
                    Err(VoteError::InsufficientReplicas { .. }) | Err(VoteError::NoMajority) => {
                        counters.input_misses += 1;
                    }
                }
            }
        }
        let produced = out.len() - start;
        counters.produced += produced as u64;
        produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_sim::SeedSource;
    use decos_vnet::VnetConfig;

    fn ctx_parts() -> (BTreeMap<VnetId, VnetEndpoint>, SmallRng) {
        let mut eps = BTreeMap::new();
        eps.insert(VnetId(1), VnetEndpoint::new(VnetConfig::state(VnetId(1), 256)));
        eps.insert(VnetId(2), VnetEndpoint::new(VnetConfig::event(VnetId(2), 256, 16, 16)));
        (eps, SeedSource::new(77).stream("job", 0))
    }

    fn spec(behavior: JobBehavior) -> JobSpec {
        JobSpec {
            id: JobId(1),
            name: "T".into(),
            das: DasId(0),
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(0),
            behavior,
        }
    }

    #[test]
    fn sensor_publisher_emits_reading() {
        let (mut eps, mut rng) = ctx_parts();
        let mut j = JobRuntime::new(spec(JobBehavior::SensorPublisher {
            vnet: VnetId(1),
            port: PortId(10),
            signal: SignalModel::Constant(4.0),
            noise_std: 0.0,
        }));
        let out = j.dispatch(&mut DispatchCtx {
            now: SimTime::from_millis(5),
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 4.0);
        assert_eq!(out[0].src, PortId(10));
        assert_eq!(out[0].seq, 1);
        assert_eq!(j.counters().produced, 1);
    }

    #[test]
    fn dead_sensor_publishes_nothing() {
        let (mut eps, mut rng) = ctx_parts();
        let mut j = JobRuntime::new(spec(JobBehavior::SensorPublisher {
            vnet: VnetId(1),
            port: PortId(10),
            signal: SignalModel::Constant(4.0),
            noise_std: 0.0,
        }));
        j.set_sensor_fault(SensorFault::Dead);
        let out = j.dispatch(&mut DispatchCtx {
            now: SimTime::ZERO,
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        });
        assert!(out.is_empty());
    }

    #[test]
    fn controller_computes_command() {
        let (mut eps, mut rng) = ctx_parts();
        // Install an input state value: sensed 2.0.
        eps.get_mut(&VnetId(1)).unwrap().deliver_message(Message {
            src: PortId(10),
            seq: 1,
            sent_at: SimTime::ZERO,
            value: 2.0,
        });
        let mut j = JobRuntime::new(spec(JobBehavior::Controller {
            vnet_in: VnetId(1),
            input_src: PortId(10),
            vnet_out: VnetId(1),
            port: PortId(11),
            setpoint: 5.0,
            gain: 2.0,
            out_bounds: (-100.0, 100.0),
        }));
        let out = j.dispatch(&mut DispatchCtx {
            now: SimTime::from_millis(1),
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 6.0); // 2 * (5 - 2)
        assert_eq!(j.actuator().last().unwrap().1, 6.0);
    }

    #[test]
    fn controller_clamps_to_bounds() {
        let (mut eps, mut rng) = ctx_parts();
        eps.get_mut(&VnetId(1)).unwrap().deliver_message(Message {
            src: PortId(10),
            seq: 1,
            sent_at: SimTime::ZERO,
            value: -1000.0,
        });
        let mut j = JobRuntime::new(spec(JobBehavior::Controller {
            vnet_in: VnetId(1),
            input_src: PortId(10),
            vnet_out: VnetId(1),
            port: PortId(11),
            setpoint: 0.0,
            gain: 1.0,
            out_bounds: (-10.0, 10.0),
        }));
        let out = j.dispatch(&mut DispatchCtx {
            now: SimTime::ZERO,
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        });
        assert_eq!(out[0].value, 10.0);
    }

    #[test]
    fn controller_counts_missing_input() {
        let (mut eps, mut rng) = ctx_parts();
        let mut j = JobRuntime::new(spec(JobBehavior::Controller {
            vnet_in: VnetId(1),
            input_src: PortId(99),
            vnet_out: VnetId(1),
            port: PortId(11),
            setpoint: 0.0,
            gain: 1.0,
            out_bounds: (-1.0, 1.0),
        }));
        let out = j.dispatch(&mut DispatchCtx {
            now: SimTime::ZERO,
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        });
        assert!(out.is_empty());
        assert_eq!(j.counters().input_misses, 1);
    }

    #[test]
    fn event_sender_rate_matches_poisson_mean() {
        let (mut eps, mut rng) = ctx_parts();
        let mut j = JobRuntime::new(spec(JobBehavior::EventSender {
            vnet: VnetId(2),
            port: PortId(20),
            rate_hz: 500.0,
            value: 1.0,
        }));
        let rounds = 2_000u64;
        let mut total = 0usize;
        for r in 0..rounds {
            let out = j.dispatch(&mut DispatchCtx {
                now: SimTime::from_millis(4 * r),
                round: SimDuration::from_millis(4),
                endpoints: &mut eps,
                rng: &mut rng,
            });
            total += out.len();
        }
        // Expect 500 Hz * 4 ms = 2 per round on average.
        let mean = total as f64 / rounds as f64;
        assert!((mean - 2.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn event_consumer_services_bounded() {
        let (mut eps, mut rng) = ctx_parts();
        let ep = eps.get_mut(&VnetId(2)).unwrap();
        for s in 0..10 {
            ep.deliver_message(Message {
                src: PortId(20),
                seq: s,
                sent_at: SimTime::ZERO,
                value: 0.0,
            });
        }
        let mut j = JobRuntime::new(spec(JobBehavior::EventConsumer {
            vnet: VnetId(2),
            sources: vec![PortId(20)],
            service_per_round: 4,
        }));
        let mut c = DispatchCtx {
            now: SimTime::ZERO,
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        };
        j.dispatch(&mut c);
        assert_eq!(j.counters().consumed, 4);
        j.dispatch(&mut c);
        assert_eq!(j.counters().consumed, 8);
    }

    #[test]
    fn voter_masks_outlier_and_records() {
        let (mut eps, mut rng) = ctx_parts();
        let ep = eps.get_mut(&VnetId(1)).unwrap();
        for (i, v) in [(30u32, 1.0), (31, 99.0), (32, 1.02)] {
            ep.deliver_message(Message {
                src: PortId(i),
                seq: 1,
                sent_at: SimTime::from_millis(1),
                value: v,
            });
        }
        let mut j = JobRuntime::new(spec(JobBehavior::TmrVoter {
            vnet_in: VnetId(1),
            inputs: [PortId(30), PortId(31), PortId(32)],
            vnet_out: VnetId(1),
            port: PortId(33),
            epsilon: 0.1,
            max_age: SimDuration::from_millis(100),
        }));
        let out = j.dispatch(&mut DispatchCtx {
            now: SimTime::from_millis(2),
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        });
        assert_eq!(out.len(), 1);
        assert!((out[0].value - 1.01).abs() < 1e-9);
        assert_eq!(j.divergence().count(1), 1);
    }

    #[test]
    fn voter_treats_stale_replica_as_missing() {
        let (mut eps, mut rng) = ctx_parts();
        let ep = eps.get_mut(&VnetId(1)).unwrap();
        // Replica 0 stale, replicas 1 and 2 fresh and agreeing.
        ep.deliver_message(Message { src: PortId(30), seq: 1, sent_at: SimTime::ZERO, value: 5.0 });
        for i in [31u32, 32] {
            ep.deliver_message(Message {
                src: PortId(i),
                seq: 1,
                sent_at: SimTime::from_secs(10),
                value: 2.0,
            });
        }
        let mut j = JobRuntime::new(spec(JobBehavior::TmrVoter {
            vnet_in: VnetId(1),
            inputs: [PortId(30), PortId(31), PortId(32)],
            vnet_out: VnetId(1),
            port: PortId(33),
            epsilon: 0.1,
            max_age: SimDuration::from_millis(100),
        }));
        let out = j.dispatch(&mut DispatchCtx {
            now: SimTime::from_secs(10),
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        });
        assert_eq!(out[0].value, 2.0);
        assert_eq!(j.divergence().count(0), 0, "staleness is comm-level, not divergence");
    }

    #[test]
    fn halted_job_is_silent() {
        let (mut eps, mut rng) = ctx_parts();
        let mut j = JobRuntime::new(spec(JobBehavior::SensorPublisher {
            vnet: VnetId(1),
            port: PortId(10),
            signal: SignalModel::Constant(4.0),
            noise_std: 0.0,
        }));
        j.halt();
        assert!(j.is_halted());
        let out = j.dispatch(&mut DispatchCtx {
            now: SimTime::ZERO,
            round: SimDuration::from_millis(4),
            endpoints: &mut eps,
            rng: &mut rng,
        });
        assert!(out.is_empty());
        assert_eq!(j.counters().dispatches, 0);
        j.restart();
        assert!(!j.is_halted());
    }

    #[test]
    fn behavior_introspection() {
        let b = JobBehavior::Controller {
            vnet_in: VnetId(1),
            input_src: PortId(1),
            vnet_out: VnetId(3),
            port: PortId(2),
            setpoint: 0.0,
            gain: 1.0,
            out_bounds: (0.0, 1.0),
        };
        assert_eq!(b.output_port(), Some(PortId(2)));
        assert_eq!(b.output_vnet(), Some(VnetId(3)));
        assert_eq!(b.vnets(), vec![VnetId(1), VnetId(3)]);
        let c =
            JobBehavior::EventConsumer { vnet: VnetId(2), sources: vec![], service_per_round: 1 };
        assert_eq!(c.output_port(), None);
        assert_eq!(c.output_vnet(), None);
    }
}
