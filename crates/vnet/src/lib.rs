//! # decos-vnet — virtual network high-level service
//!
//! Encapsulated overlay networks on top of the time-triggered core network
//! (§II-B, §II-D of the paper; \[13\]):
//!
//! * [`port`] — state and event ports, the jobs' access points; bounded
//!   event queues whose overflow is the canonical configuration-fault
//!   manifestation;
//! * [`codec`] — fixed-layout encoding of virtual-network segments into
//!   TDMA frame payloads (the fixed layout *is* the encapsulation);
//! * [`config`] — configuration records and deliberate configuration
//!   defects (ground truth for job borderline faults);
//! * [`network`] — per-(component, network) endpoints with full loss
//!   accounting for the diagnostic subsystem.

pub mod codec;
pub mod config;
pub mod network;
pub mod port;

pub use codec::{decode_segment, encode_segment, segment_message_capacity, DecodeError};
pub use config::{ConfigDefect, VnetConfig, VnetId};
pub use network::VnetEndpoint;
pub use port::{EventPort, Message, PortId, PortKind, PushOutcome, MESSAGE_WIRE_BYTES};
