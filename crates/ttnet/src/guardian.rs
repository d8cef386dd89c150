//! Bus guardian — temporal fault isolation (core service C3).
//!
//! A bus guardian is an independent device that only opens the transmit
//! path of a component during that component's own TDMA slots. It converts
//! the two classic temporal failure modes of a faulty node into harmless,
//! *observable* omissions:
//!
//! * **babbling idiot** — transmitting outside the own slot: always blocked
//!   (no fault in the model transmits outside its slot, so only the next
//!   mode is simulated);
//! * **slightly-off-specification timing** — transmitting inside the own
//!   slot but offset by more than the agreed window: blocked (local guardian
//!   with an independent clock) or let through to be judged by receivers.

use serde::{Deserialize, Serialize};

/// How strictly the guardian polices send instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardianMode {
    /// No guardian fitted (federated legacy bus): timing violations reach
    /// the receivers.
    None,
    /// Guardian with an independent time reference: cuts transmissions
    /// offset by more than `window_half_ns` from the nominal slot start,
    /// and everything outside the own slot.
    Enforcing {
        /// Half-width of the admissible send window around the nominal
        /// start instant, in nanoseconds.
        window_half_ns: u64,
    },
}

impl GuardianMode {
    /// Whether a transmission in the sender's own slot, `offset_ns` off the
    /// nominal slot start, passes the guardian onto the channel.
    pub(crate) fn admits(self, offset_ns: i64) -> bool {
        match self {
            GuardianMode::None => true,
            GuardianMode::Enforcing { window_half_ns } => {
                offset_ns.unsigned_abs() <= window_half_ns
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENF: GuardianMode = GuardianMode::Enforcing { window_half_ns: 1_000 };

    #[test]
    fn passes_nominal_transmissions() {
        assert!(ENF.admits(0));
        assert!(ENF.admits(999));
        assert!(ENF.admits(-1_000));
    }

    #[test]
    fn blocks_off_timing() {
        assert!(!ENF.admits(1_001));
        assert!(!ENF.admits(-5_000));
    }

    #[test]
    fn disabled_guardian_passes_everything() {
        assert!(GuardianMode::None.admits(1 << 40));
    }
}
