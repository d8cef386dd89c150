//! # decos-bench — experiment harness
//!
//! [`experiments`] regenerates every figure of the paper as data (E1–E14,
//! see DESIGN.md §5); the `repro` binary dispatches on experiment id.
//! [`flightdump`] handles flight-recorder JSONL dumps and
//! `repro trace-report`. Timing lives outside the library, in the
//! `perfbench/` crate.

pub mod cliflags;
pub mod experiments;
pub mod flightdump;
pub mod storecli;

/// Process exit codes of the `repro` binary, one per failure class, so CI
/// and scripts can dispatch on *why* a run failed without parsing stderr.
/// Documented in README.md §"Exit codes".
pub mod exitcode {
    /// Success.
    pub(crate) const OK: i32 = 0;
    /// Unclassified failure (I/O, panic-adjacent).
    pub const FAILURE: i32 = 1;
    /// Bad command line.
    pub const USAGE: i32 = 2;
    /// The analyzer rejected the experiment spec (including the DA090
    /// store/spec mismatch on resume).
    pub(crate) const SPEC_REJECTED: i32 = 3;
    /// The campaign store is structurally corrupt or its I/O failed.
    pub(crate) const STORE_CORRUPT: i32 = 4;
    /// A determinism contract was violated: a resume's replay diverged
    /// from the journal.
    pub(crate) const DETERMINISM: i32 = 5;
}

/// An NFF ratio for a summary line: three decimals, or `n/a` when no
/// removal was advised, because 0 of 0 is no result rather than a perfect
/// one. [`ActionScore::nff_ratio`] itself still maps 0/0 to 0.0.
///
/// [`ActionScore::nff_ratio`]: decos::diagnosis::metrics::ActionScore::nff_ratio
pub fn fmt_nff(score: &decos::diagnosis::metrics::ActionScore) -> String {
    if score.removals == 0 {
        "n/a".to_string()
    } else {
        format!("{:.3}", score.nff_ratio())
    }
}

pub use experiments::Effort;
pub use flightdump::{is_anomalous, read_flightrec, render_trace_report, write_flightrec};

#[cfg(test)]
mod tests {
    use super::fmt_nff;
    use decos::diagnosis::metrics::ActionScore;

    #[test]
    fn nff_without_removals_prints_not_applicable() {
        assert_eq!(fmt_nff(&ActionScore::default()), "n/a");
        let one_of_four = ActionScore { removals: 4, nff_removals: 1, ..ActionScore::default() };
        assert_eq!(fmt_nff(&one_of_four), "0.250");
        let none_wasted = ActionScore { removals: 3, ..ActionScore::default() };
        assert_eq!(fmt_nff(&none_wasted), "0.000");
    }
}
