//! Strict numeric flag parsing for the `repro` CLI.
//!
//! The historical bug this module replaces: every numeric flag went
//! through `flag_value(name).and_then(|v| v.parse().ok())`, so a typo
//! like `--vehicles 24x` silently fell back to the default workload
//! instead of failing. Malformed values are now hard errors (the binary
//! maps them to exit 2), and `_` digit separators are accepted so the
//! million-vehicle headline reads as `--vehicles 1_000_000`.

use std::str::FromStr;

/// Parses a numeric flag value strictly. `_` separators are allowed
/// between digits (`1_000_000`); leading/trailing/doubled `_` and
/// anything the target type refuses (`24x`, `1.5` for an integer) are
/// errors. The returned message names the flag and echoes the value.
pub(crate) fn parse_numeric<T: FromStr>(name: &str, raw: &str) -> Result<T, String> {
    let separators_ok = !raw.starts_with('_') && !raw.ends_with('_') && !raw.contains("__");
    if separators_ok {
        let cleaned: String = raw.chars().filter(|c| *c != '_').collect();
        if let Ok(v) = cleaned.parse() {
            return Ok(v);
        }
    }
    Err(format!("{name} expects a number, got '{raw}'"))
}

/// Looks up `name` in `args` and strictly parses the following value.
/// Absent flag → `Ok(None)`. Present flag with a missing value (end of
/// args or another `--flag`) or a malformed one → `Err(message)`.
pub fn numeric_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(raw) if !raw.starts_with("--") => parse_numeric(name, raw).map(Some),
        _ => Err(format!("{name} expects a value")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underscored_million_parses_as_one_million() {
        assert_eq!(parse_numeric::<u64>("--vehicles", "1_000_000"), Ok(1_000_000));
    }

    #[test]
    fn plain_integers_and_floats_parse() {
        assert_eq!(parse_numeric::<u64>("--rounds", "40"), Ok(40));
        assert_eq!(parse_numeric::<f64>("--effort", "0.15"), Ok(0.15));
        assert_eq!(parse_numeric::<f64>("--accel", "1_0.5"), Ok(10.5));
    }

    #[test]
    fn malformed_values_are_errors_not_fallbacks() {
        for raw in ["24x", "", "_5", "5_", "1__0", "-", "0x10"] {
            let r = parse_numeric::<u64>("--vehicles", raw);
            assert!(r.is_err(), "'{raw}' must be rejected, got {r:?}");
            assert!(r.unwrap_err().contains("--vehicles"), "error names the flag");
        }
        assert!(parse_numeric::<u64>("--seed", "1.5").is_err(), "float for integer flag");
    }

    #[test]
    fn missing_and_flag_shaped_values_are_errors() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(numeric_flag::<u64>(&args(&["--vehicles", "7"]), "--vehicles"), Ok(Some(7)));
        assert_eq!(numeric_flag::<u64>(&args(&["--rounds", "7"]), "--vehicles"), Ok(None));
        assert!(numeric_flag::<u64>(&args(&["--vehicles"]), "--vehicles").is_err());
        assert!(numeric_flag::<u64>(&args(&["--vehicles", "--rounds"]), "--vehicles").is_err());
    }
}
