//! Flight-recorder JSONL sink (`decos-flightrec/1`), anomaly dump policy,
//! and the human-readable `repro trace-report` renderer.
//!
//! A dump is one JSON object per line, every line self-describing via its
//! `schema` field. [`read_flightrec`] parses a dump back into
//! [`TraceEvent`]s and [`render_trace_report`] replays them through the
//! exact [`FaultLifecycle`] fold the live run used, so the rendered
//! latency table is the one the run measured.

use decos::prelude::*;
use decos::sim::flightrec::{NO_COMPONENT, NO_FAULT};

/// Schema tag of every flight-recorder dump line.
pub(crate) const FLIGHTREC_SCHEMA: &str = "decos-flightrec/1";

/// Serializes one event as a `decos-flightrec/1` JSONL line.
/// `component` is `null` for path-level events; `fault_id` 0 means no
/// injected fault explains the event.
pub(crate) fn event_line(e: &TraceEvent) -> String {
    let comp =
        if e.component == NO_COMPONENT { "null".to_string() } else { e.component.to_string() };
    format!(
        "{{\"schema\":\"{FLIGHTREC_SCHEMA}\",\"seq\":{},\"round\":{},\"slot\":{},\
         \"component\":{},\"fault_id\":{},\"kind\":\"{}\",\"detail\":{}}}",
        e.seq,
        e.round,
        e.slot,
        comp,
        e.fault_id,
        e.kind.name(),
        e.detail
    )
}

/// Writes a recording as JSONL, one event per line, oldest first —
/// atomically (write-temp-then-rename), so a crash mid-dump never leaves
/// a truncated recording where a complete one is expected. The ring
/// buffer is bounded, so building the body in memory is fine.
pub fn write_flightrec(rec: &FlightRecording, path: &str) -> std::io::Result<()> {
    let mut body = String::new();
    for e in &rec.events {
        body.push_str(&event_line(e));
        body.push('\n');
    }
    decos::store::write_atomic(std::path::Path::new(path), body.as_bytes())
}

/// Parses a `decos-flightrec/1` JSONL body back into events. A numeric
/// field that does not fit its event field is an error, and so is a
/// numeric `component` equal to the reserved [`NO_COMPONENT`], which the
/// writer only ever emits as `null`.
pub fn read_flightrec(body: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |e: &dyn std::fmt::Display| format!("line {}: {e}", i + 1);
        let v = serde::value::parse_embedded(line).map_err(|e| fail(&e))?;
        let entries = v.as_map().map_err(|e| fail(&e))?;
        let field = |name: &str| serde::value::field(entries, name).map_err(|e| fail(&e));
        let uint = |name: &str| field(name)?.as_u64().map_err(|e| fail(&e));
        let schema = field("schema")?.as_str().map_err(|e| fail(&e))?;
        if schema != FLIGHTREC_SCHEMA {
            return Err(format!(
                "line {}: schema {schema:?}, expected {FLIGHTREC_SCHEMA:?}",
                i + 1
            ));
        }
        let kind_name = field("kind")?.as_str().map_err(|e| fail(&e))?.to_string();
        let kind = TraceEventKind::from_name(&kind_name)
            .ok_or_else(|| format!("line {}: unknown event kind {kind_name:?}", i + 1))?;
        let component = match field("component")? {
            serde::value::Value::Null => NO_COMPONENT,
            _ => match narrow(i + 1, "component", uint("component")?)? {
                NO_COMPONENT => {
                    return Err(format!("line {}: component {NO_COMPONENT} is reserved", i + 1))
                }
                c => c,
            },
        };
        events.push(TraceEvent {
            seq: uint("seq")?,
            round: uint("round")?,
            slot: narrow(i + 1, "slot", uint("slot")?)?,
            component,
            fault_id: narrow(i + 1, "fault_id", uint("fault_id")?)?,
            kind,
            detail: narrow(i + 1, "detail", uint("detail")?)?,
        });
    }
    Ok(events)
}

/// Narrows a parsed dump field to the width of its event field.
fn narrow<T: TryFrom<u64>>(line: usize, name: &str, v: u64) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("line {line}: {name} {v} out of range"))
}

/// Whether an outcome warrants a flight-recorder dump: a failover, a
/// crashed round, a degraded diagnostic path, or a conviction no injected
/// fault explains.
pub fn is_anomalous(out: &CampaignOutcome) -> bool {
    out.report.failovers > 0
        || out.report.crashed_rounds > 0
        || out.report.degraded
        || out.lifecycle.as_ref().is_some_and(|lc| lc.wrong_fru_convictions > 0)
}

/// Dumps the outcome's recording to `path` when
/// [`is_anomalous`] — the flight-recorder policy: keep the tape only when
/// something went wrong. Returns whether a dump was written.
pub(crate) fn dump_on_anomaly(out: &CampaignOutcome, path: &str) -> std::io::Result<bool> {
    match (&out.trace, is_anomalous(out)) {
        (Some(trace), true) => {
            write_flightrec(trace, path)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Maximum timeline rows in a trace report; the tail (most recent events)
/// wins, flight-recorder style.
const TIMELINE_CAP: usize = 200;

fn class_name(index: u32) -> String {
    FaultClass::ALL.get(index as usize).map_or_else(|| "?".to_string(), |c| c.to_string())
}

/// Renders the human-readable fault timeline and latency table of a
/// recorded (or parsed-back) event stream.
pub fn render_trace_report(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let lc = FaultLifecycle::from_events(events);

    let _ = writeln!(s, "fault timeline ({} events)", events.len());
    let skipped = events.len().saturating_sub(TIMELINE_CAP);
    if skipped > 0 {
        let _ = writeln!(s, "  ... {skipped} earlier events omitted ...");
    }
    for e in &events[skipped..] {
        let comp = if e.component == NO_COMPONENT {
            "-".to_string()
        } else {
            format!("comp {}", e.component)
        };
        let fault =
            if e.fault_id == NO_FAULT { "-".to_string() } else { format!("fault {}", e.fault_id) };
        let detail = match e.kind {
            TraceEventKind::Conviction => format!("class={}", class_name(e.detail)),
            TraceEventKind::OnaMatch => format!("confidence={:.3}", f64::from(e.detail) / 1000.0),
            _ => format!("detail={}", e.detail),
        };
        let _ = writeln!(
            s,
            "  round {:>6} slot {:>2}  {:<18} {:<10} {:<8} {}",
            e.round,
            e.slot,
            e.kind.name(),
            fault,
            comp,
            detail
        );
    }

    let _ = writeln!(s);
    let _ = writeln!(s, "fault lifecycle (latencies in rounds from onset)");
    let _ = writeln!(
        s,
        "  {:<7} {:<9} {:<10} {:<9} {:<7} {:<5} {:<8} {:<22} outcome",
        "fault", "component", "injected@", "episodes", "detect", "ona", "convict", "class"
    );
    for r in &lc.records {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
        let outcome = if r.convicted() {
            "convicted"
        } else if r.injected_round.is_some() {
            "unconvicted"
        } else {
            "never manifested"
        };
        let _ = writeln!(
            s,
            "  {:<7} {:<9} {:<10} {:<9} {:<7} {:<5} {:<8} {:<22} {}",
            r.fault_id,
            r.component.map_or_else(|| "-".to_string(), |c| c.to_string()),
            opt(r.injected_round),
            r.episodes,
            opt(r.detect_latency()),
            opt(r.ona_latency()),
            opt(r.convict_latency()),
            r.conviction_class.map_or_else(|| "-".to_string(), class_name),
            outcome
        );
    }
    let _ = writeln!(s);
    let count = |k: TraceEventKind| events.iter().filter(|e| e.kind == k).count();
    let _ = writeln!(
        s,
        "faults manifested: {}  detected: {}  convicted: {}  mean detect latency: {:.1}  \
         mean convict latency: {:.1}",
        lc.faults_injected(),
        lc.faults_detected(),
        lc.faults_convicted(),
        lc.mean_detect_latency(),
        lc.mean_convict_latency()
    );
    let _ = writeln!(
        s,
        "anomalies: {} failovers, {} crashed rounds, {} wrong-FRU convictions",
        count(TraceEventKind::Failover),
        count(TraceEventKind::CrashedRound),
        lc.wrong_fru_convictions
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_roundtrip() {
        let events = vec![
            TraceEvent {
                seq: 0,
                round: 3,
                slot: 1,
                component: 2,
                fault_id: 1,
                kind: TraceEventKind::FaultInjected,
                detail: 1,
            },
            TraceEvent {
                seq: 1,
                round: 4,
                slot: 3,
                component: NO_COMPONENT,
                fault_id: NO_FAULT,
                kind: TraceEventKind::CrashedRound,
                detail: 1,
            },
        ];
        let body: String = events.iter().map(|e| event_line(e) + "\n").collect();
        assert_eq!(read_flightrec(&body).unwrap(), events);
    }

    #[test]
    fn read_rejects_foreign_schema_and_unknown_kind() {
        assert!(read_flightrec("{\"schema\":\"something-else/1\"}").is_err());
        let bad_kind = event_line(&TraceEvent {
            seq: 0,
            round: 0,
            slot: 0,
            component: 0,
            fault_id: 0,
            kind: TraceEventKind::OnaMatch,
            detail: 0,
        })
        .replace("ona-match", "no-such-kind");
        assert!(read_flightrec(&bad_kind).is_err());
        // Numbers too wide for their event field, and the reserved
        // component id the writer only ever emits as `null`, fail with
        // the line number instead of wrapping.
        let line = event_line(&TraceEvent {
            seq: 0,
            round: 0,
            slot: 1,
            component: 2,
            fault_id: 3,
            kind: TraceEventKind::OnaMatch,
            detail: 4,
        });
        for (from, to, what) in [
            ("\"component\":2", "\"component\":65536", "component 65536 out of range"),
            ("\"component\":2", "\"component\":65535", "component 65535 is reserved"),
            ("\"slot\":1", "\"slot\":65536", "slot 65536 out of range"),
            ("\"fault_id\":3", "\"fault_id\":4294967296", "fault_id 4294967296 out of range"),
            ("\"detail\":4", "\"detail\":4294967296", "detail 4294967296 out of range"),
        ] {
            let bad = format!("{line}\n{}", line.replace(from, to));
            let err = read_flightrec(&bad).expect_err(what);
            assert_eq!(err, format!("line 2: {what}"));
        }
    }

    #[test]
    fn real_campaign_dump_roundtrips() {
        // Schema test over a real tape: every line of a recorded campaign
        // parses back bit-identically, and the required-field validation
        // in `read_flightrec` holds for machine-produced lines too.
        let c = Campaign::reference(
            decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
            10.0,
            400,
            11,
        );
        let opts = RunOptions { telemetry: true, flightrec: true, ..Default::default() };
        let out = decos::runner::run_campaign_opts(&c, EngineParams::default(), opts, |_, _, _| {})
            .unwrap();
        let trace = out.trace.as_ref().unwrap();
        assert!(!trace.events.is_empty());
        let dir = std::env::temp_dir().join("decos-flightdump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        let path = path.to_str().unwrap();
        write_flightrec(trace, path).unwrap();
        let back = read_flightrec(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(back, trace.events);
        // A healthy connector campaign is not anomalous, so the on-anomaly
        // policy keeps no tape.
        assert!(!is_anomalous(&out));
        assert!(!dump_on_anomaly(&out, path).unwrap());
    }

    #[test]
    fn report_renders_lifecycle_and_anomalies() {
        let events = vec![
            TraceEvent {
                seq: 0,
                round: 10,
                slot: 0,
                component: 2,
                fault_id: 1,
                kind: TraceEventKind::FaultInjected,
                detail: 1,
            },
            TraceEvent {
                seq: 1,
                round: 12,
                slot: 2,
                component: 2,
                fault_id: 1,
                kind: TraceEventKind::SymptomRaised,
                detail: 1,
            },
            TraceEvent {
                seq: 2,
                round: 40,
                slot: 3,
                component: 2,
                fault_id: 1,
                kind: TraceEventKind::Conviction,
                detail: 1,
            },
        ];
        let report = render_trace_report(&events);
        assert!(report.contains("fault timeline (3 events)"), "{report}");
        assert!(report.contains("conviction"), "{report}");
        assert!(report.contains("convicted"), "{report}");
        assert!(report.contains("0 wrong-FRU convictions"), "{report}");
        // detect latency 2, convict latency 30.
        assert!(report.contains("mean detect latency: 2.0"), "{report}");
        assert!(report.contains("mean convict latency: 30.0"), "{report}");
    }
}
