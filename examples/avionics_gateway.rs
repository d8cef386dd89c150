//! Avionics-scale cluster with a hidden gateway (§II-B).
//!
//! Eight LRMs in two equipment bays. The navigation DAS has no own
//! air-data sensor: a hidden gateway republishes the air-data value across
//! DAS boundaries ("eliminate resource duplication"). We then stick the
//! air-data sensor and watch root-cause analysis walk the dependency chain
//! back to the transducer — not to the gateway, not to the NAV controller,
//! and not to any LRM.
//!
//! ```sh
//! cargo run --release --example avionics_gateway
//! ```

use decos::faults::campaign;
use decos::platform::avionics::{self, jobs};
use decos::prelude::*;

fn main() {
    let spec = avionics::avionics_spec();
    println!(
        "avionics cluster: {} LRMs, {} jobs, {} DASs, {} virtual networks",
        spec.components.len(),
        spec.jobs.len(),
        spec.dases.len(),
        spec.vnets.len()
    );
    println!("  NAV consumes air data through the hidden gateway on LRM 7\n");

    // Healthy run first: the gateway feeds NAV.
    let healthy = Campaign { spec: spec.clone(), faults: vec![], accel: 1.0, rounds: 500, seed: 1 };
    let mut nav_cmds = 0u64;
    let (params, opts) = (EngineParams::default(), RunOptions::default());
    run_campaign_opts(&healthy, params, opts, |sim, _, rec| {
        if rec.addr.slot.0 == 0 {
            nav_cmds = sim.job(jobs::NAV_C).counters().produced;
        }
    })
    .expect("valid spec");
    println!("healthy: NAV controller produced {nav_cmds} commands via the gateway");

    // Now the air-data sensor sticks at a wildly wrong value.
    let faults = campaign::sensor_campaign(jobs::AIR, FaultKind::SensorStuck { value: 500.0 });
    let sick = Campaign { spec, faults, accel: 1.0, rounds: 5_000, seed: 2 };
    let out = run_campaign(&sick).expect("valid spec");

    println!("\nverdicts after the stuck air-data sensor:");
    for v in &out.report.verdicts {
        println!(
            "  {:<8} trust={:.3} class={:<26} action={}",
            v.fru.to_string(),
            v.trust,
            v.class.map(|c| c.to_string()).unwrap_or_else(|| "(undecided)".into()),
            v.action.map(|a| a.to_string()).unwrap_or_else(|| "(observe)".into()),
        );
    }

    let air = out.report.verdict_of(FruRef::Job(jobs::AIR)).expect("AIR assessed");
    assert_eq!(air.class, Some(FaultClass::JobInherentTransducer));
    for j in [jobs::GATEWAY, jobs::NAV_C, jobs::AIR_C1, jobs::AIR_C2] {
        if let Some(v) = out.report.verdict_of(FruRef::Job(j)) {
            assert_eq!(v.action, None, "downstream job must not be actioned: {v:?}");
        }
    }
    println!(
        "\n→ the bad value propagated through two DASs and the gateway, yet the blame\n  \
         lands on the air-data transducer alone — inspect the sensor, keep everything else."
    );
}
