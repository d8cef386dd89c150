//! Host-speed calibration.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts
//! by 20–40% over tens of seconds as neighbours come and go. Fixed kernels
//! that use no library code are timed between the timed units of work,
//! and every time a run measures is divided by the median slowdown of its
//! kernels against the reference host. The library cannot move the
//! kernels, so a change to the library moves the corrected figures as it
//! moves the raw ones, while the host's drift, which moves both, cancels.
//!
//! The processor kernel is a register-only xorshift chain with
//! data-dependent branches: it follows the core's clock and share, and
//! touches no memory. Kernels with large tables tracked the fleets more
//! closely in quiet phases, but they also measure the host's page-fault
//! and memory-bandwidth costs, which the simulator's small working set
//! does not feel: in one phase they read 1.7x slow while the fleets ran at
//! their usual speed. The median over a run keeps a call that was
//! preempted from counting. Steps bound by fsync latency are also
//! corrected by [`io_slowdown`], since the host's disk drifts apart from
//! its processors.

use crate::SHARDS;
use std::hint::black_box;
use std::time::Instant;

/// Steps per processor-kernel thread.
const CPU_STEPS: u64 = 10_000_000;
/// Time one processor-kernel thread takes on the reference host, a
/// 2-vCPU Xeon VM, in a typical phase.
const CPU_REFERENCE_NS: f64 = 3.5e7;
/// Records the I/O kernel appends and fsyncs, one at a time.
const IO_RECORDS: u32 = 200;
/// Wall time of one I/O-kernel call on the reference host.
const IO_REFERENCE_NS: f64 = 2.1e7;

/// One thread's share of the processor kernel.
fn cpu_kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..CPU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else {
            acc ^= x.rotate_left(7);
        }
    }
    acc
}

/// Runs the processor kernel once on each of [`SHARDS`] threads and
/// returns the host's slowdown against the reference host: the threads'
/// mean time over the reference time. Each thread times itself, so one
/// thread that waited for its vCPU does not set the figure as it would a
/// wall time.
pub fn slowdown() -> f64 {
    let total_ns: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SHARDS as u64)
            .map(|k| {
                s.spawn(move || {
                    let t0 = Instant::now();
                    black_box(cpu_kernel(black_box(k + 1)));
                    t0.elapsed().as_nanos() as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("calibration kernel does not panic")).sum()
    });
    total_ns / SHARDS as f64 / CPU_REFERENCE_NS
}

/// Times the I/O kernel, which appends [`IO_RECORDS`] 160-byte records
/// to a fresh file in `dir` and fsyncs after each one, as the store's
/// journal does per campaign round, and returns the slowdown of the
/// host's disk against the reference host. The file is removed again.
pub fn io_slowdown(dir: &std::path::Path) -> std::io::Result<f64> {
    use std::io::Write;
    let path = dir.join(format!("io-calibration-{}", std::process::id()));
    let t0 = Instant::now();
    let mut f = std::fs::OpenOptions::new().append(true).create_new(true).open(&path)?;
    let written = (0..IO_RECORDS).try_for_each(|i| {
        f.write_all(&[i as u8; 160])?;
        f.sync_all()
    });
    let ns = t0.elapsed().as_nanos() as f64;
    drop(f);
    std::fs::remove_file(&path)?;
    written.map(|()| ns / IO_REFERENCE_NS)
}
