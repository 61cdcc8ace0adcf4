//! Cross-transport acceptance: the distributed SOI FFT must produce the
//! SAME BITS whether ranks are threads exchanging buffers through the
//! simulated fabric or processes pushing bytes through the kernel's TCP
//! stack — and when a rank dies mid-run on the real transport, the
//! survivors must fail fast with a communication error, not hang.

use soi_core::{SoiError, SoiParams, ThreadPool};
use soi_dist::{ChargePolicy, DistSoiFft};
use soi_num::Complex64;
use soi_simnet::Cluster;
use soi_window::AccuracyPreset;
use soi_wire::{loopback_mesh, run_loopback, WireConfig};
use std::time::Duration;

const N: usize = 1 << 16;
const SEGMENTS: usize = 8;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

fn plan() -> DistSoiFft {
    let params = SoiParams::with_preset(N, SEGMENTS, AccuracyPreset::Digits12).unwrap();
    DistSoiFft::new(&params).unwrap()
}

/// Run the SOI FFT on `ranks` simulated ranks and return the assembled
/// spectrum.
fn simnet_spectrum(ranks: usize) -> Vec<Complex64> {
    let dist = plan();
    let x = signal(N);
    let (xr, dr) = (&x, &dist);
    let m = N / ranks;
    let out = Cluster::ideal(ranks).run_collect(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr.run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial()).expect("soi run").0
    });
    out.into_iter().flatten().collect()
}

/// Same transform, but every rank is a socket endpoint on a real
/// localhost TCP mesh.
fn wire_spectrum(ranks: usize) -> Vec<Complex64> {
    let dist = plan();
    let x = signal(N);
    let (xr, dr) = (&x, &dist);
    let m = N / ranks;
    let out = run_loopback(ranks, WireConfig::default(), move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr.run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial()).expect("soi run").0
    })
    .expect("loopback mesh");
    out.into_iter().flatten().collect()
}

fn assert_bitwise_equal(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: bin {k} differs: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn two_rank_spectra_are_bitwise_identical_across_transports() {
    assert_bitwise_equal(&simnet_spectrum(2), &wire_spectrum(2), "P=2");
}

#[test]
fn four_rank_spectra_are_bitwise_identical_across_transports() {
    assert_bitwise_equal(&simnet_spectrum(4), &wire_spectrum(4), "P=4");
}

#[test]
fn killed_rank_fails_survivors_with_comm_error_not_hang() {
    let ranks = 4;
    let fast = WireConfig {
        op_timeout: Duration::from_millis(500),
        connect_timeout: Duration::from_secs(10),
        ..WireConfig::default()
    };
    let comms = loopback_mesh(ranks, fast).unwrap();

    let dist = plan();
    let x = signal(N);
    let (xr, dr) = (&x, &dist);
    let m = N / ranks;
    // Rank 3 "dies" before the run; survivors must surface SoiError::Comm.
    let out = soi_testkit::kill_and_run(comms, ranks - 1, Duration::from_secs(30), |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr.run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
    });
    for e in &out.errors {
        assert!(matches!(e, SoiError::Comm(_)), "got {e:?}");
    }
}
