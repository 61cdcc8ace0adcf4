//! The threading contract: `transform_into` is **bitwise identical** to
//! the serial `transform` for every worker count, and a reused
//! [`SoiWorkspace`] never contaminates later calls.
//!
//! These are exact-equality tests (on f64 bit patterns), not tolerance
//! tests: the pool's static chunk assignment gives every output element
//! to exactly one pure task, so parallelism must not change a single ulp.

use std::cell::RefCell;

use soi_core::{SoiFft, SoiParams, SoiWorkspace, Zoom};
use soi_num::Complex64;
use soi_testkit::prop::{check, PropConfig};
use soi_testkit::rng::TestRng;
use soi_window::AccuracyPreset;

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    TestRng::seed_from_u64(seed).complex_vec(n)
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

fn assert_bitwise_parallel_invariant(soi: &SoiFft, n: usize) {
    let x = signal(n, 0x50150 + n as u64);
    let serial = soi.transform(&x).unwrap();
    for workers in [1usize, 2, 4, 8] {
        let mut ws = SoiWorkspace::new(soi, workers);
        let mut y = vec![Complex64::ZERO; n];
        soi.transform_into(&x, &mut y, &mut ws).unwrap();
        assert_eq!(
            bits(&serial),
            bits(&y),
            "transform_into with {workers} workers diverged from serial"
        );
    }
}

#[test]
fn power_of_two_transform_is_worker_count_invariant() {
    let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
    let soi = SoiFft::new(&params).unwrap();
    assert_bitwise_parallel_invariant(&soi, 1 << 12);
}

#[test]
fn mixed_radix_transform_is_worker_count_invariant() {
    // P = 5, N = 10000: mixed-radix F_P and F_{M'} exercise the
    // staging-copy scratch path under parallel execution.
    let params = SoiParams::with_preset(10_000, 5, AccuracyPreset::Digits10).unwrap();
    let soi = SoiFft::new(&params).unwrap();
    assert_bitwise_parallel_invariant(&soi, 10_000);
}

#[test]
fn segment_and_band_pooled_match_serial_bitwise() {
    let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
    let soi = SoiFft::new(&params).unwrap();
    let n = 1 << 12;
    let x = signal(n, 42);
    let xr: Vec<f64> = x.iter().map(|v| v.re).collect();
    let pool = soi_core::ThreadPool::new(4);
    for s in 0..4 {
        let serial = soi.transform_segment(&x, s).unwrap();
        let pooled = soi.transform_zoom(&x, Zoom::Segment(s), &pool).unwrap();
        assert_eq!(bits(&serial), bits(&pooled), "segment {s}");
        let serial = soi.transform_real_segment(&xr, s).unwrap();
        let pooled = soi.transform_zoom(&xr, Zoom::Segment(s), &pool).unwrap();
        assert_eq!(bits(&serial), bits(&pooled), "real segment {s}");
    }
    for k0 in [0usize, 777, n - 100] {
        let serial = soi.transform_band(&x, k0).unwrap();
        let pooled = soi.transform_zoom(&x, Zoom::Band(k0), &pool).unwrap();
        assert_eq!(bits(&serial), bits(&pooled), "band k0={k0}");
        let serial = soi.transform_real_band(&xr, k0).unwrap();
        let pooled = soi.transform_zoom(&xr, Zoom::Band(k0), &pool).unwrap();
        assert_eq!(bits(&serial), bits(&pooled), "real band k0={k0}");
    }
}

#[test]
fn workspace_reuse_matches_fresh_workspace_bitwise() {
    // Property: a workspace reused across many transforms (dirty buffers,
    // warm pool) produces exactly what a fresh workspace produces.
    let params = SoiParams::with_preset(10_000, 5, AccuracyPreset::Digits10).unwrap();
    let soi = SoiFft::new(&params).unwrap();
    let reused = RefCell::new(SoiWorkspace::new(&soi, 3));
    check(
        "workspace_reuse_matches_fresh",
        PropConfig::cases(8),
        |rng| {
            let x = rng.complex_vec(10_000);
            let mut y_reused = vec![Complex64::ZERO; 10_000];
            soi.transform_into(&x, &mut y_reused, &mut reused.borrow_mut())
                .unwrap();
            let mut fresh = SoiWorkspace::new(&soi, 3);
            let mut y_fresh = vec![Complex64::ZERO; 10_000];
            soi.transform_into(&x, &mut y_fresh, &mut fresh).unwrap();
            assert_eq!(
                bits(&y_reused),
                bits(&y_fresh),
                "reused workspace diverged from fresh workspace"
            );
        },
    );
}
