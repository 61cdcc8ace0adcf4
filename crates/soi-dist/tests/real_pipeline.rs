//! The distributed real-input (r2c) pipeline, end to end: the halved
//! exchange must still produce the serial packed half-spectrum, THE SAME
//! BITS under both exchange schedules, on both transports, for any
//! worker count — and it must actually move at most 0.55× the bytes of
//! the complex transform at the same geometry (the point of the path).

use soi_core::{SoiError, SoiFft, SoiParams};
use soi_dist::{ChargePolicy, DistSoiFft, ExchangeSchedule};
use soi_num::complex::rel_l2_error;
use soi_num::Complex64;
use soi_pool::ThreadPool;
use soi_simnet::{Cluster, Fabric};
use soi_window::AccuracyPreset;
use soi_wire::{run_loopback, WireConfig};

fn real_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37).sin() + 0.5 * (i as f64 * 0.11).cos())
        .collect()
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

/// One real transform on `ranks` simulated ranks; concatenated rank
/// outputs form the `N/2 + 1`-bin packed half-spectrum.
fn simnet_half_spectrum(
    dist: &DistSoiFft,
    n: usize,
    ranks: usize,
    schedule: ExchangeSchedule,
    workers: usize,
) -> Vec<Complex64> {
    let x = real_signal(n);
    let (xr, dr) = (&x, dist);
    let m = n / ranks;
    Cluster::ideal(ranks)
        .run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            let pool = ThreadPool::new(workers);
            dr.execute(comm, local, ChargePolicy::WallClock, &pool, schedule, |_, _| Ok(()))
                .expect("real soi run")
                .0
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Same transform over a real localhost TCP mesh.
fn wire_half_spectrum(
    dist: &DistSoiFft,
    n: usize,
    ranks: usize,
    schedule: ExchangeSchedule,
) -> Vec<Complex64> {
    let x = real_signal(n);
    let (xr, dr) = (&x, dist);
    let m = n / ranks;
    run_loopback(ranks, WireConfig::default(), move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr.execute(
            comm,
            local,
            ChargePolicy::WallClock,
            &ThreadPool::serial(),
            schedule,
            |_, _| Ok(()),
        )
        .expect("real soi run")
        .0
    })
    .expect("loopback mesh")
    .into_iter()
    .flatten()
    .collect()
}

#[test]
fn distributed_real_matches_serial_packed_half_spectrum() {
    // Identical math to the single-node real transform, different data
    // motion — the assembled half-spectrum (Nyquist included) must agree
    // to near machine precision for every rank geometry.
    let n = 1 << 14;
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits12).unwrap();
    let serial = SoiFft::new(&params).unwrap().transform(&real_signal(n)).unwrap();
    assert_eq!(serial.len(), n / 2 + 1);
    let dist = DistSoiFft::new(&params).unwrap();
    for ranks in [1usize, 2, 4] {
        let got = simnet_half_spectrum(&dist, n, ranks, ExchangeSchedule::Barriered, 1);
        assert_eq!(got.len(), n / 2 + 1, "R={ranks}");
        let err = rel_l2_error(&got, &serial);
        assert!(err < 1e-13, "R={ranks}: distributed vs serial r2c: {err:e}");
        // The constructed-real Nyquist bin has no imaginary part, exactly.
        assert_eq!(got[n / 2].im, 0.0);
    }
}

#[test]
fn real_schedules_agree_bitwise_across_geometries() {
    let n = 1 << 14;
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
    let dist = DistSoiFft::new(&params).unwrap();
    for ranks in [1usize, 2, 4] {
        let barriered = simnet_half_spectrum(&dist, n, ranks, ExchangeSchedule::Barriered, 1);
        let overlapped = simnet_half_spectrum(&dist, n, ranks, ExchangeSchedule::Overlapped, 1);
        assert_bitwise_equal(&barriered, &overlapped, &format!("R={ranks}"));
    }
}

#[test]
fn real_run_is_bitwise_across_worker_counts() {
    let n = 1 << 14;
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
    let dist = DistSoiFft::new(&params).unwrap();
    let reference = simnet_half_spectrum(&dist, n, 2, ExchangeSchedule::Barriered, 1);
    for workers in [2usize, 3, 4] {
        for schedule in [ExchangeSchedule::Barriered, ExchangeSchedule::Overlapped] {
            let got = simnet_half_spectrum(&dist, n, 2, schedule, workers);
            assert_bitwise_equal(&reference, &got, &format!("workers={workers} {schedule:?}"));
        }
    }
}

#[test]
fn real_wire_and_simnet_agree_bitwise_under_both_schedules() {
    let n = 1 << 16;
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits12).unwrap();
    let dist = DistSoiFft::new(&params).unwrap();
    for ranks in [2usize, 4] {
        for schedule in [ExchangeSchedule::Barriered, ExchangeSchedule::Overlapped] {
            let sim = simnet_half_spectrum(&dist, n, ranks, schedule, 1);
            let wire = wire_half_spectrum(&dist, n, ranks, schedule);
            assert_bitwise_equal(&sim, &wire, &format!("R={ranks} {schedule:?}"));
        }
    }
}

#[test]
fn real_exchange_moves_at_most_055x_the_complex_bytes() {
    // The acceptance number: at N = 2^16, P = 8 segments, the real run's
    // total traffic must be ≤ 0.55× the complex run's — the all-to-all
    // carries half the segments and the halo moves f64s, so the only
    // overhead against exactly 0.5× is the one-f64 Nyquist allreduce.
    let n = 1 << 16;
    let p = 8;
    let ranks = 4;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
    let dist = DistSoiFft::new(&params).unwrap();
    let m = n / ranks;

    let xc: Vec<Complex64> = real_signal(n).iter().map(|&r| Complex64::new(r, 0.0)).collect();
    let (xr, dr) = (&xc, &dist);
    let complex_reports = Cluster::new(ranks, Fabric::ethernet_10g()).run(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr
            .run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
            .expect("complex run")
            .0
    });
    let complex_bytes: u64 = complex_reports.iter().map(|(_, r)| r.stats.bytes_sent).sum();

    let x = real_signal(n);
    let (xr, dr) = (&x, &dist);
    let real_reports = Cluster::new(ranks, Fabric::ethernet_10g()).run(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr
            .run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
            .expect("real run")
            .0
    });
    let real_bytes: u64 = real_reports.iter().map(|(_, r)| r.stats.bytes_sent).sum();

    // Still the paper's communication shape: one all-to-all, one halo
    // message per rank.
    for (_, rep) in &real_reports {
        assert_eq!(rep.stats.all_to_alls, 1, "r2c must keep the single all-to-all");
        assert_eq!(rep.stats.p2p_messages, 1, "r2c must keep the single halo message");
    }
    let ratio = real_bytes as f64 / complex_bytes as f64;
    assert!(
        ratio <= 0.55,
        "real exchange moved {real_bytes} bytes vs complex {complex_bytes} (ratio {ratio:.3})"
    );
}

#[test]
fn real_run_rejects_bad_geometries() {
    // Each rank runs the geometry check before any traffic, so a bad
    // geometry fails on every rank with the same typed error.
    fn errors(params: &SoiParams, ranks: usize, local: usize) -> Vec<SoiError> {
        let dist = DistSoiFft::new(params).unwrap();
        Cluster::ideal(ranks).run_collect(|comm| {
            let x = vec![0.0f64; local];
            dist.run_with(comm, &x, ChargePolicy::WallClock, &ThreadPool::serial())
                .unwrap_err()
        })
    }
    // Odd segment count: the Hermitian fold pairs lane s with P−s.
    let odd = SoiParams::with_preset(10000, 5, AccuracyPreset::Digits10).unwrap();
    for e in errors(&odd, 1, 10000) {
        assert!(matches!(e, SoiError::BadSize(_)), "got {e:?}");
    }
    // 3 and 8 don't divide P/2 = 4.
    let params = SoiParams::with_preset(1 << 14, 8, AccuracyPreset::Digits10).unwrap();
    for ranks in [3usize, 8] {
        for e in errors(&params, ranks, (1 << 14) / ranks) {
            assert!(matches!(e, SoiError::BadRankCount(_)), "R={ranks}: got {e:?}");
        }
    }
    // Wrong local length surfaces as BadInput, on the rank.
    for e in errors(&params, 2, 100) {
        assert!(matches!(e, SoiError::BadInput { .. }), "got {e:?}");
    }
}
