//! Acceptance test for the tracing tentpole: a traced 4-rank
//! [`DistSoiFft`] run, on complex and on real input, must emit every SOI
//! phase on every rank, the merged trace must pass the conservation
//! validator, and a corrupted copy (one dropped message event) must
//! fail it.

use soi_core::{Domain, SoiParams, ThreadPool};
use soi_dist::{ChargePolicy, DistSoiFft};
use soi_num::Complex64;
use soi_simnet::{Cluster, Fabric};
use soi_trace::{phase_totals, CollectiveOp, EventKind, TraceError, TraceSet};
use soi_window::AccuracyPreset;
use soi_wire::Pod;

const RANKS: usize = 4;
const PHASES: [&str; 7] = ["halo", "conv", "fft_p", "pack", "exchange", "fft_m", "demod"];

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

/// One traced run of `x` (complex or real) on `RANKS` ranks at `p`
/// segments; returns the merged trace.
fn traced_run<S: Domain + Pod>(n: usize, p: usize, x: &[S]) -> TraceSet {
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
    let dist = DistSoiFft::new(&params).unwrap();
    let (xr, dr) = (x, &dist);
    let m = n / RANKS;
    let (out, traces) = Cluster::new(RANKS, Fabric::ethernet_10g()).run_traced(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr.run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
            .expect("soi run")
            .0
    });
    assert_eq!(out.len(), RANKS);
    traces
}

#[test]
fn traced_four_rank_run_emits_all_phases_and_validates() {
    let n = 1 << 14;
    let x = signal(n);
    let xr: Vec<f64> = x.iter().map(|v| v.re).collect();
    // Complex input on P = R segments; real input on P = 2R, so each
    // rank owns one of the P/2 kept segments. The real run adds the
    // Nyquist allreduce to the collective sequence.
    check_trace(traced_run(n, RANKS, &x), false);
    check_trace(traced_run(n, 2 * RANKS, &xr), true);
}

fn check_trace(traces: TraceSet, nyquist_allreduce: bool) {
    assert_eq!(traces.ranks.len(), RANKS);
    // The allreduce is built on an all-gather; only the real run has one.
    for events in &traces.ranks {
        let gathers = events.iter().any(|e| {
            matches!(e.kind, EventKind::Collective { op: CollectiveOp::AllGather, .. })
        });
        assert_eq!(gathers, nyquist_allreduce);
    }

    // Every rank reports every SOI phase, each completed (begin/end paired).
    for (rank, events) in traces.ranks.iter().enumerate() {
        let totals = phase_totals(events);
        for phase in PHASES {
            assert!(
                totals.iter().any(|(name, _)| name == phase),
                "rank {rank} trace is missing phase `{phase}`: {totals:?}"
            );
        }
        // Messages flowed on every rank (halo sendrecv + all-to-all).
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Recv { .. })),
            "rank {rank} recorded no receives"
        );
    }

    let summary = traces.validate().expect("healthy trace must validate");
    assert_eq!(summary.ranks, RANKS);
    assert!(summary.bytes > 0);
    assert!(summary.phases.iter().any(|p| p == "exchange"));

    // Corrupt the trace: drop one message event from rank 1. The per-link
    // conservation check must now fail — a lost message is mechanically
    // detectable, not a matter of interpretation.
    let mut corrupted = traces;
    let victim = corrupted.ranks[1]
        .iter()
        .position(|e| matches!(e.kind, EventKind::Recv { .. }))
        .expect("rank 1 must have received something");
    corrupted.ranks[1].remove(victim);
    match corrupted.validate() {
        Err(TraceError::LinkImbalance { .. }) => {}
        other => panic!("dropped recv must fail link conservation, got {other:?}"),
    }
}
