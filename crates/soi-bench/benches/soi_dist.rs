//! Distributed-transport bench: what does the real wire cost?
//!
//! Two measurements, recorded to `BENCH_dist.json` at the repo root:
//!
//! 1. **All-to-all, wire vs simnet** — the same pairwise-exchange
//!    collective timed over localhost TCP sockets (`soi-wire` loopback
//!    mesh) and over the in-process channel fabric (`soi-simnet`), per
//!    payload size. The ratio is the real price of crossing the kernel's
//!    network stack, which the single-all-to-all design exists to pay as
//!    few times as possible.
//! 2. **End-to-end phase breakdown** — one distributed SOI FFT on each
//!    transport, reporting the per-phase wall seconds (max across ranks)
//!    so exchange vs compute can be compared between fabrics.
//!
//! Harness-free binary (run via `cargo bench -p soi-bench`). Knobs:
//!
//! * `SOI_BENCH_DIST_ITERS` — collective reps per sample (default 20).
//! * `SOI_BENCH_DIST_N` — end-to-end transform size (default 2^16).
//! * `SOI_BENCH_DIST_OUT` — output path override (default
//!   `BENCH_dist.json` at the repo root); CI smoke runs point this at a
//!   scratch file so the committed baseline is never clobbered.

use soi_core::{SoiParams, ThreadPool};
use soi_dist::{ChargePolicy, DistSoiFft, PhaseTimes};
use soi_num::Complex64;
use soi_simnet::Cluster;
use soi_window::AccuracyPreset;
use soi_wire::{run_loopback, WireConfig};
use std::time::Instant;

const RANKS: usize = 4;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn payload(elements: usize, rank: usize) -> Vec<Complex64> {
    (0..elements)
        .map(|i| Complex64::new((i + rank) as f64, (i * 7 + rank) as f64 * 0.5))
        .collect()
}

/// Median of a small sample set (ns).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Time `iters` back-to-back all-to-alls across all ranks of a loopback
/// TCP mesh; returns per-op wall nanoseconds (whole-mesh round time).
fn wire_all_to_all_ns(elements: usize, iters: usize, samples: usize) -> f64 {
    let times = (0..samples)
        .map(|_| {
            run_loopback(RANKS, WireConfig::default(), move |comm| {
                let send = payload(elements, comm.rank());
                let mut recv = vec![Complex64::ZERO; elements];
                // One warm-up round, then the timed block.
                comm.all_to_all(&send, &mut recv).unwrap();
                let t0 = Instant::now();
                for _ in 0..iters {
                    comm.all_to_all(&send, &mut recv).unwrap();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .expect("loopback mesh")
            .into_iter()
            .fold(0.0, f64::max)
        })
        .collect();
    median(times)
}

/// Same measurement over the in-process channel fabric.
fn simnet_all_to_all_ns(elements: usize, iters: usize, samples: usize) -> f64 {
    let times = (0..samples)
        .map(|_| {
            Cluster::ideal(RANKS)
                .run_collect(move |comm| {
                    let send = payload(elements, comm.rank());
                    let mut recv = vec![Complex64::ZERO; elements];
                    comm.all_to_all(&send, &mut recv);
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        comm.all_to_all(&send, &mut recv);
                    }
                    t0.elapsed().as_nanos() as f64 / iters as f64
                })
                .into_iter()
                .fold(0.0, f64::max)
        })
        .collect();
    median(times)
}

fn phase_row(t: &PhaseTimes) -> String {
    format!(
        "{{\"halo\":{:.6},\"conv\":{:.6},\"fft_small\":{:.6},\"fft_large\":{:.6},\
         \"scale\":{:.6},\"pack\":{:.6},\"exchange\":{:.6}}}",
        t.halo, t.conv, t.fft_small, t.fft_large, t.scale, t.pack, t.exchange
    )
}

/// One distributed SOI FFT per transport; returns (wire wall ns, wire
/// phases, simnet phases), phases as max across ranks.
fn end_to_end(n: usize) -> (f64, PhaseTimes, PhaseTimes) {
    let p = 8;
    let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).expect("params");
    let dist = DistSoiFft::new(&params).expect("plan");
    let x: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    let m = n / RANKS;
    let (xr, dr) = (&x, &dist);

    let t0 = Instant::now();
    let wire_times = run_loopback(RANKS, WireConfig::default(), move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        dr.run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial()).expect("soi run").1
    })
    .expect("loopback mesh")
    .iter()
    .fold(PhaseTimes::default(), |acc, t| acc.max_with(t));
    let wire_wall_ns = t0.elapsed().as_nanos() as f64;

    let sim_times = Cluster::ideal(RANKS)
        .run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            dr
                .run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
                .expect("soi run")
                .1
        })
        .iter()
        .fold(PhaseTimes::default(), |acc, t| acc.max_with(t));
    (wire_wall_ns, wire_times, sim_times)
}

fn main() {
    let iters = env_usize("SOI_BENCH_DIST_ITERS", 20);
    let samples = 5;
    let mut rows = Vec::new();
    for lg in [12usize, 14, 16] {
        let elements = 1usize << lg; // send-buffer Complex64 per rank
        let bytes = elements * std::mem::size_of::<Complex64>();
        let wire = wire_all_to_all_ns(elements, iters, samples);
        let sim = simnet_all_to_all_ns(elements, iters, samples);
        println!(
            "all_to_all {RANKS} ranks, {bytes:>8} B/rank: wire {:>12.0} ns/op, simnet {:>10.0} ns/op, ratio {:>6.1}x",
            wire,
            sim,
            wire / sim
        );
        rows.push(format!(
            "    {{\"elements_per_rank\":{elements},\"bytes_per_rank\":{bytes},\
             \"wire_ns_per_op\":{wire:.0},\"simnet_ns_per_op\":{sim:.0},\
             \"wire_over_simnet\":{:.3}}}",
            wire / sim
        ));
    }

    let n = env_usize("SOI_BENCH_DIST_N", 1 << 16);
    let (wire_wall_ns, wire_t, sim_t) = end_to_end(n);
    println!(
        "end_to_end N={n}: wire wall {:.1} ms; exchange wire {:.3} ms vs simnet {:.3} ms",
        wire_wall_ns / 1e6,
        wire_t.exchange * 1e3,
        sim_t.exchange * 1e3
    );

    let json = format!(
        "{{\n  \"bench\": \"soi_dist_wire\",\n  \"ranks\": {RANKS},\n  \
         \"collective_iters\": {iters},\n  \"samples\": {samples},\n  \
         \"all_to_all\": [\n{}\n  ],\n  \"end_to_end\": {{\n    \"n\": {n},\n    \"p\": 8,\n    \
         \"wire_wall_ns\": {wire_wall_ns:.0},\n    \"wire_phases_s\": {},\n    \
         \"simnet_phases_s\": {}\n  }}\n}}\n",
        rows.join(",\n"),
        phase_row(&wire_t),
        phase_row(&sim_t)
    );
    let path = std::env::var("SOI_BENCH_DIST_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dist.json").to_string()
    });
    std::fs::write(&path, &json).expect("write dist bench json");
    println!("wrote {path}");
}
