//! The headline experiment at example scale: the single-all-to-all SOI
//! FFT vs the triple-all-to-all baseline on a simulated 8-node InfiniBand
//! fat-tree cluster, with real data movement and a per-phase time
//! breakdown.
//!
//! ```sh
//! cargo run --release --example distributed_fft
//! ```

use soi::core::{SoiParams, ThreadPool};
use soi::dist::{BaselineFft, ChargePolicy, ComputeRates, DistSoiFft, ExchangeVariant};
use soi::num::complex::rel_l2_error;
use soi::num::Complex64;
use soi::simnet::{Cluster, Fabric};

fn main() {
    let p = 8;
    let n = (1 << 15) * p; // 2^18 total points
    let m = n / p;
    let fabric = Fabric::endeavor_fat_tree();
    let policy = ChargePolicy::Rates(ComputeRates::paper_node());

    let x: Vec<Complex64> = (0..n)
        .map(|j| Complex64::new((j as f64 * 0.29).sin(), (j as f64 * 0.83).cos()))
        .collect();
    let exact = soi::fft::fft_forward(&x);

    println!("Simulated cluster: {p} nodes, {} fabric, N = 2^{:.0}\n", fabric.name(), (n as f64).log2());

    // --- SOI: one all-to-all. ---
    let params = SoiParams::full_accuracy(n, p).expect("params");
    let dist = DistSoiFft::new(&params).expect("plan");
    let (xr, distr) = (&x, &dist);
    let soi_out = Cluster::new(p, fabric.clone()).run(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        distr.run_with(comm, local, policy, &ThreadPool::serial()).expect("soi run")
    });
    let soi_y: Vec<Complex64> = soi_out.iter().flat_map(|((y, _), _)| y.clone()).collect();
    let soi_makespan = soi_out.iter().map(|(_, r)| r.sim_time).fold(0.0, f64::max);
    let (ref times, ref rep) = soi_out[0];
    let t = &times.1;
    println!("SOI (single all-to-all):");
    println!("  error vs exact FFT : {:.2e}", rel_l2_error(&soi_y, &exact));
    println!("  all-to-alls        : {}", rep.stats.all_to_alls);
    println!("  phase breakdown (rank 0, virtual seconds):");
    println!("    halo     {:.4}", t.halo);
    println!("    conv     {:.4}", t.conv);
    println!("    F_P      {:.4}", t.fft_small);
    println!("    pack     {:.4}", t.pack);
    println!("    exchange {:.4}", t.exchange);
    println!("    F_M'     {:.4}", t.fft_large);
    println!("    demod    {:.4}", t.scale);
    println!("  makespan: {soi_makespan:.4} s (virtual)\n");

    // --- Baseline: three all-to-alls. ---
    let plan = BaselineFft::new(n, p, ExchangeVariant::Collective);
    let planr = &plan;
    let base_out = Cluster::new(p, fabric).run(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        planr.run(comm, local, policy).expect("baseline run")
    });
    let base_y: Vec<Complex64> = base_out.iter().flat_map(|((y, _), _)| y.clone()).collect();
    let base_makespan = base_out.iter().map(|(_, r)| r.sim_time).fold(0.0, f64::max);
    let bt = &base_out[0].0 .1;
    println!("Baseline (triple all-to-all, the MKL/FFTW/FFTE decomposition):");
    println!("  error vs exact FFT : {:.2e}", rel_l2_error(&base_y, &exact));
    println!("  all-to-alls        : {}", base_out[0].1.stats.all_to_alls);
    println!(
        "  compute {:.4} s, exchanges {:.4} s ({:.0}% communication)",
        bt.compute(),
        bt.exchange,
        bt.comm_fraction() * 100.0
    );
    println!("  makespan: {base_makespan:.4} s (virtual)\n");

    println!(
        "Speedup (baseline/SOI): {:.2}x   [paper: up to ~2x depending on system & size]",
        base_makespan / soi_makespan
    );
}
