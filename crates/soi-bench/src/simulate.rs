//! Real simulated-cluster runs: correctness + charged virtual time.

use crate::model::Scenario;
use soi_core::{SoiParams, ThreadPool};
use soi_dist::{BaselineFft, ChargePolicy, DistSoiFft, ExchangeVariant, PhaseTimes};
use soi_num::Complex64;
use soi_simnet::{Cluster, Fabric};
use soi_window::AccuracyPreset;

/// Result of one simulated weak-scaling point.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Slowest rank's virtual time (the job's execution time).
    pub makespan: f64,
    /// Critical-path phase breakdown (element-wise max over ranks).
    pub phases: PhaseTimes,
    /// Relative L2 error of the distributed output against an exact
    /// serial FFT of the same input.
    pub error_vs_exact: f64,
    /// Total payload bytes pushed into the network by all ranks.
    pub bytes_on_wire: u64,
    /// All-to-all collectives per rank.
    pub all_to_alls: u64,
}

/// Run the distributed SOI transform for real on the simulated cluster.
pub fn run_soi(
    n: usize,
    p: usize,
    preset: AccuracyPreset,
    fabric: Fabric,
    policy: ChargePolicy,
) -> SimResult {
    let params = SoiParams::with_preset(n, p, preset).expect("valid SOI params");
    let dist = DistSoiFft::new(&params).expect("plan");
    let x = crate::workload::tone_mix(n);
    let m = n / p;
    let (xr, distr) = (&x, &dist);
    let out = Cluster::new(p, fabric).run(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        distr.run_with(comm, local, policy, &ThreadPool::serial()).expect("soi run")
    });
    finish(out, &x)
}

/// Run the triple-all-to-all baseline for real on the simulated cluster.
pub fn run_baseline(
    n: usize,
    p: usize,
    fabric: Fabric,
    policy: ChargePolicy,
    variant: ExchangeVariant,
) -> SimResult {
    let plan = BaselineFft::new(n, p, variant);
    let x = crate::workload::tone_mix(n);
    let m = n / p;
    let (xr, planr) = (&x, &plan);
    let out = Cluster::new(p, fabric).run(move |comm| {
        let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
        planr.run(comm, local, policy).expect("baseline run")
    });
    finish(out, &x)
}

fn finish(
    out: Vec<((Vec<Complex64>, PhaseTimes), soi_simnet::RankReport)>,
    x: &[Complex64],
) -> SimResult {
    let makespan = out
        .iter()
        .map(|(_, rep)| rep.sim_time)
        .fold(0.0f64, f64::max);
    let phases = out
        .iter()
        .fold(PhaseTimes::default(), |acc, ((_, t), _)| acc.max_with(t));
    let bytes_on_wire = out.iter().map(|(_, rep)| rep.stats.bytes_sent).sum();
    let all_to_alls = out
        .iter()
        .map(|(_, rep)| rep.stats.all_to_alls)
        .max()
        .unwrap_or(0);
    let y: Vec<Complex64> = out.into_iter().flat_map(|((y, _), _)| y).collect();
    let exact = soi_fft::fft_forward(x);
    SimResult {
        makespan,
        phases,
        error_vs_exact: soi_num::complex::rel_l2_error(&y, &exact),
        bytes_on_wire,
        all_to_alls,
    }
}

/// Consistency check between the analytic model and a real simulated run:
/// returns `(model_total, simulated_makespan)` for SOI under identical
/// rate charging. Used by tests and printed by the harnesses.
pub fn model_vs_simulation(scenario: &Scenario, preset: AccuracyPreset) -> (f64, f64) {
    let model = crate::model::soi_phases(scenario).total();
    let sim = run_soi(
        scenario.total_points(),
        scenario.nodes,
        preset,
        scenario.fabric.clone(),
        ChargePolicy::Rates(scenario.rates),
    );
    (model, sim.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_dist::ComputeRates;

    #[test]
    fn simulated_soi_is_correct_and_single_exchange() {
        let r = run_soi(
            1 << 12,
            4,
            AccuracyPreset::Digits10,
            Fabric::ethernet_10g(),
            ChargePolicy::Rates(ComputeRates::paper_node()),
        );
        assert!(r.error_vs_exact < 2e-7, "err {:e}", r.error_vs_exact); // κ-aware Digits10 bound
        assert_eq!(r.all_to_alls, 1);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn simulated_baseline_is_correct_and_triple_exchange() {
        let r = run_baseline(
            1 << 12,
            4,
            Fabric::ethernet_10g(),
            ChargePolicy::Rates(ComputeRates::paper_node()),
            ExchangeVariant::Collective,
        );
        assert!(r.error_vs_exact < 1e-11, "err {:e}", r.error_vs_exact);
        assert_eq!(r.all_to_alls, 3);
    }

    #[test]
    fn model_matches_simulation_closely() {
        // The simulation charges the same formulas the model evaluates;
        // they must agree to a few percent (barrier costs and the B chosen
        // by the preset designer vs the scenario's B account for the gap).
        let preset = AccuracyPreset::Digits10;
        let b = preset.design(0.25).unwrap().b;
        let scenario = Scenario {
            points_per_node: 1 << 10,
            nodes: 4,
            mu: 5,
            nu: 4,
            b,
            rates: ComputeRates::paper_node(),
            fabric: Fabric::ethernet_10g(),
        };
        let (model, sim) = model_vs_simulation(&scenario, preset);
        let rel = (model - sim).abs() / sim;
        assert!(
            rel < 0.05,
            "model {model} vs simulated {sim} ({:.1}% apart)",
            rel * 100.0
        );
    }

    #[test]
    fn soi_beats_baseline_in_simulation_on_slow_network() {
        let n = 1 << 14;
        let p = 4;
        let policy = ChargePolicy::Rates(ComputeRates::paper_node());
        let soi = run_soi(
            n,
            p,
            AccuracyPreset::Full,
            Fabric::ethernet_10g(),
            policy,
        );
        let base = run_baseline(
            n,
            p,
            Fabric::ethernet_10g(),
            policy,
            ExchangeVariant::Collective,
        );
        let sp = base.makespan / soi.makespan;
        assert!(sp > 1.5, "simulated speedup {sp}");
        assert!(base.bytes_on_wire > soi.bytes_on_wire * 2);
    }
}
