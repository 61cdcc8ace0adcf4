//! The distributed SOI FFT — Fig 2 of the paper, one phase at a time:
//!
//! 1. **halo** — fetch `B·P` points from the right neighbor (the only
//!    point-to-point traffic; "negligible" per §2);
//! 2. **convolution** — the local slice of `W·x` (`M'/R` groups of `P`);
//! 3. **F_P batch** — `I ⊗ F_P` on the local groups;
//! 4. **pack** — node-local permutation gathering same-destination data
//!    (Fig 3);
//! 5. **all-to-all** — the single global exchange (`P_perm^{P,N'}`);
//! 6. **F_{M'}** — one oversampled FFT per owned segment;
//! 7. **demodulate** — project to `M` bins and divide by `ŵ(k)`.
//!
//! Phases 5–7 run on one of two [`ExchangeSchedule`]s. The default
//! `Overlapped` schedule streams the exchange at segment granularity and
//! starts each owned segment's F_{M'} + demodulation the moment its rows
//! land, hiding compute under the remaining traffic; `Barriered`
//! (`SOI_NO_OVERLAP=1`) keeps the classic exchange → unpack → FFT →
//! demodulate sequence. Both produce bitwise-identical output.
//!
//! Real input (r2c) runs the same phases through the same code, generic
//! over [`soi_core::Domain`]: an `f64` halo, the real convolution kernel,
//! a pack and all-to-all carrying only the non-redundant segments
//! `0..P/2`, and one scalar allreduce for the exact Nyquist bin.
//!
//! The segment count `P` may be a multiple of the rank count `R` (§6a:
//! "In general, P can be a multiple of number of processor nodes,
//! increasing the granularity of parallelism" — the paper's own runs used
//! 8 segments per process, Table 1). Each rank owns `c = P/R` consecutive
//! segments; output stays in natural order: rank `r` ends with
//! `y[r·cM..(r+1)·cM)`.

use crate::comm::Communicator;
use crate::rates::{ChargePolicy, WorkKind};
use crate::times::PhaseTimes;
use soi_core::{Domain, SoiError, SoiFft, SoiParams};
use soi_fft::flops::{conv_flops, fft_flops};
use soi_num::Complex64;
use soi_pool::{part_range, SlicePtr, ThreadPool};
use soi_wire::Pod;
use std::sync::OnceLock;
use std::time::Instant;

/// How the global exchange interleaves with the compute that consumes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeSchedule {
    /// Stream the all-to-all at segment granularity and run each owned
    /// segment's F_{M'} + demodulation the moment its rows land, hiding
    /// per-segment compute under the remaining segments' traffic. The
    /// segment-major delivery layout doubles as the x̃ layout, so the
    /// post-exchange unpack pass disappears entirely.
    Overlapped,
    /// The pre-pipelined schedule: one barriered all-to-all, an unpack
    /// pass, then every F_{M'}, then demodulation. Kept as the ablation
    /// baseline and the bitwise reference the overlapped path must match.
    Barriered,
}

impl ExchangeSchedule {
    /// Process-wide default: `Overlapped`, unless `SOI_NO_OVERLAP` is set
    /// (mirroring `SOI_NO_SIMD` for the kernel ablation — read once, so a
    /// process never mixes schedules mid-run by accident).
    pub fn from_env() -> Self {
        if no_overlap_env() {
            ExchangeSchedule::Barriered
        } else {
            ExchangeSchedule::Overlapped
        }
    }
}

/// `SOI_NO_OVERLAP` set to anything but `""`/`"0"` forces the barriered
/// schedule (same contract as `SOI_NO_SIMD`).
fn no_overlap_env() -> bool {
    static V: OnceLock<bool> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("SOI_NO_OVERLAP")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// A prepared distributed SOI transform (shared read-only across ranks).
#[derive(Debug)]
pub struct DistSoiFft {
    soi: SoiFft,
}

impl DistSoiFft {
    /// Build from parameters (`P` must equal the cluster size at run time).
    pub fn new(params: &SoiParams) -> Result<Self, SoiError> {
        Ok(Self {
            soi: SoiFft::new(params)?,
        })
    }

    /// The resolved configuration.
    pub fn config(&self) -> &soi_core::SoiConfig {
        self.soi.config()
    }

    /// The underlying single-node object (plans + coefficient tables).
    pub fn local(&self) -> &SoiFft {
        &self.soi
    }

    /// Segments each rank of an `r`-rank cluster would own (`P/R`) in
    /// the complex transform.
    ///
    /// # Errors
    /// [`SoiError::BadRankCount`] if `r` does not divide the configured
    /// segment count; [`SoiError::BadAlignment`] if the per-rank row count
    /// would not align with the μ-row coefficient chunks.
    pub fn segments_per_rank(&self, ranks: usize) -> Result<usize, SoiError> {
        self.owned_segments::<Complex64>(ranks)
    }

    /// The one geometry check: the segments of the kept spectrum (`P`,
    /// or `P/2` for real input) each of `ranks` ranks owns.
    ///
    /// # Errors
    /// [`SoiError::BadSize`] for real input with an odd segment count
    /// (the Hermitian fold pairs lane `s` with lane `P−s`);
    /// [`SoiError::BadRankCount`] if `ranks` does not divide the kept
    /// segment count; [`SoiError::BadAlignment`] if the per-rank row count
    /// would not align with the μ-row coefficient chunks.
    fn owned_segments<S: Domain>(&self, ranks: usize) -> Result<usize, SoiError> {
        let cfg = self.soi.config();
        let kept = S::kept_segments(cfg.p)?;
        if ranks < 1 || kept % ranks != 0 {
            let what = if S::REAL { "the half-segment count P/2" } else { "segment count P" };
            return Err(SoiError::BadRankCount(format!(
                "rank count {ranks} must divide {what} = {kept}"
            )));
        }
        let rows = cfg.m_prime / ranks;
        if !rows.is_multiple_of(cfg.mu) {
            return Err(SoiError::BadAlignment(format!(
                "rows per rank {rows} must align with mu = {} chunks",
                cfg.mu
            )));
        }
        Ok(kept / ranks)
    }

    /// [`Self::execute`] with the process-wide exchange schedule
    /// ([`ExchangeSchedule::from_env`]) and no boundary hook — the
    /// paper's hybrid model (ranks for the all-to-all, threads from
    /// `pool` for the node-local convolution, batch F_P, pack, and
    /// F_{M'}). Pass [`ThreadPool::serial`] for serial per-rank compute.
    pub fn run_with<C, S>(
        &self,
        comm: &mut C,
        x_local: &[S],
        policy: ChargePolicy,
        pool: &ThreadPool,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError>
    where
        C: Communicator,
        S: Domain + Pod,
    {
        self.execute(comm, x_local, policy, pool, ExchangeSchedule::from_env(), |_, _| Ok(()))
    }

    /// Execute on one rank of an `R`-rank cluster. Generic over the
    /// transport: the same code runs on the simulated cluster and over
    /// real sockets.
    ///
    /// `x_local` is this rank's `N/R` input samples, complex or real.
    /// Complex input: `R` divides `P`, each rank owns `c = P/R` segments
    /// and returns its `c·M` output points. Real input (r2c) runs the
    /// same phases with the redundancy of a real signal removed: the
    /// halo moves raw `f64`s (half the bytes), the convolution runs the
    /// halved real kernel, and the all-to-all carries only the first
    /// `P/2` segments, since conjugate symmetry (`X[N−k] = conj(X[k])`)
    /// makes segments `P/2..P` derivable from the kept half — half the
    /// exchange volume. `R` then divides `P/2`; each rank returns the
    /// `(P/2)/R · M` packed half-spectrum bins of its owned segments and
    /// the LAST rank appends the Nyquist bin `y[N/2]`, so concatenating
    /// rank outputs yields the `N/2 + 1`-point packed half-spectrum of
    /// [`SoiFft::transform`].
    ///
    /// Chunk boundaries are deterministic, so the output is bitwise
    /// identical for any worker count in `pool`, and under both
    /// `schedule`s.
    ///
    /// `hook(comm, k)` fires at boundary `k ∈ 0..=7` — the seam the
    /// checkpoint/recovery layer ([`crate::recover`]) hangs off: `0`
    /// before the halo exchange, then after each phase in pipeline order
    /// — `1` halo, `2` convolution, `3` F_P batch, `4` pack, `5`
    /// all-to-all (+unpack), `6` F_{M'}, `7` demodulation (i.e. run
    /// complete). An `Err` from the hook aborts the run at that boundary
    /// and propagates; a fault injector uses this to crash a rank at an
    /// exact point, a checkpoint writer to persist progress. The hook
    /// runs *outside* phase trace spans and is not charged to any phase,
    /// so a no-op hook leaves the run observationally identical to
    /// [`Self::run_with`].
    ///
    /// Under [`ExchangeSchedule::Overlapped`] the exchange, F_{M'}, and
    /// demodulation fuse into one streamed region; boundaries `5`–`7`
    /// then fire back-to-back after it. Both checkpoint consumers store
    /// phase *inputs*, so replay from any boundary is
    /// schedule-independent.
    ///
    /// # Errors
    /// The geometry errors of [`Self::segments_per_rank`] (and, for real
    /// input, [`SoiError::BadSize`] on an odd `P`);
    /// [`SoiError::BadInput`] if `x_local` is not `N/R` samples;
    /// [`SoiError::Comm`] from the transport; any error of `hook`.
    pub fn execute<C, S, F>(
        &self,
        comm: &mut C,
        x_local: &[S],
        policy: ChargePolicy,
        pool: &ThreadPool,
        schedule: ExchangeSchedule,
        mut hook: F,
    ) -> Result<(Vec<Complex64>, PhaseTimes), SoiError>
    where
        C: Communicator,
        S: Domain + Pod,
        F: FnMut(&mut C, usize) -> Result<(), SoiError>,
    {
        let cfg = *self.soi.config();
        let ranks = comm.size();
        let c = self.owned_segments::<S>(ranks)?;
        let local_pts = cfg.n / ranks;
        if x_local.len() != local_pts {
            return Err(SoiError::BadInput {
                expected: local_pts,
                got: x_local.len(),
            });
        }
        let rank = comm.rank();
        let p = cfg.p;
        let kept = c * ranks; // segments computed cluster-wide
        let rows = cfg.m_prime / ranks; // P-groups computed on this rank
        let out_pts = c * cfg.m; // owned output bins
        let mut times = PhaseTimes::default();
        // Cloned handle so phase spans interleave with `&mut comm` calls;
        // clones share one buffer (disabled outside traced runs).
        let trace = comm.trace_handle();

        hook(comm, 0)?;

        // 1. Halo exchange: my first halo_len points go to the LEFT
        // neighbor (whose window overruns into my block); I receive the
        // prefix of my RIGHT neighbor.
        trace.span_begin("halo", comm.clock_now());
        let c0 = comm.comm_seconds();
        let left = (rank + ranks - 1) % ranks;
        let right = (rank + 1) % ranks;
        let halo = comm.sendrecv(left, &x_local[..cfg.halo_len()], right)?;
        times.halo = comm.comm_seconds() - c0;
        trace.span_end("halo", comm.clock_now());
        hook(comm, 1)?;

        let mut xext = Vec::with_capacity(local_pts + cfg.halo_len());
        xext.extend_from_slice(x_local);
        xext.extend_from_slice(&halo);

        // 2. Convolution over my row range (global rows r·rows..(r+1)·rows;
        // the coefficient table is row-periodic with period μ | rows, so
        // the kernel runs rank-relative unchanged).
        trace.span_begin("conv", comm.clock_now());
        let t0 = Instant::now();
        let mut v = vec![Complex64::ZERO; rows * p];
        S::convolve_pooled(self.soi.shape(), self.soi.coefficients(), &xext, &mut v, pool);
        let dt = policy.charge(
            WorkKind::Conv,
            conv_flops(rows * p, cfg.b) * S::CONV_WORK,
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.conv = dt;
        trace.span_end("conv", comm.clock_now());
        hook(comm, 2)?;

        // 3. I ⊗ F_P over the local groups — the full complex batch for
        // real input too: every lane participates as F_P input; the
        // redundancy only becomes droppable after the per-group transform.
        trace.span_begin("fft_p", comm.clock_now());
        let t0 = Instant::now();
        let batch = self.soi.batch_p();
        let mut batch_scratch =
            vec![Complex64::ZERO; pool.threads().min(rows).max(1) * batch.scratch_len()];
        batch.execute_pooled(&mut v, pool, &mut batch_scratch);
        let dt = policy.charge(
            WorkKind::Fft,
            rows as f64 * fft_flops(p),
            t0.elapsed().as_secs_f64(),
        );
        comm.charge_compute(dt);
        times.fft_small = dt;
        trace.span_end("fft_p", comm.clock_now());
        hook(comm, 3)?;

        trace.span_begin("pack", comm.clock_now());
        // 4. Pack (Fig 3's local permutation): destination-major, and
        // within a destination segment-major — rank d gets, for each of
        // its segments s, my rows' lane-s values in row order.
        let t0 = Instant::now();
        let mut send = vec![Complex64::ZERO; rows * kept];
        // v is (rows × p) row-major; transposing its first `kept` lanes
        // gives lane-major (kept × rows), which concatenates lanes
        // s = 0..kept in order — and destination d's block is exactly
        // lanes [d·c, (d+1)·c), already segment-major. For real input
        // lanes P/2..P are the mirror conjugates of the kept half, so
        // they never enter the send buffer.
        soi_fft::permute::transpose_partial_pooled(&v, &mut send, rows, p, kept, pool);
        let pack_bytes = ((rows * (p + kept)) * std::mem::size_of::<Complex64>()) as f64;
        let dt = policy.charge(WorkKind::Mem, pack_bytes, t0.elapsed().as_secs_f64());
        comm.charge_compute(dt);
        times.pack = dt;
        trace.span_end("pack", comm.clock_now());
        hook(comm, 4)?;

        // Real input: y[N/2] = Σ_j (−1)^j x_j is the one output the kept
        // segments cannot produce. Every rank folds its own slice —
        // local origins sit at even global offsets (N/R = 2·c·M), so the
        // alternating signs line up — and the rank-order allreduce
        // combines the partials bitwise identically on every fabric.
        let nyquist = match S::nyquist(x_local) {
            Some(partial) => {
                let c0 = comm.comm_seconds();
                let sum = comm.allreduce_sum(partial)?;
                times.exchange += comm.comm_seconds() - c0;
                Some(Complex64::new(sum, 0.0))
            }
            None => None,
        };

        let mut y = if schedule == ExchangeSchedule::Overlapped {
            // 5–7 fused. The streamed exchange delivers segment-major, so
            // each landing sub-block already sits in its x̃ slot (delivery
            // IS the unpack), and the moment segment `si` completes its
            // F_{M'} + demodulation run inside the collective — hidden
            // under the remaining segments' traffic. Per-segment math is
            // identical to the barriered arm (independent segments, same
            // serial kernels), so the output is bitwise identical.
            trace.span_begin("exchange", comm.clock_now());
            let c0 = comm.comm_seconds();
            let mut xt = vec![Complex64::ZERO; c * cfg.m_prime];
            let mut y = vec![Complex64::ZERO; out_pts];
            let mut scratch = vec![Complex64::ZERO; self.soi.plan_m().scratch_len()];
            let demod = &self.soi.coefficients().demod;
            let (mut fft_wall, mut demod_wall) = (0.0f64, 0.0f64);
            let trace_cb = &trace;
            let y_out = &mut y;
            comm.all_to_all_seg(&send, &mut xt, c, &mut |si, seg, clock| {
                trace_cb.span_begin("fft_m", clock);
                let t0 = Instant::now();
                self.soi.plan_m().execute_with_scratch(seg, &mut scratch);
                fft_wall += t0.elapsed().as_secs_f64();
                trace_cb.span_end("fft_m", clock);
                trace_cb.span_begin("demod", clock);
                let t0 = Instant::now();
                for k in 0..cfg.m {
                    y_out[si * cfg.m + k] = seg[k] * demod[k];
                }
                demod_wall += t0.elapsed().as_secs_f64();
                trace_cb.span_end("demod", clock);
            })?;
            times.exchange += comm.comm_seconds() - c0;
            trace.span_end("exchange", comm.clock_now());

            // Compute was measured inside the callbacks (the transports
            // exclude it from comm time); charge it once per phase so the
            // ledger matches the barriered breakdown.
            let dt = policy.charge(WorkKind::Fft, c as f64 * fft_flops(cfg.m_prime), fft_wall);
            comm.charge_compute(dt);
            times.fft_large = dt;
            let dt = policy.charge(
                WorkKind::Mem,
                2.0 * (out_pts * std::mem::size_of::<Complex64>()) as f64,
                demod_wall,
            );
            comm.charge_compute(dt);
            times.scale = dt;

            // The fused region crossed boundaries 5–7 at once; fire the
            // hooks in pipeline order (both checkpoint consumers persist
            // phase inputs, so replay semantics match the barriered arm).
            hook(comm, 5)?;
            hook(comm, 6)?;
            hook(comm, 7)?;
            y
        } else {
            // 5. THE all-to-all. From src I receive its rows for each of my
            // c segments: recv[src·c·rows + si·rows + jl] = x̃^{(my seg si)}[src·rows + jl].
            trace.span_begin("exchange", comm.clock_now());
            let c0 = comm.comm_seconds();
            let mut recv = vec![Complex64::ZERO; c * cfg.m_prime];
            comm.all_to_all(&send, &mut recv)?;
            times.exchange += comm.comm_seconds() - c0;
            trace.span_end("exchange", comm.clock_now());

            // 5b. Unpack into per-segment x̃ vectors (a second local
            // permutation; a no-op copy when c = 1).
            trace.span_begin("pack", comm.clock_now());
            let t0 = Instant::now();
            let mut xt = vec![Complex64::ZERO; c * cfg.m_prime];
            for src in 0..ranks {
                for si in 0..c {
                    let from = &recv[(src * c + si) * rows..(src * c + si + 1) * rows];
                    xt[si * cfg.m_prime + src * rows..si * cfg.m_prime + (src + 1) * rows]
                        .copy_from_slice(from);
                }
            }
            let dt = policy.charge(
                WorkKind::Mem,
                2.0 * (xt.len() * std::mem::size_of::<Complex64>()) as f64,
                t0.elapsed().as_secs_f64(),
            );
            comm.charge_compute(dt);
            times.pack += dt;
            trace.span_end("pack", comm.clock_now());
            hook(comm, 5)?;

            // 6. F_{M'} per owned segment, one scratch stripe per worker.
            trace.span_begin("fft_m", comm.clock_now());
            let t0 = Instant::now();
            let scr_len = self.soi.plan_m().scratch_len();
            let parts = pool.threads().min(c).max(1);
            let mut scratch = vec![Complex64::ZERO; parts * scr_len];
            if parts == 1 {
                for seg in xt.chunks_exact_mut(cfg.m_prime) {
                    self.soi.plan_m().execute_with_scratch(seg, &mut scratch);
                }
            } else {
                let xt_ptr = SlicePtr::new(&mut xt);
                let scr_ptr = SlicePtr::new(&mut scratch);
                pool.run(parts, |t| {
                    let (s0, sl) = part_range(c, parts, t);
                    // SAFETY: segment ranges are disjoint across tasks and each
                    // task owns scratch stripe `t`; borrows end at the barrier.
                    let scr = unsafe { scr_ptr.slice(t * scr_len, scr_len) };
                    for si in s0..s0 + sl {
                        let seg = unsafe { xt_ptr.slice(si * cfg.m_prime, cfg.m_prime) };
                        self.soi.plan_m().execute_with_scratch(seg, scr);
                    }
                });
            }
            let dt = policy.charge(
                WorkKind::Fft,
                c as f64 * fft_flops(cfg.m_prime),
                t0.elapsed().as_secs_f64(),
            );
            comm.charge_compute(dt);
            times.fft_large = dt;
            trace.span_end("fft_m", comm.clock_now());
            hook(comm, 6)?;

            // 7. Project + demodulate each segment.
            trace.span_begin("demod", comm.clock_now());
            let t0 = Instant::now();
            let demod = &self.soi.coefficients().demod;
            let mut y = Vec::with_capacity(out_pts + 1);
            for si in 0..c {
                let seg = &xt[si * cfg.m_prime..(si + 1) * cfg.m_prime];
                y.extend((0..cfg.m).map(|k| seg[k] * demod[k]));
            }
            let dt = policy.charge(
                WorkKind::Mem,
                2.0 * (out_pts * std::mem::size_of::<Complex64>()) as f64,
                t0.elapsed().as_secs_f64(),
            );
            comm.charge_compute(dt);
            times.scale = dt;
            trace.span_end("demod", comm.clock_now());
            hook(comm, 7)?;
            y
        };

        // The last rank completes the packed half-spectrum.
        if let (Some(nyq), true) = (nyquist, rank == ranks - 1) {
            y.push(nyq);
        }
        Ok((y, times))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_num::complex::rel_l2_error;
    use soi_simnet::{Cluster, Fabric};
    use soi_window::AccuracyPreset;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    fn run_distributed(n: usize, p: usize, preset: AccuracyPreset) -> Vec<Complex64> {
        let params = SoiParams::with_preset(n, p, preset).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let xr = &x;
        let distr = &dist;
        let m = n / p;
        let pieces = Cluster::ideal(p).run_collect(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            distr
                .run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
                .expect("soi run")
                .0
        });
        pieces.into_iter().flatten().collect()
    }

    #[test]
    fn distributed_matches_exact_fft() {
        let n = 1 << 12;
        let y = run_distributed(n, 4, AccuracyPreset::Digits10);
        let exact = soi_fft::fft_forward(&signal(n));
        let err = rel_l2_error(&y, &exact);
        assert!(err < 2e-7, "err = {err:e}"); // Digits10 bound: κ·(ε_alias+ε_trunc) ≲ 2e-8
    }

    #[test]
    fn distributed_matches_single_process_soi_exactly_in_structure() {
        // Same window/params ⇒ distributed and single-process SOI should
        // agree to near machine precision (identical math, different
        // data motion).
        let n = 1 << 12;
        let p = 4;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits12).unwrap();
        let serial = SoiFft::new(&params).unwrap();
        let want = serial.transform(&signal(n)).unwrap();
        let got = run_distributed(n, p, AccuracyPreset::Digits12);
        let err = rel_l2_error(&got, &want);
        assert!(err < 1e-13, "distributed vs serial SOI: {err:e}");
    }

    #[test]
    fn eight_ranks_work() {
        let n = 1 << 14;
        let y = run_distributed(n, 8, AccuracyPreset::Digits10);
        let exact = soi_fft::fft_forward(&signal(n));
        assert!(rel_l2_error(&y, &exact) < 2e-7); // κ-aware Digits10 bound
    }

    #[test]
    fn exactly_one_all_to_all_happens() {
        // The paper's headline property, asserted mechanically.
        let n = 1 << 12;
        let p = 4;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let (xr, distr, m) = (&x, &dist, n / p);
        let reports = Cluster::new(p, Fabric::ethernet_10g()).run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            distr
                .run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
                .expect("soi run")
                .0
        });
        for (_, rep) in &reports {
            assert_eq!(rep.stats.all_to_alls, 1, "SOI must use exactly one all-to-all");
            // Plus exactly one halo p2p message.
            assert_eq!(rep.stats.p2p_messages, 1);
        }
    }

    #[test]
    fn phase_times_are_populated() {
        let n = 1 << 12;
        let p = 4;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let (xr, distr, m) = (&x, &dist, n / p);
        let rates = ChargePolicy::Rates(crate::rates::ComputeRates::paper_node());
        let out = Cluster::new(p, Fabric::ethernet_10g()).run(move |comm| {
            let local = &xr[comm.rank() * m..(comm.rank() + 1) * m];
            distr.run_with(comm, local, rates, &ThreadPool::serial()).expect("soi run").1
        });
        for (times, rep) in &out {
            assert!(times.conv > 0.0);
            assert!(times.fft_small > 0.0);
            assert!(times.fft_large > 0.0);
            assert!(times.exchange > 0.0);
            assert!(times.pack > 0.0);
            // Rank virtual clock ≈ phases total.
            let total = times.total();
            assert!(
                (rep.sim_time - total).abs() < 0.2 * total + 1e-6,
                "clock {} vs phases {}",
                rep.sim_time,
                total
            );
        }
    }

    #[test]
    fn threaded_rank_compute_matches_serial_bitwise() {
        // MPI+OpenMP hybrid: each of 2 ranks runs its compute on 3
        // workers; the output must not move by a single ulp.
        let n = 1 << 13;
        let p = 8;
        let ranks = 2;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let per_rank = n / ranks;
        let (xr, distr) = (&x, &dist);
        let collect = |workers: usize| -> Vec<Complex64> {
            Cluster::ideal(ranks)
                .run_collect(move |comm| {
                    let local = &xr[comm.rank() * per_rank..(comm.rank() + 1) * per_rank];
                    let pool = soi_pool::ThreadPool::new(workers);
                    distr
                        .run_with(comm, local, ChargePolicy::WallClock, &pool)
                        .expect("soi run")
                        .0
                })
                .into_iter()
                .flatten()
                .collect()
        };
        let serial = collect(1);
        for workers in [2usize, 3, 4] {
            let threaded = collect(workers);
            let same = serial
                .iter()
                .zip(&threaded)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            assert!(same, "hybrid run with {workers} workers diverged from serial");
        }
    }

    #[test]
    #[should_panic(expected = "must divide segment count")]
    fn non_dividing_cluster_size_panics() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        // The raw-assert era panicked here; the Result API keeps the
        // same observable contract through `.expect`.
        let _ = dist.segments_per_rank(3).expect("cluster size");
    }

    #[test]
    fn multiple_segments_per_rank_match_exact_fft() {
        // §6a / Table 1: the paper ran 8 segments per MPI process. Here:
        // P = 8 segments on R = 2 ranks (c = 4 per rank).
        let n = 1 << 13;
        let p = 8;
        let ranks = 2;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits10).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        assert_eq!(dist.segments_per_rank(ranks), Ok(4));
        let x = signal(n);
        let per_rank = n / ranks;
        let (xr, distr) = (&x, &dist);
        let y: Vec<Complex64> = Cluster::ideal(ranks)
            .run_collect(move |comm| {
                let local = &xr[comm.rank() * per_rank..(comm.rank() + 1) * per_rank];
                distr
                    .run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
                    .expect("soi run")
                    .0
            })
            .into_iter()
            .flatten()
            .collect();
        let exact = soi_fft::fft_forward(&x);
        let err = rel_l2_error(&y, &exact);
        assert!(err < 2e-7, "multi-segment err = {err:e}");
    }

    #[test]
    fn multi_segment_agrees_with_one_segment_per_rank_bitwise_shape() {
        // Running P = 8 segments on 8, 4, 2 ranks must give the same
        // answer to rounding level — only the data motion differs.
        let n = 1 << 13;
        let p = 8;
        let params = SoiParams::with_preset(n, p, AccuracyPreset::Digits12).unwrap();
        let dist = DistSoiFft::new(&params).unwrap();
        let x = signal(n);
        let (xr, distr) = (&x, &dist);
        let mut outputs = Vec::new();
        for ranks in [8usize, 4, 2, 1] {
            let per_rank = n / ranks;
            let y: Vec<Complex64> = Cluster::ideal(ranks)
                .run_collect(move |comm| {
                    let local = &xr[comm.rank() * per_rank..(comm.rank() + 1) * per_rank];
                    distr
                        .run_with(comm, local, ChargePolicy::WallClock, &ThreadPool::serial())
                        .expect("soi run")
                        .0
                })
                .into_iter()
                .flatten()
                .collect();
            outputs.push(y);
        }
        for pair in outputs.windows(2) {
            let err = rel_l2_error(&pair[0], &pair[1]);
            assert!(err < 1e-14, "rank layouts disagree: {err:e}");
        }
    }
}
