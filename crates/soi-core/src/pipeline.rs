//! The complete SOI transform in a single address space.
//!
//! This is Eq. (6) executed end to end:
//!
//! ```text
//! y ≈ (I_P ⊗ Ŵ⁻¹·P_proj·F_{M'}) · P_perm^{P,N'} · (I_{M'} ⊗ F_P) · W · x
//! ```
//!
//! 1. `W·x` — the convolution ([`crate::conv`]), producing `M'` groups of
//!    `P` values from `x` plus a circular halo;
//! 2. `I_{M'} ⊗ F_P` — a batch of M' small FFTs over the groups;
//! 3. `P_perm^{P,N'}` — the stride permutation (distributed: the single
//!    all-to-all; here: a transpose);
//! 4. per segment: `F_{M'}`, project to the first `M` bins, demodulate.
//!
//! The distributed version in `soi-dist` runs the same four stages with
//! stage 3 as the one global exchange; this single-process form is the
//! correctness core and the per-node compute kernel.

use crate::coeff::ConvCoefficients;
use crate::conv::ConvShape;
use crate::domain::Domain;
use crate::error::SoiError;
use crate::params::{SoiConfig, SoiParams};
use crate::workspace::{SoiRealWorkspace, Workspace};
use soi_fft::batch::BatchFft;
use soi_fft::permute::transpose_partial_pooled;
use soi_fft::plan::{Direction, Plan, Planner};
use soi_num::Complex64;
use soi_pool::{part_range, SlicePtr, ThreadPool};
use std::sync::Arc;

/// Which `M` bins [`SoiFft::transform_zoom`] computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Zoom {
    /// Segment `s`: bins `[sM, (s+1)M)`, for `s < P`.
    Segment(usize),
    /// The band `[k0, k0+M)` (indices mod `N`), for any `k0 < N`.
    Band(usize),
}

/// A prepared single-process SOI FFT.
#[derive(Debug)]
pub struct SoiFft {
    cfg: SoiConfig,
    coeffs: ConvCoefficients,
    batch_p: BatchFft<f64>,
    plan_m: Arc<Plan<f64>>,
}

impl SoiFft {
    /// Build the transform: designs nothing (the window came with
    /// `params`), precomputes coefficient and demodulation tables and the
    /// two FFT plans. Both plans come from the process-wide
    /// [`Planner::global`] cache, so repeated constructions (and sibling
    /// transforms sharing `P` or `M'`) reuse one twiddle build.
    pub fn new(params: &SoiParams) -> Result<Self, SoiError> {
        let cfg = params.resolve();
        let coeffs = ConvCoefficients::new(&cfg);
        let planner = Planner::global();
        Ok(Self {
            cfg,
            coeffs,
            batch_p: BatchFft::with_plan(planner.plan(cfg.p, Direction::Forward), 1),
            plan_m: planner.plan(cfg.m_prime, Direction::Forward),
        })
    }

    /// The resolved configuration.
    pub fn config(&self) -> &SoiConfig {
        &self.cfg
    }

    /// The coefficient tables (exposed for the distributed driver and the
    /// benches).
    pub fn coefficients(&self) -> &ConvCoefficients {
        &self.coeffs
    }

    /// The prebuilt `F_{M'}` plan (shared with the distributed driver).
    pub fn plan_m(&self) -> &Plan<f64> {
        &self.plan_m
    }

    /// The prebuilt `I ⊗ F_P` batch executor.
    pub fn batch_p(&self) -> &BatchFft<f64> {
        &self.batch_p
    }

    /// Kernel shape for the convolution stage (`b` here is the *tap*
    /// block count `B+1`, see `SoiConfig::taps`).
    pub fn shape(&self) -> ConvShape {
        ConvShape {
            mu: self.cfg.mu,
            nu: self.cfg.nu,
            b: self.cfg.taps(),
            p: self.cfg.p,
        }
    }

    /// Full in-order forward DFT of `x` (length `N`), approximated to the
    /// window design's accuracy. Complex input yields all `N` bins; real
    /// input the packed half-spectrum `y[0..=N/2]` (see
    /// [`Self::transform_into`]).
    ///
    /// Convenience wrapper: builds a one-shot serial [`Workspace`] and
    /// delegates to [`Self::transform_into`]. For repeated transforms or
    /// threaded execution, hold a workspace and call `transform_into`
    /// directly.
    pub fn transform<S: Domain>(&self, x: &[S]) -> Result<Vec<Complex64>, SoiError> {
        let mut ws = Workspace::new(self, 1);
        let mut y = vec![Complex64::ZERO; S::out_len(self.cfg.n)];
        self.transform_into(x, &mut y, &mut ws)?;
        Ok(y)
    }

    /// The four-stage transform into a caller buffer, reusing `ws` for
    /// every intermediate: zero allocations in steady state, executed on
    /// `ws`'s worker pool.
    ///
    /// Complex input fills all `N` bins. Real input (r2c) fills the
    /// packed half-spectrum `y[0..=N/2]`, `N/2 + 1` bins; the remaining
    /// bins are redundant by conjugate-even symmetry
    /// (`y[N−k] = conj(y[k])`). The stage sequence is the same; for real
    /// input (a) the convolution runs on the real samples directly — two
    /// real FMAs per tap instead of four, half the input bytes; (b) the
    /// pack keeps only the non-redundant `P/2` segment lanes after `F_P`
    /// (lane `P−s` is the conjugate mirror of lane `s` bin-reversed);
    /// (c) `F_{M'}` + fused demodulation run on those `P/2` segments
    /// only; and (d) the Nyquist bin is the exact alternating fold
    /// [`nyquist_fold`]. Segments `0..P/2` run the byte-for-byte same
    /// arithmetic as the complex path on the embedded input, so bins
    /// `0..N/2` are bitwise identical to it. Real input requires an even
    /// segment count `P`.
    ///
    /// Determinism: every parallel stage assigns each output element to
    /// exactly one pure task with deterministic chunk boundaries
    /// ([`soi_pool::part_range`]), so the result is **bitwise identical**
    /// for every worker count, including fully serial.
    pub fn transform_into<S: Domain>(
        &self,
        x: &[S],
        y: &mut [Complex64],
        ws: &mut Workspace<S>,
    ) -> Result<(), SoiError> {
        let cfg = &self.cfg;
        let kept = S::kept_segments(cfg.p)?;
        if x.len() != cfg.n {
            return Err(SoiError::BadInput {
                expected: cfg.n,
                got: x.len(),
            });
        }
        if y.len() != S::out_len(cfg.n) {
            return Err(SoiError::BadInput {
                expected: S::out_len(cfg.n),
                got: y.len(),
            });
        }
        ws.check(self)?;
        let Workspace {
            pool,
            xext,
            v,
            seg,
            scratch,
            stride,
            trace,
            ..
        } = ws;
        let pool: &ThreadPool = pool;
        let trace: &soi_trace::Trace = trace;
        // Stage 1: convolution over x extended with the circular halo.
        trace.span_begin("halo", None);
        xext[..cfg.n].copy_from_slice(x);
        let (head, halo) = xext.split_at_mut(cfg.n);
        halo.copy_from_slice(&head[..cfg.halo_len()]);
        trace.span_end("halo", None);
        trace.span_begin("conv", None);
        S::convolve_pooled(self.shape(), &self.coeffs, xext, v, pool);
        trace.span_end("conv", None);
        // Stage 2: M' independent F_P over the contiguous groups.
        trace.span_begin("fft_p", None);
        self.batch_p.execute_pooled(v, pool, scratch);
        trace.span_end("fft_p", None);
        // Stage 3: stride permutation — group-major (j,s) → segment-major
        // (s,j), keeping the computed segments only. In the distributed
        // algorithm this is the all-to-all.
        trace.span_begin("pack", None);
        transpose_partial_pooled(v, seg, cfg.m_prime, cfg.p, kept, pool);
        trace.span_end("pack", None);
        trace.span_begin("fft_m", None);
        // Stage 4: per segment, F_{M'} with the projection + Ŵ⁻¹
        // demodulation fused into the FFT's final output pass
        // (`execute_fused_into` — bitwise identical to transform-then-
        // multiply, but skips one full sweep over the M' points per
        // segment). Segments are independent, so fan them across the
        // pool, one scratch stripe per worker.
        let parts = pool.threads().min(kept).max(1);
        let scr_len = self.plan_m.scratch_len();
        if parts == 1 {
            for s in 0..kept {
                let row = &mut seg[s * cfg.m_prime..(s + 1) * cfg.m_prime];
                let out = &mut y[s * cfg.m..(s + 1) * cfg.m];
                self.plan_m
                    .execute_fused_into(row, &mut scratch[..scr_len], out, &self.coeffs.demod);
            }
        } else {
            let seg_ptr = SlicePtr::new(seg);
            let y_ptr = SlicePtr::new(y);
            let scr_ptr = SlicePtr::new(scratch);
            let stride = *stride;
            pool.run(parts, |t| {
                let (s0, sl) = part_range(kept, parts, t);
                // SAFETY: segment ranges are disjoint across tasks, each
                // task owns scratch stripe `t`, and all borrows end at the
                // `run` barrier.
                let scr = unsafe { scr_ptr.slice(t * stride, scr_len) };
                for s in s0..s0 + sl {
                    let row = unsafe { seg_ptr.slice(s * cfg.m_prime, cfg.m_prime) };
                    let out = unsafe { y_ptr.slice(s * cfg.m, cfg.m) };
                    self.plan_m
                        .execute_fused_into(row, scr, out, &self.coeffs.demod);
                }
            });
        }
        // Real input: the Nyquist bin is exact and costs O(N):
        // y_{N/2} = Σ x_j(−1)^j.
        if let Some(nyq) = S::nyquist(x) {
            y[cfg.n / 2] = Complex64::new(nyq, 0.0);
        }
        trace.span_end("fft_m", None);
        Ok(())
    }

    /// The real-input (r2c) [`Self::transform_into`] on a
    /// [`SoiRealWorkspace`]: `N/2 + 1` packed half-spectrum bins.
    pub fn transform_real_into(
        &self,
        x: &[f64],
        y: &mut [Complex64],
        ws: &mut SoiRealWorkspace,
    ) -> Result<(), SoiError> {
        self.transform_into(x, y, ws)
    }

    /// Inverse transform: recover `x` from a spectrum `y` such that
    /// `inverse(transform(x)) ≈ x`.
    ///
    /// Uses the conjugation identity `F_N⁻¹ y = conj(F_N conj(y))/N`, so
    /// the inverse inherits the forward path's single-all-to-all
    /// communication structure unchanged.
    pub fn inverse(&self, y: &[Complex64]) -> Result<Vec<Complex64>, SoiError> {
        let conj_y: Vec<Complex64> = y.iter().map(|v| v.conj()).collect();
        let z = self.transform(&conj_y)?;
        let scale = 1.0 / self.cfg.n as f64;
        Ok(z.into_iter().map(|v| v.conj().scale(scale)).collect())
    }

    /// Compute only segment `s` of the spectrum —
    /// `y_k for k ∈ [sM, (s+1)M)` — without touching the other segments.
    /// Serial [`Self::transform_zoom`] with [`Zoom::Segment`].
    pub fn transform_segment(&self, x: &[Complex64], s: usize) -> Result<Vec<Complex64>, SoiError> {
        self.transform_zoom(x, Zoom::Segment(s), &ThreadPool::serial())
    }

    /// Compute an arbitrary length-`M` band `y_k for k ∈ [k0, k0+M)` of
    /// the spectrum. Serial [`Self::transform_zoom`] with [`Zoom::Band`].
    pub fn transform_band(&self, x: &[Complex64], k0: usize) -> Result<Vec<Complex64>, SoiError> {
        self.transform_zoom(x, Zoom::Band(k0), &ThreadPool::serial())
    }

    /// Segment `s` of a **real** signal's spectrum, the r2c counterpart
    /// of [`Self::transform_segment`].
    pub fn transform_real_segment(&self, x: &[f64], s: usize) -> Result<Vec<Complex64>, SoiError> {
        self.transform_zoom(x, Zoom::Segment(s), &ThreadPool::serial())
    }

    /// A length-`M` band of a **real** signal's spectrum, the r2c
    /// counterpart of [`Self::transform_band`].
    pub fn transform_real_band(&self, x: &[f64], k0: usize) -> Result<Vec<Complex64>, SoiError> {
        self.transform_zoom(x, Zoom::Band(k0), &ThreadPool::serial())
    }

    /// Compute `M` bins of the spectrum without the others: one segment
    /// or an arbitrary band, of complex or real input (for real input
    /// any segment `s < P` is allowed; the mirror segments are still
    /// well-defined bins, just redundant).
    ///
    /// This is the Fig 1 story executed literally: phase-shift the input,
    /// convolve against the *contiguous* `BP`-tap window, take one
    /// `M'`-point FFT, demodulate. [`Zoom::Segment`] shifts by the
    /// P-periodic diagonal `Φ_s` (the DFT shift theorem of §5). For a
    /// general [`Zoom::Band`] start the modulation
    /// `x_j·e^{−2πi·k0·j/N}` is not periodic, but the segment-0
    /// extraction never needed that: it just convolves whatever time
    /// series it is given. Cost: `O(N + M'·BP + M' log M')`.
    ///
    /// The modulation and the row convolutions fan out across `pool`
    /// with deterministic chunking, so the result is bitwise identical
    /// for every worker count.
    ///
    /// # Errors
    /// [`SoiError::BadInput`] if `x` is not `N` samples;
    /// [`SoiError::OutOfRange`] for a segment `s ≥ P` or a band start
    /// `k0 ≥ N`.
    pub fn transform_zoom<S: Domain>(
        &self,
        x: &[S],
        zoom: Zoom,
        pool: &ThreadPool,
    ) -> Result<Vec<Complex64>, SoiError> {
        let cfg = &self.cfg;
        if x.len() != cfg.n {
            return Err(SoiError::BadInput {
                expected: cfg.n,
                got: x.len(),
            });
        }
        let (what, index, bound) = match zoom {
            Zoom::Segment(s) => ("segment", s, cfg.p),
            Zoom::Band(k0) => ("band start", k0, cfg.n),
        };
        if index >= bound {
            return Err(SoiError::OutOfRange { what, index, bound });
        }
        let phase = |l: usize| match zoom {
            // Φ_s x: modulation by ω^{s·l}, ω = e^{−2πi/P} (§5).
            Zoom::Segment(s) => Complex64::root_of_unity(s * (l % cfg.p), cfg.p),
            // z_j = x_j·e^{−2πi·k0·j/N} shifts bin k0 to bin 0.
            Zoom::Band(k0) => Complex64::root_of_unity(k0 * l % cfg.n, cfg.n),
        };
        // Modulate pointwise, then append the circular halo (the first
        // `halo_len` modulated points again). Every element is written
        // by exactly one pure task.
        let mut xp = vec![Complex64::ZERO; cfg.n + cfg.halo_len()];
        let parts = pool.threads().min(cfg.n).max(1);
        if parts == 1 {
            for (l, slot) in xp[..cfg.n].iter_mut().enumerate() {
                *slot = x[l].modulate(phase(l));
            }
        } else {
            let xp_ptr = SlicePtr::new(&mut xp);
            pool.run(parts, |t| {
                let (l0, ll) = part_range(cfg.n, parts, t);
                // SAFETY: element ranges are disjoint across tasks.
                let chunk = unsafe { xp_ptr.slice(l0, ll) };
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = x[l0 + i].modulate(phase(l0 + i));
                }
            });
        }
        let (head, halo) = xp.split_at_mut(cfg.n);
        halo.copy_from_slice(&head[..cfg.halo_len()]);
        Ok(self.zoom_core(&xp, pool))
    }

    /// Shared tail of the segment/band extraction: row `j` of `C₀` is a
    /// contiguous `BP`-tap inner product starting at block `k₀(j)` (the
    /// taps are the coefficient table rows concatenated over blocks),
    /// then one `F_{M'}` and the projection + demodulation. The row
    /// convolutions fan out across the pool.
    fn zoom_core(&self, xp: &[Complex64], pool: &ThreadPool) -> Vec<Complex64> {
        let cfg = &self.cfg;
        let shape = self.shape();
        let bp = shape.b * cfg.p;
        let row = |j: usize| -> Complex64 {
            let r = j % cfg.mu;
            let base = shape.k0(j) * cfg.p;
            let taps = &self.coeffs.coef[r * bp..(r + 1) * bp];
            let data = &xp[base..base + bp];
            let mut acc = Complex64::ZERO;
            for (t, d) in taps.iter().zip(data) {
                acc = t.mul_add(*d, acc);
            }
            acc
        };
        let mut xt = vec![Complex64::ZERO; cfg.m_prime];
        let parts = pool.threads().min(cfg.m_prime).max(1);
        if parts == 1 {
            for (j, slot) in xt.iter_mut().enumerate() {
                *slot = row(j);
            }
        } else {
            let xt_ptr = SlicePtr::new(&mut xt);
            pool.run(parts, |t| {
                let (j0, jl) = part_range(cfg.m_prime, parts, t);
                // SAFETY: row ranges are disjoint across tasks.
                let chunk = unsafe { xt_ptr.slice(j0, jl) };
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = row(j0 + i);
                }
            });
        }
        let mut scratch = soi_num::AlignedBuf::zeroed(self.plan_m.scratch_len());
        let mut out = vec![Complex64::ZERO; cfg.m];
        self.plan_m
            .execute_fused_into(&mut xt, &mut scratch, &mut out, &self.coeffs.demod);
        out
    }
}

/// Deterministic alternating fold `Σ_j x_j·(−1)^j` — the exact Nyquist
/// bin of a real signal whose first sample sits at an **even** global
/// index. Four fixed accumulator banks over 8-sample chunks, summed in a
/// fixed tree: bitwise identical run-to-run and independent of worker
/// count (it is never threaded). The distributed driver folds each
/// rank's slice with this same function (rank slices start at even
/// offsets because `M` is even whenever `P` is) and combines the
/// partials with the deterministic all-reduce.
pub fn nyquist_fold(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = x.chunks_exact(8);
    for c in &mut chunks {
        acc[0] += c[0] - c[1];
        acc[1] += c[2] - c[3];
        acc[2] += c[4] - c[5];
        acc[3] += c[6] - c[7];
    }
    let mut tail = 0.0;
    let mut sign = 1.0;
    for &v in chunks.remainder() {
        tail += sign * v;
        sign = -sign;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SoiWorkspace;
    use soi_fft::fft_forward;
    use soi_num::complex::rel_l2_error;
    use soi_num::stats::snr_db;
    use soi_window::AccuracyPreset;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    (i as f64 * 0.37).sin() + 0.3 * (i as f64 * 1.9).cos(),
                    (i as f64 * 0.11).cos() - 0.2,
                )
            })
            .collect()
    }

    #[test]
    fn matches_exact_fft_at_ten_digits() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let y = soi.transform(&x).unwrap();
        let exact = fft_forward(&x);
        let err = rel_l2_error(&y, &exact);
        // The paper's bound (§4): O(κ·(ε_fft + ε_alias + ε_trunc)).
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
        // And not absurdly better than designed (sanity that we measured
        // something real).
        assert!(err > 1e-16);
    }

    #[test]
    fn matches_exact_fft_at_full_accuracy() {
        let params = SoiParams::full_accuracy(1 << 14, 4).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 14);
        let y = soi.transform(&x).unwrap();
        let exact = fft_forward(&x);
        let snr = snr_db(&y, &exact);
        // §7.2: full-accuracy SOI sits around 290 dB (≈ one digit below a
        // standard FFT). Against an f64 reference we should comfortably
        // clear 260 dB.
        assert!(snr > 260.0, "snr = {snr} dB");
    }

    #[test]
    fn non_power_of_two_p() {
        // P = 5 exercises mixed-radix F_P and odd segment counts
        // (N = 10000 keeps m divisible by ν·P = 20).
        let params = SoiParams::with_preset(10_000, 5, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(10_000);
        let y = soi.transform(&x).unwrap();
        let exact = fft_forward(&x);
        let err = rel_l2_error(&y, &exact);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
    }

    #[test]
    fn segment_api_agrees_with_full_transform() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let full = soi.transform(&x).unwrap();
        let m = soi.config().m;
        for s in 0..4 {
            let seg = soi.transform_segment(&x, s).unwrap();
            let err = rel_l2_error(&seg, &full[s * m..(s + 1) * m]);
            assert!(err < 1e-10, "segment {s}: {err:e}");
        }
    }

    #[test]
    fn segment_matches_exact_spectrum_slice() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits11).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let exact = fft_forward(&x);
        let m = soi.config().m;
        let seg = soi.transform_segment(&x, 2).unwrap();
        let err = rel_l2_error(&seg, &exact[2 * m..3 * m]);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
    }

    #[test]
    fn linearity_of_whole_transform() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let a = signal(1 << 12);
        let b: Vec<Complex64> = signal(1 << 12).iter().map(|v| v.mul_neg_i()).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let ya = soi.transform(&a).unwrap();
        let yb = soi.transform(&b).unwrap();
        let ys = soi.transform(&sum).unwrap();
        for k in 0..ys.len() {
            assert!((ys[k] - (ya[k] + yb[k])).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_wrong_length() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(100);
        assert!(matches!(
            soi.transform(&x),
            Err(SoiError::BadInput { expected, got: 100 }) if expected == 1 << 12
        ));
    }

    #[test]
    fn zoom_rejects_out_of_range_segment_and_band() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let (x, xr) = (signal(1 << 12), real_signal(1 << 12));
        let pool = ThreadPool::new(2);
        let cases = [
            (Zoom::Segment(4), "segment", 4),
            (Zoom::Band(1 << 12), "band start", 1 << 12),
        ];
        for (zoom, what, bound) in cases {
            let want = SoiError::OutOfRange { what, index: bound, bound };
            assert_eq!(soi.transform_zoom(&x, zoom, &pool), Err(want.clone()));
            assert_eq!(soi.transform_zoom(&xr, zoom, &pool), Err(want));
        }
        assert!(soi.transform_band(&x, 99_999).is_err());
        assert!(soi.transform_real_segment(&xr, 4).is_err());
    }

    #[test]
    fn impulse_response_matches_aliasing_theory_per_bin() {
        // DFT of δ₀ is all-ones — the worst case for periodization
        // aliasing, since every alias image is coherent. The §3 theory
        // predicts the *exact* per-bin error:
        //   ỹ_k = Σ_p ŵ(k+pM')  ⇒  y_k − 1 = Σ_{p≠0} ŵ(k+pM')/ŵ(k).
        // Verify measurement against that prediction bin by bin.
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let mut x = vec![Complex64::ZERO; 1 << 12];
        x[0] = Complex64::ONE;
        let y = soi.transform(&x).unwrap();
        for k in (0..cfg.m).step_by(97).chain([0, 1, cfg.m - 1]) {
            let mut predicted = Complex64::ZERO;
            for p in [-2i64, -1, 1, 2] {
                predicted += crate::coeff::w_hat(&cfg, k as f64 + p as f64 * cfg.m_prime as f64);
            }
            let predicted = predicted * soi.coefficients().demod[k];
            // Each segment sees the same aliasing structure; check seg 0.
            let measured = y[k] - Complex64::ONE;
            let tol = 0.3 * predicted.abs() + 1e-12;
            assert!(
                (measured - predicted).abs() < tol,
                "bin {k}: measured {measured:?}, theory {predicted:?}"
            );
        }
    }

    #[test]
    fn band_api_matches_exact_spectrum_at_unaligned_offsets() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits11).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let x = signal(1 << 12);
        let exact = fft_forward(&x);
        let bound = 10.0 * cfg.predicted_error();
        for k0 in [0usize, 1, 777, cfg.m + 13, cfg.n - cfg.m / 2] {
            let band = soi.transform_band(&x, k0).unwrap();
            for (i, v) in band.iter().enumerate().step_by(113) {
                let want = exact[(k0 + i) % cfg.n];
                assert!(
                    (*v - want).abs() < bound * (1.0 + want.abs()) * 20.0,
                    "k0={k0} bin {i}: {v:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn band_at_aligned_offset_equals_segment_api() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let m = soi.config().m;
        let a = soi.transform_band(&x, 2 * m).unwrap();
        let b = soi.transform_segment(&x, 2).unwrap();
        assert!(rel_l2_error(&a, &b) < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let y = soi.transform(&x).unwrap();
        let back = soi.inverse(&y).unwrap();
        let err = rel_l2_error(&back, &x);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 20.0, "roundtrip err {err:e} vs bound {bound:e}");
    }

    #[test]
    fn inverse_matches_exact_ifft() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let y = signal(1 << 12);
        let got = soi.inverse(&y).unwrap();
        let want = soi_fft::fft_inverse(&y);
        let err = rel_l2_error(&got, &want);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "err {err:e} vs bound {bound:e}");
    }

    #[test]
    fn tracing_is_transparent_and_emits_stage_spans() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = signal(1 << 12);
        let mut ws_plain = SoiWorkspace::new(&soi, 2);
        let mut y_plain = vec![Complex64::ZERO; 1 << 12];
        soi.transform_into(&x, &mut y_plain, &mut ws_plain).unwrap();

        let mut ws_traced = SoiWorkspace::new(&soi, 2);
        ws_traced.set_trace(soi_trace::Trace::recording(0));
        let mut y_traced = vec![Complex64::ZERO; 1 << 12];
        soi.transform_into(&x, &mut y_traced, &mut ws_traced).unwrap();

        // Tracing must not perturb the numerics: bitwise identity.
        for (a, b) in y_plain.iter().zip(&y_traced) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        let events = ws_traced.trace().drain();
        let totals = soi_trace::phase_totals(&events);
        let names: Vec<&str> = totals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["halo", "conv", "fft_p", "pack", "fft_m"]);
        // The untraced workspace recorded nothing, and stays that way.
        assert!(ws_plain.trace().is_empty());
    }

    #[test]
    fn fused_stage4_is_bitwise_identical_to_unfused_reference() {
        // The production path fuses projection + demodulation into the
        // final FFT pass; rebuild the same pipeline from the public
        // pieces with the demodulation as a separate multiply loop and
        // demand bitwise identity (a far stronger statement than the SNR
        // bound, which it implies).
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let x = signal(1 << 12);
        let y = soi.transform(&x).unwrap();

        let mut xext = vec![Complex64::ZERO; cfg.n + cfg.halo_len()];
        xext[..cfg.n].copy_from_slice(&x);
        let (head, halo) = xext.split_at_mut(cfg.n);
        halo.copy_from_slice(&head[..cfg.halo_len()]);
        let mut v = vec![Complex64::ZERO; cfg.n_prime];
        crate::conv::convolve(soi.shape(), soi.coefficients(), &xext, &mut v);
        soi.batch_p().execute(&mut v);
        let mut seg = vec![Complex64::ZERO; cfg.n_prime];
        soi_fft::permute::stride_permute(&v, &mut seg, cfg.m_prime);
        let mut want = vec![Complex64::ZERO; cfg.n];
        let mut scratch = vec![Complex64::ZERO; soi.plan_m().scratch_len()];
        for s in 0..cfg.p {
            let row = &mut seg[s * cfg.m_prime..(s + 1) * cfg.m_prime];
            soi.plan_m().execute_with_scratch(row, &mut scratch);
            for k in 0..cfg.m {
                want[s * cfg.m + k] = row[k] * soi.coefficients().demod[k];
            }
        }
        for (k, (a, b)) in y.iter().zip(&want).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "bin {k}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "bin {k}");
        }
    }

    #[test]
    fn fused_stage4_on_four_step_engine_matches_exact_fft() {
        // N = 2^16, P = 2 puts M' = 40960 above the four-step threshold,
        // so this exercises the genuinely fused cache-blocked path end to
        // end (the 2^12 tests run the mixed-radix fallback).
        let params = SoiParams::with_preset(1 << 16, 2, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        assert_eq!(soi.plan_m().engine_name(), "four-step");
        let x = signal(1 << 16);
        let y = soi.transform(&x).unwrap();
        let exact = fft_forward(&x);
        let err = rel_l2_error(&y, &exact);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
    }

    #[test]
    fn plan_m_dispatches_no_generic_butterfly() {
        // M' always carries the oversampling factor 5 (μ/ν = 5/4); the
        // paper's kernel story requires it to hit the hand-written
        // radix-5 codelet, never the O(r²) generic butterfly.
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cs = soi.plan_m().codelets();
        assert!(
            cs.contains(&soi_fft::codelet::Codelet::Radix5),
            "M' = {} codelets: {cs:?}",
            soi.config().m_prime
        );
        assert!(cs.iter().all(|c| !c.is_generic()), "{cs:?}");
    }

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.3 * (i as f64 * 1.9).cos() - 0.1)
            .collect()
    }

    #[test]
    fn nyquist_fold_matches_naive_alternating_sum() {
        for n in [0usize, 1, 5, 8, 9, 16, 23, 1000] {
            let x = real_signal(n.max(1))[..n].to_vec();
            let naive: f64 = x
                .iter()
                .enumerate()
                .map(|(j, &v)| if j % 2 == 0 { v } else { -v })
                .sum();
            assert!((nyquist_fold(&x) - naive).abs() < 1e-12 * (n.max(1) as f64), "n={n}");
        }
    }

    #[test]
    fn real_transform_matches_exact_packed_rfft() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(1 << 12);
        let y = soi.transform(&x).unwrap();
        assert_eq!(y.len(), (1 << 11) + 1);
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let exact = fft_forward(&xc);
        let err = rel_l2_error(&y[..1 << 11], &exact[..1 << 11]);
        let bound = soi.config().predicted_error();
        assert!(err < bound * 10.0, "rel error {err:e} vs bound {bound:e}");
        // The Nyquist bin is the exact alternating fold, not an SOI
        // approximation — it should beat the bound outright.
        assert!((y[1 << 11] - exact[1 << 11]).abs() < 1e-9);
    }

    #[test]
    fn real_transform_is_bitwise_the_complex_transform_below_nyquist() {
        // Segments 0..P/2 of the r2c path run the byte-for-byte same
        // arithmetic as the complex path on the embedded input; demand
        // bitwise identity for every bin below Nyquist.
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(1 << 12);
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let yc = soi.transform(&xc).unwrap();
        let yr = soi.transform(&x).unwrap();
        for k in 0..1 << 11 {
            assert_eq!(yr[k].re.to_bits(), yc[k].re.to_bits(), "bin {k}");
            assert_eq!(yr[k].im.to_bits(), yc[k].im.to_bits(), "bin {k}");
        }
        // At Nyquist the r2c path is exact while the complex path is the
        // SOI approximation; they agree to the design bound.
        let bound = soi.config().predicted_error() * (1 << 12) as f64;
        assert!((yr[1 << 11] - yc[1 << 11]).abs() < bound);
    }

    #[test]
    fn real_transform_satisfies_hermitian_symmetry() {
        // The packed half-spectrum must mirror the complex transform's
        // upper half: y[N−k] = conj(y[k]).
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits11).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let x = real_signal(1 << 12);
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let yc = soi.transform(&xc).unwrap();
        let yr = soi.transform(&x).unwrap();
        let bound = cfg.predicted_error() * cfg.n as f64;
        for k in (1..cfg.n / 2).step_by(97).chain([1, cfg.n / 2 - 1]) {
            let mirror = yc[cfg.n - k];
            assert!(
                (yr[k].conj() - mirror).abs() < bound,
                "bin {k}: {:?} vs conj {:?}",
                yr[k],
                mirror
            );
        }
        // DC and Nyquist are real for real input: the DC imaginary part
        // is pure SOI approximation error, the Nyquist bin exactly zero
        // by construction.
        assert!(yr[0].im.abs() < bound, "DC imag {:e}", yr[0].im);
        assert_eq!(yr[cfg.n / 2].im, 0.0);
    }

    #[test]
    fn real_transform_is_bitwise_deterministic_across_worker_counts() {
        // P = 8 exercises the batched register-resident F_8 kernel in
        // stage 2 alongside the pooled real conv and partial pack.
        let params = SoiParams::with_preset(1 << 14, 8, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(1 << 14);
        let half = (1 << 13) + 1;
        let mut reference = vec![Complex64::ZERO; half];
        let mut ws1 = SoiRealWorkspace::new(&soi, 1);
        soi.transform_real_into(&x, &mut reference, &mut ws1).unwrap();
        // Run-to-run on a reused workspace.
        let mut again = vec![Complex64::ZERO; half];
        soi.transform_real_into(&x, &mut again, &mut ws1).unwrap();
        for (a, b) in reference.iter().zip(&again) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // Across worker counts.
        for workers in [2usize, 3, 4, 7] {
            let mut ws = SoiRealWorkspace::new(&soi, workers);
            let mut y = vec![Complex64::ZERO; half];
            soi.transform_real_into(&x, &mut y, &mut ws).unwrap();
            let same = reference
                .iter()
                .zip(&y)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            assert!(same, "workers={workers} drifted from serial");
        }
    }

    #[test]
    fn real_segment_and_band_agree_with_real_transform() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let cfg = *soi.config();
        let x = real_signal(1 << 12);
        let y = soi.transform(&x).unwrap();
        for s in 0..cfg.p / 2 {
            let seg = soi.transform_real_segment(&x, s).unwrap();
            let err = rel_l2_error(&seg, &y[s * cfg.m..(s + 1) * cfg.m]);
            assert!(err < 1e-10, "segment {s}: {err:e}");
        }
        // A mirror-half segment reproduces the conjugate bins.
        let seg = soi.transform_real_segment(&x, cfg.p - 1).unwrap();
        let bound = cfg.predicted_error() * cfg.n as f64;
        for i in (1..cfg.m).step_by(131) {
            let mirror = y[cfg.n - ((cfg.p - 1) * cfg.m + i)].conj();
            assert!((seg[i] - mirror).abs() < bound, "mirror bin {i}");
        }
        // Band at an aligned offset equals the segment API.
        let band = soi.transform_real_band(&x, cfg.m).unwrap();
        let seg1 = soi.transform_real_segment(&x, 1).unwrap();
        assert!(rel_l2_error(&band, &seg1) < 1e-12);
    }

    #[test]
    fn real_transform_rejects_odd_p_and_bad_lengths() {
        let params = SoiParams::with_preset(10_000, 5, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(10_000);
        assert!(matches!(
            soi.transform(&x),
            Err(SoiError::BadSize(msg)) if msg.contains("even")
        ));

        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        assert!(matches!(
            soi.transform(&real_signal(100)),
            Err(SoiError::BadInput { expected, got: 100 }) if expected == 1 << 12
        ));
        let mut ws = SoiRealWorkspace::new(&soi, 1);
        let mut y_short = vec![Complex64::ZERO; 1 << 11];
        assert!(matches!(
            soi.transform_real_into(&real_signal(1 << 12), &mut y_short, &mut ws),
            Err(SoiError::BadInput { expected, got }) if expected == (1 << 11) + 1 && got == 1 << 11
        ));
    }

    #[test]
    fn real_tracing_is_transparent_and_emits_stage_spans() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = real_signal(1 << 12);
        let half = (1 << 11) + 1;
        let mut ws_plain = SoiRealWorkspace::new(&soi, 2);
        let mut y_plain = vec![Complex64::ZERO; half];
        soi.transform_real_into(&x, &mut y_plain, &mut ws_plain).unwrap();

        let mut ws_traced = SoiRealWorkspace::new(&soi, 2);
        ws_traced.set_trace(soi_trace::Trace::recording(0));
        let mut y_traced = vec![Complex64::ZERO; half];
        soi.transform_real_into(&x, &mut y_traced, &mut ws_traced).unwrap();

        for (a, b) in y_plain.iter().zip(&y_traced) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        let events = ws_traced.trace().drain();
        let totals = soi_trace::phase_totals(&events);
        let names: Vec<&str> = totals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["halo", "conv", "fft_p", "pack", "fft_m"]);
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 1 << 12;
        let params = SoiParams::with_preset(n, 4, AccuracyPreset::Digits12).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let f = 1234;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (f * j % n) as f64 / n as f64))
            .collect();
        let y = soi.transform(&x).unwrap();
        assert!((y[f] - Complex64::new(n as f64, 0.0)).abs() < 1e-6 * n as f64);
        let leak: f64 = y
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != f)
            .map(|(_, v)| v.abs())
            .fold(0.0, f64::max);
        assert!(leak < 1e-7 * n as f64, "max leak {leak:e}");
    }
}
