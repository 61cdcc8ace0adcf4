//! Reusable execution state for the SOI pipeline: one worker pool plus
//! every intermediate buffer [`SoiFft::transform_into`] touches.
//!
//! The four-stage transform needs four `O(N')` buffers (extended input,
//! convolution output, permuted segments, per-worker FFT scratch). The
//! original `transform` heap-allocated all of them per call; a
//! [`SoiWorkspace`] hoists them into an arena built once per
//! configuration, so steady-state calls allocate nothing and the worker
//! pool persists across calls (spawn once, park between jobs).
//!
//! **Reuse contract.** A workspace is bound to the exact configuration of
//! the [`SoiFft`] it was built from (sizes *and* FFT engine scratch
//! shapes). Passing it to a transform with a different configuration is
//! reported as [`SoiError::WorkspaceMismatch`]; reusing it across calls
//! of the same transform is the intended pattern and never requires
//! re-zeroing — every buffer region that is read is written first.

use crate::domain::Domain;
use crate::error::SoiError;
use crate::pipeline::SoiFft;
use soi_num::{AlignedBuf, Complex64};
use soi_pool::ThreadPool;
use soi_trace::Trace;
use std::sync::Arc;

/// Preallocated buffers + worker pool for allocation-free SOI execution
/// on input samples of type `S` ([`Complex64`] or `f64`).
#[derive(Debug)]
pub struct Workspace<S: Domain> {
    pub(crate) pool: Arc<ThreadPool>,
    /// Extended input: `N` samples followed by the circular halo (real
    /// input streams half the bytes of complex).
    /// All four arena buffers are [`AlignedBuf`]s: a plain `Vec` this
    /// large is mmap-served at a 16-byte offset, which costs the SIMD
    /// kernels ~25% in straddled cache-line loads.
    pub(crate) xext: AlignedBuf<S>,
    /// Convolution output / `F_P` batch buffer (`N'`).
    pub(crate) v: AlignedBuf<Complex64>,
    /// Packed segment buffer: the kept segments of `M'` each (all `P`,
    /// or `P/2` for real input).
    pub(crate) seg: AlignedBuf<Complex64>,
    /// Per-worker FFT scratch arena: `threads` stripes of `stride`.
    pub(crate) scratch: AlignedBuf<Complex64>,
    /// Stripe width of `scratch` (max engine scratch length).
    pub(crate) stride: usize,
    /// Configuration fingerprint: `(n, p, m_prime, halo_len)`.
    pub(crate) shape: (usize, usize, usize, usize),
    /// Phase-span recorder for [`SoiFft::transform_into`] (disabled by
    /// default — a null check per stage, no allocation).
    pub(crate) trace: Trace,
}

/// The complex-input workspace.
pub type SoiWorkspace = Workspace<Complex64>;

/// The real-input (r2c) workspace.
pub type SoiRealWorkspace = Workspace<f64>;

impl<S: Domain> Workspace<S> {
    /// Build a workspace for `soi` with a fresh pool of `threads` workers
    /// (`1` = fully serial, spawns no threads).
    pub fn new(soi: &SoiFft, threads: usize) -> Self {
        Self::with_pool(soi, Arc::new(ThreadPool::new(threads)))
    }

    /// Build a workspace for `soi` on an existing (possibly shared) pool.
    pub fn with_pool(soi: &SoiFft, pool: Arc<ThreadPool>) -> Self {
        let cfg = soi.config();
        let stride = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len())
            // Whole cache lines per stripe (4 × 16-byte Complex64), so
            // every worker's stripe starts 64-byte aligned, not just the
            // arena base.
            .next_multiple_of(4);
        // A real workspace for an odd P is never run (the transform
        // rejects the geometry first), so it gets no segment buffer.
        let kept = S::kept_segments(cfg.p).unwrap_or(0);
        Self {
            xext: AlignedBuf::zeroed(cfg.n + cfg.halo_len()),
            v: AlignedBuf::zeroed(cfg.n_prime),
            seg: AlignedBuf::zeroed(kept * cfg.m_prime),
            scratch: AlignedBuf::zeroed(pool.threads() * stride),
            stride,
            shape: (cfg.n, cfg.p, cfg.m_prime, cfg.halo_len()),
            trace: Trace::disabled(),
            pool,
        }
    }

    /// Attach a trace handle: subsequent [`SoiFft::transform_into`] calls
    /// on this workspace emit one span per pipeline stage ("halo", "conv",
    /// "fft_p", "pack", "fft_m"). Pass [`Trace::disabled`] to detach.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The currently attached trace handle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The worker pool this workspace executes on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Shared handle to the pool (for building sibling workspaces).
    pub fn pool_arc(&self) -> Arc<ThreadPool> {
        Arc::clone(&self.pool)
    }

    /// Worker count, caller included.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Verify this workspace was built for `soi`'s configuration.
    pub(crate) fn check(&self, soi: &SoiFft) -> Result<(), SoiError> {
        let cfg = soi.config();
        let want = (cfg.n, cfg.p, cfg.m_prime, cfg.halo_len());
        let stride = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len());
        if self.shape != want || self.stride < stride {
            return Err(SoiError::WorkspaceMismatch(format!(
                "{} workspace built for (n, p, m', halo) = {:?} with scratch stride {}, \
                 transform needs {:?} with stride {}",
                if S::REAL { "real" } else { "complex" },
                self.shape,
                self.stride,
                want,
                stride
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SoiParams;
    use soi_window::AccuracyPreset;

    #[test]
    fn workspace_rejects_foreign_transform() {
        let a = SoiFft::new(&SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap())
            .unwrap();
        let b = SoiFft::new(&SoiParams::with_preset(1 << 13, 4, AccuracyPreset::Digits10).unwrap())
            .unwrap();
        let mut ws = SoiWorkspace::new(&a, 2);
        let x = vec![Complex64::ZERO; 1 << 13];
        let mut y = vec![Complex64::ZERO; 1 << 13];
        assert!(matches!(
            b.transform_into(&x, &mut y, &mut ws),
            Err(SoiError::WorkspaceMismatch(_))
        ));
        let mut ws = SoiRealWorkspace::new(&a, 2);
        let x = vec![0.0f64; 1 << 13];
        let mut y = vec![Complex64::ZERO; (1 << 12) + 1];
        assert!(matches!(
            b.transform_real_into(&x, &mut y, &mut ws),
            Err(SoiError::WorkspaceMismatch(msg)) if msg.starts_with("real workspace")
        ));
    }

    #[test]
    fn scratch_stride_is_exactly_the_larger_engine_requirement() {
        // The arena stripe must match the engines' exact scratch bounds
        // rounded to whole cache lines — a stride below either engine's
        // need would silently re-allocate per call (the fallback path), a
        // stride beyond the cache-line round-up wastes arena, and a
        // stride off a 64-byte multiple would misalign stripes 1..t.
        let soi =
            SoiFft::new(&SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap())
                .unwrap();
        let ws = SoiWorkspace::new(&soi, 3);
        let want = soi
            .batch_p()
            .scratch_len()
            .max(soi.plan_m().scratch_len())
            .next_multiple_of(4);
        assert_eq!(ws.stride, want);
        assert_eq!(ws.scratch.len(), 3 * want);
        assert_eq!(ws.scratch.as_ptr() as usize % 64, 0);
        // The mixed-radix M' engine needs more than M' elements; the pin
        // fails if Plan::scratch_len ever regresses to the flat `n`.
        assert!(soi.plan_m().scratch_len() > soi.config().m_prime);
    }

    #[test]
    fn workspace_shares_pool() {
        let soi =
            SoiFft::new(&SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap())
                .unwrap();
        let ws = SoiWorkspace::new(&soi, 3);
        assert_eq!(ws.threads(), 3);
        let sibling = SoiWorkspace::with_pool(&soi, ws.pool_arc());
        assert_eq!(sibling.threads(), 3);
    }
}
