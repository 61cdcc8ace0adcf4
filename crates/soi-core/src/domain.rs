//! The input domain of a transform: complex or real samples.
//!
//! Eq. (6) is one stage sequence whatever the input. Real input changes
//! only what enters it and what is kept: the extended input is a stream
//! of `f64`s, the convolution runs the halved real kernel, and after
//! `I ⊗ F_P` only the non-redundant segments `0..P/2` are packed and
//! transformed (for real `x`, lane `P−s` is the conjugate mirror of lane
//! `s`), with the Nyquist bin filled by the exact alternating fold.
//! [`Domain`] carries exactly those decisions, so the pipeline, the
//! workspace and the distributed driver are each written once and
//! monomorphized per domain.

use crate::coeff::ConvCoefficients;
use crate::conv::{convolve_pooled, convolve_real_pooled, ConvShape};
use crate::error::SoiError;
use crate::pipeline::nyquist_fold;
use soi_num::Complex64;
use soi_pool::ThreadPool;

mod sealed {
    pub trait Sealed {}
    impl Sealed for soi_num::Complex64 {}
    impl Sealed for f64 {}
}

/// A sample type the SOI stages accept: [`Complex64`] or `f64` (r2c).
/// Sealed: the two implementations are the only ones.
pub trait Domain:
    sealed::Sealed + Copy + Default + Send + Sync + std::fmt::Debug + 'static
{
    /// `true` for real samples, whose spectrum is conjugate-even.
    const REAL: bool;

    /// Convolution flops relative to the complex kernel: a real sample
    /// costs two real FMAs per tap instead of four.
    const CONV_WORK: f64;

    /// `W·x` over the extended input, fanned across `pool`.
    fn convolve_pooled(
        shape: ConvShape,
        coeffs: &ConvCoefficients,
        xext: &[Self],
        out: &mut [Complex64],
        pool: &ThreadPool,
    );

    /// `x·phase`: a complex product, or a complex scale of a real sample.
    fn modulate(self, phase: Complex64) -> Complex64;

    /// The alternating fold `Σ_j x_j·(−1)^j` of real samples — the exact
    /// Nyquist bin, or one rank's partial of it — and `None` for complex
    /// input, whose Nyquist bin is an ordinary SOI output.
    fn nyquist(x: &[Self]) -> Option<f64>;

    /// Segments of a `p`-segment spectrum the transform computes: all of
    /// them for complex input, the non-redundant first `p/2` for real
    /// input, which therefore needs an even `p` (the half-spectrum
    /// boundary must fall on a segment boundary).
    fn kept_segments(p: usize) -> Result<usize, SoiError> {
        if !Self::REAL {
            Ok(p)
        } else if p.is_multiple_of(2) {
            Ok(p / 2)
        } else {
            Err(SoiError::BadSize(format!(
                "real-input transform needs an even segment count, got P = {p}"
            )))
        }
    }

    /// Output bins of an `n`-point full transform: the whole spectrum, or
    /// the packed half-spectrum `y[0..=n/2]` for real input.
    fn out_len(n: usize) -> usize {
        if Self::REAL {
            n / 2 + 1
        } else {
            n
        }
    }
}

impl Domain for Complex64 {
    const REAL: bool = false;
    const CONV_WORK: f64 = 1.0;

    fn convolve_pooled(
        shape: ConvShape,
        coeffs: &ConvCoefficients,
        xext: &[Self],
        out: &mut [Complex64],
        pool: &ThreadPool,
    ) {
        convolve_pooled(shape, coeffs, xext, out, pool);
    }

    #[inline]
    fn modulate(self, phase: Complex64) -> Complex64 {
        self * phase
    }

    fn nyquist(_x: &[Self]) -> Option<f64> {
        None
    }
}

impl Domain for f64 {
    const REAL: bool = true;
    const CONV_WORK: f64 = 0.5;

    fn convolve_pooled(
        shape: ConvShape,
        coeffs: &ConvCoefficients,
        xext: &[Self],
        out: &mut [Complex64],
        pool: &ThreadPool,
    ) {
        convolve_real_pooled(shape, coeffs, xext, out, pool);
    }

    #[inline]
    fn modulate(self, phase: Complex64) -> Complex64 {
        phase.scale(self)
    }

    fn nyquist(x: &[Self]) -> Option<f64> {
        Some(nyquist_fold(x))
    }
}
