//! The correctness gate every measured output passes through.
//!
//! SOI is approximate by design, so outputs are never compared bitwise
//! against an exact FFT. Two checks apply instead:
//!
//! * **Accuracy** — the relative L2 error of an output against the
//!   matching slice of an exact reference (`soi_fft::fft_forward`, computed
//!   once per distinct input at set-up) must not exceed [`error_limit`],
//!   the library's own a-priori worst-bin error for a flat-spectrum input.
//! * **Bitwise pins** — where the repository already pins exact equality
//!   (a served response equals the local `transform_*` at the same
//!   geometry; a distributed or traced run equals the local pipeline),
//!   every bit must match.
//!
//! A wrong-length or non-finite output fails both.

use soi_core::errmodel::error_profile;
use soi_core::SoiConfig;
use soi_num::Complex64;
use soi_serve::RequestKind;

/// The accuracy gate of a geometry: `errmodel::error_profile`'s
/// `worst_bin`, the predicted worst per-bin relative error for a
/// flat-spectrum input, which bounds the relative L2 error of any bin
/// range. `SoiConfig::predicted_error()` is not used: it is an estimate
/// from the window's mean aliasing, and seeded white-noise inputs exceed
/// it about twofold (at N = 2^20, P = 8, Digits10: 2.3e-8 measured against
/// 1.2e-8 predicted), the excess sitting in the segment-edge bins the
/// per-bin profile covers. The profile samples every 64th bin plus both
/// segment edges, where the worst bin lies.
pub fn error_limit(cfg: &SoiConfig) -> f64 {
    error_profile(cfg, 64).worst_bin.max(cfg.predicted_error())
}

/// The exact reference bins a request kind must reproduce, cut from the
/// full exact spectrum `full` of a length-`N` input: all `N` bins,
/// segment `s` (`s·M..(s+1)·M`), the band `k0..k0+M` (cyclic), or the
/// packed half spectrum `0..=N/2` of a real input.
pub fn reference_slice(
    full: &[Complex64],
    kind: RequestKind,
    arg: usize,
    m: usize,
) -> Vec<Complex64> {
    let n = full.len();
    match kind {
        RequestKind::Full => full.to_vec(),
        RequestKind::RealFull => full[..=n / 2].to_vec(),
        RequestKind::Segment | RequestKind::RealSegment => full[arg * m..(arg + 1) * m].to_vec(),
        RequestKind::Band | RequestKind::RealBand => (0..m).map(|k| full[(arg + k) % n]).collect(),
    }
}

/// Relative L2 error `‖got − want‖₂ / ‖want‖₂`, or why it cannot be
/// computed (length mismatch, non-finite output).
pub fn rel_l2(got: &[Complex64], want: &[Complex64]) -> Result<f64, String> {
    if got.len() != want.len() {
        return Err(format!(
            "output has {} bins, expected {}",
            got.len(),
            want.len()
        ));
    }
    let (err2, ref2) = got.iter().zip(want).fold((0.0, 0.0), |(e, r), (&g, &w)| {
        (e + (g - w).norm_sqr(), r + w.norm_sqr())
    });
    if !err2.is_finite() {
        return Err("output holds a non-finite value".into());
    }
    Ok(if ref2 == 0.0 {
        err2.sqrt()
    } else {
        (err2 / ref2).sqrt()
    })
}

/// The accuracy gate: the relative error if it is within `limit`.
pub fn within(got: &[Complex64], want: &[Complex64], limit: f64) -> Result<f64, String> {
    let err = rel_l2(got, want)?;
    if err <= limit {
        Ok(err)
    } else {
        Err(format!(
            "relative L2 error {err:.3e} exceeds the limit {limit:.3e}"
        ))
    }
}

/// The bitwise gate: identical length and identical bits in every bin.
pub fn bitwise(got: &[Complex64], want: &[Complex64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "output has {} bins, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.re.to_bits() != w.re.to_bits() || g.im.to_bits() != w.im.to_bits())
    {
        None => Ok(()),
        Some(k) => Err(format!(
            "bin {k} differs bitwise from the pinned local result"
        )),
    }
}

/// Running account of checked operations.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (measured or checked).
    pub attempted: u64,
    /// Operations that failed: errors, rejects, failed checks.
    pub failed: u64,
    /// Worst relative L2 error among checked outputs.
    pub worst_err: f64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one operation with its check outcome (`Ok(err)` passed).
    pub fn record(&mut self, outcome: Result<f64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(err) => self.worst_err = self.worst_err.max(err),
            Err(msg) => self.fail(msg),
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.worst_err = self.worst_err.max(other.worst_err);
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_core::{SoiFft, SoiParams};
    use soi_testkit::TestRng;
    use soi_window::AccuracyPreset;

    /// A real SOI output and its exact reference at a small geometry.
    fn soi_output() -> (Vec<Complex64>, Vec<Complex64>, f64) {
        let n = 1 << 12;
        let params = SoiParams::with_preset(n, 4, AccuracyPreset::Digits10).unwrap();
        let soi = SoiFft::new(&params).unwrap();
        let x = TestRng::seed_from_u64(3).complex_vec(n);
        let got = soi.transform(&x).unwrap();
        (got, soi_fft::fft_forward(&x), error_limit(soi.config()))
    }

    fn norm(v: &[Complex64]) -> f64 {
        v.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt()
    }

    #[test]
    fn genuine_output_passes_the_accuracy_gate() {
        let (got, want, limit) = soi_output();
        let err = within(&got, &want, limit).expect("SOI output within its predicted error");
        assert!(
            err > 0.0,
            "SOI is approximate; a zero error means the check compared nothing"
        );
    }

    #[test]
    fn one_perturbed_bin_is_caught() {
        let (mut got, want, limit) = soi_output();
        let pristine = got.clone();
        // Just enough on one bin to push the relative error past the gate.
        got[777].re += 2.0 * limit * norm(&want);
        assert!(within(&got, &want, limit).is_err());
        assert!(bitwise(&got, &pristine).is_err());
    }

    #[test]
    fn white_noise_error_sits_between_the_estimate_and_the_gate() {
        let params = SoiParams::with_preset(1 << 12, 4, AccuracyPreset::Digits10).unwrap();
        let cfg = *SoiFft::new(&params).unwrap().config();
        let (got, want, limit) = soi_output();
        let err = rel_l2(&got, &want).unwrap();
        assert!(
            err > cfg.predicted_error(),
            "{err:e} vs estimate {:e}",
            cfg.predicted_error()
        );
        assert!(err < limit, "{err:e} vs gate {limit:e}");
    }

    #[test]
    fn wrong_length_output_is_caught() {
        let (got, want, limit) = soi_output();
        assert!(within(&got[..got.len() - 1], &want, limit).is_err());
        assert!(bitwise(&got[1..], &got).is_err());
        let mut longer = got.clone();
        longer.push(Complex64::ZERO);
        assert!(within(&longer, &want, limit).is_err());
    }

    #[test]
    fn non_finite_output_is_caught() {
        let (mut got, want, limit) = soi_output();
        got[5].im = f64::NAN;
        assert!(within(&got, &want, limit).is_err());
    }

    #[test]
    fn bitwise_gate_accepts_only_identical_bits() {
        let (got, _, _) = soi_output();
        assert!(bitwise(&got, &got.clone()).is_ok());
        let mut flipped = got.clone();
        flipped[0].re = f64::from_bits(flipped[0].re.to_bits() ^ 1);
        assert!(bitwise(&flipped, &got).is_err());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(1e-10));
        t.record(Err("bad".into()));
        t.record(Ok(3e-10));
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert_eq!(t.worst_err, 3e-10);
    }

    #[test]
    fn reference_slices_cut_the_documented_bins() {
        let full: Vec<Complex64> = (0..16).map(|k| Complex64::new(k as f64, 0.0)).collect();
        let re = |v: Vec<Complex64>| v.iter().map(|c| c.re as usize).collect::<Vec<_>>();
        assert_eq!(
            re(reference_slice(&full, RequestKind::Segment, 2, 4)),
            [8, 9, 10, 11]
        );
        assert_eq!(
            re(reference_slice(&full, RequestKind::Band, 14, 4)),
            [14, 15, 0, 1]
        );
        assert_eq!(reference_slice(&full, RequestKind::RealFull, 0, 4).len(), 9);
        assert_eq!(reference_slice(&full, RequestKind::Full, 0, 4).len(), 16);
    }
}
