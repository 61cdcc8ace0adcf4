//! The SOI (segment-of-interest) low-communication FFT — the paper's
//! primary contribution, in a single address space.
//!
//! The factorization (Eq. 6 of the paper):
//!
//! ```text
//! y ≈ (I_P ⊗ Ŵ⁻¹·P_proj·F_{M'}) · P_perm^{P,N'} · (I_{M'} ⊗ F_P) · W · x
//! ```
//!
//! * [`params`] — parameter resolution ([`SoiParams`] → [`SoiConfig`]):
//!   sizes, oversampling μ/ν, window design, divisibility checks.
//! * [`coeff`] — the `μPB` distinct convolution coefficients (Fig 4) and
//!   the demodulation weights `1/ŵ(k)`, with direct-definition oracles.
//! * [`conv`] — the optimized convolution kernel `W·x` plus the naive
//!   pseudo-code version kept for the §6b ablation bench.
//! * [`domain`] — [`Domain`]: what complex and real (r2c) input change
//!   in the one stage sequence.
//! * [`pipeline`] — [`SoiFft`]: the full transform and the
//!   segment/band API (the Fig 1 narrative, runnable).
//! * [`theorem`] — Theorem 1's operators (Samp/Peri/modulate/convolve) as
//!   executable, testable functions.
//! * [`opcount`] — the §5/§7.4 arithmetic accounting.
//!
//! The distributed version (one all-to-all across ranks) lives in
//! `soi-dist`, built from these same kernels.

pub mod coeff;
pub mod conv;
pub mod domain;
pub mod errmodel;
pub mod error;
pub mod exact;
pub mod opcount;
pub mod params;
pub mod pipeline;
pub mod theorem;
pub mod workspace;

pub use domain::Domain;
pub use error::SoiError;
pub use params::{SoiConfig, SoiParams};
pub use pipeline::{SoiFft, Zoom};
pub use soi_pool::ThreadPool;
pub use workspace::{SoiRealWorkspace, SoiWorkspace, Workspace};
