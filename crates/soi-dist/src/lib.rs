//! Distributed FFT algorithms over the simulated cluster.
//!
//! Two algorithms, both in-order and block-distributed (`rank s` owns
//! input `x[sM..(s+1)M)` and output `y[sM..(s+1)M)`):
//!
//! * [`soi`] — the paper's contribution: halo exchange → local convolution
//!   → batched `F_P` → pack → **one** all-to-all → local `F_{M'}` →
//!   project + demodulate (Fig 2).
//! * [`baseline`] — the industry-standard decomposition (the paper's
//!   overview diagram; what MKL/FFTW/FFTE implement): transpose → local
//!   length-`M` FFTs + twiddle → transpose → local length-`P` FFTs →
//!   transpose, i.e. **three** all-to-alls.
//!
//! Both are instrumented with a per-phase time breakdown and support two
//! charging policies ([`rates::ChargePolicy`]): wall-clock measurement
//! (honest on an unloaded machine) or calibrated per-flop rates modeled on
//! the paper's node (Table 1 + §7.4's measured efficiencies) — the mode
//! the figure harnesses use, since this reproduction runs many simulated
//! ranks on few physical cores (see DESIGN.md §2).

pub mod baseline;
pub mod comm;
pub mod dtranspose;
pub mod rates;
pub mod recover;
pub mod soi;
pub mod times;

pub use baseline::{BaselineFft, ExchangeVariant};
pub use comm::{CommError, Communicator};
pub use rates::{ChargePolicy, ComputeRates};
pub use recover::{
    run_checkpointed, run_wire_recoverable, Checkpoint, CheckpointStore, DirStore, FaultAction,
    FaultPlan, MemStore, Recovery, LAST_BOUNDARY,
};
pub use soi::{DistSoiFft, ExchangeSchedule};
pub use times::PhaseTimes;
