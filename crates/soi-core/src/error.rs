//! Error types for SOI configuration and execution.

use soi_window::design::DesignError;

/// Everything that can go wrong building or running a SOI transform.
#[derive(Debug, Clone, PartialEq)]
pub enum SoiError {
    /// Sizes violate the divisibility/support constraints.
    BadSize(String),
    /// The window designer could not meet the request.
    Design(DesignError),
    /// Input buffer has the wrong length.
    BadInput {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        got: usize,
    },
    /// A segment or band start lies outside the spectrum.
    OutOfRange {
        /// What was indexed: `"segment"` or `"band start"`.
        what: &'static str,
        /// The requested index.
        index: usize,
        /// The exclusive bound: `P` for a segment, `N` for a band start.
        bound: usize,
    },
    /// A reused [`Workspace`](crate::workspace::Workspace) was built
    /// for a different configuration than the transform it was passed to.
    WorkspaceMismatch(String),
    /// A distributed run was asked to use a rank count incompatible with
    /// the configured segment count.
    BadRankCount(String),
    /// A distributed partition would not align with the kernel's chunk
    /// structure (μ-row coefficient blocks).
    BadAlignment(String),
    /// The communication fabric failed mid-run (a peer died, an exchange
    /// timed out, or traffic was malformed). Both transports raise this:
    /// the wire on real socket failures, the simulated network when a
    /// rank declares itself dead (fault injection). Recoverable — see
    /// the `soi-dist` checkpoint/replay driver.
    Comm(String),
}

impl std::fmt::Display for SoiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoiError::BadSize(msg) => write!(f, "invalid SOI sizes: {msg}"),
            SoiError::Design(e) => write!(f, "window design failed: {e}"),
            SoiError::BadInput { expected, got } => {
                write!(f, "bad input length: expected {expected}, got {got}")
            }
            SoiError::OutOfRange { what, index, bound } => {
                write!(f, "{what} {index} out of range (must be < {bound})")
            }
            SoiError::WorkspaceMismatch(msg) => {
                write!(f, "workspace/transform mismatch: {msg}")
            }
            SoiError::BadRankCount(msg) => write!(f, "bad rank count: {msg}"),
            SoiError::BadAlignment(msg) => write!(f, "bad partition alignment: {msg}"),
            SoiError::Comm(msg) => write!(f, "communication failed: {msg}"),
        }
    }
}

impl std::error::Error for SoiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoiError::Design(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DesignError> for SoiError {
    fn from(e: DesignError) -> Self {
        SoiError::Design(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SoiError::BadSize("p must divide n".into());
        assert!(e.to_string().contains("p must divide n"));
        let e = SoiError::BadInput {
            expected: 8,
            got: 7,
        };
        assert!(e.to_string().contains("expected 8"));
        let e: SoiError = DesignError::Infeasible {
            target: 1e-30,
            beta: 0.25,
        }
        .into();
        assert!(e.to_string().contains("window design failed"));
    }
}
