//! Error types shared across the IR substrate.

use std::error::Error;
use std::fmt;

/// Result alias used by fallible IR operations.
pub type IrResult<T> = Result<T, IrError>;

/// Error raised by IR construction, verification, or pass execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An entity id did not resolve inside the owning context.
    InvalidEntity(String),
    /// Structural verification failed (malformed regions, dangling operands, ...).
    Verification(String),
    /// A pass reported a failure.
    PassFailed {
        /// Name of the failing pass.
        pass: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A malformed or missing attribute was encountered.
    InvalidAttribute(String),
    /// A worker panicked; the unwind was isolated and converted (fault
    /// isolation, see [`crate::fault`]).
    WorkerPanic {
        /// Where the panic was caught (pass name, pool site, ...).
        site: String,
        /// The panic payload message.
        message: String,
    },
    /// Work was cancelled at a checkpoint: a deadline on its token passed.
    Cancelled {
        /// The checkpoint site that observed the cancellation.
        site: String,
        /// Deterministic reason, e.g. `deadline of 200ms exceeded`.
        detail: String,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::InvalidEntity(msg) => write!(f, "invalid IR entity: {msg}"),
            IrError::Verification(msg) => write!(f, "verification failed: {msg}"),
            IrError::PassFailed { pass, reason } => {
                write!(f, "pass '{pass}' failed: {reason}")
            }
            IrError::InvalidAttribute(msg) => write!(f, "invalid attribute: {msg}"),
            IrError::WorkerPanic { site, message } => {
                write!(f, "worker panicked at {site}: {message}")
            }
            IrError::Cancelled { site, detail } => write!(f, "cancelled at {site}: {detail}"),
        }
    }
}

impl Error for IrError {}

impl IrError {
    /// Creates a verification error with the given message.
    pub fn verification(msg: impl Into<String>) -> Self {
        IrError::Verification(msg.into())
    }

    /// Creates a pass-failure error.
    pub fn pass_failed(pass: impl Into<String>, reason: impl Into<String>) -> Self {
        IrError::PassFailed {
            pass: pass.into(),
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = IrError::verification("operand %3 not defined");
        assert_eq!(e.to_string(), "verification failed: operand %3 not defined");
        let e = IrError::pass_failed("fusion", "pattern mismatch");
        assert!(e.to_string().contains("fusion"));
        assert!(e.to_string().contains("pattern mismatch"));
    }

    #[test]
    fn fault_variants_render_site_and_detail() {
        let e = IrError::WorkerPanic {
            site: "pass 'lower'".to_string(),
            message: "index out of bounds".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "worker panicked at pass 'lower': index out of bounds"
        );
        let e = IrError::Cancelled {
            site: "pass 'tiling'".to_string(),
            detail: "deadline of 50ms exceeded".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "cancelled at pass 'tiling': deadline of 50ms exceeded"
        );
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<IrError>();
    }
}
