//! Error type shared across the kernel.

use std::fmt;

#[derive(Debug)]
pub enum BatError {
    /// Operator applied to incompatible column types.
    TypeMismatch { expected: &'static str, got: String },
    /// Head/tail (or argument) lengths disagree.
    LengthMismatch { left: usize, right: usize },
    /// Catalog lookup failure.
    NotFound(String),
    /// Name collision on create.
    AlreadyExists(String),
    /// Persistence failure.
    Io(std::io::Error),
    /// Corrupt or foreign file while loading.
    Corrupt(String),
    /// Operator-specific invariant violated (message explains).
    Invalid(String),
    /// Arithmetic result exceeds the output type's range (e.g. a 64-bit
    /// sum overflowing). Classified so SQL-reachable kernels report it
    /// as a query error instead of panicking or silently wrapping.
    Overflow(String),
}

pub type Result<T> = std::result::Result<T, BatError>;

impl fmt::Display for BatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            BatError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            BatError::NotFound(what) => write!(f, "not found: {what}"),
            BatError::AlreadyExists(what) => write!(f, "already exists: {what}"),
            BatError::Io(e) => write!(f, "io error: {e}"),
            BatError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            BatError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
            BatError::Overflow(msg) => write!(f, "arithmetic overflow: {msg}"),
        }
    }
}

impl std::error::Error for BatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BatError {
    fn from(e: std::io::Error) -> Self {
        BatError::Io(e)
    }
}

/// Input a [`crate::wire::Reader`] refused is corrupt.
impl From<crate::wire::Error> for BatError {
    fn from(e: crate::wire::Error) -> Self {
        BatError::Corrupt(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = BatError::TypeMismatch { expected: "int", got: "str".into() };
        assert!(e.to_string().contains("expected int"));
        let e = BatError::LengthMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains("3 vs 5"));
        let e = BatError::NotFound("sys.t.id".into());
        assert!(e.to_string().contains("sys.t.id"));
    }

    #[test]
    fn io_conversion_preserves_source() {
        let io = std::io::Error::other("boom");
        let e: BatError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
