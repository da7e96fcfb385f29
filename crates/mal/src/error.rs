//! Errors across parsing, planning and interpretation.

use std::fmt;

#[derive(Debug)]
pub enum MalError {
    /// The statement text did not parse.
    Parse(String),
    /// Call to a function no module provides.
    UnknownFunction(String),
    /// Wrong number or type of arguments; message names the call.
    BadCall(String),
    /// Use of a variable before definition.
    Undefined(String),
    /// Kernel error bubbled up from batstore.
    Bat(batstore::BatError),
    /// Failure reported by the Data Cyclotron layer (e.g. a request for a
    /// BAT that no longer exists — outcome 1 of the request algorithm).
    Dc(String),
    /// Anything else at execution time.
    Exec(String),
}

pub type Result<T> = std::result::Result<T, MalError>;

impl fmt::Display for MalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalError::Parse(msg) => write!(f, "parse error: {msg}"),
            MalError::UnknownFunction(name) => write!(f, "unknown function: {name}"),
            MalError::BadCall(msg) => write!(f, "bad call: {msg}"),
            MalError::Undefined(v) => write!(f, "undefined variable: {v}"),
            MalError::Bat(e) => write!(f, "kernel error: {e}"),
            MalError::Dc(msg) => write!(f, "data cyclotron: {msg}"),
            MalError::Exec(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for MalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MalError::Bat(e) => Some(e),
            _ => None,
        }
    }
}

impl From<batstore::BatError> for MalError {
    fn from(e: batstore::BatError) -> Self {
        MalError::Bat(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = MalError::Parse("expected 'select'".into());
        assert_eq!(e.to_string(), "parse error: expected 'select'");
        assert!(MalError::UnknownFunction("foo.bar".into()).to_string().contains("foo.bar"));
    }

    #[test]
    fn bat_error_wraps() {
        let e: MalError = batstore::BatError::NotFound("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
