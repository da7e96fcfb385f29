//! The engine's query-API error type.
//!
//! The MAL layer reports everything as [`MalError`]; the engine's typed
//! query API ([`crate::node::RingNode::execute`]) classifies those
//! into what a *client* needs to distinguish: did the statement fail to
//! parse, fail to plan, fail while executing, or did the ring itself
//! fail (node down, fragment gone, pin timeout)?

use mal::MalError;
use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum DcError {
    /// The SQL text did not parse.
    Parse(String),
    /// The statement parsed but the plan is invalid: unknown function,
    /// undefined variable, bad call arity or types.
    Plan(String),
    /// The plan failed while executing (kernel or interpreter error).
    Exec(String),
    /// The Data Cyclotron layer failed: ring node down, fragment no
    /// longer exists, pin timed out.
    Ring(String),
}

impl DcError {
    /// The failure message without the classification prefix.
    pub fn message(&self) -> &str {
        match self {
            DcError::Parse(m) | DcError::Plan(m) | DcError::Exec(m) | DcError::Ring(m) => m,
        }
    }
}

impl fmt::Display for DcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for DcError {}

impl From<MalError> for DcError {
    fn from(e: MalError) -> DcError {
        let msg = e.to_string();
        match e {
            MalError::Parse(_) => DcError::Parse(msg),
            MalError::UnknownFunction(_) | MalError::BadCall(_) | MalError::Undefined(_) => {
                DcError::Plan(msg)
            }
            MalError::Bat(_) | MalError::Exec(_) => DcError::Exec(msg),
            MalError::Dc(_) => DcError::Ring(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let e: DcError = MalError::Parse("bad".into()).into();
        assert!(matches!(e, DcError::Parse(_)));
        assert_eq!(e.message(), "parse error: bad");
        let e: DcError = MalError::UnknownFunction("no.such".into()).into();
        assert!(matches!(e, DcError::Plan(_)));
        let e: DcError = MalError::Dc("ring node is down".into()).into();
        assert!(matches!(e, DcError::Ring(_)));
        assert_eq!(e.message(), "data cyclotron: ring node is down");
        let e: DcError = MalError::Exec("boom".into()).into();
        assert!(matches!(e, DcError::Exec(_)));
    }
}
