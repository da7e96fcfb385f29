//! Scalar values and column types.
//!
//! `Val` is the boxed scalar used at the edges of the kernel (constants in
//! plans, result rendering); the hot paths operate on typed vectors and
//! never materialize `Val`s.

use std::cmp::Ordering;
use std::fmt;

/// The base types supported by the kernel. `Void` is the virtual dense
/// OID sequence MonetDB uses for heads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColType {
    Void,
    Oid,
    Int,
    Lng,
    Dbl,
    Str,
    Bool,
    Date,
}

impl ColType {
    pub fn name(self) -> &'static str {
        match self {
            ColType::Void => "void",
            ColType::Oid => "oid",
            ColType::Int => "int",
            ColType::Lng => "lng",
            ColType::Dbl => "dbl",
            ColType::Str => "str",
            ColType::Bool => "bit",
            ColType::Date => "date",
        }
    }

    pub fn from_name(s: &str) -> Option<ColType> {
        Some(match s {
            "void" => ColType::Void,
            "oid" => ColType::Oid,
            "int" => ColType::Int,
            "lng" | "bigint" => ColType::Lng,
            "dbl" | "double" | "decimal" => ColType::Dbl,
            "str" | "varchar" | "char" | "clob" => ColType::Str,
            "bit" | "bool" | "boolean" => ColType::Bool,
            "date" => ColType::Date,
            _ => return None,
        })
    }

    /// Stable one-byte wire tag, shared by the disk format (`storage`)
    /// and the ring's catalog-synchronization messages.
    pub fn tag(self) -> u8 {
        match self {
            ColType::Void => 0,
            ColType::Oid => 1,
            ColType::Int => 2,
            ColType::Lng => 3,
            ColType::Dbl => 4,
            ColType::Str => 5,
            ColType::Bool => 6,
            ColType::Date => 7,
        }
    }

    /// Inverse of [`ColType::tag`]; `None` for unknown tags (corrupt or
    /// newer peers).
    pub fn from_tag(b: u8) -> Option<ColType> {
        Some(match b {
            0 => ColType::Void,
            1 => ColType::Oid,
            2 => ColType::Int,
            3 => ColType::Lng,
            4 => ColType::Dbl,
            5 => ColType::Str,
            6 => ColType::Bool,
            7 => ColType::Date,
            _ => return None,
        })
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    Nil,
    Oid(u64),
    Int(i32),
    Lng(i64),
    Dbl(f64),
    Str(String),
    Bool(bool),
    /// Days since 1970-01-01 (proleptic).
    Date(i32),
}

impl Val {
    pub fn col_type(&self) -> Option<ColType> {
        Some(match self {
            Val::Nil => return None,
            Val::Oid(_) => ColType::Oid,
            Val::Int(_) => ColType::Int,
            Val::Lng(_) => ColType::Lng,
            Val::Dbl(_) => ColType::Dbl,
            Val::Str(_) => ColType::Str,
            Val::Bool(_) => ColType::Bool,
            Val::Date(_) => ColType::Date,
        })
    }

    pub fn is_nil(&self) -> bool {
        matches!(self, Val::Nil)
    }

    /// Numeric view for cross-type comparisons (int/lng/dbl/oid/date).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self {
            Val::Oid(v) => *v as f64,
            Val::Int(v) => *v as f64,
            Val::Lng(v) => *v as f64,
            Val::Dbl(v) => *v,
            Val::Date(v) => *v as f64,
            Val::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            _ => return None,
        })
    }

    /// Exact integer view of the integer-class types (oid/int/lng/date,
    /// `Bool` as 0/1); `i128` holds a `u64` oid beside a negative `i64`.
    pub fn as_i128(&self) -> Option<i128> {
        Some(match self {
            Val::Oid(v) => *v as i128,
            Val::Int(v) => *v as i128,
            Val::Lng(v) => *v as i128,
            Val::Date(v) => *v as i128,
            Val::Bool(b) => *b as i128,
            _ => return None,
        })
    }

    pub fn as_i64(&self) -> Option<i64> {
        Some(match self {
            Val::Oid(v) => *v as i64,
            Val::Int(v) => *v as i64,
            Val::Lng(v) => *v,
            Val::Date(v) => *v as i64,
            _ => return None,
        })
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order with numeric coercion across numeric types; `Nil`
    /// sorts first (MonetDB convention); mismatched non-numeric types are
    /// incomparable (`None`). Two integer-class values compare exactly —
    /// a `bigint` above 2^53 is not its `f64` neighbour — and a pair goes
    /// through `f64` only when one side is `Dbl` (NaN is incomparable).
    pub fn try_cmp(&self, other: &Val) -> Option<Ordering> {
        match (self, other) {
            (Val::Nil, Val::Nil) => Some(Ordering::Equal),
            (Val::Nil, _) => Some(Ordering::Less),
            (_, Val::Nil) => Some(Ordering::Greater),
            (Val::Str(a), Val::Str(b)) => Some(a.as_str().cmp(b.as_str())),
            _ => match (self.as_i128(), other.as_i128()) {
                (Some(a), Some(b)) => Some(a.cmp(&b)),
                _ => self.as_f64()?.partial_cmp(&other.as_f64()?),
            },
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Nil => write!(f, "nil"),
            Val::Oid(v) => write!(f, "{v}@0"),
            Val::Int(v) => write!(f, "{v}"),
            Val::Lng(v) => write!(f, "{v}"),
            Val::Dbl(v) => write!(f, "{v}"),
            Val::Str(s) => write!(f, "\"{s}\""),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Date(d) => write!(f, "date({d})"),
        }
    }
}

impl From<i32> for Val {
    fn from(v: i32) -> Self {
        Val::Int(v)
    }
}
impl From<i64> for Val {
    fn from(v: i64) -> Self {
        Val::Lng(v)
    }
}
impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::Dbl(v)
    }
}
impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::Str(v.to_string())
    }
}
impl From<String> for Val {
    fn from(v: String) -> Self {
        Val::Str(v)
    }
}
impl From<bool> for Val {
    fn from(v: bool) -> Self {
        Val::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags_round_trip() {
        for t in [
            ColType::Void,
            ColType::Oid,
            ColType::Int,
            ColType::Lng,
            ColType::Dbl,
            ColType::Str,
            ColType::Bool,
            ColType::Date,
        ] {
            assert_eq!(ColType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(ColType::from_tag(99), None);
    }

    #[test]
    fn type_names_round_trip() {
        for t in [
            ColType::Void,
            ColType::Oid,
            ColType::Int,
            ColType::Lng,
            ColType::Dbl,
            ColType::Str,
            ColType::Bool,
            ColType::Date,
        ] {
            assert_eq!(ColType::from_name(t.name()), Some(t));
        }
        assert_eq!(ColType::from_name("varchar"), Some(ColType::Str));
        assert_eq!(ColType::from_name("nonsense"), None);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Val::Int(3).try_cmp(&Val::Lng(3)), Some(Ordering::Equal));
        assert_eq!(Val::Int(3).try_cmp(&Val::Dbl(3.5)), Some(Ordering::Less));
        assert_eq!(Val::Lng(10).try_cmp(&Val::Int(2)), Some(Ordering::Greater));
    }

    #[test]
    fn integers_compare_exactly_above_2_pow_53() {
        let big = 1i64 << 53;
        assert_eq!(Val::Lng(big).try_cmp(&Val::Lng(big + 1)), Some(Ordering::Less));
        assert_eq!(Val::Lng(big + 1).try_cmp(&Val::Lng(big + 1)), Some(Ordering::Equal));
        assert_eq!(Val::Oid(u64::MAX).try_cmp(&Val::Lng(-1)), Some(Ordering::Greater));
        assert_eq!(Val::Oid(u64::MAX).try_cmp(&Val::Oid(u64::MAX - 1)), Some(Ordering::Greater));
        assert_eq!(Val::Bool(true).try_cmp(&Val::Int(1)), Some(Ordering::Equal));
        // One `Dbl` side: the pair compares as `f64`, so the neighbours tie.
        assert_eq!(Val::Lng(big + 1).try_cmp(&Val::Dbl(big as f64)), Some(Ordering::Equal));
        assert_eq!(Val::Dbl(f64::NAN).try_cmp(&Val::Int(1)), None);
    }

    #[test]
    fn nil_sorts_first() {
        assert_eq!(Val::Nil.try_cmp(&Val::Int(i32::MIN)), Some(Ordering::Less));
        assert_eq!(Val::Int(0).try_cmp(&Val::Nil), Some(Ordering::Greater));
        assert_eq!(Val::Nil.try_cmp(&Val::Nil), Some(Ordering::Equal));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(Val::from("abc").try_cmp(&Val::from("abd")), Some(Ordering::Less));
    }

    #[test]
    fn incomparable_types() {
        assert_eq!(Val::from("x").try_cmp(&Val::Int(1)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Val::Oid(7).to_string(), "7@0");
        assert_eq!(Val::from("hi").to_string(), "\"hi\"");
        assert_eq!(Val::Nil.to_string(), "nil");
    }
}
