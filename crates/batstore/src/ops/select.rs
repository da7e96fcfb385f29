//! Selection operators: the filters of the binary algebra. They preserve
//! the head values of qualifying BUNs (so downstream joins can realign on
//! OIDs) and filter on the tail.

use crate::bat::Bat;
use crate::column::Column;
use crate::error::Result;
use crate::heap::StrCol;
use crate::ops::cells::{with_cells, Cells};
use crate::ops::scan::{scan, Pred, Scan};
use crate::value::{ColType, Val};
use std::cmp::Ordering;

/// Comparison operators for `theta_select`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
    Ge,
    Gt,
}

impl CmpOp {
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Gt => ord == Ordering::Greater,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        }
    }

    pub fn from_symbol(s: &str) -> Option<CmpOp> {
        Some(match s {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            "=" | "==" => CmpOp::Eq,
            "!=" | "<>" => CmpOp::Ne,
            ">=" => CmpOp::Ge,
            ">" => CmpOp::Gt,
            _ => return None,
        })
    }
}

/// `algebra.select(b, lo, hi)`: BUNs whose tail lies in `[lo, hi]`
/// (inclusive bounds, MonetDB's default).
pub fn select_range(b: &Bat, lo: &Val, hi: &Val) -> Result<Bat> {
    filter(b, &Pred::Between(lo, hi))
}

/// `algebra.uselect(b, v)`: equality selection.
pub fn uselect(b: &Bat, v: &Val) -> Result<Bat> {
    theta_select(b, CmpOp::Eq, v)
}

/// `algebra.thetauselect(b, op, v)`: general comparison selection.
pub fn theta_select(b: &Bat, op: CmpOp, v: &Val) -> Result<Bat> {
    filter(b, &Pred::Cmp(op, v))
}

/// Where a select collects the tail values it keeps.
trait Kept<T>: Default {
    fn keep(&mut self, batch: &[T]);
}

impl<T: Copy> Kept<T> for Vec<T> {
    fn keep(&mut self, batch: &[T]) {
        self.extend_from_slice(batch);
    }
}

impl Kept<&str> for StrCol {
    fn keep(&mut self, batch: &[&str]) {
        batch.iter().for_each(|s| self.push(s));
    }
}

/// One pass of the typed scan over the tail's cells, writing each
/// qualifying BUN's head oid and tail cell as it is found. A filter
/// keeps its input's order and form and drops rows only, so every claim
/// of the input holds of the output.
fn filter(b: &Bat, pred: &Pred<'_>) -> Result<Bat> {
    let ty = b.tail_type();
    let (head, tail) = with_cells!(b.tail(), |vals, wrap| kept(b.head(), vals, ty, pred, wrap))?;
    Bat::with_props(head, tail, b.props())
}

fn kept<C: Cells<Cell: Scan>, O: Kept<C::Cell>>(
    head: &Column,
    vals: C,
    ty: ColType,
    pred: &Pred<'_>,
    wrap: impl FnOnce(O) -> Column,
) -> Result<(Column, Column)> {
    let mut tail = O::default();
    let head = match head {
        Column::Void { seq, .. } => {
            let mut oids = Vec::new();
            scan(vals, ty, pred, &mut |rows, xs| {
                oids.extend(rows.iter().map(|&i| seq + i as u64));
                tail.keep(xs);
            })?;
            Column::Oid(oids)
        }
        Column::Oid(h) => {
            let mut oids = Vec::new();
            scan(vals, ty, pred, &mut |rows, xs| {
                oids.extend(rows.iter().map(|&i| h[i]));
                tail.keep(xs);
            })?;
            Column::Oid(oids)
        }
        // A head that is not an oid column (a reversed BAT): note the
        // positions and fetch the heads once.
        other => {
            let mut kept_rows = Vec::new();
            scan(vals, ty, pred, &mut |rows, xs| {
                kept_rows.extend_from_slice(rows);
                tail.keep(xs);
            })?;
            other.gather(&kept_rows)
        }
    };
    Ok((head, wrap(tail)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn sample() -> Bat {
        Bat::dense(Column::from(vec![5, 1, 4, 1, 3]))
    }

    #[test]
    fn range_inclusive() {
        let r = select_range(&sample(), &Val::Int(1), &Val::Int(4)).unwrap();
        let tails: Vec<Val> = (0..r.count()).map(|i| r.bun(i).1).collect();
        assert_eq!(tails, vec![Val::Int(1), Val::Int(4), Val::Int(1), Val::Int(3)]);
        // Heads preserved: positions 1,2,3,4 of the original.
        assert_eq!(r.bun(0).0, Val::Oid(1));
    }

    #[test]
    fn uselect_equality() {
        let r = uselect(&sample(), &Val::Int(1)).unwrap();
        assert_eq!(r.count(), 2);
        assert_eq!(r.bun(0).0, Val::Oid(1));
        assert_eq!(r.bun(1).0, Val::Oid(3));
    }

    #[test]
    fn theta_all_ops() {
        let b = sample();
        let count = |op| theta_select(&b, op, &Val::Int(3)).unwrap().count();
        assert_eq!(count(CmpOp::Lt), 2);
        assert_eq!(count(CmpOp::Le), 3);
        assert_eq!(count(CmpOp::Eq), 1);
        assert_eq!(count(CmpOp::Ne), 4);
        assert_eq!(count(CmpOp::Ge), 3);
        assert_eq!(count(CmpOp::Gt), 2);
    }

    #[test]
    fn cross_numeric_constant() {
        // Int column selected with a Lng constant must coerce.
        let r = theta_select(&sample(), CmpOp::Ge, &Val::Lng(4)).unwrap();
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(uselect(&sample(), &Val::Str("x".into())).is_err());
        // Decided from the two types, not from the rows: an empty column
        // refuses the same literal.
        let empty = Bat::empty(crate::value::ColType::Int);
        assert!(matches!(
            uselect(&empty, &Val::from("x")),
            Err(crate::error::BatError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn bigints_above_2_pow_53_compare_exactly() {
        // As f64 the two neighbours are one number: `=` used to return
        // both and `>` neither.
        let big = 1i64 << 53;
        let b = Bat::dense(Column::from(vec![big, big + 1]));
        let eq = uselect(&b, &Val::Lng(big + 1)).unwrap();
        assert_eq!((eq.count(), eq.bun(0)), (1, (Val::Oid(1), Val::Lng(big + 1))));
        assert_eq!(theta_select(&b, CmpOp::Gt, &Val::Lng(big)).unwrap().count(), 1);
        assert_eq!(theta_select(&b, CmpOp::Ne, &Val::Lng(big)).unwrap().count(), 1);
        assert_eq!(select_range(&b, &Val::Lng(big + 1), &Val::Lng(big + 1)).unwrap().count(), 1);
        // An oid above i64::MAX against a negative bigint: i128 holds both.
        let oids = Bat::dense(Column::Oid(vec![u64::MAX, 0]));
        assert_eq!(theta_select(&oids, CmpOp::Gt, &Val::Lng(-1)).unwrap().count(), 2);
        // A constant outside the column's type keeps all rows or none.
        let ints = sample();
        assert_eq!(theta_select(&ints, CmpOp::Lt, &Val::Lng(1 << 40)).unwrap().count(), 5);
        assert_eq!(uselect(&ints, &Val::Lng(1 << 40)).unwrap().count(), 0);
        // A dbl side makes the pair compare as f64: the neighbours tie.
        assert_eq!(uselect(&b, &Val::Dbl(big as f64)).unwrap().count(), 2);
    }

    #[test]
    fn nan_matches_nothing() {
        let b = Bat::dense(Column::from(vec![1.0, f64::NAN, 3.0]));
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt] {
            let kept = theta_select(&b, op, &Val::Dbl(2.0)).unwrap();
            assert!(kept.tail().as_dbl().unwrap().iter().all(|x| !x.is_nan()), "{op:?}");
            assert_eq!(theta_select(&b, op, &Val::Dbl(f64::NAN)).unwrap().count(), 0, "{op:?}");
        }
        assert_eq!(theta_select(&b, CmpOp::Ne, &Val::Dbl(2.0)).unwrap().count(), 2);
    }

    #[test]
    fn heads_and_claims_survive_selection() {
        let b = Bat::new(Column::Oid(vec![7, 9, 11, 30]), Column::from(vec![1, 2, 2, 5])).unwrap();
        let s = theta_select(&b, CmpOp::Ge, &Val::Int(2)).unwrap();
        assert_eq!(s.head(), &Column::Oid(vec![9, 11, 30]));
        assert!(s.props().tail_sorted && s.props().head_sorted);
        // A non-oid head (a reversed BAT) is fetched by position.
        let r = crate::ops::reverse(&b);
        let s = uselect(&r, &Val::Oid(11)).unwrap();
        assert_eq!(s.bun(0), (Val::Int(2), Val::Oid(11)));
    }

    #[test]
    fn a_select_keeps_its_inputs_form_and_base() {
        use crate::int::{Form, IntCol};
        // Based at 1 000 with `u16` offsets; the smallest value is not
        // kept, and the output is still based at 1 000.
        let b = Bat::dense(Column::from(vec![1_900, 1_000, 1_500, 1_200]));
        for (op, c) in [(CmpOp::Ge, Val::Int(1_200)), (CmpOp::Gt, Val::Dbl(1_199.5))] {
            let s = theta_select(&b, op, &c).unwrap();
            let Column::Int(IntCol(Form::U16(n))) = s.tail() else { panic!("{:?}", s.tail()) };
            assert_eq!((n.base, &n.offsets[..]), (1_000, &[900, 500, 200][..]), "{c:?}");
        }
        // A plain column (built by pushes) selects plain.
        let mut plain = Column::empty(crate::value::ColType::Int);
        [1_900, 1_000].iter().for_each(|&x| plain.push(&Val::Int(x)).unwrap());
        let s = uselect(&Bat::dense(plain), &Val::Int(1_900)).unwrap();
        assert!(matches!(s.tail(), Column::Int(IntCol(Form::Plain(v))) if v == &[1_900]));
    }

    #[test]
    fn empty_input_ok() {
        let e = Bat::empty(crate::value::ColType::Int);
        assert_eq!(uselect(&e, &Val::Int(1)).unwrap().count(), 0);
    }

    #[test]
    fn string_selection() {
        let b = Bat::dense(Column::from(vec!["de", "fr", "de", "nl"]));
        let r = uselect(&b, &Val::from("de")).unwrap();
        assert_eq!(r.count(), 2);
        let r = theta_select(&b, CmpOp::Gt, &Val::from("de")).unwrap();
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn op_symbols_round_trip() {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt] {
            assert_eq!(CmpOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(CmpOp::from_symbol("<>"), Some(CmpOp::Ne));
    }
}
