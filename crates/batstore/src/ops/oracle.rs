//! The generic kernels, kept as the test oracle.
//!
//! Until the typed kernels these *were* `batstore::ops`: every row goes
//! through a [`Val`] ([`Column::get`] → [`Val::try_cmp`]) or a [`Key`]
//! in a standard `HashMap`, and no BAT property is consulted. They are
//! slow and obviously right, which is what an oracle is for: the sweep
//! below holds every typed path — each column type, head shape,
//! operator, constant type and algorithm a property can select — to
//! them, BUN for BUN and error for error. Compiled under `#[cfg(test)]`
//! only: a release build contains one implementation per operator.

use crate::bat::Bat;
use crate::column::{Column, Key};
use crate::error::{BatError, Result};
use crate::ops::{CmpOp, RowPredicate};
use crate::value::{ColType, Val};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Comparability is a matter of the two types: strings with strings,
/// everything else (numbers, dates, bits) with each other, `nil` with all.
fn check_comparable(col: &Column, v: &Val) -> Result<()> {
    let strings = (col.col_type() == ColType::Str, matches!(v, Val::Str(_)));
    if v.is_nil() || strings.0 == strings.1 {
        return Ok(());
    }
    Err(BatError::TypeMismatch { expected: col.col_type().name(), got: format!("{v:?}") })
}

fn holds(col: &Column, i: usize, op: CmpOp, v: &Val) -> bool {
    col.cmp_val(i, v).is_some_and(|o| op.matches(o))
}

fn row_matches(col: &Column, i: usize, p: &RowPredicate) -> bool {
    match p {
        RowPredicate::Cmp { op, value, .. } => holds(col, i, *op, value),
        RowPredicate::Between { lo, hi, .. } => {
            holds(col, i, CmpOp::Ge, lo) && holds(col, i, CmpOp::Le, hi)
        }
        RowPredicate::InList { values, .. } => values.iter().any(|v| holds(col, i, CmpOp::Eq, v)),
    }
}

fn consts(p: &RowPredicate) -> Vec<&Val> {
    match p {
        RowPredicate::Cmp { value, .. } => vec![value],
        RowPredicate::Between { lo, hi, .. } => vec![lo, hi],
        RowPredicate::InList { values, .. } => values.iter().collect(),
    }
}

pub fn theta_select(b: &Bat, op: CmpOp, v: &Val) -> Result<Bat> {
    check_comparable(b.tail(), v)?;
    let rows: Vec<usize> = (0..b.count()).filter(|&i| holds(b.tail(), i, op, v)).collect();
    Ok(b.gather(&rows))
}

pub fn select_range(b: &Bat, lo: &Val, hi: &Val) -> Result<Bat> {
    check_comparable(b.tail(), lo)?;
    check_comparable(b.tail(), hi)?;
    let keep = |&i: &usize| holds(b.tail(), i, CmpOp::Ge, lo) && holds(b.tail(), i, CmpOp::Le, hi);
    Ok(b.gather(&(0..b.count()).filter(keep).collect::<Vec<_>>()))
}

pub fn matching_rows(
    lookup: &dyn Fn(&str) -> Option<Arc<Bat>>,
    row_count: usize,
    preds: &[RowPredicate],
) -> Result<Vec<usize>> {
    let mut mask = vec![true; row_count];
    for p in preds {
        let bat = lookup(p.column())
            .ok_or_else(|| BatError::NotFound(format!("column '{}'", p.column())))?;
        if bat.count() != row_count {
            return Err(BatError::LengthMismatch { left: bat.count(), right: row_count });
        }
        if consts(p).is_empty() {
            return Err(BatError::Invalid("IN list must not be empty".into()));
        }
        for v in consts(p) {
            check_comparable(bat.tail(), v)?;
        }
        for (i, m) in mask.iter_mut().enumerate() {
            *m = *m && row_matches(bat.tail(), i, p);
        }
    }
    Ok((0..row_count).filter(|&i| mask[i]).collect())
}

fn check_domain(l: &Column, r: &Column) -> Result<()> {
    if l.join_compatible(r) {
        return Ok(());
    }
    Err(BatError::TypeMismatch { expected: l.col_type().name(), got: r.col_type().name().into() })
}

/// The nested loop: `l`-major, `r` ascending within one `l` row.
pub fn join(l: &Bat, r: &Bat) -> Result<Bat> {
    check_domain(l.tail(), r.head())?;
    let (mut li, mut ri) = (Vec::new(), Vec::new());
    for i in 0..l.count() {
        for j in 0..r.count() {
            if l.tail().key(i) == r.head().key(j) {
                li.push(i);
                ri.push(j);
            }
        }
    }
    Bat::new(l.head().gather(&li), r.tail().gather(&ri))
}

fn head_set(b: &Bat) -> HashSet<Key<'_>> {
    (0..b.count()).map(|i| b.head().key(i)).collect()
}

pub fn semijoin(l: &Bat, r: &Bat) -> Result<Bat> {
    check_domain(l.head(), r.head())?;
    let set = head_set(r);
    let keep = |&i: &usize| set.contains(&l.head().key(i));
    Ok(l.gather(&(0..l.count()).filter(keep).collect::<Vec<_>>()))
}

pub fn kunion(l: &Bat, r: &Bat) -> Result<Bat> {
    check_domain(l.head(), r.head())?;
    check_domain(l.tail(), r.tail())?;
    let lset = head_set(l);
    let mut head = l.head().clone().materialize();
    let mut tail = l.tail().clone();
    for i in 0..r.count() {
        if !lset.contains(&r.head().key(i)) {
            let (h, t) = r.bun(i);
            head.push(&h)?;
            tail.push(&t)?;
        }
    }
    Bat::new(head, tail)
}

/// Group ids and representative rows, in first-appearance order, of the
/// rows keyed by `b`'s tail.
pub fn group(b: &Bat) -> (Vec<u64>, Vec<usize>) {
    let mut seen: HashMap<Key<'_>, u64> = HashMap::new();
    let (mut gids, mut reps) = (Vec::new(), Vec::new());
    for i in 0..b.count() {
        let next = seen.len() as u64;
        gids.push(*seen.entry(b.tail().key(i)).or_insert_with(|| {
            reps.push(i);
            next
        }));
    }
    (gids, reps)
}

pub fn scatter_const(b: &Bat, rows: &[usize], v: &Val) -> Result<Column> {
    let mut tail = Column::empty(b.tail_type());
    for i in 0..b.count() {
        if rows.contains(&i) {
            tail.push(v)?;
        } else {
            tail.push(&b.tail().get(i))?;
        }
    }
    Ok(tail)
}

mod sweep {
    use super::*;
    use crate::ops;

    /// A small deterministic generator (xorshift64*).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, pool: &[T]) -> T {
            pool[self.below(pool.len())].clone()
        }
    }

    const BIG: i64 = 1 << 53;
    const TYPES: [ColType; 8] = [
        ColType::Void,
        ColType::Oid,
        ColType::Int,
        ColType::Lng,
        ColType::Dbl,
        ColType::Str,
        ColType::Bool,
        ColType::Date,
    ];

    /// `n` values of `ty` from a pool small enough that equal values
    /// recur and wide enough to hold every edge: the type's extremes,
    /// neighbours above 2^53, `NaN`, both zeros, the empty string.
    fn column(ty: ColType, n: usize, rng: &mut Rng) -> Column {
        let mut draw = |k: usize| (0..n).map(|_| rng.below(k)).collect::<Vec<_>>();
        match ty {
            ColType::Void => Column::Void { seq: 2, len: n },
            ColType::Oid => {
                let pool = [0, 1, 2, 3, 4, 5, 8, 13, u64::MAX - 1, u64::MAX];
                Column::Oid(draw(pool.len()).into_iter().map(|i| pool[i]).collect())
            }
            ColType::Int | ColType::Date => {
                let pool = [i32::MIN, -3, -1, 0, 1, 2, 3, 4, 7, i32::MAX];
                let v = draw(pool.len()).into_iter().map(|i| pool[i]).collect();
                if ty == ColType::Int {
                    Column::Int(v)
                } else {
                    Column::Date(v)
                }
            }
            ColType::Lng => {
                let pool = [i64::MIN, -BIG - 1, -1, 0, 1, 2, 3, 5, BIG, BIG + 1, BIG + 2, i64::MAX];
                Column::Lng(draw(pool.len()).into_iter().map(|i| pool[i]).collect())
            }
            ColType::Dbl => {
                let pool = [
                    f64::NEG_INFINITY,
                    -1.5,
                    -0.0,
                    0.0,
                    1.0,
                    2.5,
                    3.0,
                    BIG as f64,
                    f64::INFINITY,
                    f64::NAN,
                ];
                Column::Dbl(draw(pool.len()).into_iter().map(|i| pool[i]).collect())
            }
            ColType::Str => {
                let pool = ["", "a", "ab", "b", "N", "O", "a rather longer string", "héllo"];
                Column::from(draw(pool.len()).into_iter().map(|i| pool[i]).collect::<Vec<_>>())
            }
            ColType::Bool => Column::Bool(draw(2).into_iter().map(|i| i == 1).collect()),
        }
    }

    /// The same values in ascending order (`NaN`s dropped: a column
    /// holding one is never in order).
    fn ascending(col: &Column) -> Column {
        match col {
            Column::Dbl(v) => {
                let mut v: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
                v.sort_by(f64::total_cmp);
                Column::Dbl(v)
            }
            other => other.gather(&other.sort_perm(false)),
        }
    }

    /// Head shapes: dense from a non-zero base, ascending oids with
    /// gaps, oids in no order, oids with duplicates, and a non-oid head.
    fn heads(n: usize, rng: &mut Rng) -> Vec<Column> {
        let mut shuffled: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.below(i + 1));
        }
        vec![
            Column::Void { seq: 100, len: n },
            Column::Oid((0..n as u64).map(|i| 3 * i + 1).collect()),
            Column::Oid(shuffled),
            Column::Oid((0..n).map(|_| rng.below(5) as u64).collect()),
            Column::Int((0..n).map(|_| rng.below(7) as i32 - 3).collect()),
        ]
    }

    fn constants() -> Vec<Val> {
        vec![
            Val::Nil,
            Val::Int(-1),
            Val::Int(0),
            Val::Int(3),
            Val::Lng(2),
            Val::Lng(BIG + 1),
            Val::Lng(i64::MIN),
            Val::Lng(5_000_000_000),
            Val::Oid(3),
            Val::Oid(u64::MAX),
            Val::Date(2),
            Val::Bool(true),
            Val::Dbl(2.5),
            Val::Dbl(3.0),
            Val::Dbl(-0.0),
            Val::Dbl(BIG as f64),
            Val::Dbl(f64::NAN),
            Val::Dbl(1e300),
            Val::from(""),
            Val::from("ab"),
        ]
    }

    const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt];

    /// A value as text, `dbl` by bit pattern (so `NaN` equals itself and
    /// the zeros differ), `void` and `oid` heads alike.
    fn canon(v: Val) -> String {
        match v {
            Val::Dbl(d) => format!("dbl:{:016x}", d.to_bits()),
            other => format!("{other:?}"),
        }
    }

    fn buns(b: &Bat) -> Vec<(String, String)> {
        (0..b.count()).map(|i| (canon(b.head().get(i)), canon(b.tail().get(i)))).collect()
    }

    /// What a release build trusts: every claim a kernel made is true.
    fn assert_claims(b: &Bat, what: &str) {
        let p = b.props();
        assert!(!p.tail_sorted || b.tail().is_sorted(), "{what}: tail_sorted claimed");
        assert!(!p.head_sorted || b.head().is_sorted(), "{what}: head_sorted claimed");
        assert!(!p.head_key || b.head().is_key(), "{what}: head_key claimed");
    }

    /// Same BUNs in the same order, or the same kind of error.
    fn assert_same(typed: Result<Bat>, oracle: Result<Bat>, what: &str) {
        match (typed, oracle) {
            (Ok(t), Ok(o)) => {
                assert_eq!(buns(&t), buns(&o), "{what}");
                assert_eq!(t.tail_type(), o.tail_type(), "{what}");
                assert_claims(&t, what);
            }
            (Err(t), Err(o)) => {
                assert_eq!(
                    std::mem::discriminant(&t),
                    std::mem::discriminant(&o),
                    "{what}: {t} / {o}"
                )
            }
            (t, o) => panic!("{what}: typed {t:?}, oracle {o:?}"),
        }
    }

    #[test]
    fn selects_equal_the_val_oracle() {
        let mut rng = Rng(0x5EED);
        let consts = constants();
        for ty in TYPES {
            for n in [0, 1, 37] {
                for head in heads(n, &mut rng) {
                    let b = Bat::new(head, column(ty, n, &mut rng)).unwrap();
                    for v in &consts {
                        for op in OPS {
                            let what = format!("{}→{ty} {} {v:?}", b.head_type(), op.symbol());
                            assert_same(
                                ops::theta_select(&b, op, v),
                                theta_select(&b, op, v),
                                &what,
                            );
                        }
                        // Every constant as a lower bound, against two
                        // upper bounds of another class.
                        for hi in
                            [&consts[rng.below(consts.len())], &Val::Lng(BIG + 1), &Val::Dbl(2.5)]
                        {
                            let what = format!("{}→{ty} in [{v:?}, {hi:?}]", b.head_type());
                            assert_same(
                                ops::select_range(&b, v, hi),
                                select_range(&b, v, hi),
                                &what,
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_sorted_tail_stays_claimed_through_selects() {
        let mut rng = Rng(7);
        for ty in TYPES {
            let b = Bat::dense_from(5, ascending(&column(ty, 50, &mut rng)));
            assert!(b.props().tail_sorted, "{ty}");
            let v = if ty == ColType::Str { Val::from("ab") } else { Val::Int(1) };
            let s = ops::theta_select(&b, CmpOp::Ge, &v).unwrap();
            assert!(s.props().tail_sorted && s.props().head_sorted && s.props().head_key, "{ty}");
            assert_claims(&s, "select of a sorted tail");
        }
    }

    #[test]
    fn matching_rows_equals_the_val_oracle() {
        let mut rng = Rng(0xBEEF);
        let consts = constants();
        let n = 41;
        for round in 0..400 {
            let cols: Vec<Arc<Bat>> =
                TYPES.iter().map(|&ty| Arc::new(Bat::dense(column(ty, n, &mut rng)))).collect();
            let lookup = |name: &str| name.parse::<usize>().ok().and_then(|i| cols.get(i).cloned());
            let preds: Vec<RowPredicate> = (0..rng.below(4))
                .map(|_| {
                    let column = rng.below(TYPES.len() + usize::from(round % 50 == 0)).to_string();
                    match rng.below(3) {
                        0 => RowPredicate::Cmp {
                            column,
                            op: rng.pick(&OPS),
                            value: rng.pick(&consts),
                        },
                        1 => RowPredicate::Between {
                            column,
                            lo: rng.pick(&consts),
                            hi: rng.pick(&consts),
                        },
                        _ => RowPredicate::InList {
                            column,
                            values: (0..rng.below(4)).map(|_| rng.pick(&consts)).collect(),
                        },
                    }
                })
                .collect();
            assert_same_rows(&lookup, n, &preds);
        }
        // The first bad conjunct in list order is the error: a literal
        // its column cannot compare with before a missing column and
        // after one, an empty `IN` before such a literal and after one.
        let cols: Vec<Arc<Bat>> =
            TYPES.iter().map(|&ty| Arc::new(Bat::dense(column(ty, n, &mut rng)))).collect();
        let lookup = |name: &str| name.parse::<usize>().ok().and_then(|i| cols.get(i).cloned());
        let cmp = |column: &str, value: Val| RowPredicate::Cmp {
            column: column.into(),
            op: CmpOp::Lt,
            value,
        };
        let mismatched = cmp("2", Val::from("ab"));
        let missing = cmp(&TYPES.len().to_string(), Val::Int(1));
        let empty_in = RowPredicate::InList { column: "3".into(), values: vec![] };
        for preds in [
            [mismatched.clone(), missing.clone()],
            [missing, mismatched.clone()],
            [empty_in.clone(), mismatched.clone()],
            [mismatched, empty_in],
        ] {
            assert_same_rows(&lookup, n, &preds);
        }
    }

    /// The typed `matching_rows` and the oracle's: the same rows, or the
    /// same kind of error.
    fn assert_same_rows(
        lookup: &dyn Fn(&str) -> Option<Arc<Bat>>,
        n: usize,
        preds: &[RowPredicate],
    ) {
        match (ops::matching_rows(lookup, n, preds), matching_rows(lookup, n, preds)) {
            (Ok(t), Ok(o)) => assert_eq!(t, o, "{preds:?}"),
            (Err(t), Err(o)) => {
                assert_eq!(std::mem::discriminant(&t), std::mem::discriminant(&o), "{preds:?}")
            }
            (t, o) => panic!("{preds:?}: typed {t:?}, oracle {o:?}"),
        }
    }

    /// `(l.tail, r.head)` pairs of one join domain, in every order
    /// combination: both ascending (merge), either shuffled (hash, built
    /// on either side), `r.head` dense (positional, with oids outside
    /// it), and with an empty side.
    fn join_sides(ty: ColType, rng: &mut Rng) -> Vec<(Column, Column)> {
        let mut sides = Vec::new();
        for (n, m) in [(30, 9), (9, 30), (20, 20), (0, 5), (5, 0)] {
            let (l, r) = (column(ty, n, rng), column(ty, m, rng));
            sides.push((ascending(&l), ascending(&r)));
            sides.push((l.clone(), ascending(&r)));
            sides.push((l, r));
        }
        if matches!(ty, ColType::Void | ColType::Oid) {
            for n in [0, 25] {
                let inside = Column::Oid((0..n).map(|_| 40 + rng.below(12) as u64).collect());
                sides.push((inside, Column::Void { seq: 40, len: 12 }));
                // Both ends of the dense range, with the oid just past
                // its end, and with the one just before it too.
                for edges in [&[40, 45, 51, 52][..], &[39, 40, 51, 52, u64::MAX]] {
                    let around = Column::Oid((0..n).map(|_| rng.pick(edges)).collect());
                    sides.push((around, Column::Void { seq: 40, len: 12 }));
                }
                sides.push((column(ColType::Oid, n, rng), Column::Void { seq: 2, len: 4 }));
                sides.push((Column::Void { seq: 1, len: n }, Column::Void { seq: 5, len: 30 }));
                sides.push((Column::Void { seq: 1, len: n }, column(ColType::Oid, 12, rng)));
            }
        }
        sides
    }

    #[test]
    fn every_join_path_equals_the_nested_loop() {
        let mut rng = Rng(0x10);
        for ty in TYPES {
            for (ltail, rhead) in join_sides(ty, &mut rng) {
                for lhead in heads(ltail.len(), &mut rng) {
                    let l = Bat::new(lhead, ltail.clone()).unwrap();
                    let rtail = column(rng.pick(&TYPES[1..]), rhead.len(), &mut rng);
                    let r = Bat::new(rhead.clone(), rtail).unwrap();
                    let what = format!(
                        "{}→{ty}[{}] ⋈ {}→{}[{}]",
                        l.head_type(),
                        l.count(),
                        r.head_type(),
                        r.tail_type(),
                        r.count()
                    );
                    assert_same(ops::join(&l, &r), join(&l, &r), &what);
                }
            }
        }
        // Different domains do not join, on any path.
        let ints = Bat::dense(Column::from(vec![1, 2]));
        for other in [
            Column::from(vec![1i64, 2]),
            Column::from(vec!["1", "2"]),
            Column::Date(vec![1, 2].into()),
        ] {
            let r = ops::reverse(&Bat::dense(other));
            assert_same(ops::join(&ints, &r), join(&ints, &r), "mixed domains");
            assert!(matches!(
                ops::join(&ints, &Bat::dense(Column::from(vec![1]))),
                Err(BatError::TypeMismatch { .. })
            ));
        }
    }

    #[test]
    fn every_set_operation_path_equals_the_hash_set() {
        let mut rng = Rng(0x5E7);
        for ty in TYPES {
            for (lhead, rhead) in join_sides(ty, &mut rng) {
                let tail_ty = rng.pick(&TYPES[2..]);
                let l = Bat::new(lhead.clone(), column(tail_ty, lhead.len(), &mut rng)).unwrap();
                let r = Bat::new(rhead.clone(), column(tail_ty, rhead.len(), &mut rng)).unwrap();
                let what = format!("{ty}[{}] vs {}[{}]", l.count(), r.head_type(), r.count());
                assert_same(ops::semijoin(&l, &r), semijoin(&l, &r), &what);
                assert_same(ops::kunion(&l, &r), kunion(&l, &r), &what);
                // Merge and hash agree: the same BATs with `r`'s order
                // (and with it the claim that selects the merge) undone.
                let undone = r.gather(&(0..r.count()).rev().collect::<Vec<_>>());
                assert!(!undone.props().head_sorted);
                let rows = |b: Bat| {
                    let mut rows = buns(&b);
                    rows.sort();
                    rows
                };
                assert_eq!(
                    rows(ops::semijoin(&l, &r).unwrap()),
                    rows(ops::semijoin(&l, &undone).unwrap()),
                    "{what}"
                );
                assert_eq!(
                    rows(ops::kunion(&l, &r).unwrap()),
                    rows(ops::kunion(&l, &undone).unwrap()),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn grouping_equals_the_hash_map() {
        let mut rng = Rng(0x6);
        for ty in TYPES {
            for n in [0, 1, 64, 700] {
                let b = Bat::dense_from(9, column(ty, n, &mut rng));
                let (grp, ext) = ops::group_by(&b);
                let (gids, reps) = group(&b);
                assert_eq!(grp.tail().as_oid().unwrap(), &gids[..], "{ty}");
                assert_eq!(buns(&ext), buns(&Bat::dense(b.tail().gather(&reps))), "{ty}");
                assert_claims(&grp, "group.new grp");
                assert_claims(&ext, "group.new ext");
            }
        }
    }

    #[test]
    fn constant_writes_equal_the_per_row_push() {
        let mut rng = Rng(0xC);
        for ty in &TYPES[1..] {
            let b = Bat::dense_from(4, column(*ty, 30, &mut rng));
            let rows: Vec<usize> = (0..8).map(|_| rng.below(30)).collect();
            for v in constants() {
                match (ops::scatter_const(&b, &rows, &v), scatter_const(&b, &rows, &v)) {
                    (Ok(t), Ok(o)) => {
                        assert_eq!(buns(&t), buns(&Bat::dense_from(4, o)), "{ty} := {v:?}")
                    }
                    (Err(_), Err(_)) => {}
                    (t, o) => panic!("{ty} := {v:?}: typed {t:?}, oracle {o:?}"),
                }
            }
        }
    }

    #[test]
    fn structural_claims_of_the_reshaping_operators_hold() {
        let mut rng = Rng(0x9);
        for ty in TYPES {
            for head in heads(40, &mut rng) {
                for tail in [column(ty, 40, &mut rng), ascending(&column(ty, 40, &mut rng))] {
                    let Ok(b) = Bat::new(head.slice(0, tail.len()), tail) else { continue };
                    for (what, out) in [
                        ("reverse", ops::reverse(&b)),
                        ("reverse²", ops::reverse(&ops::reverse(&b))),
                        ("mirror", ops::mirror(&b)),
                        ("markT", ops::mark_tail(&b, 3)),
                        ("markH", ops::mark_head(&b, 3)),
                        ("slice", ops::slice(&b, 3, 17)),
                        ("sort", ops::sort_tail(&b, false)),
                        ("sort desc", ops::sort_tail(&b, true)),
                        ("gather", b.gather(&[5, 1, 1])),
                    ] {
                        assert_claims(&out, what);
                    }
                    let back = ops::reverse(&ops::reverse(&b));
                    assert_eq!(
                        (back.props().head_sorted, back.props().tail_sorted),
                        (b.props().head_sorted, b.props().tail_sorted)
                    );
                }
            }
        }
    }
}
