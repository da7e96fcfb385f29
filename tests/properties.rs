//! Property-based tests (proptest) across the workspace: kernel
//! operators against naive reference models, codec round-trips, LOI
//! arithmetic invariants, and protocol liveness under arbitrary request
//! interleavings.

use batstore::{ops, Bat, ColType, Column, Val};
use bytes::Bytes;
use datacyclotron::msg::BatHeader;
use datacyclotron::{
    decode, encode, new_loi, BatId, DcConfig, DcMsg, DcNode, NodeId, QueryId, ReqMsg,
};
use proptest::prelude::*;

// ---- batstore vs reference models --------------------------------------

fn int_bat(vals: &[i32]) -> Bat {
    Bat::dense(Column::from(vals.to_vec()))
}

fn ints(c: &Column) -> Vec<i32> {
    let Column::Int(v) = c else { panic!("not an int column: {c:?}") };
    v.iter().collect()
}

proptest! {
    #[test]
    fn select_range_matches_filter(vals in prop::collection::vec(-100i32..100, 0..200),
                                   lo in -100i32..100, hi in -100i32..100) {
        let b = int_bat(&vals);
        let got = ops::select_range(&b, &Val::Int(lo), &Val::Int(hi)).unwrap();
        let want: Vec<i32> = vals.iter().copied().filter(|&v| v >= lo && v <= hi).collect();
        let got_tails = ints(got.tail());
        prop_assert_eq!(got_tails, want);
        // Heads are the original positions of survivors.
        for i in 0..got.count() {
            let (Val::Oid(h), Val::Int(t)) = got.bun(i) else { panic!() };
            prop_assert_eq!(vals[h as usize], t);
        }
    }

    #[test]
    fn join_matches_nested_loop(l in prop::collection::vec(0i32..20, 0..60),
                                r in prop::collection::vec(0i32..20, 0..60)) {
        let lb = int_bat(&l);
        let rb = ops::reverse(&int_bat(&r));
        let j = ops::join(&lb, &rb).unwrap();
        let mut want = 0usize;
        for &a in &l {
            for &b in &r {
                if a == b { want += 1; }
            }
        }
        prop_assert_eq!(j.count(), want);
    }

    #[test]
    fn sort_is_permutation_and_ordered(vals in prop::collection::vec(-1000i32..1000, 0..200)) {
        let b = int_bat(&vals);
        let s = ops::sort_tail(&b, false);
        prop_assert_eq!(s.count(), vals.len());
        let tails = ints(s.tail());
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        prop_assert_eq!(tails, sorted);
        // Head/tail pairing preserved.
        for i in 0..s.count() {
            let (Val::Oid(h), Val::Int(t)) = s.bun(i) else { panic!() };
            prop_assert_eq!(vals[h as usize], t);
        }
    }

    #[test]
    fn group_sum_matches_hashmap(vals in prop::collection::vec(0i32..10, 1..150)) {
        let b = int_bat(&vals);
        let (grp, ext) = ops::group_by(&b);
        let sums = ops::grouped_sum(&b, &grp, ext.count()).unwrap();
        let mut want: std::collections::HashMap<i32, i64> = std::collections::HashMap::new();
        for &v in &vals {
            *want.entry(v).or_default() += v as i64;
        }
        for g in 0..ext.count() {
            let Val::Int(key) = ext.bun(g).1 else { panic!() };
            let Val::Lng(sum) = sums.bun(g).1 else { panic!() };
            prop_assert_eq!(sum, want[&key]);
        }
    }

    /// Every column type under every head shape, short of and past the
    /// codec's block size: decode gives back the same values (`dbl` by
    /// bit pattern) and re-encodes to the same bytes.
    #[test]
    fn bat_serialization_round_trips(ty in 0usize..8, shape in 0usize..4,
                                     picks in prop::collection::vec(any::<u32>(), 0..1500)) {
        let tail = kernels::column(kernels::TYPES[ty], &picks);
        let b = Bat::new(kernels::head(shape, picks.len(), &picks), tail).unwrap();
        let bytes = batstore::storage::bat_to_bytes(&b);
        let back = batstore::storage::bat_from_bytes(&bytes).unwrap();
        prop_assert_eq!(kernels::buns(&back), kernels::buns(&b));
        prop_assert_eq!(batstore::storage::bat_to_bytes(&back), bytes);
    }
}

// ---- string columns: the coded form against a plain twin ------------------

proptest! {
    /// A column built from values — coded, since it holds few distinct
    /// ones — and its twin built by `push`, which stays plain, driven
    /// through the same operations: runs of pushes past the 256th
    /// distinct value, pushes of known values, gathers and slices down to
    /// 0 and 1 rows. After each, every read, the value equality, the wire
    /// size and the `DCB1` bytes agree. The pool holds the empty string,
    /// multi-byte UTF-8, and `"a"` beside `"a\0"`.
    #[test]
    fn a_coded_string_column_behaves_as_its_plain_twin(
        picks in prop::collection::vec(any::<u32>(), 0..300),
        steps in prop::collection::vec(any::<u32>(), 0..24),
    ) {
        use batstore::{storage, StrCol};
        const POOL: [&str; 7] = ["", "a", "a\0", "héllo", "日本語", "N", "a string of some length"];
        let values: Vec<&str> = picks.iter().map(|&p| POOL[p as usize % POOL.len()]).collect();
        let mut coded: StrCol = values.iter().collect();
        let mut plain = StrCol::new();
        values.iter().for_each(|s| plain.push(s));
        if values.len() > 8 {
            prop_assert!(coded.byte_size() < plain.byte_size(), "built from values, coded");
        }
        let wire = |c: &StrCol| {
            let col = Column::Str(c.clone());
            (col.wire_size(), storage::bat_to_bytes(&Bat::dense(col)))
        };
        let mut fresh = 0;
        for &step in &steps {
            let (n, arg) = (coded.len(), step as usize >> 2);
            match step % 4 {
                0 => {
                    for _ in 0..arg % 64 {
                        let v = format!("new {fresh}");
                        fresh += 1;
                        coded.push(&v);
                        plain.push(&v);
                    }
                }
                1 => {
                    coded.push(POOL[arg % POOL.len()]);
                    plain.push(POOL[arg % POOL.len()]);
                }
                2 => {
                    let idx: Vec<usize> = match n {
                        0 => Vec::new(),
                        _ => (0..arg % 4).map(|k| (arg >> 2).wrapping_mul(k + 7) % n).collect(),
                    };
                    (coded, plain) = (coded.gather(&idx), plain.gather(&idx));
                }
                _ => {
                    let lo = arg % (n + 1);
                    let hi = lo + (arg >> 8) % (n - lo + 1);
                    (coded, plain) = (coded.slice(lo, hi), plain.slice(lo, hi));
                }
            }
            prop_assert_eq!(coded.len(), plain.len());
            prop_assert!((0..coded.len()).all(|i| coded.get(i) == plain.get(i)));
            prop_assert!(coded.iter().eq(plain.iter()));
            prop_assert_eq!(&coded, &plain);
            prop_assert_eq!(wire(&coded), wire(&plain));
        }
    }
}

// ---- integer columns: the narrow form against a plain twin ---------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The same `lng`, `int` or `date` values built from values — narrow:
    /// a base and a `u8`, `u16` or (`lng` only) `u32` offset a row — and
    /// by `push`, which stays plain, through every kernel that reads
    /// them: theta and range selects and IN, the fused aggregate (each
    /// aggregate its type takes, grouped and not, its conjuncts on the
    /// narrow column, with and without a probe joining on it) and join,
    /// against a build side narrow at the column's width, narrow at
    /// another and plain; sort, grouping, grouped sums, gather, slice and
    /// the `DCB1` round trip;
    /// and, sorted, against a sorted column of a lower base and another
    /// span, each side narrow or plain: the merge join both ways round,
    /// and `semijoin` and `kunion` by merge and by hash.
    /// Each answers cell for cell what it answers for the twin, or fails
    /// alike. Bases reach both ends of the cell type; spans run from one
    /// distinct value to past the widest offset; columns from empty to
    /// three batches.
    #[test]
    fn a_narrow_integer_column_answers_as_its_plain_twin(
        shape in (0usize..3, 0usize..4, -300i64..300, 0usize..4, 0u64..70_000),
        picks in prop::collection::vec(any::<u32>(), 0..700),
        consts in prop::collection::vec(any::<u32>(), 6),
    ) {
        use batstore::ops::{Aggregate, CmpOp, Probe, RowPredicate};
        use batstore::{storage, BatError};
        use std::sync::Arc;

        let (ty, base, near, span, reach) = shape;
        let ty = [ColType::Lng, ColType::Int, ColType::Date][ty];
        let (lng, date) = (ty == ColType::Lng, ty == ColType::Date);
        let (min, max) = if lng { (i64::MIN, i64::MAX) } else { (i32::MIN.into(), i32::MAX.into()) };
        let base = [min, -70_000, near, max - 70_000][base];
        let span = if lng {
            [0, 1 + reach % 255, 256 + reach, u64::from(u32::MAX)][span]
        } else {
            [0, 1 + reach % 255, 256 + reach % 65_536, 1 << 31][span]
        };
        let at = |p: u32| base.saturating_add((u64::from(p) % (span + 1)) as i64).min(max);
        let val = |x: i64| match ty {
            ColType::Lng => Val::Lng(x),
            ColType::Int => Val::Int(x as i32),
            _ => Val::Date(x as i32),
        };
        // Built from values, as every load and kernel builds a column.
        let built = |xs: Vec<i64>| match ty {
            ColType::Lng => Column::from(xs),
            ColType::Int => Column::Int(xs.into_iter().map(|x| x as i32).collect()),
            _ => Column::Date(xs.into_iter().map(|x| x as i32).collect()),
        };
        let vals: Vec<i64> = picks.iter().map(|&p| at(p)).collect();
        let narrow = built(vals.clone());
        let mut plain = Column::empty(ty);
        vals.iter().for_each(|&x| plain.push(&val(x)).unwrap());
        prop_assert_eq!(&narrow, &plain);
        let wide = if lng { 8 } else { 4 };
        prop_assert_eq!(plain.byte_size(), vals.len() * wide, "pushed, plain");
        if span >> (4 * wide) == 0 {
            prop_assert!(narrow.byte_size() <= vals.len() * wide / 2, "built from values, narrow");
        }

        // Results compare as BATs: by value, and by the claims made.
        type Out = Result<Vec<Bat>, String>;
        let outs = |r: Result<Vec<Bat>, BatError>| -> Out { r.map_err(|e| e.to_string()) };
        let one = |r: Result<Bat, BatError>| outs(r.map(|b| vec![b]));
        let both = |f: &dyn Fn(&Column) -> Out| (f(&narrow), f(&plain));

        // Constants inside, at and past both ends, as the column's own
        // type, `lng` and `int`, and `dbl`.
        let mut constants: Vec<Val> = consts.iter().map(|&c| val(at(c))).collect();
        let (lo, hi) = (at(0), base.saturating_add(span as i64));
        constants.extend([lo.saturating_sub(1), hi.saturating_add(1)].map(Val::Lng));
        constants.extend([Val::Int(consts[0] as i32 % 600 - 300), Val::Dbl(lo as f64 + 0.5)]);
        let dense = |c: &Column| Bat::dense(c.clone());
        for c in &constants {
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt] {
                let (n, p) = both(&|col| one(ops::theta_select(&dense(col), op, c)));
                prop_assert_eq!(n, p, "{:?} {:?}", op, c);
            }
        }
        for (c, d) in constants.iter().zip(constants.iter().rev()) {
            let (n, p) = both(&|col| one(ops::select_range(&dense(col), c, d)));
            prop_assert_eq!(n, p, "between {:?} and {:?}", c, d);
        }

        // The fused operator: its conjuncts on the column, its keys and
        // aggregates over it, and a probe stage joining on it. A `date`
        // takes no sum.
        let k = Column::from(picks.iter().map(|p| (p % 3) as i32).collect::<Vec<_>>());
        let preds = [
            RowPredicate::Cmp { column: "v".into(), op: CmpOp::Ge, value: constants[0].clone() },
            RowPredicate::Between { column: "v".into(), lo: constants[1].clone(), hi: constants[2].clone() },
            RowPredicate::InList { column: "v".into(), values: constants[3..].to_vec() },
            RowPredicate::Cmp { column: "v".into(), op: CmpOp::Ne, value: constants[4].clone() },
        ];
        let aggs = [
            Aggregate::Sum("v".into()),
            Aggregate::Avg("v".into()),
            Aggregate::Min("v".into()),
            Aggregate::Max("v".into()),
            Aggregate::Count,
        ];
        let aggs = &aggs[if date { 2 } else { 0 }..];
        // The probe's build key and the join's other side, each built
        // (narrow) and pushed (plain): every third value, and values
        // narrow at another width — `u16` beside a `u8` column, `u8` (its
        // values within 255 of the base) beside any other.
        let twins = |xs: &[i64]| {
            let mut plain = Column::empty(ty);
            xs.iter().for_each(|&x| plain.push(&val(x)).unwrap());
            (built(xs.to_vec()), plain)
        };
        let thirds = vals.iter().step_by(3).copied();
        let other_width: Vec<i64> = if narrow.byte_size() == vals.len() {
            thirds.clone().chain([lo, lo + 256]).collect()
        } else {
            vals.iter().copied().filter(|x| x - lo < 256).step_by(3).chain([lo]).collect()
        };
        let builds = [thirds.collect(), other_width].map(|xs: Vec<i64>| {
            let (n, p) = twins(&xs);
            (Bat::dense(n), Bat::dense(p))
        });
        let fused = |col: &Column, build: Option<&Bat>, preds: &[RowPredicate], key: Option<&str>| {
            let table = [("v", Arc::new(dense(col))), ("k", Arc::new(dense(&k)))];
            let lookup =
                |name: &str| table.iter().find(|(t, _)| *t == name).map(|(_, b)| Arc::clone(b));
            let probe = build.map(|build_key| Probe { key: "v", build_key, build: &|_| None });
            let keys: Vec<&str> = key.into_iter().collect();
            // `avg`, `min` and `max` over no rows fail alike; `count` and
            // `sum` answer anyway.
            let sums = [Aggregate::Sum("v".into()), Aggregate::Count];
            let sums = &sums[if date { 1 } else { 0 }..];
            [aggs, sums].map(|aggs| {
                outs(ops::scan_aggregate(&lookup, vals.len(), preds, probe.as_ref(), &keys, aggs))
            })
        };
        // Join (as either side).
        let joins = |col: &Column, build: &Bat| {
            let b = dense(col);
            [ops::join(&b, &ops::reverse(build)).unwrap(), ops::join(build, &ops::reverse(&b)).unwrap()]
        };
        // Narrow × narrow (at the column's width and at another), plain ×
        // narrow and narrow × plain, each against plain × plain.
        let [(thirds, thirds_plain), (other, other_plain)] = &builds;
        let plains = [thirds_plain, other_plain];
        let pairs = [(&narrow, thirds, 0), (&plain, thirds, 0), (&narrow, thirds_plain, 0), (&narrow, other, 1)];
        for (p, key) in [(0, None), (1, Some("k")), (2, Some("v")), (3, None), (4, Some("k"))] {
            let preds = &preds[..p];
            let (n, pl) = (fused(&narrow, None, preds, key), fused(&plain, None, preds, key));
            prop_assert_eq!(n, pl, "preds {} keys {:?}", p, key);
            // Every form of the build side under a range of rows and under
            // a list; a build key narrow at the column's width, scanned
            // narrow and plain, under the rest.
            let (wanted, variants) = if p <= 1 { (2, 4) } else { (1, 2) };
            let want: Vec<_> = plains[..wanted].iter().map(|b| fused(&plain, Some(b), preds, key)).collect();
            for &(col, build, twin) in &pairs[..variants] {
                let got = fused(col, Some(build), preds, key);
                prop_assert_eq!(&got, &want[twin], "preds {} keys {:?} probed", p, key);
            }
        }
        for (col, build, twin) in pairs {
            prop_assert_eq!(joins(col, build), joins(&plain, plains[twin]), "join");
        }
        let rows = |col: &Column| {
            let lookup = |_: &str| Some(Arc::new(dense(col)));
            ops::matching_rows(&lookup, vals.len(), &preds[2..3]).map_err(|e| e.to_string())
        };
        prop_assert_eq!(rows(&narrow), rows(&plain), "IN through matching_rows");

        // Sort, grouping, grouped sums (which fail alike on a `date` or an
        // `lng` overflow), gather and slice.
        let kernels = |col: &Column| {
            let b = dense(col);
            let (grp, ext) = ops::group_by(&b);
            let idx: Vec<usize> = consts.iter().map(|&c| c as usize % vals.len().max(1)).collect();
            let idx = if vals.is_empty() { Vec::new() } else { idx };
            let (lo, hi) = (vals.len() / 3, vals.len() - vals.len() / 4);
            let by_k = ops::group_by(&dense(&k)).0;
            [
                Ok(ops::sort_tail(&b, false)),
                Ok(ops::sort_tail(&b, true)),
                Ok(grp.clone()),
                Ok(ext.clone()),
                ops::grouped_sum(&dense(&k), &grp, ext.count()).map_err(|e| e.to_string()),
                ops::grouped_sum(&b, &by_k, 3).map_err(|e| e.to_string()),
                Ok(dense(&col.gather(&idx))),
                Ok(dense(&col.slice(lo, hi))),
                Ok(dense(&col.slice(0, vals.len().min(1)))),
            ]
        };
        prop_assert_eq!(kernels(&narrow), kernels(&plain), "sort, grouping, gather, slice");
        let (gathered, sliced) = (narrow.gather(&[0, 0]), narrow.slice(0, vals.len().min(1)));
        if !vals.is_empty() {
            let row = narrow.byte_size() / vals.len();
            prop_assert_eq!((gathered.byte_size(), sliced.byte_size()), (2 * row, row), "kept the form");
        }

        // Sorted, against a sorted other based at or below it and
        // reaching up to 70 000 past it (another width, or plain): the
        // joins merge, and so do the set operations on the two as heads;
        // with the unsorted column as one head they hash.
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let mut other: Vec<i64> = sorted.iter().step_by(3).copied().collect();
        let far = i64::from(consts[1] % 70_000);
        other.extend([lo.saturating_sub(1).max(min), hi.saturating_add(far).min(max)]);
        other.sort_unstable();
        let pair_ops = |a: &Column, b: &Column, unsorted: &Column| {
            let (ra, rb, ru) = (ops::reverse(&dense(a)), ops::reverse(&dense(b)), ops::reverse(&dense(unsorted)));
            [
                ops::join(&dense(a), &rb),
                ops::join(&dense(b), &ra),
                ops::semijoin(&ra, &rb),
                ops::semijoin(&rb, &ra),
                ops::kunion(&ra, &rb),
                ops::kunion(&rb, &ra),
                ops::semijoin(&ru, &rb),
                ops::semijoin(&rb, &ru),
                ops::kunion(&ru, &rb),
                ops::kunion(&rb, &ru),
            ]
            .map(|r| r.map_err(|e| e.to_string()))
        };
        let ((a, a_plain), (b, b_plain)) = (twins(&sorted), twins(&other));
        let want = pair_ops(&a_plain, &b_plain, &plain);
        for (a, b, unsorted) in [(&a, &b, &narrow), (&a, &b_plain, &narrow), (&a_plain, &b, &plain)] {
            prop_assert_eq!(pair_ops(a, b, unsorted), want.clone(), "sorted pairs");
        }

        // `DCB1`: the same bytes, and a decode takes the narrow form.
        let bytes = storage::bat_to_bytes(&dense(&narrow));
        prop_assert_eq!(&bytes, &storage::bat_to_bytes(&dense(&plain)));
        let back = storage::bat_from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.tail(), &plain);
        prop_assert_eq!(back.tail().byte_size(), narrow.byte_size());
    }
}

// ---- typed kernels vs `Val`-level oracles ---------------------------------
//
// The kernels pick an algorithm from a BAT's column types and claimed
// properties; these properties draw every column type, head shape,
// operator and constant type, and hold each result to an oracle written
// here over `Val`s (`Column::get`, `Val::try_cmp`), nested loops and
// `BTreeMap`s — nothing the kernels themselves run.

mod kernels {
    use batstore::{Bat, BatError, ColType, Column, Val};

    pub const BIG: i64 = 1 << 53;
    pub const TYPES: [ColType; 8] = [
        ColType::Void,
        ColType::Oid,
        ColType::Int,
        ColType::Lng,
        ColType::Dbl,
        ColType::Str,
        ColType::Bool,
        ColType::Date,
    ];

    /// One value of `ty` per pick, from a pool where values recur and
    /// the edges are present (extremes, neighbours above 2^53, `NaN`,
    /// both zeros, the empty and a long string).
    pub fn column(ty: ColType, picks: &[u32]) -> Column {
        fn of<T: Clone>(pool: &[T], picks: &[u32]) -> Vec<T> {
            picks.iter().map(|&p| pool[p as usize % pool.len()].clone()).collect()
        }
        let ints = [i32::MIN, -3, -1, 0, 1, 2, 3, 4, 7, i32::MAX];
        match ty {
            ColType::Void => Column::Void { seq: 3, len: picks.len() },
            ColType::Oid => Column::Oid(of(&[0, 1, 2, 3, 4, 5, 8, u64::MAX - 1, u64::MAX], picks)),
            ColType::Int => Column::Int(of(&ints, picks).into()),
            ColType::Date => Column::Date(of(&ints, picks).into()),
            ColType::Lng => Column::from(of(
                &[i64::MIN, -BIG - 1, -1, 0, 1, 2, 3, BIG, BIG + 1, BIG + 2, i64::MAX],
                picks,
            )),
            ColType::Dbl => Column::Dbl(of(
                &[f64::NEG_INFINITY, -1.5, -0.0, 0.0, 1.0, 2.5, 3.0, BIG as f64, f64::NAN],
                picks,
            )),
            ColType::Str => Column::from(of(
                &["", "a", "ab", "b", "N", "a string of some length", "héllo"],
                picks,
            )),
            ColType::Bool => Column::Bool(picks.iter().map(|p| p % 2 == 1).collect()),
        }
    }

    /// A head of `n` rows: dense from a non-zero base, ascending oids
    /// with gaps, oids in no order, or oids with duplicates.
    pub fn head(shape: usize, n: usize, picks: &[u32]) -> Column {
        let at = |i: usize| picks[i % picks.len().max(1)] as u64;
        match shape % 4 {
            0 => Column::Void { seq: 100, len: n },
            1 => Column::Oid((0..n as u64).map(|i| 3 * i + 1).collect()),
            2 => {
                let mut oids: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
                for i in (1..n).rev() {
                    oids.swap(i, (at(i) % (i as u64 + 1)) as usize);
                }
                Column::Oid(oids)
            }
            _ => Column::Oid((0..n).map(|i| at(i) % 5).collect()),
        }
    }

    pub fn constant(pick: u32) -> Val {
        let pool = [
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
            Val::Dbl(BIG as f64),
            Val::Dbl(f64::NAN),
            Val::from(""),
            Val::from("ab"),
        ];
        pool[pick as usize % pool.len()].clone()
    }

    /// A value as text, `dbl` by bit pattern (`NaN` equals itself, the
    /// zeros differ): how the equality kernels see it.
    pub fn canon(v: Val) -> String {
        match v {
            Val::Dbl(d) => format!("dbl:{:016x}", d.to_bits()),
            other => format!("{other:?}"),
        }
    }

    pub fn buns(b: &Bat) -> Vec<(String, String)> {
        (0..b.count()).map(|i| (canon(b.head().get(i)), canon(b.tail().get(i)))).collect()
    }

    /// Every property a kernel claimed of its output is true of it.
    pub fn assert_claims(b: &Bat, what: &str) {
        let p = b.props();
        assert!(!p.tail_sorted || b.tail().is_sorted(), "{what}: tail_sorted claimed");
        assert!(!p.head_sorted || b.head().is_sorted(), "{what}: head_sorted claimed");
        assert!(!p.head_key || b.head().is_key(), "{what}: head_key claimed");
    }

    /// The rows of `b` in `rows` order, as the BUNs a kernel should emit.
    pub fn rows_of(b: &Bat, rows: &[usize]) -> Vec<(String, String)> {
        rows.iter().map(|&i| (canon(b.head().get(i)), canon(b.tail().get(i)))).collect()
    }

    /// Strings compare with strings, everything else with each other,
    /// `nil` with all: decided from the types alone.
    pub fn comparable(ty: ColType, v: &Val) -> bool {
        v.is_nil() || (ty == ColType::Str) == matches!(v, Val::Str(_))
    }

    pub fn is_mismatch<T: std::fmt::Debug>(r: &Result<T, BatError>) -> bool {
        matches!(r, Err(BatError::TypeMismatch { .. }))
    }
}

proptest! {
    /// Every column type × head shape × operator × constant type: the
    /// typed select and `matching_rows` keep exactly the rows the `Val`
    /// comparison keeps, and refuse exactly the literals whose type does
    /// not compare with the column's.
    #[test]
    fn typed_select_and_matching_rows_equal_the_val_filter(
        ty in 0usize..8,
        shape in 0usize..4,
        op in 0usize..6,
        consts in (any::<u32>(), any::<u32>()),
        picks in prop::collection::vec(any::<u32>(), 0..60),
    ) {
        use kernels::*;
        use ops::{CmpOp, RowPredicate};
        use std::cmp::Ordering;
        use std::sync::Arc;

        let ty = TYPES[ty];
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt][op];
        let (v, w) = (constant(consts.0), constant(consts.1));
        let b = Bat::new(head(shape, picks.len(), &picks), column(ty, &picks)).unwrap();
        let cmp = |i: usize, c: &Val| b.tail().get(i).try_cmp(c);
        let all = 0..b.count();

        let theta = ops::theta_select(&b, op, &v);
        let column = || "c".to_string();
        let shared = Arc::new(Bat::dense(b.tail().clone()));
        let lookup = |name: &str| (name == "c").then(|| Arc::clone(&shared));
        let matched = ops::matching_rows(
            &lookup,
            b.count(),
            &[RowPredicate::Cmp { column: column(), op, value: v.clone() }],
        );
        if comparable(ty, &v) {
            let want: Vec<usize> =
                all.clone().filter(|&i| cmp(i, &v).is_some_and(|o| op.matches(o))).collect();
            let theta = theta.unwrap();
            prop_assert_eq!(buns(&theta), rows_of(&b, &want), "{} {:?}", op.symbol(), v);
            assert_claims(&theta, "theta_select");
            prop_assert_eq!(matched.unwrap(), want);
        } else {
            prop_assert!(is_mismatch(&theta) && is_mismatch(&matched), "{:?} / {:?}", theta, matched);
        }

        let range = ops::select_range(&b, &v, &w);
        let between = ops::matching_rows(
            &lookup,
            b.count(),
            &[RowPredicate::Between { column: column(), lo: v.clone(), hi: w.clone() }],
        );
        let listed = ops::matching_rows(
            &lookup,
            b.count(),
            &[RowPredicate::InList { column: column(), values: vec![v.clone(), w.clone()] }],
        );
        if comparable(ty, &v) && comparable(ty, &w) {
            let inside = |&i: &usize| {
                cmp(i, &v).is_some_and(|o| o != Ordering::Less)
                    && cmp(i, &w).is_some_and(|o| o != Ordering::Greater)
            };
            let want: Vec<usize> = all.clone().filter(inside).collect();
            let range = range.unwrap();
            prop_assert_eq!(buns(&range), rows_of(&b, &want), "[{:?}, {:?}]", v, w);
            assert_claims(&range, "select_range");
            prop_assert_eq!(between.unwrap(), want);
            let equal = |i: usize, c: &Val| cmp(i, c) == Some(Ordering::Equal);
            let want: Vec<usize> = all.filter(|&i| equal(i, &v) || equal(i, &w)).collect();
            prop_assert_eq!(listed.unwrap(), want, "in ({:?}, {:?})", v, w);
        } else {
            prop_assert!(is_mismatch(&range) && is_mismatch(&between) && is_mismatch(&listed));
        }
    }

    /// Positional (dense right head), merge (both sides ascending) and
    /// hash (any order, built on either side) joins each emit the nested
    /// loop's BUNs in the nested loop's order — out-of-range and
    /// duplicate oids and empty sides included.
    #[test]
    fn every_join_path_equals_the_nested_loop(
        ty in 1usize..8,
        path in 0usize..4,
        lhead in 0usize..4,
        lpicks in prop::collection::vec(any::<u32>(), 0..40),
        rpicks in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        use kernels::*;
        let ty = TYPES[ty];
        let ascending = |c: Column| match &c {
            // `NaN` keeps a dbl column out of order whatever is done.
            Column::Dbl(v) if v.iter().any(|x| x.is_nan()) => c,
            _ => c.gather(&c.sort_perm(false)),
        };
        let (ltail, rhead) = match path {
            // r's head dense: l's oids are positions, some outside it.
            0 => (column(ColType::Oid, &lpicks), Column::Void { seq: 2, len: rpicks.len() }),
            1 => (ascending(column(ty, &lpicks)), ascending(column(ty, &rpicks))),
            2 => (column(ty, &lpicks), ascending(column(ty, &rpicks))),
            _ => (column(ty, &lpicks), column(ty, &rpicks)),
        };
        let l = Bat::new(head(lhead, ltail.len(), &lpicks), ltail).unwrap();
        let r = Bat::new(rhead, column(TYPES[2 + rpicks.len() % 6], &rpicks)).unwrap();
        let joined = ops::join(&l, &r).unwrap();
        let mut want = Vec::new();
        for i in 0..l.count() {
            for j in 0..r.count() {
                if canon(l.tail().get(i)) == canon(r.head().get(j)) {
                    want.push((canon(l.head().get(i)), canon(r.tail().get(j))));
                }
            }
        }
        prop_assert_eq!(buns(&joined), want);
        assert_claims(&joined, "join");
    }

    /// `semijoin` / `kunion` against a set of head values, on the range
    /// test (dense right head), the merge (both heads ascending) and the
    /// hash path — and the merge and hash paths agree with each other on
    /// the same BUNs.
    #[test]
    fn set_operation_paths_agree_with_a_btreeset(
        ty in 0usize..8,
        path in 0usize..3,
        lpicks in prop::collection::vec(any::<u32>(), 0..40),
        rpicks in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        use kernels::*;
        use std::collections::BTreeSet;
        let ty = TYPES[ty];
        let ascending = |c: Column| match &c {
            Column::Dbl(v) if v.iter().any(|x| x.is_nan()) => c,
            _ => c.gather(&c.sort_perm(false)),
        };
        let (lhead, rhead) = match path {
            0 => (column(ColType::Oid, &lpicks), Column::Void { seq: 2, len: rpicks.len() }),
            1 => (ascending(column(ty, &lpicks)), ascending(column(ty, &rpicks))),
            _ => (column(ty, &lpicks), column(ty, &rpicks)),
        };
        let l = Bat::new(lhead, column(ColType::Int, &lpicks)).unwrap();
        let r = Bat::new(rhead, column(ColType::Int, &rpicks)).unwrap();
        let heads = |b: &Bat| -> BTreeSet<String> { buns(b).into_iter().map(|(h, _)| h).collect() };
        let (in_l, in_r) = (heads(&l), heads(&r));
        let l_rows: Vec<usize> =
            (0..l.count()).filter(|&i| in_r.contains(&canon(l.head().get(i)))).collect();
        let semi = ops::semijoin(&l, &r).unwrap();
        prop_assert_eq!(buns(&semi), rows_of(&l, &l_rows));
        let union = ops::kunion(&l, &r).unwrap();
        let added: Vec<usize> =
            (0..r.count()).filter(|&i| !in_l.contains(&canon(r.head().get(i)))).collect();
        let mut want = buns(&l);
        want.extend(rows_of(&r, &added));
        prop_assert_eq!(buns(&union), want);
        for (what, out) in [("semijoin", &semi), ("kunion", &union)] {
            assert_claims(out, what);
        }
        // The same right side with its order — and the claim that picks
        // the merge — undone takes the hash path to the same answer.
        let undone = r.gather(&(0..r.count()).rev().collect::<Vec<_>>());
        prop_assert_eq!(buns(&ops::semijoin(&l, &undone).unwrap()), buns(&semi));
    }

    /// `group_by` numbers groups in first-appearance order, exactly as a
    /// `BTreeMap` from key to next-free id does.
    #[test]
    fn grouping_equals_a_btreemap_in_first_appearance_order(
        ty in 0usize..8,
        picks in prop::collection::vec(any::<u32>(), 0..120),
    ) {
        use kernels::*;
        use std::collections::BTreeMap;
        fn number<K: Ord>(keys: impl Iterator<Item = K>) -> (Vec<u64>, Vec<usize>) {
            let mut ids: BTreeMap<K, u64> = BTreeMap::new();
            let (mut gids, mut reps) = (Vec::new(), Vec::new());
            for (i, key) in keys.enumerate() {
                let next = ids.len() as u64;
                gids.push(*ids.entry(key).or_insert_with(|| {
                    reps.push(i);
                    next
                }));
            }
            (gids, reps)
        }
        let b = Bat::dense_from(7, column(TYPES[ty], &picks));
        let key = |i: usize| canon(b.tail().get(i));
        let (grp, ext) = ops::group_by(&b);
        let (gids, reps) = number((0..b.count()).map(key));
        prop_assert_eq!(grp.tail().as_oid().unwrap(), &gids[..]);
        prop_assert_eq!(grp.head(), b.head());
        let ext_keys: Vec<String> = (0..ext.count()).map(|g| canon(ext.tail().get(g))).collect();
        prop_assert_eq!(ext_keys, reps.iter().map(|&i| key(i)).collect::<Vec<_>>());
        for (what, out) in [("grp", &grp), ("ext", &ext)] {
            assert_claims(out, what);
        }
    }
}

// ---- the fused scan → group → aggregate operator --------------------------
//
// Held to a row-at-a-time evaluation written here over `Val`s: cell for
// cell, error for error.

mod fused {
    use super::kernels::{canon, column, comparable, constant};
    use batstore::ops::{Aggregate, CmpOp, RowPredicate};
    use batstore::{BatError, ColType, Column, StrCol, Val};
    use std::cmp::Ordering;

    /// The table's columns: one of each type SQL can declare, and two
    /// more `str` ones, so that string columns come in both forms.
    pub const TYPES: [ColType; 8] = [
        ColType::Int,
        ColType::Lng,
        ColType::Dbl,
        ColType::Date,
        ColType::Str,
        ColType::Bool,
        ColType::Str,
        ColType::Str,
    ];
    pub const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt];

    /// Draws the statement's shape from a list of dice.
    pub struct Dice<'a>(pub &'a [u32], pub usize);

    impl Dice<'_> {
        pub fn roll(&mut self, sides: usize) -> usize {
            self.1 += 1;
            self.0[self.1 % self.0.len()] as usize % sides
        }
    }

    /// `rows` values per column, each column drawing its own values from
    /// the pools of `kernels::column` (extremes that overflow a sum,
    /// `NaN`, both zeros, neighbours above 2^53, the empty string). Of
    /// the `str` columns, column 4 is built from values (dictionary-coded
    /// once it has a dozen or so rows), column 6 from the same pool by
    /// `push` (plain), and column 7 from up to 600 distinct values (coded
    /// only while it holds at most 256).
    pub fn table(picks: &[u32]) -> Vec<Column> {
        TYPES
            .iter()
            .enumerate()
            .map(|(c, &ty)| {
                let own: Vec<u32> = picks
                    .iter()
                    .map(|p| p.rotate_left(5 * c as u32) ^ (c as u32 * 0x9E37))
                    .collect();
                match (c, column(ty, &own)) {
                    (6, Column::Str(coded)) => {
                        let mut plain = StrCol::new();
                        coded.iter().for_each(|s| plain.push(s));
                        Column::Str(plain)
                    }
                    (7, _) => Column::Str(own.iter().map(|p| format!("k{}", p % 600)).collect()),
                    (_, col) => col,
                }
            })
            .collect()
    }

    /// A conjunct over any column. Three constants in four are of a type
    /// the column compares with, so that most statements get past the
    /// checks; the fourth is whatever the pool gives.
    pub fn predicate(dice: &mut Dice<'_>) -> RowPredicate {
        fn value(dice: &mut Dice<'_>, ty: ColType) -> Val {
            let any = constant(dice.roll(64) as u32);
            if dice.roll(4) == 0 {
                return any;
            }
            (0..64)
                .map(|_| constant(dice.roll(64) as u32))
                .find(|v| comparable(ty, v))
                .unwrap_or(any)
        }
        let at = dice.roll(TYPES.len());
        let (column, ty) = (at.to_string(), TYPES[at]);
        match dice.roll(3) {
            0 => RowPredicate::Cmp { column, op: OPS[dice.roll(6)], value: value(dice, ty) },
            1 => RowPredicate::Between { column, lo: value(dice, ty), hi: value(dice, ty) },
            _ => {
                // One IN list in eight is empty.
                let n = if dice.roll(8) == 0 { 0 } else { 1 + dice.roll(3) };
                RowPredicate::InList { column, values: (0..n).map(|_| value(dice, ty)).collect() }
            }
        }
    }

    /// An aggregate over any column; three sums in four are over a
    /// numeric one.
    pub fn aggregate(dice: &mut Dice<'_>) -> Aggregate {
        let any = dice.roll(TYPES.len());
        let numeric = if dice.roll(4) == 0 { any } else { any % 3 }.to_string();
        match dice.roll(5) {
            0 => Aggregate::Count,
            1 => Aggregate::Sum(numeric),
            2 => Aggregate::Avg(numeric),
            3 => Aggregate::Min(any.to_string()),
            _ => Aggregate::Max(any.to_string()),
        }
    }

    /// What a statement fails with, as the kernel classifies it.
    #[derive(Debug, PartialEq)]
    pub enum Failure {
        TypeMismatch,
        Invalid,
        Overflow,
    }

    pub fn failure(e: &BatError) -> Failure {
        match e {
            BatError::TypeMismatch { .. } => Failure::TypeMismatch,
            BatError::Invalid(_) => Failure::Invalid,
            BatError::Overflow(_) => Failure::Overflow,
            other => panic!("unexpected error {other}"),
        }
    }

    fn holds(cell: &Val, op: CmpOp, c: &Val) -> bool {
        cell.try_cmp(c).is_some_and(|o| op.matches(o))
    }

    /// A joined row: its scanned position and its build position (the
    /// scanned one again without a probe stage).
    type Row = (usize, usize);

    /// A probe stage: the build side's columns, named `b0`, `b1`, … next
    /// to the scanned table's `0`, `1`, …, and the join column of each.
    pub struct Join<'a> {
        pub build: &'a [Column],
        pub key: usize,
        pub build_key: usize,
    }

    /// The operator, a row at a time: every check before the first row,
    /// then nested loops over `Val`s — the qualifying scanned rows in
    /// order, each joined to every build row whose key has its key's bit
    /// pattern, in build order — and a `Vec` of groups in first-appearance
    /// order. Output columns as `canon` text: one per key, then one per
    /// aggregate.
    pub fn row_at_a_time(
        cols: &[Column],
        join: Option<&Join<'_>>,
        preds: &[RowPredicate],
        keys: &[String],
        aggs: &[Aggregate],
    ) -> Result<Vec<Vec<String>>, Failure> {
        // A column by name, and whether the build side holds it.
        let col = |name: &str| match name.strip_prefix('b') {
            Some(at) => (&join.expect("a probe stage").build[at.parse::<usize>().unwrap()], true),
            None => (&cols[name.parse::<usize>().unwrap()], false),
        };
        // The cell of a named column in a joined row `(scanned, build)`.
        let cell = |name: &str, (i, j): Row| match col(name) {
            (c, true) => c.get(j),
            (c, false) => c.get(i),
        };
        for p in preds {
            let consts: Vec<&Val> = match p {
                RowPredicate::Cmp { value, .. } => vec![value],
                RowPredicate::Between { lo, hi, .. } => vec![lo, hi],
                RowPredicate::InList { values, .. } if values.is_empty() => {
                    return Err(Failure::Invalid)
                }
                RowPredicate::InList { values, .. } => values.iter().collect(),
            };
            if !consts.iter().all(|v| comparable(col(p.column()).0.col_type(), v)) {
                return Err(Failure::TypeMismatch);
            }
        }
        if join.is_some_and(|j| cols[j.key].col_type() != j.build[j.build_key].col_type()) {
            return Err(Failure::TypeMismatch);
        }
        for a in aggs {
            if let Aggregate::Sum(c) | Aggregate::Avg(c) = a {
                if !matches!(col(c).0.col_type(), ColType::Int | ColType::Lng | ColType::Dbl) {
                    return Err(Failure::TypeMismatch);
                }
            }
        }

        let qualifies = |i: usize| {
            preds.iter().all(|p| {
                let cell = col(p.column()).0.get(i);
                match p {
                    RowPredicate::Cmp { op, value, .. } => holds(&cell, *op, value),
                    RowPredicate::Between { lo, hi, .. } => {
                        holds(&cell, CmpOp::Ge, lo) && holds(&cell, CmpOp::Le, hi)
                    }
                    RowPredicate::InList { values, .. } => {
                        values.iter().any(|v| holds(&cell, CmpOp::Eq, v))
                    }
                }
            })
        };
        let mut rows = Vec::new();
        for i in (0..cols[0].len()).filter(|&i| qualifies(i)) {
            match join {
                None => rows.push((i, i)),
                Some(join) => {
                    let key = canon(cols[join.key].get(i));
                    let build = &join.build[join.build_key];
                    rows.extend(
                        (0..build.len()).filter(|&j| canon(build.get(j)) == key).map(|j| (i, j)),
                    );
                }
            }
        }
        // (key as text, the group's rows in order).
        let mut groups: Vec<(Vec<String>, Vec<Row>)> = Vec::new();
        if keys.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        for row in rows {
            let key: Vec<String> = keys.iter().map(|k| canon(cell(k, row))).collect();
            match groups.iter_mut().find(|g| g.0 == key) {
                Some(group) => group.1.push(row),
                None => groups.push((key, vec![row])),
            }
        }

        let mut out: Vec<Vec<String>> =
            (0..keys.len()).map(|k| groups.iter().map(|g| g.0[k].clone()).collect()).collect();
        for a in aggs {
            let mut cells = Vec::new();
            for (_, rows) in &groups {
                let sum = |c: &str| -> Result<Val, Failure> {
                    let (mut exact, mut float) = (0i128, 0f64);
                    for &row in rows {
                        match cell(c, row) {
                            Val::Int(x) => exact += i128::from(x),
                            Val::Lng(x) => exact += i128::from(x),
                            Val::Dbl(x) => float += x,
                            other => panic!("summing {other:?}"),
                        }
                    }
                    if col(c).0.col_type() == ColType::Dbl {
                        return Ok(Val::Dbl(float));
                    }
                    i64::try_from(exact).map(Val::Lng).map_err(|_| Failure::Overflow)
                };
                let extremum = |c: &str, want: Ordering| {
                    let mut best: Option<Val> = None;
                    for &row in rows {
                        let cell = cell(c, row);
                        if best.as_ref().is_none_or(|b| cell.try_cmp(b) == Some(want)) {
                            best = Some(cell);
                        }
                    }
                    best
                };
                cells.push(canon(match a {
                    Aggregate::Count => Val::Lng(rows.len() as i64),
                    Aggregate::Sum(c) => sum(c)?,
                    // The one group of an ungrouped statement, and empty:
                    // NULL, which no typed column holds.
                    Aggregate::Avg(_) | Aggregate::Min(_) | Aggregate::Max(_)
                        if rows.is_empty() =>
                    {
                        return Err(Failure::Invalid)
                    }
                    Aggregate::Avg(c) => match sum(c)? {
                        Val::Lng(s) => Val::Dbl(s as f64 / rows.len() as f64),
                        Val::Dbl(s) => Val::Dbl(s / rows.len() as f64),
                        other => panic!("sum is {other:?}"),
                    },
                    Aggregate::Min(c) => extremum(c, Ordering::Less).expect("a row"),
                    Aggregate::Max(c) => extremum(c, Ordering::Greater).expect("a row"),
                }));
            }
            out.push(cells);
        }
        Ok(out)
    }

    /// The type of each output column: a key's own, and an aggregate's
    /// declared one. Both sides' columns are typed as `TYPES`.
    pub fn output_types(keys: &[String], aggs: &[Aggregate]) -> Vec<ColType> {
        let of = |c: &str| TYPES[c.trim_start_matches('b').parse::<usize>().unwrap()];
        let keys = keys.iter().map(|k| of(k));
        keys.chain(aggs.iter().map(|a| match a {
            Aggregate::Count => ColType::Lng,
            Aggregate::Avg(_) => ColType::Dbl,
            Aggregate::Sum(c) if of(c) == ColType::Dbl => ColType::Dbl,
            Aggregate::Sum(_) => ColType::Lng,
            Aggregate::Min(c) | Aggregate::Max(c) => of(c),
        }))
        .collect()
    }

    /// The kernel answers what the row-at-a-time evaluation answers —
    /// cells, types, and every claim of each column true — or fails the
    /// way it fails.
    pub fn check(
        got: Result<Vec<batstore::Bat>, BatError>,
        want: Result<Vec<Vec<String>>, Failure>,
        keys: &[String],
        aggs: &[Aggregate],
        what: &str,
    ) {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                let text =
                    |b: &batstore::Bat| (0..b.count()).map(|g| canon(b.tail().get(g))).collect();
                let cells: Vec<Vec<String>> = got.iter().map(text).collect();
                assert_eq!(cells, want, "{what}");
                let types: Vec<ColType> = got.iter().map(|b| b.tail_type()).collect();
                assert_eq!(types, output_types(keys, aggs), "{what}");
                for b in &got {
                    assert_eq!(b.head(), &Column::Void { seq: 0, len: b.count() });
                    super::kernels::assert_claims(b, what);
                }
            }
            (Err(got), Err(want)) => assert_eq!(failure(&got), want, "{what}: {got}"),
            (got, want) => panic!("{what}: kernel {got:?}, row at a time {want:?}"),
        }
    }
}

proptest! {
    /// Column types × 0–3 conjuncts of every kind and constant type
    /// (mixed int/`dbl` bounds, out-of-range and mismatched literals in
    /// any position, empty IN lists) × 0–3 keys of mixed types (a `str`
    /// one dictionary-coded, plain, or past 256 distinct values) × every
    /// aggregate — or,
    /// with a key, none at all (DISTINCT) — over tables of up to three
    /// batches: the fused kernel answers what the row-at-a-time evaluation
    /// answers, or fails the way it fails.
    #[test]
    fn fused_kernel_equals_a_row_at_a_time_evaluation(
        picks in prop::collection::vec(any::<u32>(), 0..700),
        dice in prop::collection::vec(any::<u32>(), 64),
    ) {
        use fused::*;
        use std::sync::Arc;

        let mut dice = Dice(&dice, 0);
        let cols = table(&picks);
        let preds: Vec<_> = (0..dice.roll(4)).map(|_| predicate(&mut dice)).collect();
        let keys: Vec<String> =
            (0..dice.roll(4)).map(|_| dice.roll(TYPES.len()).to_string()).collect();
        let n_aggs = if keys.is_empty() { 1 + dice.roll(4) } else { dice.roll(5) };
        let aggs: Vec<_> = (0..n_aggs).map(|_| aggregate(&mut dice)).collect();

        let bats: Vec<Arc<Bat>> = cols.iter().map(|c| Arc::new(Bat::dense(c.clone()))).collect();
        let lookup = |name: &str| name.parse::<usize>().ok().map(|i| Arc::clone(&bats[i]));
        let names: Vec<&str> = keys.iter().map(String::as_str).collect();
        let got = ops::scan_aggregate(&lookup, picks.len(), &preds, None, &names, &aggs);
        let want = row_at_a_time(&cols, None, &preds, &keys, &aggs);
        check(got, want, &keys, &aggs, &format!("where {preds:?} by {keys:?}: {aggs:?}"));
    }

    /// The probe stage against nested loops: a scanned table of up to
    /// three batches joined to a build side of up to 40 rows (empty
    /// included, sorted now and then) on an `int`, `lng`, `dbl` or `str`
    /// key (coded or plain on either side) drawn from pools
    /// where keys recur on both sides (many-to-many; `NaN` and both zeros
    /// matched by bit pattern), now and then on keys of two domains;
    /// conjuncts as above, one statement in eight keeping no row; keys and
    /// every aggregate, `count(*)` included, from either side, over `lng`
    /// pools whose sums overflow. Cell for cell, group order included, or
    /// the same failure.
    #[test]
    fn probe_stage_equals_a_nested_loop_join(
        picks in prop::collection::vec(any::<u32>(), 0..700),
        build_picks in prop::collection::vec(any::<u32>(), 0..40),
        dice in prop::collection::vec(any::<u32>(), 64),
    ) {
        use batstore::ops::{Aggregate, CmpOp, Probe, RowPredicate};
        use fused::*;
        use std::sync::Arc;

        let mut dice = Dice(&dice, 0);
        let (cols, mut build) = (table(&picks), table(&build_picks));
        // One build side in four holds each column in ascending order,
        // which its BAT then claims: groups meet build rows out of order.
        if dice.roll(4) == 0 {
            build = build.into_iter().map(|c| c.gather(&c.sort_perm(false))).collect();
        }
        // `int`, `lng`, `dbl` and the three `str` columns: one statement
        // in eight joins two different ones.
        let domains = [0, 1, 2, 4, 6, 7];
        let key = domains[dice.roll(6)];
        let build_key = if dice.roll(8) == 0 { domains[dice.roll(6)] } else { key };
        let mut preds: Vec<_> = (0..dice.roll(4)).map(|_| predicate(&mut dice)).collect();
        if dice.roll(8) == 0 {
            let none = Val::Int(i32::MIN);
            preds.push(RowPredicate::Cmp { column: "0".into(), op: CmpOp::Lt, value: none });
        }
        // A column of either side.
        let side = |dice: &mut Dice<'_>, name: String| {
            if dice.roll(2) == 0 { name } else { format!("b{name}") }
        };
        let keys: Vec<String> = (0..dice.roll(4))
            .map(|_| {
                let name = dice.roll(TYPES.len()).to_string();
                side(&mut dice, name)
            })
            .collect();
        let n_aggs = if keys.is_empty() { 1 + dice.roll(4) } else { dice.roll(5) };
        let aggs: Vec<Aggregate> = (0..n_aggs)
            .map(|_| match aggregate(&mut dice) {
                Aggregate::Count => Aggregate::Count,
                Aggregate::Sum(c) => Aggregate::Sum(side(&mut dice, c)),
                Aggregate::Avg(c) => Aggregate::Avg(side(&mut dice, c)),
                Aggregate::Min(c) => Aggregate::Min(side(&mut dice, c)),
                Aggregate::Max(c) => Aggregate::Max(side(&mut dice, c)),
            })
            .collect();

        let bats = |cols: &[Column]| -> Vec<Arc<Bat>> {
            cols.iter().map(|c| Arc::new(Bat::dense(c.clone()))).collect()
        };
        let (scanned, built) = (bats(&cols), bats(&build));
        let lookup = |name: &str| name.parse::<usize>().ok().map(|i| Arc::clone(&scanned[i]));
        let build_col = |name: &str| {
            let at = name.strip_prefix('b')?.parse::<usize>().ok()?;
            Some(Arc::clone(&built[at]))
        };
        let probe =
            Probe { key: &key.to_string(), build_key: &built[build_key], build: &build_col };
        let names: Vec<&str> = keys.iter().map(String::as_str).collect();
        let got = ops::scan_aggregate(&lookup, picks.len(), &preds, Some(&probe), &names, &aggs);
        let join = Join { build: &build, key, build_key };
        let want = row_at_a_time(&cols, Some(&join), &preds, &keys, &aggs);
        let what = format!("on {key} = b{build_key} where {preds:?} by {keys:?}: {aggs:?}");
        check(got, want, &keys, &aggs, &what);
    }
}

// ---- codec ---------------------------------------------------------------

fn arb_header() -> impl Strategy<Value = BatHeader> {
    (
        any::<u16>(),
        any::<u32>(),
        any::<u64>(),
        0.0f64..100.0,
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(|(owner, bat, size, loi, copies, hops, cycles, version, updating)| {
            BatHeader {
                owner: NodeId(owner),
                bat: BatId(bat),
                size,
                loi,
                copies,
                hops,
                cycles,
                version,
                updating,
            }
        })
}

proptest! {
    #[test]
    fn msg_codec_round_trips(h in arb_header(), payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let msg = DcMsg::Bat {
            header: h,
            payload: if payload.is_empty() { None } else { Some(Bytes::from(payload)) },
        };
        prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn request_codec_round_trips(origin in any::<u16>(), bat in any::<u32>()) {
        let msg = DcMsg::Request(ReqMsg { origin: NodeId(origin), bat: BatId(bat) });
        prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn codec_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes); // must return Err, not panic
    }
}

// ---- LOI arithmetic --------------------------------------------------------

proptest! {
    #[test]
    fn loi_nonnegative_and_bounded(loi in 0.0f64..4.0, copies in 0u32..64, hops in 0u32..64, cycles in 1u32..1000) {
        let copies = copies.min(hops); // at most one copy per hop
        let nl = new_loi(loi, copies, hops, cycles);
        prop_assert!(nl >= 0.0);
        // newLOI = loi/cycles + cavg with cavg ≤ 1.
        prop_assert!(nl <= loi / cycles as f64 + 1.0 + 1e-12);
    }

    #[test]
    fn loi_decays_without_interest(loi in 0.0f64..4.0, hops in 1u32..64, cycles in 2u32..1000) {
        let nl = new_loi(loi, 0, hops, cycles);
        prop_assert!(nl <= loi / 2.0 + 1e-12, "no interest must decay: {} -> {}", loi, nl);
    }

    #[test]
    fn loi_monotone_in_copies(loi in 0.0f64..4.0, hops in 1u32..64, cycles in 1u32..100,
                              c1 in 0u32..64, c2 in 0u32..64) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(new_loi(loi, lo, hops, cycles) <= new_loi(loi, hi, hops, cycles));
    }
}

// ---- whole-ring liveness over random workloads ------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn random_small_workloads_always_complete(
        seed in 0u64..1000,
        nodes in 2usize..6,
        n_queries in 1usize..40,
        cap_mb in 8u64..64,
    ) {
        use dc_workloads::spec::{ExecModel, QuerySpec};
        use dc_workloads::Dataset;
        use netsim::{DetRng, SimDuration, SimTime};
        use ringsim::{RingSim, SimParams};

        let ds = Dataset::uniform(30, 120 << 20, 1 << 20, 8 << 20, nodes, seed);
        let mut rng = DetRng::new(seed ^ 0xABCD);
        let mut qs = Vec::new();
        for i in 0..n_queries {
            let node = rng.index(nodes);
            let pool = ds.remote_bats(node);
            let k = 1 + rng.index(3);
            let mut needs: Vec<datacyclotron::BatId> = Vec::new();
            for _ in 0..k {
                let b = pool[rng.index(pool.len())];
                if !needs.contains(&b) {
                    needs.push(b);
                }
            }
            let proc = needs
                .iter()
                .map(|_| SimDuration::from_millis(20 + rng.index(80) as u64))
                .collect();
            qs.push(QuerySpec {
                arrival: SimTime::from_millis((i * 37) as u64 % 3000),
                node,
                needs,
                model: ExecModel::PerBat { proc },
                tag: 0,
            });
        }
        qs.sort_by_key(|q| q.arrival);
        let total = qs.len();
        let mut params = SimParams::default().with_queue_capacity(cap_mb << 20);
        params.horizon = SimDuration::from_secs(600);
        let m = RingSim::new(nodes, ds, qs, params).run();
        prop_assert_eq!(m.completed, total, "failed={} drops={}", m.failed, m.bat_drops);
    }
}

// ---- protocol liveness under arbitrary interleavings -----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn request_propagation_always_terminates(
        origins in prop::collection::vec(0u16..8, 1..40),
        bats in prop::collection::vec(0u32..10, 1..40),
    ) {
        // A node that owns nothing and wants nothing forwards every
        // foreign request exactly once and never loops.
        let mut node = DcNode::new(NodeId(99), DcConfig::default(), &dc_obs::Registry::new(0));
        for (&o, &b) in origins.iter().zip(&bats) {
            let effects = node.on_request(ReqMsg { origin: NodeId(o), bat: BatId(b) });
            prop_assert_eq!(effects.len(), 1);
        }
        prop_assert_eq!(node.stats.requests_forwarded.get(), origins.len().min(bats.len()) as u64);
    }

    #[test]
    fn owner_state_machine_never_double_loads(requests in prop::collection::vec(0u16..6, 1..50)) {
        let mut node = DcNode::new(NodeId(0), DcConfig::default(), &dc_obs::Registry::new(0));
        node.register_owned(BatId(1), 1000);
        let mut loads = 0;
        for &o in &requests {
            for e in node.on_request(ReqMsg { origin: NodeId(o.max(1)), bat: BatId(1) }) {
                if matches!(e, datacyclotron::Effect::LoadFromDisk { .. }) {
                    loads += 1;
                }
            }
        }
        prop_assert!(loads <= 1, "only the first request may trigger the load");
    }

    #[test]
    fn pin_unpin_balanced_cache(pins in 1usize..20) {
        let mut node = DcNode::new(NodeId(1), DcConfig::default(), &dc_obs::Registry::new(0));
        // Register interest + waiting pins from `pins` queries.
        for q in 0..pins {
            node.local_request(QueryId(q as u64), BatId(5));
            let _ = node.pin(QueryId(q as u64), BatId(5));
        }
        // The BAT passes once: everyone is served, fragment cached.
        let effects = node.on_bat(BatHeader::fresh(NodeId(0), BatId(5), 100), true);
        let delivered: usize = effects
            .iter()
            .filter_map(|e| match e {
                datacyclotron::Effect::Deliver { queries, .. } => Some(queries.len()),
                _ => None,
            })
            .sum();
        prop_assert_eq!(delivered, pins);
        // Unpins drain the cache exactly once.
        let mut evictions = 0;
        for q in 0..pins {
            for e in node.unpin(QueryId(q as u64), BatId(5)) {
                if matches!(e, datacyclotron::Effect::CacheEvict(_)) {
                    evictions += 1;
                }
            }
        }
        prop_assert_eq!(evictions, 1, "cache evicted exactly once after last unpin");
    }
}

// ---- §6.1 splitting ------------------------------------------------------

proptest! {
    /// §6.1 splitting preserves the workload exactly: the parts'
    /// fragment footprints and processing times are a partition of the
    /// parent's, every part settles on the owner of its first fragment,
    /// and the part count respects the cap.
    #[test]
    fn split_partitions_needs_exactly(
        needs in prop::collection::vec(0u32..30, 1..12),
        owners in prop::collection::vec(0usize..4, 30),
        max_parts in 1usize..6,
    ) {
        use dc_workloads::{ExecModel, QuerySpec};
        use netsim::{SimDuration, SimTime};
        let dataset = dc_workloads::Dataset {
            sizes: vec![1 << 20; 30],
            owners,
        };
        let q = QuerySpec {
            arrival: SimTime::from_millis(5),
            node: 0,
            needs: needs.iter().copied().map(BatId).collect(),
            model: ExecModel::PerBat {
                proc: (0..needs.len() as u64)
                    .map(|i| SimDuration::from_millis(10 + i))
                    .collect(),
            },
            tag: 3,
        };
        let params = ringsim::SplitParams {
            max_parts,
            merge_cost: SimDuration::from_millis(1),
        };
        let (parts, map) = ringsim::split::split_queries(std::slice::from_ref(&q), &dataset, &params);

        prop_assert!(!parts.is_empty() && parts.len() <= max_parts);
        prop_assert_eq!(map.parts_of_parent, vec![parts.len()]);
        prop_assert_eq!(map.is_primary.iter().filter(|&&p| p).count(), 1);

        // The (need, proc) pairs of all parts are a permutation of the
        // parent's.
        let mut got: Vec<(u32, u64)> = Vec::new();
        for p in &parts {
            p.validate().unwrap();
            prop_assert_eq!(p.arrival, q.arrival);
            prop_assert_eq!(p.tag, q.tag);
            prop_assert_eq!(p.node, dataset.owner_of(p.needs[0]), "owner-affine settlement");
            let ExecModel::PerBat { proc } = &p.model else { panic!() };
            for (b, d) in p.needs.iter().zip(proc) {
                got.push((b.0, d.as_millis()));
            }
        }
        let ExecModel::PerBat { proc } = &q.model else { panic!() };
        let mut want: Vec<(u32, u64)> =
            q.needs.iter().zip(proc).map(|(b, d)| (b.0, d.as_millis())).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

// ---- query templates (§3.2): a hit answers like a fresh compile --------

/// Literal pools for the generated statements. Every literal is a
/// template parameter, so values that look like SQL — `?`, digits,
/// keywords inside strings, negative and `lng`-range ints — must bind as
/// plain data.
const INTS: &[&str] = &["-7", "-1", "0", "1", "2", "3", "40", "2147483647", "-2147483648"];
const LNGS: &[&str] = &["5000000000", "-9000000000", "2147483648", "12"];
const DBLS: &[&str] = &["-2.5", "0.0", "1.25", "3.5", "100.0"];
const STRS: &[&str] =
    &["'a'", "'b?'", "'it is 7'", "'select'", "'x = 1 or ?'", "'42'", "'limit 5'", "''"];

/// Draws literals from the pools; `any` widens a slot to several pools
/// (an `int` column may be handed a `lng`-range int or a string).
struct Picker {
    picks: Vec<u32>,
    at: usize,
}

impl Picker {
    fn any(&mut self, pools: &[&[&'static str]]) -> &'static str {
        let n = self.picks[self.at % self.picks.len()] as usize;
        self.at += 1;
        let pool = pools[n % pools.len()];
        pool[(n / pools.len()) % pool.len()]
    }

    fn of(&mut self, pool: &[&'static str]) -> &'static str {
        self.any(&[pool])
    }
}

/// One statement of `shape` over `kv (id int, big lng, f dbl, tag
/// varchar)`. `op` and `limit` shape the plan and so belong to the
/// template key; everything `p` draws is a bound parameter.
fn template_stmt(shape: u8, op: &str, limit: usize, p: &mut Picker) -> String {
    match shape {
        0 => format!(
            "select id, tag from kv where id {op} {} order by id limit {limit}",
            p.any(&[INTS, LNGS])
        ),
        1 => format!(
            "select id, f from kv where f between {} and {} order by id",
            p.of(DBLS),
            p.of(DBLS)
        ),
        2 => format!(
            "select id, big from kv where tag in ({}, {}, {}) order by id desc",
            p.of(STRS),
            p.of(STRS),
            p.of(STRS)
        ),
        3 => format!(
            "insert into kv values ({}, {}, {}, {}), ({}, {}, {}, {})",
            p.of(INTS),
            p.of(LNGS),
            p.of(DBLS),
            p.of(STRS),
            p.of(INTS),
            p.of(LNGS),
            p.of(DBLS),
            p.of(STRS)
        ),
        4 => format!(
            "update kv set tag = {}, big = {} where id {op} {}",
            p.of(STRS),
            p.of(LNGS),
            p.of(INTS)
        ),
        5 => format!("delete from kv where id in ({}, {})", p.of(INTS), p.of(INTS)),
        // A string may land on the `int` column, on a read …
        6 => format!("select id from kv where id = {} order by id", p.any(&[INTS, STRS])),
        // … and on a write.
        7 => format!("update kv set id = {} where big > {}", p.any(&[INTS, STRS]), p.of(LNGS)),
        // The fused aggregation carries its literals as slots too: an
        // ungrouped one (which may keep no row, and then has no `min`) …
        8 => format!(
            "select count(*), sum(big), min(f) from kv where id {op} {} and f between {} and {}",
            p.any(&[INTS, LNGS, STRS]),
            p.of(DBLS),
            p.of(DBLS)
        ),
        // … and a grouped one with an IN list, ORDER BY and LIMIT …
        9 => format!(
            "select tag, sum(big), avg(f), count(*) from kv where big in ({}, {}, {}) and id {op} {} \
             group by tag, id order by tag limit {limit}",
            p.of(LNGS),
            p.of(INTS),
            p.of(LNGS),
            p.of(INTS)
        ),
        // … and DISTINCT, over plain columns and over aggregates.
        10 => format!(
            "select distinct tag, big from kv where id {op} {} order by tag limit {limit}",
            p.any(&[INTS, LNGS])
        ),
        _ => format!(
            "select distinct tag, count(*) from kv where big {op} {} group by tag, id \
             order by tag desc limit {limit}",
            p.of(LNGS)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Two statements of one shape with different literal vectors go
    /// through one node's template cache — the first compiles, the second
    /// is a hit that only binds — and each must answer exactly like a
    /// fresh `compile_sql` + run of its own text on a twin ring: same
    /// cells, same affected counts, same error for a string bound to an
    /// `int` column, same table afterwards.
    #[test]
    fn template_hit_equals_fresh_compile(
        shape in 0u8..12,
        op in 0usize..6,
        limit in 0usize..6,
        picks in prop::collection::vec(any::<u32>(), 16),
    ) {
        use batstore::ColType;
        use datacyclotron::{DcError, Ring};

        let cols = [("id", ColType::Int), ("big", ColType::Lng), ("f", ColType::Dbl), ("tag", ColType::Str)];
        let base = "insert into kv values (0, 1, 0.5, 'a'), (1, 5000000000, 1.25, 'b?'), \
                    (2, -3, 3.5, 'select'), (3, 12, -2.5, '42'), (40, 7, 100.0, 'a'), (-7, 0, 0.0, '')";
        let (cached, fresh) = (Ring::builder(1).build(), Ring::builder(1).build());
        for ring in [&cached, &fresh] {
            ring.execute(0, "create table kv (id int, big lng, f dbl, tag varchar(16))").unwrap();
            ring.execute(0, base).unwrap();
        }
        // The fresh path compiles against a catalog of its own that knows
        // the same table, and never touches a template cache.
        let mut shadow = batstore::Catalog::new();
        shadow.create_table(&mut batstore::BatStore::new(), "sys", "kv", &cols, &[]).unwrap();
        let mut next_qid = 1_000_000;
        let mut run_fresh = |sql: &str| -> Result<batstore::ResultSet, DcError> {
            next_qid += 1;
            let plan = sqlfront::compile_sql_dc(sql, &shadow)?;
            Ok(fresh.run_plan(0, next_qid, &plan)?)
        };
        let node = cached.node(0);
        let counts =
            || (node.counter("obs_template_hits").unwrap(), node.counter("obs_template_misses").unwrap());

        let op = ["=", "<", "<=", ">", ">=", "<>"][op];
        let mut picker = Picker { picks, at: 0 };
        for round in 0..2 {
            let sql = template_stmt(shape, op, limit, &mut picker);
            let before = counts();
            let got = cached.execute(0, &sql);
            let want = run_fresh(&sql);
            let (hits, misses) = counts();
            if round == 0 {
                prop_assert_eq!((hits, misses), (before.0, before.1 + 1), "first of its shape: {}", sql);
            } else {
                prop_assert_eq!((hits, misses), (before.0 + 1, before.1), "same shape again: {}", sql);
            }
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", sql);
        }
        let table = "select id, big, f, tag from kv";
        prop_assert_eq!(cached.execute(0, table).unwrap(), fresh.execute(0, table).unwrap());
    }
}
