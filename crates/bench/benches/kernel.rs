//! Criterion benchmarks for the batstore kernel: the operators on the
//! critical path of every MAL plan (select, join, group/aggregate,
//! sort) at a fragment-sized input (1M rows ≈ the paper's BAT scale).

use batstore::{ops, Bat, Column, Val};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn data_int(n: usize) -> Bat {
    // Deterministic pseudo-random ints with repeats (join/group fodder).
    Bat::dense(Column::Int((0..n).map(|i| ((i * 2654435761) % (n / 4 + 1)) as i32).collect()))
}

fn bench_select(c: &mut Criterion) {
    let b1m = data_int(1_000_000);
    c.bench_function("select_range_1m", |b| {
        b.iter(|| black_box(ops::select_range(&b1m, &Val::Int(1000), &Val::Int(50_000)).unwrap()))
    });
    c.bench_function("uselect_1m", |b| {
        b.iter(|| black_box(ops::uselect(&b1m, &Val::Int(77)).unwrap()))
    });
}

fn bench_join(c: &mut Criterion) {
    let l = data_int(1_000_000);
    let r = ops::reverse(&data_int(100_000));
    c.bench_function("hash_join_1m_x_100k", |b| b.iter(|| black_box(ops::join(&l, &r).unwrap())));

    let ls = Bat::dense(Column::Int((0..1_000_000).map(|i| i / 3).collect()));
    let rs = ops::reverse(&Bat::dense(Column::Int((0..100_000).collect())));
    c.bench_function("merge_join_sorted_1m_x_100k", |b| {
        b.iter(|| black_box(ops::join(&ls, &rs).unwrap()))
    });
}

fn bench_group_aggregate(c: &mut Criterion) {
    let b1m = data_int(1_000_000);
    c.bench_function("group_by_1m", |b| b.iter(|| black_box(ops::group_by(&b1m))));
    let (grp, ext) = ops::group_by(&b1m);
    c.bench_function("grouped_sum_1m", |b| {
        b.iter(|| black_box(ops::grouped_sum(&b1m, &grp, ext.count()).unwrap()))
    });
}

fn bench_sort(c: &mut Criterion) {
    let b1m = data_int(1_000_000);
    c.bench_function("sort_tail_1m", |b| b.iter(|| black_box(ops::sort_tail(&b1m, false))));
    c.bench_function("reverse_1m", |b| b.iter(|| black_box(ops::reverse(&b1m))));
}

fn bench_serialization(c: &mut Criterion) {
    let b1m = data_int(1_000_000);
    c.bench_function("bat_to_bytes_4mb", |b| {
        b.iter(|| black_box(batstore::storage::bat_to_bytes(&b1m)))
    });
    let bytes = batstore::storage::bat_to_bytes(&b1m);
    c.bench_function("bat_from_bytes_4mb", |b| {
        b.iter(|| black_box(batstore::storage::bat_from_bytes(&bytes).unwrap()))
    });

    // One fragment of each column type the ring carries, at the row
    // count of a `tpch_ring` lineitem column.
    const ROWS: usize = 40_000;
    let words = ["DELIVER IN PERSON", "MAIL", "", "TAKE BACK RETURN", "héllo"];
    let columns = [
        ("int", Column::Int((0..ROWS as i32).collect())),
        ("lng", Column::Lng((0..ROWS as i64).map(|i| i << 20).collect())),
        ("dbl", Column::Dbl((0..ROWS).map(|i| i as f64 * 0.25).collect())),
        ("str", Column::from((0..ROWS).map(|i| words[i % words.len()]).collect::<Vec<_>>())),
    ];
    for (ty, column) in columns {
        let bat = Bat::dense(column);
        c.bench_function(&format!("bat_to_bytes_{ty}_40k"), |b| {
            b.iter(|| black_box(batstore::storage::bat_to_bytes(&bat)))
        });
        let bytes = batstore::storage::bat_to_bytes(&bat);
        c.bench_function(&format!("bat_from_bytes_{ty}_40k"), |b| {
            b.iter(|| black_box(batstore::storage::bat_from_bytes(&bytes).unwrap()))
        });
    }
}

criterion_group!(
    benches,
    bench_select,
    bench_join,
    bench_group_aggregate,
    bench_sort,
    bench_serialization
);
criterion_main!(benches);
