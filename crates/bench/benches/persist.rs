//! Criterion benchmarks for the durability subsystem: WAL append
//! throughput under each fsync policy (the per-INSERT overhead a durable
//! node adds), `oltp_mix`'s UPDATE and INSERT records, replay throughput
//! (the restart cost per WAL byte), recovery of a logical tail, and the
//! frame checksum on its own.

use batstore::ops::{CmpOp, MutOp, Mutation, RowPredicate};
use batstore::{Bat, ColType, Column, Val};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dc_persist::wal::decode_frames;
use dc_persist::{
    ColRec, DataDir, FragSnap, FsyncPolicy, Snapshot, TableRec, WalRecord, WalWriter,
};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dc_bench_persist_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A 1000-row INSERT into a one-column table as the WAL stores it.
fn insert_1k_record(version: u32) -> WalRecord {
    let given = vec![("id".to_string(), Column::Int((0..1000).collect()))];
    let m = Mutation {
        schema: "sys".into(),
        table: "t".into(),
        op: MutOp::Insert(given),
        preds: vec![],
    };
    WalRecord::Mutate { m, versions: vec![(7, version)] }
}

/// `oltp_mix`'s `kv`: 2 000 rows of `(id int, v int, tag varchar)`,
/// fragments 1–3.
const KV_ROWS: i32 = 2_000;

fn kv_columns() -> [(&'static str, Column); 3] {
    let tags: Vec<String> = (0..KV_ROWS).map(|i| format!("t{i:05}")).collect();
    [
        ("id", Column::from((0..KV_ROWS).collect::<Vec<i32>>())),
        ("v", Column::from((0..KV_ROWS).map(|i| i * 7 % 1000).collect::<Vec<i32>>())),
        ("tag", Column::from(tags.iter().map(String::as_str).collect::<Vec<_>>())),
    ]
}

/// `update kv set v = <value> where id = <id>`, as the owner logs it:
/// the statement and the version column `v` reaches.
fn update_record(id: i32, value: i32, version: u32) -> WalRecord {
    WalRecord::Mutate {
        m: Mutation {
            schema: "sys".into(),
            table: "kv".into(),
            op: MutOp::Update(vec![("v".into(), Val::Int(value))]),
            preds: vec![RowPredicate::Cmp {
                column: "id".into(),
                op: CmpOp::Eq,
                value: Val::Int(id),
            }],
        },
        versions: vec![(2, version)],
    }
}

/// `insert into kv values (<id>, 7, 'n<id>')`, as the owner logs it: the
/// statement with its row and the version all three columns reach.
fn insert_record(id: i32, version: u32) -> WalRecord {
    let tag = format!("n{id}");
    let given = vec![
        ("id".to_string(), Column::from(vec![id])),
        ("v".to_string(), Column::from(vec![7])),
        ("tag".to_string(), Column::from(vec![tag.as_str()])),
    ];
    WalRecord::Mutate {
        m: Mutation {
            schema: "sys".into(),
            table: "kv".into(),
            op: MutOp::Insert(given),
            preds: vec![],
        },
        versions: vec![(1, version), (2, version), (3, version)],
    }
}

fn bench_wal_append(c: &mut Criterion) {
    let dir = scratch("append");
    for (name, policy) in [
        ("wal_append_1k_rows_fsync_off", FsyncPolicy::Off),
        ("wal_append_1k_rows_fsync_every_32", FsyncPolicy::EveryN(32)),
    ] {
        let mut w = WalWriter::create(&dir.join(name), policy).expect("wal");
        let mut version = 0u32;
        c.bench_function(name, |b| {
            b.iter(|| {
                version += 1;
                black_box(w.append(&insert_1k_record(version)).expect("append"))
            })
        });
    }

    // One UPDATE and one INSERT of `oltp_mix`, each logged as the
    // statement.
    let mut w = WalWriter::create(&dir.join("mutate"), FsyncPolicy::Off).expect("wal");
    let mut version = 0u32;
    c.bench_function("wal_mutate_record", |b| {
        b.iter(|| {
            version += 1;
            black_box(w.append(&update_record(42, 4711, version)).expect("append"))
        })
    });
    let mut w = WalWriter::create(&dir.join("insert"), FsyncPolicy::Off).expect("wal");
    c.bench_function("wal_insert_record", |b| {
        b.iter(|| {
            version += 1;
            black_box(w.append(&insert_record(KV_ROWS, version)).expect("append"))
        })
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_wal_replay(c: &mut Criterion) {
    // A WAL of 512 batches (~2 MiB) replayed from memory: frame parsing
    // + CRC, the restart-latency component dc-persist controls.
    let mut buf = Vec::new();
    for v in 1..=512u32 {
        buf.extend_from_slice(&dc_persist::wal::encode_record(&insert_1k_record(v)));
    }
    c.bench_function("wal_replay_512_batches", |b| {
        b.iter(|| {
            let (records, torn) = decode_frames(black_box(&buf)).expect("no retired records");
            assert!(!torn);
            black_box(records.len())
        })
    });

    // And end-to-end from disk through `replay_wal`.
    let dir = scratch("replay");
    let path = dir.join("wal-1.log");
    let mut w = WalWriter::create(&path, FsyncPolicy::Off).expect("wal");
    for v in 1..=512u32 {
        w.append(&insert_1k_record(v)).expect("append");
    }
    w.sync().expect("sync");
    c.bench_function("wal_replay_512_batches_from_disk", |b| {
        b.iter(|| black_box(dc_persist::replay_wal(&path).expect("replay").records.len()))
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Restart of an owner whose WAL tail is 256 logged UPDATEs over a
/// checkpointed `kv`: load three fragment files, then re-execute every
/// statement against them.
fn bench_recover(c: &mut Criterion) {
    const TAIL: u32 = 256;
    let root = scratch("recover");
    let dir = DataDir::open(&root).expect("data dir");
    let mut cols = Vec::new();
    let mut frags = Vec::new();
    for (bat, (name, col)) in (1u32..).zip(kv_columns()) {
        let ty = if name == "tag" { ColType::Str } else { ColType::Int };
        cols.push(ColRec { name: name.into(), ty, bat, size: 0, owner: 0 });
        frags.push(FragSnap { bat, version: 0, payload: Some(Arc::new(Bat::dense(col))) });
    }
    let tables = vec![TableRec { origin: 0, schema: "sys".into(), table: "kv".into(), cols }];
    let snap = Snapshot { node: 0, replay_from: 2, tables, frags };
    dc_persist::write_checkpoint(&dir, &snap).expect("checkpoint");
    let mut w = WalWriter::create(&dir.wal_path(2), FsyncPolicy::Off).expect("wal");
    for v in 1..=TAIL {
        w.append(&update_record(v as i32 * 7 % KV_ROWS, v as i32, v)).expect("append");
    }
    w.sync().expect("sync");
    c.bench_function("recover_logical_tail", |b| {
        b.iter(|| {
            let rec = dc_persist::recover(&dir, 0).expect("recover");
            assert_eq!((rec.wal_records, rec.frags[&2].version), (TAIL as u64, TAIL));
            black_box(rec.frags.len())
        })
    });
    std::fs::remove_dir_all(&root).ok();
}

/// The checksum over a record the size of a `hotset_sweep` column
/// (80 KB): what every WAL byte pays, written and replayed.
fn bench_crc(c: &mut Criterion) {
    let record: Vec<u8> =
        (0..80_022u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    c.bench_function("wal_crc32_80kb", |b| b.iter(|| black_box(dc_persist::wal::crc32(&record))));
}

criterion_group!(benches, bench_wal_append, bench_wal_replay, bench_recover, bench_crc);
criterion_main!(benches);
