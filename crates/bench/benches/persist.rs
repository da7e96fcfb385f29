//! Criterion benchmarks for the durability subsystem: WAL append
//! throughput under each fsync policy (the per-INSERT overhead a durable
//! node adds), replay throughput (the restart cost per WAL byte) and the
//! frame checksum on its own.

use batstore::{storage, Bat, Column};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dc_persist::wal::decode_frames;
use dc_persist::{FsyncPolicy, WalRecord, WalWriter};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dc_bench_persist_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A 1000-row INSERT batch as the WAL stores it.
fn append_record(version: u32) -> WalRecord {
    let rows = storage::bat_to_bytes(&Bat::dense(Column::Int((0..1000).collect())));
    WalRecord::Append { bat: 7, version, rows }
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
                black_box(w.append(&append_record(version)).expect("append"))
            })
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_wal_replay(c: &mut Criterion) {
    // A WAL of 512 batches (~2 MiB) replayed from memory: frame parsing
    // + CRC, the restart-latency component dc-persist controls.
    let mut buf = Vec::new();
    for v in 1..=512u32 {
        buf.extend_from_slice(&dc_persist::wal::encode_record(&append_record(v)));
    }
    c.bench_function("wal_replay_512_batches", |b| {
        b.iter(|| {
            let (records, torn) = decode_frames(black_box(&buf));
            assert!(!torn);
            black_box(records.len())
        })
    });

    // And end-to-end from disk through `replay_wal`.
    let dir = scratch("replay");
    let path = dir.join("wal-1.log");
    let mut w = WalWriter::create(&path, FsyncPolicy::Off).expect("wal");
    for v in 1..=512u32 {
        w.append(&append_record(v)).expect("append");
    }
    w.sync().expect("sync");
    c.bench_function("wal_replay_512_batches_from_disk", |b| {
        b.iter(|| black_box(dc_persist::replay_wal(&path).expect("replay").records.len()))
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The checksum over a `Store` record the size of a `hotset_sweep`
/// column (80 KB): what every WAL byte pays, written and replayed.
fn bench_crc(c: &mut Criterion) {
    let record: Vec<u8> =
        (0..80_022u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    c.bench_function("wal_crc32_80kb", |b| b.iter(|| black_box(dc_persist::wal::crc32(&record))));
}

criterion_group!(benches, bench_wal_append, bench_wal_replay, bench_crc);
criterion_main!(benches);
