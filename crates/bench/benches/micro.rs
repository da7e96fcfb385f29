//! Criterion micro-benchmarks for the protocol hot paths:
//!
//! * LOI update arithmetic (runs once per BAT per owner pass),
//! * request/BAT propagation handlers (the per-message protocol cost),
//! * message codec encode/decode of a header-only frame,
//! * the ring's data plane (`bench_ring_hop`; run it alone with
//!   `cargo bench -p dc-bench --bench micro -- ring_hop`): encode and
//!   owned-frame decode of a 340 KB `Bat` frame, and `send_data` → `recv`
//!   of that frame and of a header-only one between two `join_ring`
//!   members over loopback TCP — relayed as received, or encoded from the
//!   owner's `Bat` first — and one rotation of it round three
//!   members with the payload on every hop vs on the one hop that leads
//!   to the requester,
//! * netsim event-queue throughput (simulation scalability),
//! * MAL interpreter dispatch — the paper claims "well below one µsec
//!   per instruction" (§3.2); `mal_interpreter_per_instruction` measures
//!   a 64-instruction plan, so per-instruction cost is the reading ÷ 64,
//! * the `batstore::ops` kernels at 64 k rows, one benchmark per
//!   algorithm a BAT's properties can select, and the UPDATE/DELETE
//!   predicate scan (`bench_kernels`): per-row cost is the reading ÷
//!   65 536,
//! * the fused scan → group → aggregate operator on a Q1 shape (by its
//!   two dictionary-coded flag columns, and by two `lng` columns), a Q6,
//!   a `count(*)`, a Q3 shape, the last with its hash-probe stage, and
//!   `hotset_sweep`'s read of one of its tables (`bench_fused`; run with
//!   `-- fused`).
//! * the per-node trace ring at its default size (`bench_trace`; run
//!   with `-- trace`): one push of an `oltp_mix`-shaped event into a
//!   full ring, and one `trace_events()` of a full ring.
//!
//! Comparing two revisions of a kernel: a median here moves by ±20–35 %
//! on byte-identical code when the code's layout shifts (a join at
//! 32 k of 64 k rows by ±35 %, a `lng` range select by ±20 %), so no
//! kernel difference under ≈15 % can be read off a plain build. Build
//! both sides with
//! `RUSTFLAGS="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=5"`,
//! which pins functions and blocks to fixed alignments, and run the two
//! binaries in alternating pairs (A, B, A, B, …), comparing each pair.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use datacyclotron::msg::BatHeader;
use datacyclotron::{
    decode, decode_frame, encode, new_loi, BatId, DcConfig, DcMsg, DcNode, NodeId, QueryId, ReqMsg,
    RingTransport,
};
use netsim::{EventQueue, SimTime};

fn bench_loi(c: &mut Criterion) {
    c.bench_function("loi_update", |b| {
        b.iter(|| new_loi(black_box(0.8), black_box(7), black_box(9), black_box(12)))
    });
}

fn bench_propagation(c: &mut Criterion) {
    c.bench_function("request_propagation_forward", |b| {
        let mut node = DcNode::new(NodeId(1), DcConfig::default(), &dc_obs::Registry::new(0));
        let req = ReqMsg { origin: NodeId(5), bat: BatId(99) };
        b.iter(|| black_box(node.on_request(black_box(req))));
    });

    c.bench_function("bat_propagation_no_interest", |b| {
        let mut node = DcNode::new(NodeId(1), DcConfig::default(), &dc_obs::Registry::new(0));
        let h = BatHeader::fresh(NodeId(0), BatId(7), 5 << 20);
        b.iter(|| black_box(node.on_bat(black_box(h), true)));
    });

    c.bench_function("bat_propagation_owner_cycle", |b| {
        let mut node = DcNode::new(NodeId(0), DcConfig::default(), &dc_obs::Registry::new(0));
        node.register_owned(BatId(7), 5 << 20);
        node.s1.set_state(BatId(7), datacyclotron::OwnedState::InRing { last_seen: SimTime::ZERO });
        let mut h = BatHeader::fresh(NodeId(0), BatId(7), 5 << 20);
        h.copies = 8;
        h.hops = 9;
        b.iter(|| {
            // Keep the BAT hot so the handler takes the forward path.
            h.loi = 1.0;
            h.copies = 8;
            h.hops = 9;
            black_box(node.on_bat(black_box(h), true))
        });
    });

    c.bench_function("local_request_and_serve", |b| {
        let mut node = DcNode::new(NodeId(1), DcConfig::default(), &dc_obs::Registry::new(0));
        let mut q = 0u64;
        b.iter(|| {
            q += 1;
            let qid = QueryId(q);
            let _ = node.local_request(qid, BatId(3));
            let _ = node.pin(qid, BatId(3));
            let eff = node.on_bat(BatHeader::fresh(NodeId(0), BatId(3), 1 << 20), true);
            let _ = node.unpin(qid, BatId(3));
            let _ = node.query_done(qid);
            black_box(eff)
        });
    });
}

fn bench_codec(c: &mut Criterion) {
    let msg = DcMsg::Bat {
        header: BatHeader {
            owner: NodeId(3),
            bat: BatId(500),
            size: 5 << 20,
            loi: 0.75,
            copies: 4,
            hops: 7,
            cycles: 12,
            version: 2,
            updating: false,
        },
        payload: None,
    };
    c.bench_function("codec_encode_header", |b| b.iter(|| black_box(encode(black_box(&msg)))));
    let bytes = encode(&msg);
    c.bench_function("codec_decode_header", |b| b.iter(|| black_box(decode(black_box(&bytes)))));
}

/// What one hop of a circulating fragment costs. `bench_codec` above
/// only ever sees a frame without a payload; these carry one the size of
/// a `tpch_ring` lineitem column.
fn bench_ring_hop(c: &mut Criterion) {
    let column = batstore::Bat::dense(batstore::Column::Lng((0..42_500).collect()));
    let payload = bytes::Bytes::from(batstore::storage::bat_to_bytes(&column));
    let with_payload =
        |payload| DcMsg::Bat { header: BatHeader::fresh(NodeId(0), BatId(1), 340_000), payload };
    let msg = with_payload(Some(payload));
    c.bench_function("ring_hop/encode_340kb", |b| b.iter(|| black_box(encode(black_box(&msg)))));
    let frame = encode(&msg);
    // The frame handle is cloned per iteration, as a reader hands each
    // received buffer over once: the decode itself must not copy.
    c.bench_function("ring_hop/decode_frame_340kb", |b| {
        b.iter(|| black_box(decode_frame(black_box(frame.clone()))))
    });

    let pair = tcp_ring(2);
    for (id, msg) in [
        ("ring_hop/tcp_send_recv_340kb", msg.clone()),
        ("ring_hop/tcp_send_recv_header_only", with_payload(None)),
    ] {
        c.bench_function(id, |b| {
            b.iter(|| {
                pair[0].send_data(msg.clone()).expect("send_data");
                black_box(pair[1].recv())
            })
        });
    }
    // An owner holds the `Bat` alone, so its every payload send encodes
    // the fragment first; a relay pays `tcp_send_recv_340kb` above.
    c.bench_function("ring_hop/owner_send_340kb", |b| {
        b.iter(|| {
            let payload = bytes::Bytes::from(batstore::storage::bat_to_bytes(&column));
            pair[0].send_data(with_payload(Some(payload))).expect("send_data");
            black_box(pair[1].recv())
        })
    });

    // One rotation of that fragment round a three-member ring, each
    // member forwarding what it received: the bytes on every hop (the
    // paper's ring), against the bytes on the one hop that leads to the
    // node that asked and the header alone on the other two.
    let ring = tcp_ring(3);
    for (id, laden_hops) in
        [("ring_hop/rotation_340kb_all_payload", 3), ("ring_hop/rotation_340kb_scoped", 1)]
    {
        c.bench_function(id, |b| {
            b.iter(|| {
                let mut frame = msg.clone();
                for hop in 0..3 {
                    if hop == laden_hops {
                        let DcMsg::Bat { header, .. } = frame else { unreachable!("a Bat frame") };
                        frame = DcMsg::Bat { header, payload: None };
                    }
                    ring[hop].send_data(frame).expect("send_data");
                    frame = ring[(hop + 1) % 3].recv().expect("recv");
                }
                black_box(frame)
            })
        });
    }
    for member in pair.iter().chain(&ring) {
        member.close();
    }
}

/// `n` [`join_ring`](dc_transport::tcp::join_ring) members over loopback.
fn tcp_ring(n: usize) -> Vec<dc_transport::tcp::TcpNode> {
    let reserved: Vec<std::net::TcpListener> =
        (0..n).map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<_> = reserved.iter().map(|l| l.local_addr().expect("addr")).collect();
    drop(reserved);
    let joins: Vec<_> = (0..n)
        .map(|me| {
            let addrs = addrs.clone();
            std::thread::spawn(move || dc_transport::tcp::join_ring(&addrs, me).expect("join"))
        })
        .collect();
    joins.into_iter().map(|j| j.join().expect("member")).collect()
}

fn bench_eventqueue(c: &mut Criterion) {
    c.bench_function("netsim_event_queue_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            black_box(sum)
        });
    });
}

fn bench_interpreter(c: &mut Criterion) {
    use batstore::{BatStore, Catalog, Column};
    use mal::{Arg, Const, Instr, Program};
    use parking_lot::RwLock;
    use std::sync::Arc;

    // A 64-instruction straight-line plan over tiny BATs measures
    // dispatch overhead rather than kernel work.
    let mut prog = Program::new("user", "bench");
    let x0 = prog.var("X0");
    prog.push(Instr::assign(x0, "io", "stdout", vec![]));
    for i in 1..=63 {
        let x = prog.var(&format!("X{i}"));
        let literal = vec![Arg::Const(Const::Str("int".into())), Arg::Const(Const::Int(i))];
        prog.push(Instr::assign(x, "bat", "literal", literal));
    }
    assert_eq!(prog.len(), 64);

    let mut catalog = Catalog::new();
    let mut store = BatStore::new();
    catalog
        .create_table_columnar(&mut store, "sys", "t", vec![("id", Column::from(vec![1]))])
        .unwrap();
    let ctx = mal::SessionCtx::new(Arc::new(RwLock::new(catalog)), Arc::new(RwLock::new(store)));
    c.bench_function("mal_interpreter_64_instructions", |b| {
        b.iter(|| black_box(mal::run_sequential(&prog, &ctx).unwrap()));
    });
}

/// splitmix64: values a branch predictor cannot learn, as a generated
/// table's are.
fn splitmix(x: u64) -> usize {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 1) as usize
}

/// Each kernel path at 64 k rows: the positional, merge and hash joins
/// (the hash one also on keys of two forms),
/// the typed scan on three column types and through `matching_rows`, the
/// merge and hash semijoins, and grouping at a handful and at thousands
/// of distinct keys.
fn bench_kernels(c: &mut Criterion) {
    use batstore::{ops, Bat, Column, Val};
    use std::sync::Arc;

    const N: usize = 1 << 16;
    let random = |i: usize| splitmix(i as u64);
    let ints = Bat::dense(Column::Int((0..N).map(|i| (random(i) % 10_000) as i32).collect()));
    let lngs = Bat::dense(Column::Lng((0..N).map(|i| (random(i) % 10_000) as i64).collect()));
    let flags: Vec<&str> =
        (0..N).map(|i| ["A", "N", "R", "AF", "NO", "RF"][random(i) % 6]).collect();
    let strs = Bat::dense(Column::from(flags));

    // Positional: a candidate list (every other row) fetched from a column.
    // Its median is layout-bound: it has moved by ±35 % between builds
    // whose code for this loop is byte-identical, so no kernel result
    // should be read from it.
    let candidates = Bat::dense(Column::Oid((0..N as u64).step_by(2).collect()));
    c.bench_function("kernel_join_positional_32k_of_64k", |b| {
        b.iter(|| black_box(ops::join(&candidates, &lngs).unwrap()))
    });

    // FK→PK: 64 k foreign keys against 16 k primary keys, first in key
    // order on both sides (merge), then shuffled (hash).
    let pk = ops::reverse(&Bat::dense(Column::Int((0..N as i32 / 4).collect())));
    let fk_sorted = Bat::dense(Column::Int((0..N as i32).map(|i| i / 4).collect()));
    let fk_shuffled =
        Bat::dense(Column::Int((0..N).map(|i| (random(i) % (N / 4)) as i32).collect()));
    c.bench_function("kernel_join_merge_fk_pk_64k_x_16k", |b| {
        b.iter(|| black_box(ops::join(&fk_sorted, &pk).unwrap()))
    });
    c.bench_function("kernel_join_hash_fk_pk_64k_x_16k", |b| {
        b.iter(|| black_box(ops::join(&fk_shuffled, &pk).unwrap()))
    });
    // The hash join on `lng` keys of two forms: 16 k primary keys four
    // apart (`u16` offsets), and 64 k foreign keys among them but for one
    // row in 64, which lies far above every key (`u32` offsets).
    let pk_lng = ops::reverse(&Bat::dense(Column::Lng((0..N as i64 / 4).map(|k| 4 * k).collect())));
    let fk_lng =
        (0..N).map(|i| if i % 64 == 0 { 1 << 20 } else { 4 * (random(i) % (N / 4)) as i64 });
    let fk_lng = Bat::dense(Column::Lng(fk_lng.collect()));
    assert_eq!((pk_lng.head().byte_size(), fk_lng.tail().byte_size()), (2 * N / 4, 4 * N));
    c.bench_function("kernel_join_hash_mixed_forms_64k_x_16k", |b| {
        b.iter(|| black_box(ops::join(&fk_lng, &pk_lng).unwrap()))
    });

    c.bench_function("kernel_select_int_64k", |b| {
        b.iter(|| black_box(ops::theta_select(&ints, ops::CmpOp::Lt, &Val::Int(2_500)).unwrap()))
    });
    c.bench_function("kernel_select_lng_range_64k", |b| {
        b.iter(|| black_box(ops::select_range(&lngs, &Val::Int(2_500), &Val::Int(5_000)).unwrap()))
    });
    c.bench_function("kernel_select_str_64k", |b| {
        b.iter(|| black_box(ops::uselect(&strs, &Val::from("NO")).unwrap()))
    });
    // `oltp_mix`'s write side: the rows an UPDATE or DELETE matches.
    let table = Arc::new(ints.clone());
    let lookup = |_: &str| Some(Arc::clone(&table));
    let (lo, hi) = (Val::Int(2_500), Val::Int(5_000));
    let between = [ops::RowPredicate::Between { column: "v".into(), lo, hi }];
    c.bench_function("kernel_matching_rows_int_64k", |b| {
        b.iter(|| black_box(ops::matching_rows(&lookup, N, &between).unwrap()))
    });

    // The same two candidate lists, ascending (merge) and with the
    // right one reordered so it no longer claims an order (hash).
    let left = ops::theta_select(&ints, ops::CmpOp::Lt, &Val::Int(5_000)).unwrap();
    let right = ops::theta_select(&lngs, ops::CmpOp::Ge, &Val::Int(2_500)).unwrap();
    let right_unordered = ops::sort_tail(&right, false);
    c.bench_function("kernel_semijoin_merge_32k_x_48k", |b| {
        b.iter(|| black_box(ops::semijoin(&left, &right).unwrap()))
    });
    c.bench_function("kernel_semijoin_hash_32k_x_48k", |b| {
        b.iter(|| black_box(ops::semijoin(&left, &right_unordered).unwrap()))
    });

    c.bench_function("kernel_group_by_6_keys_64k", |b| b.iter(|| black_box(ops::group_by(&strs))));
    let many = Bat::dense(Column::Int((0..N).map(|i| (random(i) % 6_000) as i32).collect()));
    c.bench_function("kernel_group_by_6000_keys_64k", |b| {
        b.iter(|| black_box(ops::group_by(&many)))
    });
}

/// The fused scan → group → aggregate operator at 64 k rows (`cargo bench
/// -p dc-bench --bench micro -- fused`): per-row cost is the reading ÷
/// 65 536.
fn bench_fused(c: &mut Criterion) {
    use batstore::ops::{self, Aggregate, CmpOp, RowPredicate};
    use batstore::{Bat, Column, Val};
    use std::sync::Arc;

    const N: usize = 1 << 16;
    let random = |i: usize, salt: u64| splitmix(i as u64 ^ salt << 32);
    // A lineitem in miniature: a date over seven years, two flag columns,
    // three `lng` measures — built from values, so narrow (`u8`, `u32`
    // and `u8` offsets) — and wide twins of the measures, whose last row
    // lies 2^40 away, so that they stay plain.
    let date =
        |i: usize| 19_920_101 + (random(i, 1) % 7) as i32 * 10_000 + (random(i, 2) % 1_231) as i32;
    let values = |salt: u64, range: usize| (0..N).map(move |i| (random(i, salt) % range) as i64);
    let lng =
        |salt: u64, range: usize| Arc::new(Bat::dense(Column::Lng(values(salt, range).collect())));
    let wide = |salt: u64, range: usize| {
        let far = values(salt, range).take(N - 1).chain([1 << 40]);
        Arc::new(Bat::dense(Column::from(far.collect::<Vec<_>>())))
    };
    let flags = |salt: u64, pool: &[&'static str]| {
        let v: Vec<&str> = (0..N).map(|i| pool[random(i, salt) % pool.len()]).collect();
        Arc::new(Bat::dense(Column::from(v)))
    };
    // The order key: four lines per order on average.
    const ORDERS: usize = N / 4;
    let cols = [
        Arc::new(Bat::dense(Column::Int((0..N).map(date).collect()))),
        flags(3, &["A", "N", "R"]),
        flags(4, &["F", "O"]),
        lng(5, 50),
        lng(6, 100_000),
        lng(7, 11),
        Arc::new(Bat::dense(Column::Int((0..N).map(|i| (random(i, 8) % ORDERS) as i32).collect()))),
        wide(5, 50),
        wide(6, 100_000),
        wide(7, 11),
    ];
    let table = |name: &str| name.parse::<usize>().ok().map(|i| Arc::clone(&cols[i]));
    let column = |i: usize| i.to_string();

    // Q1: one `<=` conjunct nearly every row passes, two string keys,
    // three sums and a count.
    let cutoff = Val::Int(19_980_902);
    let q1_pred = [RowPredicate::Cmp { column: column(0), op: CmpOp::Le, value: cutoff.clone() }];
    let q1_aggs = [
        Aggregate::Sum(column(3)),
        Aggregate::Sum(column(4)),
        Aggregate::Sum(column(5)),
        Aggregate::Count,
    ];
    c.bench_function("fused/q1_shape", |b| {
        b.iter(|| {
            black_box(
                ops::scan_aggregate(&table, N, &q1_pred, None, &["1", "2"], &q1_aggs).unwrap(),
            )
        })
    });
    // The same, grouped by two `lng` columns (11 and 50 values): no
    // dictionary codes, so each key is numbered by hash.
    c.bench_function("fused/q1_lng_keys", |b| {
        b.iter(|| {
            black_box(
                ops::scan_aggregate(&table, N, &q1_pred, None, &["5", "3"], &q1_aggs).unwrap(),
            )
        })
    });
    // Q6: three conjuncts that together keep about one row in fifty,
    // ungrouped.
    let between = |i: usize, lo: i32, hi: i32| RowPredicate::Between {
        column: column(i),
        lo: Val::Int(lo),
        hi: Val::Int(hi),
    };
    let q6_preds = [
        between(0, 19_940_101, 19_941_231),
        between(5, 5, 7),
        RowPredicate::Cmp { column: column(3), op: CmpOp::Lt, value: Val::Int(24) },
    ];
    let q6_aggs = [Aggregate::Sum(column(4)), Aggregate::Count];
    c.bench_function("fused/q6_shape", |b| {
        b.iter(|| {
            black_box(ops::scan_aggregate(&table, N, &q6_preds, None, &[], &q6_aggs).unwrap())
        })
    });
    // The same over the wide twins, which hold the same values but for
    // the last row, which no conjunct keeps.
    let q6_wide_preds = [
        between(0, 19_940_101, 19_941_231),
        between(9, 5, 7),
        RowPredicate::Cmp { column: column(7), op: CmpOp::Lt, value: Val::Int(24) },
    ];
    let q6_wide_aggs = [Aggregate::Sum(column(8)), Aggregate::Count];
    c.bench_function("fused/q6_shape_wide", |b| {
        b.iter(|| {
            let out = ops::scan_aggregate(&table, N, &q6_wide_preds, None, &[], &q6_wide_aggs);
            black_box(out.unwrap())
        })
    });
    c.bench_function("fused/count_star", |b| {
        b.iter(|| {
            black_box(ops::scan_aggregate(&table, N, &[], None, &[], &[Aggregate::Count]).unwrap())
        })
    });

    // Q3: a `>` conjunct that keeps about half the rows, each probed into
    // a build side of every eighth order (2 048 rows, as a selective join
    // of customer and orders leaves them); grouped by a build column,
    // summing a scanned one.
    let build_key = Bat::dense(Column::Int((0..ORDERS as i32).step_by(8).collect()));
    let order_date = Arc::new(Bat::dense(Column::Int((0..ORDERS / 8).map(date).collect())));
    let build = |name: &str| (name == "o_orderdate").then(|| Arc::clone(&order_date));
    let probe = ops::Probe { key: "6", build_key: &build_key, build: &build };
    let q3_pred =
        [RowPredicate::Cmp { column: column(0), op: CmpOp::Gt, value: Val::Int(19_950_315) }];
    let q3_aggs = [Aggregate::Sum(column(4))];
    c.bench_function("fused/q3_shape", |b| {
        b.iter(|| {
            let keys = ["o_orderdate"];
            let out = ops::scan_aggregate(&table, N, &q3_pred, Some(&probe), &keys, &q3_aggs);
            black_box(out.unwrap())
        })
    });

    // `hotset_sweep`'s read: `count(*), sum(a) where b < 5` over one of
    // its 20 000-row tables, whose `k`, `a` and `b` (20 000, 1 000 and 10
    // values) are narrow `int` columns.
    const SWEEP: usize = 20_000;
    let sweep = [
        (0..SWEEP as i32).collect(),
        (0..SWEEP).map(|i| (random(i, 9) % 1_000) as i32).collect(),
        (0..SWEEP).map(|i| (random(i, 10) % 10) as i32).collect::<Vec<_>>(),
    ]
    .map(|v| Arc::new(Bat::dense(Column::from(v))));
    let sweep_table = |name: &str| {
        let at = ["k", "a", "b"].iter().position(|c| *c == name);
        at.map(|i| Arc::clone(&sweep[i]))
    };
    let sweep_pred = [RowPredicate::Cmp { column: "b".into(), op: CmpOp::Lt, value: Val::Int(5) }];
    let sweep_aggs = [Aggregate::Count, Aggregate::Sum("a".into())];
    c.bench_function("fused/hotset_shape", |b| {
        b.iter(|| {
            let out = ops::scan_aggregate(&sweep_table, SWEEP, &sweep_pred, None, &[], &sweep_aggs);
            black_box(out.unwrap())
        })
    });
}

/// The trace ring at `DEFAULT_TRACE_CAP` (`cargo bench -p dc-bench
/// --bench micro -- trace`): the price of one event on the event loop,
/// and of reading a full ring back (`dc.trace`).
fn bench_trace(c: &mut Criterion) {
    use dc_obs::{Registry, DEFAULT_TRACE_CAP};

    let obs = Registry::new(0);
    let (epoch, what) = (0x1f2e_3d4c_5b6a_7988u64, "mutation on sys.kv");
    let mut stmt = 0u64;
    let mut push = |obs: &Registry| {
        stmt += 1;
        obs.trace(epoch, stmt, "apply", format_args!("{what}, {} rows", black_box(1)));
    };
    for _ in 0..DEFAULT_TRACE_CAP {
        push(&obs);
    }
    c.bench_function("trace/push_full_ring", |b| b.iter(|| push(&obs)));
    c.bench_function("trace/events_full_ring", |b| b.iter(|| black_box(obs.trace_events())));
}

criterion_group!(
    benches,
    bench_loi,
    bench_propagation,
    bench_codec,
    bench_ring_hop,
    bench_eventqueue,
    bench_interpreter,
    bench_kernels,
    bench_fused,
    bench_trace
);
criterion_main!(benches);
