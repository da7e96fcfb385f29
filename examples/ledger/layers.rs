//! Per-layer measurements a traced epoch takes from outside the
//! program: the nested entry points of a statement's life, timed on
//! the workload's own statements, and the kernels and codecs, timed on
//! the workload's own columns. Every call goes through the tracer, so
//! the same calls are the trace's spans.

use crate::cluster::{same_answer, Cluster, LocalDb};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{KernelCols, Op};
use batstore::ops::{self, CmpOp, RowPredicate};
use batstore::{storage, Bat, ResultSet, Val};
use bytes::Bytes;
use datacyclotron::{BatHeader, BatId, DcMsg, NodeId, RingTransport};
use dc_client::proto::{self, Frame, ResultAssembler, DEFAULT_BATCH_ROWS};
use dc_transport::tcp::join_ring;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Duration;

/// Named values, in reporting order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Repetitions of each kernel and codec micro-call; the median is kept.
const MICRO_REPS: usize = 9;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-class samples of one stage; reported as the mean of the three
/// class medians (an iteration issues the classes in equal parts).
#[derive(Default)]
struct Stage([Vec<f64>; 3]);

impl Stage {
    fn push(&mut self, class: usize, d: Duration) {
        self.0[class].push(us(d));
    }

    fn class_medians(&self) -> [f64; 3] {
        [median(&self.0[0]), median(&self.0[1]), median(&self.0[2])]
    }

    fn mean_us(&self) -> f64 {
        self.class_medians().iter().sum::<f64>() / 3.0
    }
}

/// What the probe pass found.
pub struct ProbeReport {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
}

/// Run `probes` (a continuation of the measured sequence) through the
/// nested entry points: `sqlfront` parse and codegen, `mal` optimize,
/// `mal` interpretation over the local reference, then the live node —
/// two iterations (of `per_iteration` operations) through the client
/// sessions, two through in-process `RingNode::execute`, and so on, so
/// both paths see every class on both sessions and differ only by the
/// front door — and the result's frame encode and decode. The local
/// interpretation's answer is the expected answer of the live one.
/// `seen` holds the `(node, statement)` pairs the live nodes have
/// already compiled.
pub fn probe_pass(
    tracer: &mut Tracer,
    cluster: &mut Cluster,
    local: &LocalDb,
    probes: &[Op],
    per_iteration: usize,
    first_stmt: u32,
    seen: &mut HashSet<(usize, String)>,
) -> ProbeReport {
    let [mut parse, mut codegen, mut optimize, mut interp, mut compile_on_miss]: [Stage; 5] =
        Default::default();
    let [mut client, mut execute, mut encode, mut decode]: [Stage; 4] = Default::default();
    let mut instrs = Vec::new();
    let mut failed = 0;

    for (i, op) in probes.iter().enumerate() {
        let stmt = first_stmt + i as u32;
        let node = cluster.session_nodes[op.session];
        let through_client = (i / per_iteration / 2).is_multiple_of(2);
        let (ok, _) = tracer.span("statement", stmt, |tr| {
            let (parsed, t_parse) =
                tr.span("sqlfront.parse", stmt, |_| sqlfront::parse_stmt(&op.sql));
            let Ok(parsed) = parsed else { return false };
            let (plan, t_codegen) = tr.span("sqlfront.codegen", stmt, |_| {
                sqlfront::compile_stmt(&parsed, &local.catalog().read())
            });
            let Ok(plan) = plan else { return false };
            let (plan, t_optimize) = tr.span("mal.optimize", stmt, |_| {
                mal::dc_optimize(&mal::common_subexpression_eliminate(&plan))
            });
            let (want, t_interp) = tr.span("mal.interp_local", stmt, |_| local.run(&plan));
            let got = if through_client {
                let (got, took) =
                    tr.span("client", stmt, |_| cluster.sessions[op.session].query(&op.sql));
                client.push(op.class, took);
                got.ok()
            } else {
                let (got, took) =
                    tr.span("core.execute", stmt, |_| cluster.nodes[node].execute(&op.sql));
                execute.push(op.class, took);
                got.ok()
            };
            let (Ok(want), Some(got)) = (want, got) else { return false };

            parse.push(op.class, t_parse);
            codegen.push(op.class, t_codegen);
            optimize.push(op.class, t_optimize);
            interp.push(op.class, t_interp);
            // The live node compiles only statement texts it has not
            // seen (its template cache is keyed by exact text).
            let miss = seen.insert((node, op.sql.clone()));
            let compiled = if miss { t_parse + t_codegen + t_optimize } else { Duration::ZERO };
            compile_on_miss.push(op.class, compiled);
            instrs.push(plan.instrs.len() as f64);

            let (wire, t_encode) =
                tr.span("batstore.resultset_encode", stmt, |_| encode_result(&got));
            let (back, t_decode) = tr.span("client.result_decode", stmt, |_| decode_result(&wire));
            encode.push(op.class, t_encode);
            decode.push(op.class, t_decode);
            same_answer(&got, &want) && back.is_some_and(|b| same_answer(&b, &want))
        });
        failed += usize::from(!ok);
    }

    let (exec, interp_m, miss) =
        (execute.class_medians(), interp.class_medians(), compile_on_miss.class_medians());
    let ring_wait_us = (0..3).map(|c| exec[c] - miss[c] - interp_m[c]).sum::<f64>() / 3.0;
    let metrics = vec![
        ("client.result_decode_us", decode.mean_us()),
        ("sqlserve.overhead_us", client.mean_us() - execute.mean_us()),
        ("sqlfront.parse_us", parse.mean_us()),
        ("sqlfront.codegen_us", codegen.mean_us()),
        ("mal.optimize_us", optimize.mean_us()),
        ("mal.plan_instrs", instrs.iter().sum::<f64>() / instrs.len().max(1) as f64),
        ("mal.interp_local_ms", interp.mean_us() / 1e3),
        ("batstore.resultset_encode_us", encode.mean_us()),
        ("core.execute_ms", execute.mean_us() / 1e3),
        ("core.ring_wait_ms", ring_wait_us / 1e3),
    ];
    ProbeReport { metrics, attempted: probes.len(), failed }
}

/// The server side of a result: split into frames, each encoded.
fn encode_result(rs: &ResultSet) -> Vec<Vec<u8>> {
    proto::result_frames(rs, DEFAULT_BATCH_ROWS)
        .iter()
        .map(|f| proto::encode(f).expect("encode result frame"))
        .collect()
}

/// The client side: decode the frames and reassemble the result.
fn decode_result(wire: &[Vec<u8>]) -> Option<ResultSet> {
    let mut assembler = None;
    for body in wire {
        match proto::decode(body).ok()? {
            Frame::ResultHeader { columns, affected, info } => {
                assembler = Some(ResultAssembler::new(columns, affected, info));
            }
            Frame::RowBatch { cols } => assembler.as_mut()?.push(cols).ok()?,
            Frame::Done => return assembler.map(ResultAssembler::finish),
            _ => return None,
        }
    }
    None
}

/// Median duration of `MICRO_REPS` calls of `f`, each a span.
fn micro<T>(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> Duration {
    let mut samples: Vec<Duration> = (0..MICRO_REPS)
        .map(|_| {
            let (out, took) = tracer.span(name, 0, |_| f());
            black_box(out);
            took
        })
        .collect();
    samples.sort();
    samples[MICRO_REPS / 2]
}

/// Direct `batstore::ops` calls on the workload's own columns.
pub fn kernel_micro(tracer: &mut Tracer, local: &LocalDb, cols: &KernelCols) -> Metrics {
    let col = |table: &str, name: &str| local.column(table, name).expect("kernel column");
    let filter = col(cols.table, cols.filter);
    let group = col(cols.table, cols.group);
    let value = col(cols.table, cols.value);
    let fk = col(cols.table, cols.fk);
    let pk = ops::reverse(&col(cols.pk.0, cols.pk.1));
    let (op, theta): (CmpOp, Val) = (cols.theta.0, Val::Int(cols.theta.1));
    let (lo, hi) = (Val::Int(cols.range.0), Val::Int(cols.range.1));
    let (grp, ext) = ops::group_by(&group);
    let pred = [RowPredicate::Cmp { column: cols.filter.to_string(), op, value: theta.clone() }];
    let lookup = |name: &str| local.column(cols.table, name);
    let rows = filter.count();

    let ns_per_row = |d: Duration| d.as_secs_f64() * 1e9 / rows.max(1) as f64;
    let (metrics, _) = tracer.span("batstore.kernels", 0, |tr| {
        let theta_select = micro(tr, "ops.theta_select", || ops::theta_select(&filter, op, &theta));
        let select_range = micro(tr, "ops.select_range", || ops::select_range(&filter, &lo, &hi));
        let group_by = micro(tr, "ops.group_by", || ops::group_by(&group));
        let grouped_sum =
            micro(tr, "ops.grouped_sum", || ops::grouped_sum(&value, &grp, ext.count()));
        let join = micro(tr, "ops.join", || ops::join(&fk, &pk));
        let sort = micro(tr, "ops.sort_tail", || ops::sort_tail(&value, false));
        let matching = micro(tr, "ops.matching_rows", || ops::matching_rows(&lookup, rows, &pred));
        vec![
            ("batstore.theta_select_ns_per_row", ns_per_row(theta_select)),
            ("batstore.select_range_ns_per_row", ns_per_row(select_range)),
            ("batstore.group_by_ns_per_row", ns_per_row(group_by)),
            ("batstore.grouped_sum_ns_per_row", ns_per_row(grouped_sum)),
            ("batstore.join_ns_per_row", ns_per_row(join)),
            ("batstore.sort_ns_per_row", ns_per_row(sort)),
            ("batstore.matching_rows_ns_per_row", ns_per_row(matching)),
        ]
    });
    metrics
}

fn bat_msg(bat: &Bat) -> DcMsg {
    let payload = Bytes::from(storage::bat_to_bytes(bat));
    let header = BatHeader::fresh(NodeId(0), BatId(1), payload.len() as u64);
    DcMsg::Bat { header, payload: Some(payload) }
}

/// `Bat` frame encode and decode of one workload column, as the ring
/// does them, and one hop of that frame between two `join_ring`
/// members (`send_data` to `recv`).
pub fn codec_and_hop_micro(tracer: &mut Tracer, local: &LocalDb, cols: &KernelCols) -> Metrics {
    let column = local.column(cols.table, cols.value).expect("codec column");
    let (metrics, _) = tracer.span("core.codec", 0, |tr| {
        let encode = micro(tr, "core.bat_encode", || datacyclotron::encode(&bat_msg(&column)));
        let frame = datacyclotron::encode(&bat_msg(&column));
        let decode = micro(tr, "core.bat_decode", || match datacyclotron::decode(&frame) {
            Ok(DcMsg::Bat { payload: Some(p), .. }) => storage::bat_from_bytes(&p).ok(),
            _ => None,
        });

        let addrs = crate::cluster::free_addrs(2);
        let peer = {
            let addrs = addrs.clone();
            std::thread::spawn(move || join_ring(&addrs, 1).expect("join hop ring"))
        };
        let sender = join_ring(&addrs, 0).expect("join hop ring");
        let receiver = peer.join().expect("hop peer");
        let msg = bat_msg(&column);
        let hop = micro(tr, "transport.bat_hop", || {
            sender.send_data(msg.clone()).expect("send_data");
            receiver.recv()
        });
        sender.close();
        receiver.close();

        let mb = frame.len() as f64 / 1e6;
        vec![
            ("core.bat_encode_us_per_mb", us(encode) / mb),
            ("core.bat_decode_us_per_mb", us(decode) / mb),
            ("transport.bat_hop_us_per_mb", us(hop) / mb),
        ]
    });
    metrics
}
