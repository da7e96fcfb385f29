//! One epoch, run in a process of its own: generate the inputs from
//! the seed, spawn the ring, load, wait for the catalog to converge,
//! warm up, run a fixed number of operations from one closed-loop
//! client, read the counters, then build the single-node reference and
//! check every answer (warm-up included) against it, report. The
//! reference comes last so that neither set-up time nor the peak
//! resident set contains the harness's own copy of the work. A traced
//! epoch additionally records spans and runs the per-layer passes of
//! [`crate::layers`].

use crate::cluster::{same_answer, Cluster, Counters, LocalDb};
use crate::json::Json;
use crate::layers;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, Kind, Op, Workload};
use batstore::ResultSet;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub struct EpochSpec {
    pub kind: Kind,
    pub seed: u64,
    /// Measured iterations (a fixed count, not a duration, so operation
    /// and byte counts repeat exactly from epoch to epoch).
    pub iterations: usize,
    /// Give the nodes data dirs. Off only for the differential epoch
    /// behind `persist.durable_overhead_us`.
    pub durable: bool,
    /// Scratch directory for the nodes' data dirs; the parent creates
    /// it and removes it after this process has exited.
    pub dir: PathBuf,
    /// `Some` makes this a traced epoch: where it writes its spans.
    pub trace_out: Option<PathBuf>,
    /// When the parent spawned this process (ns since the Unix epoch),
    /// so set-up time includes process start.
    pub spawned_at_ns: u128,
}

/// How long the loaded ring sits idle for `core.idle_cpu_ms_per_s`.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

/// Counters whose per-statement deltas a traced epoch records.
const TRACED_COUNTERS: [&str; 5] = [
    "ring_query_bytes_moved",
    "requests_dispatched",
    "loi_readmits",
    "wal_bytes",
    "obs_ring_data_bytes_out",
];

/// Process user+system CPU so far, in ms (`/proc/self/stat` fields 14
/// and 15, in 10 ms clock ticks — the kernel's USER_HZ is 100).
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields 3.. follow the
    // closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks() + ticks()) * 10.0
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference's answer to every operation, in order. A SELECT's
/// answer is reused until a statement that changes data intervenes, so
/// a read-only workload interprets each distinct statement once.
fn reference_answers(local: &LocalDb, ops: &[Op]) -> Vec<Rc<ResultSet>> {
    let mut cache: HashMap<&str, Rc<ResultSet>> = HashMap::new();
    ops.iter()
        .map(|op| {
            let is_select = op.sql.starts_with("select");
            if !is_select {
                cache.clear();
            } else if let Some(hit) = cache.get(op.sql.as_str()) {
                return Rc::clone(hit);
            }
            let answer = Rc::new(local.execute(&op.sql).expect("reference execution"));
            if is_select {
                cache.insert(&op.sql, Rc::clone(&answer));
            }
            answer
        })
        .collect()
}

fn delta(after: &Counters, before: &Counters, name: &str) -> f64 {
    let get = |c: &Counters| c.get(name).copied().unwrap_or(0);
    (get(after) - get(before)) as f64
}

/// What the measured loop saw.
struct Measured {
    latency_us: [Vec<f64>; 3],
    /// Every answer in issue order (`None`: the statement errored),
    /// kept for the verification pass.
    answers: Vec<Option<ResultSet>>,
    wall: Duration,
    cpu_ms: f64,
    before: Counters,
    after: Counters,
    /// Traced epochs only, per class: operations that caused no
    /// re-admission, and operations counted.
    no_readmit: [(usize, usize); 3],
}

/// The measured phase: no sleeps, one statement in flight.
fn measure(tracer: &mut Tracer, cluster: &mut Cluster, ops: &[Op]) -> Measured {
    let mut m = Measured {
        latency_us: Default::default(),
        answers: Vec::with_capacity(ops.len()),
        wall: Duration::ZERO,
        cpu_ms: 0.0,
        before: cluster.counters(),
        after: Counters::new(),
        no_readmit: [(0, 0); 3],
    };
    let cpu_before = cpu_ms();
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let stmt = i as u32;
        tracer.span("statement", stmt, |tr| {
            let before = tr.recording().then(|| cluster.counters());
            let (got, took) =
                tr.span("client", stmt, |_| cluster.sessions[op.session].query(&op.sql));
            m.latency_us[op.class].push(took.as_secs_f64() * 1e6);
            m.answers.push(got.ok());
            if let Some(before) = before {
                let after = cluster.counters();
                let readmits = delta(&after, &before, "loi_readmits");
                m.no_readmit[op.class].0 += usize::from(readmits == 0.0);
                m.no_readmit[op.class].1 += 1;
                tr.counts(
                    TRACED_COUNTERS
                        .iter()
                        .map(|&c| (c, delta(&after, &before, c) as i64))
                        .collect(),
                );
            }
        });
    }
    m.wall = started.elapsed();
    m.cpu_ms = cpu_ms() - cpu_before;
    m.after = cluster.counters();
    m
}

/// How many of `answers` differ from the reference's (an errored
/// statement differs).
fn count_failed(answers: &[Option<ResultSet>], expected: &[Rc<ResultSet>]) -> usize {
    answers
        .iter()
        .zip(expected)
        .filter(|(got, want)| !got.as_ref().is_some_and(|g| same_answer(g, want)))
        .count()
}

fn opt(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// Run the epoch and return its report.
pub fn run(spec: &EpochSpec) -> Json {
    let kind = spec.kind;
    let probes = if spec.trace_out.is_some() { (spec.iterations / 4).max(6) } else { 0 };
    let mut w: Workload = workloads::generate(kind, spec.seed, spec.iterations, probes);
    let user_bytes = w.user_bytes();

    // Set-up, as a deployment would do it: spawn, load, converge,
    // warm up. The tables move into the ring; the harness keeps no copy.
    let mut cluster = Cluster::spawn(kind, spec.durable, &spec.dir);
    let table_names: Vec<String> = w.tables.iter().map(|t| t.name.clone()).collect();
    for table in std::mem::take(&mut w.tables) {
        cluster.load(table);
    }
    for name in &table_names {
        cluster.wait_for_table(name);
    }
    for (name, sql) in &w.ddl {
        cluster.sessions[0].query(sql).expect("create table");
        cluster.wait_for_table(name);
    }
    for sql in &w.preload {
        cluster.sessions[0].query(sql).expect("preload");
    }
    if let Some(budget) = kind.mem_budget() {
        cluster.wait_for_budget_fit(budget);
    }
    let warm_answers: Vec<Option<ResultSet>> =
        w.warmup.iter().map(|op| cluster.sessions[op.session].query(&op.sql).ok()).collect();
    if let Some(budget) = kind.mem_budget() {
        cluster.wait_for_budget_fit(budget);
    }
    let now_ns = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
    let setup_s = now_ns.saturating_sub(spec.spawned_at_ns) as f64 / 1e9;

    let mut tracer = Tracer::new(spec.trace_out.is_some());
    let m = measure(&mut tracer, &mut cluster, &w.ops);
    let peak_rss_mb = peak_rss_mb();

    // Verification: the same inputs, generated again, in a plain
    // single-node database; every warm-up and measured answer is
    // compared cell for cell.
    let local = LocalDb::new();
    let all: Vec<Op> = w.warmup.iter().chain(&w.ops).cloned().collect();
    let ((warmup_failed, failed), _) = tracer.span("harness.verify", 0, |_| {
        for table in workloads::generate(kind, spec.seed, 0, 0).tables {
            local.load(&table.name, &table.cols);
        }
        for sql in w.ddl.iter().map(|(_, sql)| sql).chain(&w.preload) {
            local.execute(sql).expect("reference set-up statement");
        }
        let expected = reference_answers(&local, &all);
        let (warm_expected, expected) = expected.split_at(w.warmup.len());
        (count_failed(&warm_answers, warm_expected), count_failed(&m.answers, expected))
    });

    let ops = w.ops.len() as f64;
    let all_us: Vec<f64> = m.latency_us.iter().flatten().copied().collect();

    // Beside the timed ones, the layer metrics every epoch can afford:
    // counter deltas over the measured phase and the program's own
    // latency histograms.
    let per_op = |name: &str| Json::Num(delta(&m.after, &m.before, name) / ops);
    let total = |name: &str| Json::Num(delta(&m.after, &m.before, name));
    let gauge = |name: &str| opt(m.after.get(name).map(|&v| v as f64));
    let latency = cluster.latency_p50_us();
    let hist = |name: &str| opt(latency.get(name).copied());
    let mut metrics: Vec<(&str, Json)> = vec![
        ("setup_s", Json::Num(setup_s)),
        ("peak_rss_mb", Json::Num(peak_rss_mb)),
        ("ops_per_s", Json::Num(ops / m.wall.as_secs_f64())),
        ("class1_p50_ms", Json::Num(median(&m.latency_us[0]) / 1e3)),
        ("class2_p50_ms", Json::Num(median(&m.latency_us[1]) / 1e3)),
        ("class3_p50_ms", Json::Num(median(&m.latency_us[2]) / 1e3)),
        ("cpu_ms_per_op", Json::Num(m.cpu_ms / ops)),
        ("client.query_p50_us", Json::Num(median(&all_us))),
        ("client.p95_ms", Json::Num(percentile(&all_us, 0.95) / 1e3)),
        ("sqlserve.frame_bytes_in_per_op", per_op("obs_sql_frame_bytes_in")),
        ("sqlserve.frame_bytes_out_per_op", per_op("obs_sql_frame_bytes_out")),
        ("core.ring_bytes_per_op", per_op("ring_query_bytes_moved")),
        ("core.requests_per_op", per_op("requests_dispatched")),
        ("core.requests_resent", total("requests_resent")),
        ("core.retries", total("retries")),
        ("core.timeouts", total("timeouts")),
        ("core.mutations_routed_per_op", per_op("mutations_routed")),
        ("core.msg_bat_handle_p50_us", hist("dc_msg_bat_handle_us")),
        ("core.msg_request_handle_p50_us", hist("dc_msg_request_handle_us")),
        ("core.msg_mutate_handle_p50_us", hist("dc_msg_mutate_handle_us")),
        ("transport.ring_data_bytes_out_per_op", per_op("obs_ring_data_bytes_out")),
        ("transport.ring_req_frames_per_op", per_op("obs_ring_req_frames_out")),
        ("persist.wal_bytes_per_op", per_op("wal_bytes")),
        ("persist.wal_records_per_op", per_op("wal_records")),
        ("persist.checkpoints", gauge("checkpoints")),
        ("persist.wal_append_p50_us", hist("wal_append_us")),
        ("persist.checkpoint_p50_us", hist("checkpoint_us")),
        ("hotset.evictions_per_op", per_op("loi_evictions")),
        ("hotset.readmits_per_op", per_op("loi_readmits")),
        ("hotset.readmit_p50_us", hist("readmit_us")),
        ("hotset.spill_p50_us", hist("spill_us")),
        ("hotset.resident_bytes", gauge("obs_hotset_resident_bytes")),
        ("hotset.spilled_bytes", gauge("obs_hotset_spilled_bytes")),
    ];

    let (mut probe_ops, mut probe_failed) = (0, 0);
    let mut self_times = Json::Null;
    if let Some(trace_out) = &spec.trace_out {
        let ratio = |(hits, n): (usize, usize)| opt((n > 0).then(|| hits as f64 / n as f64));
        metrics.push(("hotset.hot_hit_ratio", ratio(m.no_readmit[0])));
        metrics.push(("hotset.retouch_hit_ratio", ratio(m.no_readmit[2])));

        let seen =
            all.iter().map(|op| (cluster.session_nodes[op.session], op.sql.clone())).collect();
        let report = traced_passes(&mut tracer, &mut cluster, &local, &w, seen);
        (probe_ops, probe_failed) = (report.attempted, report.failed);
        metrics.extend(report.metrics.into_iter().map(|(k, v)| (k, Json::Num(v))));

        let table: Vec<Json> = tracer.self_times().iter().map(|s| s.to_json()).collect();
        self_times = Json::Arr(table);
        let doc = Json::obj(vec![
            ("workload", Json::Str(kind.name().into())),
            ("seed", Json::Num(spec.seed as f64)),
            ("self_times", self_times.clone()),
            ("spans", tracer.to_json()),
        ]);
        std::fs::write(trace_out, format!("{doc}\n")).expect("write trace file");
    }

    Json::obj(vec![
        ("ops", Json::Num(ops)),
        ("failed", Json::Num(failed as f64)),
        ("warmup_ops", Json::Num(w.warmup.len() as f64)),
        ("warmup_failed", Json::Num(warmup_failed as f64)),
        ("probe_ops", Json::Num(probe_ops as f64)),
        ("probe_failed", Json::Num(probe_failed as f64)),
        ("user_bytes", Json::Num(user_bytes as f64)),
        ("metrics", Json::obj(metrics)),
        ("self_times", self_times),
    ])
}

/// What only a traced epoch runs, after its measured client pass: the
/// probe pass over the nested entry points, the kernel, codec and hop
/// micro-calls, and the idle window.
fn traced_passes(
    tracer: &mut Tracer,
    cluster: &mut Cluster,
    local: &LocalDb,
    w: &Workload,
    mut seen: HashSet<(usize, String)>,
) -> layers::ProbeReport {
    let per_iteration = w.kind.ops_per_iteration();
    let first_stmt = w.ops.len() as u32;
    let mut report =
        layers::probe_pass(tracer, cluster, local, &w.probes, per_iteration, first_stmt, &mut seen);
    let cols = w.kind.kernel_cols();
    report.metrics.extend(layers::kernel_micro(tracer, local, &cols));
    report.metrics.extend(layers::codec_and_hop_micro(tracer, local, &cols));

    // The loaded ring, left alone: what the event loops' ticking costs
    // when no statement is running.
    let cpu_before = cpu_ms();
    std::thread::sleep(IDLE_WINDOW);
    let idle_cpu = (cpu_ms() - cpu_before) / IDLE_WINDOW.as_secs_f64();
    report.metrics.push(("core.idle_cpu_ms_per_s", idle_cpu));
    report
}
