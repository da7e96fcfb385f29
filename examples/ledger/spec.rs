//! The metric glossary: every name the benchmark reports, its unit,
//! which direction is better, and — for the per-layer metrics — the
//! end-to-end metric it is expected to move and on which workload.
//! `BENCHMARK.json` at the repository root is this file written out:
//! `ledger manifest` prints it and `ledger check` fails when the file
//! differs from what `manifest()` builds.

use crate::json::Json;
use crate::workloads;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Gated metrics: the relative worsening of the median that counts
    /// as a regression. `None` for the ungated (per-layer) list.
    pub bound: Option<f64>,
    /// Definition (gated), or the end-to-end measurement this one
    /// should move and where (per-layer).
    pub note: &'static str,
}

impl Metric {
    /// An end-to-end timing on the ungated list.
    pub fn is_timed(&self) -> bool {
        self.note == TIMED
    }
}

const fn gated(name: &'static str, unit: &'static str, bound: f64, note: &'static str) -> Metric {
    Metric { name, unit, lower_is_better: true, bound: Some(bound), note }
}

const fn lower(name: &'static str, unit: &'static str, note: &'static str) -> Metric {
    Metric { name, unit, lower_is_better: true, bound: None, note }
}

const fn higher(name: &'static str, unit: &'static str, note: &'static str) -> Metric {
    Metric { name, unit, lower_is_better: false, bound: None, note }
}

/// What `BENCHMARK.json` passes as `--seconds`, and the default. The
/// operation counts ISSUE 13 sized (≈6 s epochs) are `--seconds 30`;
/// 25 keeps the benchmark driver's 92 runs inside its 3420 s cap with
/// room for the machine's slow hours.
pub const RUN_SECONDS: f64 = 25.0;

/// The gated list: the two measurements that repeat on this machine.
/// `setup_s` carries the largest bound the benchmark contract allows
/// (it asks for that); `peak_rss_mb` the tenth ISSUE 13 fixed.
pub const END_TO_END: &[Metric] = &[
    gated(
        "setup_s",
        "s",
        0.25,
        "child process start to first measured op: generate, spawn, load, converge, warm-up",
    ),
    gated("peak_rss_mb", "MiB", 0.10, "VmHWM when the measured phase ends"),
];

/// End-to-end measurements that are *not* gated: timed on this VM they
/// do not repeat within a tenth (README, "Noise"), and ISSUE 13 rules
/// that such a metric is reported, not shipped as a noisy gate.
const TIMED: &str = "end to end, ungated: the machine's speed drifts more than the bound";

const CLIENT: &str = "class*_p50_ms on oltp_mix; negligible on tpch_*";
const SQLSERVE: &str = "class*_p50_ms, ops_per_s on oltp_mix";
const SQLFRONT: &str =
    "all classes on oltp_mix (compiled every op); none on tpch_* (template hits)";
const MAL_OPT: &str = "class*_p50_ms on oltp_mix";
const MAL_INTERP: &str = "class*_p50_ms on tpch_local, then tpch_ring";
const KERNEL: &str = "class1/3_p50_ms (scan, group), class2_p50_ms (join) on tpch_local";
const RING: &str = "class*_p50_ms on tpch_ring; no change on tpch_local";
const ROUTED: &str = "class2/3_p50_ms on oltp_mix";
const TRANSPORT: &str = "class*_p50_ms on tpch_ring; class2_p50_ms on hotset_sweep";
const PERSIST: &str = "class2/3_p50_ms on oltp_mix; setup_s, class2_p50_ms on hotset_sweep";
const HOTSET: &str = "class1/3_p50_ms, ops_per_s on hotset_sweep; none elsewhere";

/// Layer names are the repository's modules.
pub const PER_LAYER: &[Metric] = &[
    higher("ops_per_s", "1/s", TIMED),
    lower("class1_p50_ms", "ms", TIMED),
    lower("class2_p50_ms", "ms", TIMED),
    lower("class3_p50_ms", "ms", TIMED),
    lower("cpu_ms_per_op", "ms", TIMED),
    lower("client.query_p50_us", "us", CLIENT),
    lower("client.p95_ms", "ms", CLIENT),
    lower("client.result_decode_us", "us", CLIENT),
    lower("sqlserve.overhead_us", "us", SQLSERVE),
    lower("sqlserve.frame_bytes_in_per_op", "B", SQLSERVE),
    lower("sqlserve.frame_bytes_out_per_op", "B", SQLSERVE),
    lower("sqlfront.parse_us", "us", SQLFRONT),
    lower("sqlfront.codegen_us", "us", SQLFRONT),
    lower("mal.optimize_us", "us", MAL_OPT),
    lower("mal.plan_instrs", "count", MAL_INTERP),
    lower("mal.interp_local_ms", "ms", MAL_INTERP),
    lower("batstore.theta_select_ns_per_row", "ns", KERNEL),
    lower("batstore.select_range_ns_per_row", "ns", KERNEL),
    lower("batstore.group_by_ns_per_row", "ns", KERNEL),
    lower("batstore.grouped_sum_ns_per_row", "ns", KERNEL),
    lower("batstore.join_ns_per_row", "ns", KERNEL),
    lower("batstore.sort_ns_per_row", "ns", KERNEL),
    lower("batstore.matching_rows_ns_per_row", "ns", "class1/2_p50_ms on oltp_mix"),
    lower("batstore.resultset_encode_us", "us", SQLSERVE),
    lower("core.execute_ms", "ms", "class*_p50_ms everywhere"),
    lower("core.ring_wait_ms", "ms", RING),
    lower("core.ring_bytes_per_op", "B", RING),
    lower("core.requests_per_op", "count", RING),
    lower("core.requests_resent", "count", RING),
    lower("core.retries", "count", ROUTED),
    lower("core.timeouts", "count", ROUTED),
    lower("core.mutations_routed_per_op", "count", ROUTED),
    lower("core.bat_encode_us_per_mb", "us", RING),
    lower("core.bat_decode_us_per_mb", "us", RING),
    lower("core.msg_bat_handle_p50_us", "us", RING),
    lower("core.msg_request_handle_p50_us", "us", RING),
    lower("core.msg_mutate_handle_p50_us", "us", ROUTED),
    lower(
        "core.idle_cpu_ms_per_s",
        "ms",
        "cpu_ms_per_op on the three ring workloads, most on oltp_mix",
    ),
    lower("transport.ring_data_bytes_out_per_op", "B", TRANSPORT),
    lower("transport.ring_req_frames_per_op", "count", TRANSPORT),
    lower("transport.bat_hop_us_per_mb", "us", TRANSPORT),
    lower("persist.wal_bytes_per_op", "B", PERSIST),
    lower("persist.wal_records_per_op", "count", PERSIST),
    lower("persist.checkpoints", "count", PERSIST),
    lower("persist.wal_append_p50_us", "us", PERSIST),
    lower("persist.checkpoint_p50_us", "us", PERSIST),
    lower("persist.durable_overhead_us", "us", PERSIST),
    lower("persist.recover_ms", "ms", PERSIST),
    lower("persist.disk_bytes_per_user_byte", "ratio", PERSIST),
    lower("hotset.evictions_per_op", "count", HOTSET),
    lower("hotset.readmits_per_op", "count", HOTSET),
    higher("hotset.hot_hit_ratio", "ratio", HOTSET),
    higher("hotset.retouch_hit_ratio", "ratio", HOTSET),
    lower("hotset.readmit_p50_us", "us", HOTSET),
    lower("hotset.spill_p50_us", "us", HOTSET),
    lower("hotset.resident_bytes", "B", HOTSET),
    lower("hotset.spilled_bytes", "B", HOTSET),
    higher("harness.trace_overhead_ratio", "ratio", "none: traced / untraced ops_per_s"),
];

fn metric_json(m: &Metric) -> Json {
    let better = if m.lower_is_better { "lower" } else { "higher" };
    let mut fields = vec![
        ("name", Json::Str(m.name.into())),
        ("unit", Json::Str(m.unit.into())),
        ("better", Json::Str(better.into())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// `BENCHMARK.json`, built from the glossary.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let workloads = workloads::ALL
        .iter()
        .map(|k| {
            Json::obj(vec![
                ("name", Json::Str(k.name().into())),
                ("why", Json::Str(k.why().into())),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "examples/ledger/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strs(&["examples/ledger"])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(metric_json).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(metric_json).collect())),
    ])
}
