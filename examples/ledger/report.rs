//! What the parent prints: the per-run tables, the final result line
//! the driver reads, and the run-set files `compare` works on.

use crate::json::Json;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{self, Kind};
use crate::EpochOutcome;
use std::path::Path;

fn num(report: &Json, key: &str) -> f64 {
    report.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One metric of an epoch report; `None` when the epoch has no value
/// for it (a counter the program lacks, a pass the epoch did not run).
fn metric(report: &Json, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.as_f64()
}

/// The metrics a run-set file keeps and `compare` reads: the gated
/// ones and the ungated end-to-end timings.
fn compared() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter().filter(|m| m.is_timed()))
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))])
}

fn result_line(correct: bool, attempted: f64, failed: f64, metrics: Vec<(&str, Json)>) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn fmt(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}

/// One row: the median of the per-epoch values, their quartiles and
/// spread, the sample count and the values themselves.
fn print_row(m: &Metric, values: &[f64]) {
    if values.is_empty() {
        println!("  {:<38} {:<6} null", m.name, m.unit);
        return;
    }
    let (q1, q3) = quartiles(values).unwrap_or((values[0], values[0]));
    let spread = spread(values).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
    let each: Vec<String> = values.iter().map(|&v| fmt(v)).collect();
    println!(
        "  {:<38} {:<6} {:>10}  q1 {:>10}  q3 {:>10}  spread {:>6}  n={}  [{}]",
        m.name,
        m.unit,
        fmt(median(values)),
        fmt(q1),
        fmt(q3),
        spread,
        values.len(),
        each.join(" ")
    );
}

/// The untraced epochs of one workload.
pub struct Run<'a> {
    kind: Kind,
    seed: u64,
    seconds: f64,
    epochs: &'a [Json],
}

impl<'a> Run<'a> {
    pub fn new(kind: Kind, seed: u64, seconds: f64, epochs: &'a [Json]) -> Run<'a> {
        Run { kind, seed, seconds, epochs }
    }

    fn samples(&self, name: &str) -> Vec<f64> {
        self.epochs.iter().filter_map(|e| metric(e, name)).collect()
    }

    fn total(&self, key: &str) -> f64 {
        self.epochs.iter().map(|e| num(e, key)).sum()
    }

    fn failed(&self) -> f64 {
        self.total("failed") + self.total("warmup_failed")
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0.0
    }

    pub fn print(&self) {
        let classes = self.kind.classes();
        println!(
            "== {}  seed {}  {} epochs x {} ops  attempted {}  failed {}  (warm-up verified {} ops) ==",
            self.kind.name(),
            self.seed,
            self.epochs.len(),
            self.epochs.first().map_or(0.0, |e| num(e, "ops")),
            self.total("ops"),
            self.failed(),
            self.total("warmup_ops"),
        );
        println!("  classes: 1 = {}, 2 = {}, 3 = {}", classes[0], classes[1], classes[2]);
        println!("  end to end, gated (median of per-epoch values; each epoch a fresh process)");
        for m in END_TO_END {
            print_row(m, &self.samples(m.name));
        }
        println!("  ungated: end-to-end timings, then per layer from counters and the program's histograms");
        for m in PER_LAYER {
            let values = self.samples(m.name);
            if !values.is_empty() {
                print_row(m, &values);
            }
        }
    }

    pub fn result_line(&self) -> Json {
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, metric_json(median(&self.samples(m.name)), m.unit)))
            .collect();
        result_line(self.correct(), self.total("ops"), self.failed(), metrics)
    }
}

/// Append this run to a run-set file (created when missing): the
/// input of `compare` and the format of the checked-in baselines.
pub fn append_to_set(path: &Path, run: &Run) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let set = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            set.get("runs").map(|r| r.as_arr().to_vec()).unwrap_or_default()
        }
        Err(_) => Vec::new(),
    };
    let metrics = compared().map(|m| (m.name, Json::Num(median(&run.samples(m.name))))).collect();
    runs.push(Json::obj(vec![
        ("workload", Json::Str(run.kind.name().into())),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        ("metrics", Json::obj(metrics)),
    ]));
    let lines: Vec<String> = runs.iter().map(|r| format!("    {r}")).collect();
    let text = format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", lines.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The three epochs of a `trace` invocation.
pub struct Trace {
    pub kind: Kind,
    pub seed: u64,
    pub plain: EpochOutcome,
    pub traced: Json,
    pub diskless: Option<Json>,
}

impl Trace {
    fn failed(&self) -> f64 {
        let epochs = [Some(&self.plain.report), Some(&self.traced), self.diskless.as_ref()];
        epochs
            .into_iter()
            .flatten()
            .map(|e| num(e, "failed") + num(e, "warmup_failed") + num(e, "probe_failed"))
            .sum()
    }

    fn attempted(&self) -> f64 {
        num(&self.plain.report, "ops") + num(&self.traced, "ops") + num(&self.traced, "probe_ops")
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0.0
    }

    /// One per-layer value: counter-derived metrics from the untraced
    /// epoch (its counters carry no tracing traffic), the probe and
    /// micro-call metrics from the traced epoch, and the differential
    /// ones computed here. `None` is a metric the program or the
    /// workload does not have.
    fn layer(&self, name: &str) -> Option<f64> {
        match name {
            "harness.trace_overhead_ratio" => {
                Some(metric(&self.traced, "ops_per_s")? / metric(&self.plain.report, "ops_per_s")?)
            }
            "persist.durable_overhead_us" => {
                let diskless = self.diskless.as_ref()?;
                let gap = |key| Some(metric(&self.plain.report, key)? - metric(diskless, key)?);
                Some((gap("class2_p50_ms")? + gap("class3_p50_ms")?) / 2.0 * 1e3)
            }
            "persist.recover_ms" => self.plain.recover_ms,
            "persist.disk_bytes_per_user_byte" => {
                let user = num(&self.plain.report, "user_bytes");
                (self.kind.durable() && user > 0.0).then(|| self.plain.disk_bytes as f64 / user)
            }
            _ => metric(&self.plain.report, name).or_else(|| metric(&self.traced, name)),
        }
    }

    pub fn print(&self, trace_file: &Path) {
        println!(
            "== {}  seed {}  traced run: {} ops untraced, {} ops traced, {} probe ops  failed {} ==",
            self.kind.name(),
            self.seed,
            num(&self.plain.report, "ops"),
            num(&self.traced, "ops"),
            num(&self.traced, "probe_ops"),
            self.failed(),
        );
        println!("  {:<38} {:<6} {:>12}  should move", "per-layer metric", "unit", "value");
        for m in PER_LAYER {
            let value = self.layer(m.name).map_or("null".to_string(), fmt);
            println!("  {:<38} {:<6} {:>12}  {}", m.name, m.unit, value, m.note);
        }
        println!("  spans, by name (self = total minus the part child spans cover)");
        println!(
            "  {:<30} {:>7} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "self ms", "p50 us"
        );
        for row in self.traced.get("self_times").map(Json::as_arr).unwrap_or_default() {
            println!(
                "  {:<30} {:>7} {:>12} {:>12} {:>12}",
                row.get("name").and_then(Json::as_str).unwrap_or("?"),
                num(row, "count"),
                fmt(num(row, "total_ms")),
                fmt(num(row, "self_ms")),
                fmt(num(row, "p50_us")),
            );
        }
        println!("  spans written to {}", trace_file.display());
    }

    /// Every per-layer metric as a number: the driver's format has no
    /// null, so a metric this workload does not have reads 0.
    pub fn result_line(&self) -> Json {
        let metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, metric_json(self.layer(m.name).unwrap_or(0.0), m.unit)))
            .collect();
        result_line(self.correct(), self.attempted(), self.failed(), metrics)
    }
}

/// `(workload, metric) -> values` of one run-set file.
fn load_set(path: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let set = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for run in set.get("runs").map(Json::as_arr).unwrap_or_default() {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, value) in run.get("metrics").map(Json::fields).unwrap_or_default() {
            if let Some(v) = value.as_f64() {
                rows.push((workload.to_string(), name.clone(), v));
            }
        }
    }
    Ok(rows)
}

/// `compare`: per workload and metric, the median of each set, how
/// much worse B is than A, the widest of the two sets' own spreads, and
/// for a gated metric its bound and a verdict — `ok`, `exceeds` (worse
/// by more than the bound) or `unresolved` (a set's own spread is wider
/// than the bound, so the runs cannot tell). `Ok(false)` when any
/// pairing exceeds.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let values = |set: &[(String, String, f64)], w: &str, m: &str| -> Vec<f64> {
        set.iter().filter(|(sw, sm, _)| sw == w && sm == m).map(|r| r.2).collect()
    };
    println!(
        "{:<13} {:<15} {:>3} {:>12} {:>3} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "nA", "median A", "nB", "median B", "B worse", "spread", "bound"
    );
    let mut within = true;
    for kind in workloads::ALL {
        for m in compared() {
            let (va, vb) =
                (values(&set_a, kind.name(), m.name), values(&set_b, kind.name(), m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if m.lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
            let widest = spread(&va).unwrap_or(0.0).max(spread(&vb).unwrap_or(0.0));
            let (bound, verdict) = match m.bound {
                None => ("-".to_string(), "ungated"),
                Some(bound) => {
                    let verdict = if widest > bound {
                        "unresolved"
                    } else if worse > bound {
                        within = false;
                        "exceeds"
                    } else {
                        "ok"
                    };
                    (format!("{:.1}%", bound * 100.0), verdict)
                }
            };
            println!(
                "{:<13} {:<15} {:>3} {:>12} {:>3} {:>12} {:>+7.1}% {:>6.1}% {:>7}  {verdict}",
                kind.name(),
                m.name,
                va.len(),
                fmt(ma),
                vb.len(),
                fmt(mb),
                worse * 100.0,
                widest * 100.0,
                bound,
            );
        }
    }
    Ok(within)
}
