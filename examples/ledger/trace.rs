//! The harness-side span recorder. The benchmark times every call it
//! makes into a layer through [`Tracer::span`]; when tracing is on, the
//! call is also recorded as a span (name, start, end, the span that
//! caused it, the statement it belongs to) together with counter deltas
//! taken at the same boundaries. Spans stay in memory until the epoch
//! ends. End-to-end metrics always come from epochs with tracing off.

use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// Statement the span belongs to (spans of one statement share it).
    pub stmt: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas between the span's start and end.
    pub counts: Vec<(&'static str, i64)>,
}

pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer { recording, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Time `f`; when recording, also keep it as a child of the
    /// innermost open span. `f` gets the tracer back so the calls it
    /// makes nest under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        stmt: u32,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.recording {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start = Instant::now();
        let start_ns = (start - self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            stmt,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        let took = start.elapsed();
        self.open.pop();
        self.spans[id as usize].end_ns = start_ns + took.as_nanos() as u64;
        (out, took)
    }

    /// Attach counter deltas to the innermost open span.
    pub fn counts(&mut self, deltas: Vec<(&'static str, i64)>) {
        if let Some(&id) = self.open.last() {
            self.spans[id as usize].counts = deltas;
        }
    }

    /// Per span name: how many, total time, self time (total minus the
    /// part covered by child spans) and the median duration.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(total as f64);
            entry.1 += total.saturating_sub(child_ns[i]);
        }
        by_name
            .into_iter()
            .map(|(name, (durations, self_ns))| SelfTime {
                name,
                count: durations.len(),
                total_ms: durations.iter().sum::<f64>() / 1e6,
                self_ms: self_ns as f64 / 1e6,
                p50_us: median(&durations) / 1e3,
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut fields = vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("stmt", Json::Num(s.stmt as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ];
                if !s.counts.is_empty() {
                    let counts = s.counts.iter().map(|&(k, v)| (k, Json::Num(v as f64))).collect();
                    fields.push(("counts", Json::obj(counts)));
                }
                Json::obj(fields)
            })
            .collect();
        Json::Arr(spans)
    }
}

pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub p50_us: f64,
}

impl SelfTime {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.to_string())),
            ("count", Json::Num(self.count as f64)),
            ("total_ms", Json::Num(self.total_ms)),
            ("self_ms", Json::Num(self.self_ms)),
            ("p50_us", Json::Num(self.p50_us)),
        ])
    }
}
