//! # dc-obs — the observability core
//!
//! Zero-dependency (std only) telemetry primitives shared by every layer
//! of the engine: the event loop, the transports, the persist subsystem,
//! and the SQL servers all record into one per-node [`Registry`], and the
//! `dc.stats` / `dc.latency` / `dc.trace` system views plus the
//! `dc-node metrics` dump read back out of it.
//!
//! Three primitives, all safe to hammer from any thread:
//!
//! * [`Counter`] / [`Gauge`] — single atomics, lock-free on every path.
//! * [`Histogram`] — a fixed array of 64 log₂ buckets (bucket *i* holds
//!   values of bit-width *i*, the top bucket saturates), plus atomic
//!   count/sum/max. Recording is a handful of relaxed atomic adds; the
//!   `p50/p95/p99` readout happens on [`HistogramSnapshot`], so readers
//!   never block writers. Units are whatever the caller records —
//!   engine latencies use microseconds by convention (`*_us` names).
//! * [`TraceBuf`] — a bounded ring buffer of structured [`TraceEvent`]s.
//!   The pair *(boot epoch, statement id)* is the span key: one routed
//!   statement carries it from the origin's `route` through the owner's
//!   `apply`/`ack_sent` back to the origin's `ack`, so the full path of
//!   a statement can be reconstructed by joining `dc.trace` rows across
//!   nodes on that key.
//!
//! The registry hands out `Arc` handles ([`Registry::counter`] and
//! friends are get-or-create), so hot paths resolve a name once and then
//! touch only the atomic. [`counters!`] declares a struct of such handles
//! whose field names are the registered names.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Number of log₂ buckets in a [`Histogram`]: one per possible bit-width
/// of a `u64`, with the top bucket absorbing everything ≥ 2⁶².
pub const HIST_BUCKETS: usize = 64;

/// Lock a std mutex, shrugging off poisoning: telemetry must keep
/// working even if some recording thread panicked mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---- counters and gauges -------------------------------------------------

/// A monotonically increasing event count.
#[derive(Default, Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (active sessions, queue depth).
#[derive(Default, Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declare a struct of [`Counter`] handles whose `register` resolves
/// each field in a [`Registry`] under the field's own name, so a counter's
/// name is written once, where it is declared:
///
/// ```
/// dc_obs::counters! {
///     /// What a door counts.
///     pub struct Door {
///         /// People who came in.
///         entered,
///     }
/// }
/// let obs = dc_obs::Registry::new(0);
/// Door::register(&obs).entered.inc();
/// assert_eq!(obs.counter_value("entered"), Some(1));
/// ```
#[macro_export]
macro_rules! counters {
    ($(#[$attr:meta])* $vis:vis struct $name:ident { $($(#[$doc:meta])* $field:ident,)* }) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$doc])* pub $field: std::sync::Arc<$crate::Counter>,)*
        }

        impl $name {
            /// Resolve every counter in `obs` under its field's name.
            pub fn register(obs: &$crate::Registry) -> $name {
                $name { $($field: obs.counter(stringify!($field)),)* }
            }
        }
    };
}

// ---- histograms ----------------------------------------------------------

/// Which bucket a value lands in: its bit-width, so bucket 0 holds only
/// zero and bucket `i ≥ 1` holds `[2^(i-1), 2^i)`. The top bucket
/// saturates — nothing is ever dropped for being too large.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Largest value bucket `i` can hold, clipped to `u64::MAX` for the
/// saturating top bucket. Percentile readout reports this upper bound:
/// a conservative estimate that is never below the true percentile and
/// never more than one bucket (2×) above it.
fn bucket_upper(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-size log₂-bucket histogram. Recording is wait-free (relaxed
/// atomic adds); readout goes through [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record the microseconds elapsed since `start` (the engine's
    /// latency convention).
    pub fn record_elapsed_micros(&self, start: Instant) {
        self.record(start.elapsed().as_micros() as u64);
    }

    /// A point-in-time copy for readout. Buckets are loaded one at a
    /// time, so a snapshot taken mid-record can be off by the in-flight
    /// sample — fine for telemetry, never torn per bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state: mergeable across nodes and
/// the thing percentiles are computed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot in (ring-wide aggregation). Commutative and
    /// associative: bucket-wise sums plus a max of maxima.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at or below which `p` percent of samples fall, read as
    /// the containing bucket's upper bound (clipped to the observed
    /// max). `0` on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

// ---- trace events --------------------------------------------------------

/// One structured event in a node's trace ring buffer. `(epoch, stmt)`
/// is the span key for routed statements; catalog/gossip events carry
/// `(0, 0)`.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Microseconds since this node's registry was created.
    pub ts_micros: u64,
    /// Node that recorded the event.
    pub node: u16,
    /// Origin boot epoch of the statement (see the engine's
    /// `fresh_boot_epoch`), half of the span key.
    pub epoch: u64,
    /// Origin-local statement id, the other half of the span key.
    pub stmt: u64,
    /// What happened: `route`, `retry`, `timeout`, `apply`, `dedup`,
    /// `ack_sent`, `ack`, `gossip`, …
    pub event: &'static str,
    /// Free-form context (table name, row count, error text).
    pub detail: String,
}

/// A bounded ring buffer of [`TraceEvent`]s: pushing past the capacity
/// drops the oldest event, so tracing is always on and never grows.
pub struct TraceBuf {
    cap: usize,
    buf: Mutex<VecDeque<TraceEvent>>,
}

impl TraceBuf {
    pub fn new(cap: usize) -> TraceBuf {
        TraceBuf { cap: cap.max(1), buf: Mutex::new(VecDeque::new()) }
    }

    pub fn push(&self, ev: TraceEvent) {
        let mut buf = lock(&self.buf);
        if buf.len() >= self.cap {
            buf.pop_front();
        }
        buf.push_back(ev);
    }

    /// Oldest-first copy of the buffered events.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        lock(&self.buf).iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---- the registry --------------------------------------------------------

/// Default capacity of a node's trace ring buffer: enough for thousands
/// of routed statements at a few events each, bounded at well under a
/// megabyte.
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// One node's metric namespace: named counters, gauges, and histograms
/// (get-or-create, handed out as `Arc`s) plus the trace ring buffer.
pub struct Registry {
    node: u16,
    started: Instant,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    trace: TraceBuf,
}

impl Registry {
    pub fn new(node: u16) -> Registry {
        Registry::with_trace_cap(node, DEFAULT_TRACE_CAP)
    }

    pub fn with_trace_cap(node: u16, cap: usize) -> Registry {
        Registry {
            node,
            started: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            trace: TraceBuf::new(cap),
        }
    }

    pub fn node(&self) -> u16 {
        self.node
    }

    /// Microseconds since this registry (its node) started.
    pub fn now_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = lock(&self.counters);
        if let Some(c) = m.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        m.insert(name.to_string(), Arc::clone(&c));
        c
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = lock(&self.gauges);
        if let Some(g) = m.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        m.insert(name.to_string(), Arc::clone(&g));
        g
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = lock(&self.hists);
        if let Some(h) = m.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        m.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// The value of counter `name`, or `None` if no counter of that name
    /// is registered. Unlike [`Registry::counter`] this registers
    /// nothing, so a misspelled read cannot mint a zero that then shows
    /// up as a metric of its own.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        lock(&self.counters).get(name).map(|c| c.get())
    }

    /// [`Registry::counter_value`] for a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        lock(&self.gauges).get(name).map(|g| g.get())
    }

    /// Record a trace event under the `(epoch, stmt)` span key.
    pub fn trace(&self, epoch: u64, stmt: u64, event: &'static str, detail: impl Into<String>) {
        self.trace.push(TraceEvent {
            ts_micros: self.now_micros(),
            node: self.node,
            epoch,
            stmt,
            event,
            detail: detail.into(),
        });
    }

    /// Oldest-first copy of the trace ring buffer.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    /// Every counter and gauge as `(name, value)`, name-sorted: the rows
    /// of `dc.stats`.
    pub fn stats(&self) -> Vec<(String, i64)> {
        let mut rows: Vec<(String, i64)> =
            lock(&self.counters).iter().map(|(k, v)| (k.clone(), v.get() as i64)).collect();
        rows.extend(lock(&self.gauges).iter().map(|(k, v)| (k.clone(), v.get())));
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Every histogram as `(name, snapshot)`, name-sorted.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        lock(&self.hists).iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Prometheus-style `name value` lines: [`Registry::stats`] verbatim,
    /// then histograms expanded to `_count`/`_sum`/`_p50`/`_p95`/`_p99`/`_max`.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in self.stats() {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(out, "{name}_count {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_p50 {}", h.p50());
            let _ = writeln!(out, "{name}_p95 {}", h.p95());
            let _ = writeln!(out, "{name}_p99 {}", h.p99());
            let _ = writeln!(out, "{name}_max {}", h.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — good enough sample spread for the
    /// percentile reference tests without pulling in a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn bucket_index_is_monotone() {
        // Sweep every bucket boundary ± 1, in increasing value order:
        // the bucket index must never decrease, and each bucket's upper
        // bound must actually contain the values mapped into it.
        let mut values = vec![0u64];
        for i in 0..64u32 {
            values.push((1u64 << i).saturating_sub(1));
            values.push(1u64 << i);
            values.push((1u64 << i).saturating_add(1));
        }
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let b = bucket_index(v);
            assert!(b >= prev, "bucket_index not monotone at v={v}: {b} < {prev}");
            assert!(v <= bucket_upper(b), "v={v} above its bucket's upper bound");
            prev = b;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 3, "huge values all land in the top bucket");
        assert_eq!(s.count, 3);
        assert_eq!(s.max, u64::MAX);
        // The readout clips to the observed max, not to 2^64.
        assert_eq!(s.percentile(99.0), u64::MAX);
    }

    #[test]
    fn merge_is_commutative() {
        let mut rng = Rng(0xdeca_fbad);
        let (ha, hb) = (Histogram::new(), Histogram::new());
        for _ in 0..500 {
            ha.record(rng.next() >> (rng.next() % 60));
            hb.record(rng.next() >> (rng.next() % 60));
        }
        let (a, b) = (ha.snapshot(), hb.snapshot());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");
        assert_eq!(ab.count, 1000);
        assert_eq!(ab.sum, a.sum + b.sum);
        assert_eq!(ab.max, a.max.max(b.max));
    }

    /// The log₂-bucket guarantee: the reported percentile is never below
    /// the true percentile and never more than one bucket (2×) above it.
    #[test]
    fn percentiles_bracket_a_reference_computation() {
        for seed in [1u64, 42, 0xfeed_beef, 987_654_321] {
            let mut rng = Rng(seed);
            let h = Histogram::new();
            let mut samples: Vec<u64> = Vec::new();
            for _ in 0..2000 {
                // Mix magnitudes: shifts spread samples across buckets.
                let v = rng.next() >> (rng.next() % 64);
                h.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            for p in [50.0, 90.0, 95.0, 99.0] {
                let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
                let reference = samples[rank.clamp(1, samples.len()) - 1];
                let got = snap.percentile(p);
                assert!(
                    got >= reference,
                    "seed {seed} p{p}: reported {got} below true percentile {reference}"
                );
                // Within a regular bucket the readout overshoots by at
                // most one bucket (2×); the saturating top bucket only
                // promises "at most the observed max".
                let bound = if reference >= 1u64 << 62 {
                    snap.max
                } else {
                    reference.saturating_mul(2).saturating_add(1)
                };
                assert!(
                    got <= bound,
                    "seed {seed} p{p}: reported {got} above bound {bound} (ref {reference})"
                );
            }
        }
    }

    #[test]
    fn percentile_readout_on_point_distributions() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().p50(), 0, "empty histogram reads zero");
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        // One value: every percentile clips to the observed max exactly.
        assert_eq!((s.p50(), s.p95(), s.p99()), (1000, 1000, 1000));
        assert_eq!(s.mean(), 1000);
    }

    #[test]
    fn trace_buf_drops_oldest_beyond_cap() {
        let r = Registry::with_trace_cap(3, 4);
        for i in 0..10u64 {
            r.trace(7, i, "route", format!("ev{i}"));
        }
        let evs = r.trace_events();
        assert_eq!(evs.len(), 4, "bounded at the cap");
        assert_eq!(evs.first().unwrap().stmt, 6, "oldest dropped first");
        assert_eq!(evs.last().unwrap().stmt, 9);
        assert!(evs.iter().all(|e| e.node == 3 && e.epoch == 7));
        assert!(evs.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new(0);
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter("x").get(), 5, "same name, same counter");
        r.gauge("g").inc();
        assert_eq!(r.gauge("g").get(), 1);
        r.histogram("h_us").record(10);
        assert_eq!(r.histogram("h_us").snapshot().count, 1);
        assert_eq!(r.stats(), [("g".to_string(), 1), ("x".to_string(), 5)]);
    }

    #[test]
    fn reading_an_unknown_name_registers_nothing() {
        let r = Registry::new(0);
        r.counter("hits").add(3);
        r.gauge("depth").set(-2);
        assert_eq!((r.counter_value("hits"), r.gauge_value("depth")), (Some(3), Some(-2)));
        for typo in ["hit", "depth_", ""] {
            assert_eq!(r.counter_value(typo), None);
            assert_eq!(r.gauge_value(typo), None);
        }
        // A gauge is not a counter, nor the other way round.
        assert_eq!((r.counter_value("depth"), r.gauge_value("hits")), (None, None));
        assert_eq!(r.stats(), [("depth".to_string(), -2), ("hits".to_string(), 3)], "no new row");
    }

    #[test]
    fn render_text_expands_histograms() {
        let r = Registry::new(1);
        r.counter("frames_out").add(7);
        r.gauge("sessions").set(2);
        let h = r.histogram("stmt_select_us");
        for v in [100, 200, 400] {
            h.record(v);
        }
        let text = r.render_text();
        assert!(text.starts_with("frames_out 7\nsessions 2\n"), "counters and gauges by name");
        assert!(text.contains("stmt_select_us_count 3\n"));
        assert!(text.contains("stmt_select_us_sum 700\n"));
        assert!(text.contains("stmt_select_us_max 400\n"));
        assert!(text.contains("stmt_select_us_p99 "));
    }
}
