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
//!   nodes on that key. An event is a compact record in one byte ring:
//!   ≈24 B for an engine event; `obs_trace_bytes` shows what it holds.
//!
//! The registry hands out `Arc` handles ([`Registry::counter`] and
//! friends are get-or-create), so hot paths resolve a name once and then
//! touch only the atomic. [`counters!`] declares a struct of such handles
//! whose field names are the registered names.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;
use std::io::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
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
///
/// Events are records back to back in one byte ring, each: the time as
/// a LEB128 varint delta from the record before; the epoch and the event
/// name, each a varint index into a table the ring owns (a slot is
/// reused once no held record names it); `stmt` as a varint; the
/// detail's byte length as a varint, then its UTF-8.
pub struct TraceBuf {
    node: u16,
    /// Timestamps count from here (also the registry's start).
    started: Instant,
    cap: usize,
    records: Mutex<Records>,
}

impl TraceBuf {
    pub fn new(node: u16, cap: usize) -> TraceBuf {
        TraceBuf { node, started: Instant::now(), cap: cap.max(1), records: Mutex::default() }
    }

    /// Append one event, formatting its detail straight into the ring,
    /// and return the bytes the ring has allocated.
    pub fn push(&self, epoch: u64, stmt: u64, event: &'static str, detail: &dyn Display) -> usize {
        let mut r = self.records();
        if r.len >= self.cap {
            r.pop_front();
        }
        // Read under the lock, so records are in timestamp order.
        let ts = self.started.elapsed().as_micros() as u64;
        let dt = ts - std::mem::replace(&mut r.last_ts, ts);
        for v in [dt, r.epochs.hold(epoch), r.names.hold(event), stmt] {
            put_varint(v, |b| r.bytes.push_back(b));
        }
        let at = r.bytes.len();
        let _ = write!(r.bytes, "{detail}");
        // The length goes in front: each of its bytes shifts the detail.
        let mut i = at;
        put_varint((r.bytes.len() - at) as u64, |b| {
            r.bytes.insert(i, b);
            i += 1;
        });
        r.len += 1;
        r.bytes.capacity() + r.epochs.allocated() + r.names.allocated()
    }

    /// Oldest-first copy of the buffered events.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let r = &mut *self.records();
        let (mut it, mut ts) = (r.bytes.make_contiguous().iter(), r.base_ts);
        (0..r.len)
            .map(|_| {
                let [dt, epoch, name, stmt, len] = head(&mut it);
                ts += dt;
                let (detail, rest) = it.as_slice().split_at(len as usize);
                it = rest.iter();
                TraceEvent {
                    ts_micros: ts,
                    node: self.node,
                    epoch: r.epochs.get(epoch),
                    stmt,
                    event: r.names.get(name),
                    detail: String::from_utf8(detail.to_vec()).expect("written from a str"),
                }
            })
            .collect()
    }

    /// The records, emptied if a push panicked (a detail's `Display`)
    /// and may have left half a record.
    fn records(&self) -> MutexGuard<'_, Records> {
        self.records.lock().unwrap_or_else(|poisoned| {
            self.records.clear_poison();
            let mut r = poisoned.into_inner();
            *r = Records::default();
            r
        })
    }
}

/// A [`TraceBuf`]'s records and the tables they index.
#[derive(Default)]
struct Records {
    bytes: VecDeque<u8>,
    len: usize,
    /// The timestamp the oldest record's delta counts from.
    base_ts: u64,
    /// The newest record's timestamp.
    last_ts: u64,
    epochs: Table<u64>,
    names: Table<&'static str>,
}

impl Records {
    fn pop_front(&mut self) {
        let mut it = self.bytes.iter();
        let [dt, epoch, name, _, len] = head(&mut it);
        let used = self.bytes.len() - it.len() + len as usize;
        self.bytes.drain(..used);
        self.base_ts += dt;
        self.epochs.release(epoch);
        self.names.release(name);
        self.len -= 1;
    }
}

/// A record's varints: time delta, epoch index, name index, `stmt`,
/// detail length.
fn head<'a>(it: &mut impl Iterator<Item = &'a u8>) -> [u64; 5] {
    std::array::from_fn(|_| {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = *it.next().expect("a whole record");
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    })
}

fn put_varint(mut v: u64, mut put: impl FnMut(u8)) {
    while v >= 0x80 {
        put(v as u8 | 0x80);
        v >>= 7;
    }
    put(v as u8);
}

/// Values records name by index, each with the count of held records
/// naming it; a slot no record names takes the next new value.
#[derive(Default)]
struct Table<T> {
    slots: Vec<(T, usize)>,
}

impl<T: Copy + PartialEq> Table<T> {
    fn hold(&mut self, v: T) -> u64 {
        let live = self.slots.iter().position(|&(s, n)| n > 0 && s == v);
        let free = || self.slots.iter().position(|&(_, n)| n == 0);
        let i = live.or_else(free).unwrap_or(self.slots.len());
        if i == self.slots.len() {
            self.slots.push((v, 0));
        }
        self.slots[i] = (v, self.slots[i].1 + 1);
        i as u64
    }

    fn release(&mut self, i: u64) {
        self.slots[i as usize].1 -= 1;
    }

    fn get(&self, i: u64) -> T {
        self.slots[i as usize].0
    }

    fn allocated(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(T, usize)>()
    }
}

// ---- the registry --------------------------------------------------------

/// Default capacity of a node's trace ring buffer: enough for thousands
/// of routed statements at a few events each. At `oltp_mix`'s events
/// (≈24 B a record) a full ring allocates ≈128 KiB.
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// One node's metric namespace: named counters, gauges, and histograms
/// (get-or-create, handed out as `Arc`s) plus the trace ring buffer.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    trace: TraceBuf,
    /// `obs_trace_bytes`, registered by the first trace event.
    trace_bytes: OnceLock<Arc<Gauge>>,
}

impl Registry {
    pub fn new(node: u16) -> Registry {
        Registry::with_trace_cap(node, DEFAULT_TRACE_CAP)
    }

    pub fn with_trace_cap(node: u16, cap: usize) -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            trace: TraceBuf::new(node, cap),
            trace_bytes: OnceLock::new(),
        }
    }

    pub fn node(&self) -> u16 {
        self.trace.node
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

    /// Record a trace event under the `(epoch, stmt)` span key, and set
    /// the gauge `obs_trace_bytes` to the bytes the ring has allocated.
    pub fn trace(&self, epoch: u64, stmt: u64, event: &'static str, detail: impl Display) {
        let bytes = self.trace.push(epoch, stmt, event, &detail);
        self.trace_bytes.get_or_init(|| self.gauge("obs_trace_bytes")).set(bytes as i64);
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

    /// Three hundred event names, past one index byte: leaked once and
    /// shared by every case.
    fn many_names() -> &'static [&'static str] {
        static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
        NAMES.get_or_init(|| {
            (0..300).map(|i| &*Box::leak(format!("ev{i}").into_boxed_str())).collect()
        })
    }

    /// A detail of exactly `len` bytes: `fill` as often as it fits, then
    /// ASCII.
    fn detail_of(len: usize, fill: char) -> String {
        let mut s: String = std::iter::repeat_n(fill, len / fill.len_utf8()).collect();
        s.extend(std::iter::repeat_n('a', len - s.len()));
        s
    }

    /// An event's fields but its timestamp.
    fn key(e: &TraceEvent) -> (u16, u64, u64, &'static str, &str) {
        (e.node, e.epoch, e.stmt, e.event, &e.detail)
    }

    /// Push `events` into a ring of capacity `cap` and, after every push,
    /// hold `trace_events` to a model that keeps whole events and drops
    /// the oldest past the cap. The model stamps each event with the
    /// clock before its push; the ring's stamp must lie between that and
    /// the clock after it.
    fn check_against_model(cap: usize, events: Vec<(u64, u64, &'static str, String)>) {
        let r = Registry::with_trace_cap(5, cap);
        let now_micros = || r.trace.started.elapsed().as_micros() as u64;
        let mut model: VecDeque<(TraceEvent, u64)> = VecDeque::new();
        for (epoch, stmt, event, detail) in events {
            let before = now_micros();
            r.trace(epoch, stmt, event, &detail);
            if model.len() >= cap {
                model.pop_front();
            }
            let ev = TraceEvent { ts_micros: before, node: 5, epoch, stmt, event, detail };
            model.push_back((ev, now_micros()));
            let got = r.trace_events();
            assert!(got.iter().map(key).eq(model.iter().map(|(e, _)| key(e))), "{got:?}");
            for (g, (want, after)) in got.iter().zip(&model) {
                assert!((want.ts_micros..=*after).contains(&g.ts_micros), "{g:?} vs {want:?}");
            }
            // A table is never longer than the values the held records name.
            let held = r.trace.records();
            assert!(held.epochs.slots.len() <= cap && held.names.slots.len() <= cap);
        }
    }

    /// A `u64` that is often an edge: 0, `u64::MAX`, or one of three
    /// small values.
    fn edgy(pick: u8, any: u64) -> u64 {
        match pick {
            0 => 0,
            1 => u64::MAX,
            2 => any % 3 + 1,
            _ => any,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Small rings hold what a ring of whole events holds, across
        /// details of every varint-length boundary and multi-byte UTF-8.
        #[test]
        fn small_rings_match_a_ring_of_whole_events(
            cap in 1usize..=8,
            events in proptest::collection::vec(
                (0u8..4, proptest::any::<u64>(), 0u8..4, 0usize..300, 0usize..12, 0usize..4),
                1..24,
            ),
        ) {
            const LENS: [usize; 6] = [0, 127, 128, 16_383, 16_384, 1];
            const FILLS: [char; 4] = ['a', 'é', '€', '𝄞'];
            let events = events
                .into_iter()
                .map(|(e, x, s, name, len, fill)| {
                    let len = LENS.get(len).copied().unwrap_or(x as usize % 200);
                    let (epoch, stmt) = (edgy(e, x), edgy(s, x.rotate_left(17)));
                    (epoch, stmt, many_names()[name], detail_of(len, FILLS[fill]))
                })
                .collect();
            check_against_model(cap, events);
        }
    }

    proptest::proptest! {
        // Each case decodes its whole ring after each of ~300 pushes.
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// A ring holding more than 256 distinct epochs and names at once
        /// indexes its tables past one byte.
        #[test]
        fn wide_tables_match_a_ring_of_whole_events(
            cap in 257usize..=320,
            seed in proptest::any::<u64>(),
        ) {
            let events = (0..cap as u64 + 40)
                .map(|i| (seed ^ i, i, many_names()[i as usize % 300], format!("d{i}")))
                .collect();
            check_against_model(cap, events);
        }
    }

    /// A detail whose `Display` panics mid-record costs the ring its
    /// events, not its use.
    #[test]
    fn a_panicking_detail_empties_the_ring() {
        let r = Arc::new(Registry::with_trace_cap(0, 8));
        r.trace(1, 1, "route", "kept until the panic");
        let boom = std::fmt::from_fn(|f| {
            f.write_str("half")?;
            panic!("a detail that panics")
        });
        let r2 = Arc::clone(&r);
        assert!(std::thread::spawn(move || r2.trace(1, 2, "apply", boom)).join().is_err());
        assert!(r.trace_events().is_empty());
        r.trace(1, 3, "ack", "after");
        let evs = r.trace_events();
        assert_eq!((evs.len(), evs[0].stmt, evs[0].detail.as_str()), (1, 3, "after"));
    }

    /// A full default-size ring of `oltp_mix`-shaped events allocates at
    /// most 48 bytes an event, and says so in `obs_trace_bytes`.
    #[test]
    fn a_full_ring_of_oltp_events_costs_under_48_bytes_an_event() {
        let r = Registry::with_trace_cap(0, DEFAULT_TRACE_CAP);
        let (mine, theirs) = (0x1f2e_3d4c_5b6a_7988, 0x0123_4567_89ab_cdef);
        for i in 0..2 * DEFAULT_TRACE_CAP as u64 {
            let stmt = 1000 + i / 5;
            match i % 5 {
                0 => r.trace(0, 0, "gossip", "sys.kv from 0"),
                1 => r.trace(mine, stmt, "route", "mutation on sys.kv"),
                2 => r.trace(theirs, stmt, "apply", "mutation on sys.kv, 1 rows"),
                3 => r.trace(theirs, stmt, "ack_sent", "to 1"),
                _ => r.trace(mine, stmt, "ack", "mutation on sys.kv ok, 1 rows"),
            }
        }
        assert_eq!(r.trace_events().len(), DEFAULT_TRACE_CAP);
        let bytes = r.gauge_value("obs_trace_bytes").expect("the gauge is registered");
        assert!(bytes <= 48 * DEFAULT_TRACE_CAP as i64, "{bytes} bytes");
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
