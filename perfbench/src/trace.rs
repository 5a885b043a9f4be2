//! Spans timed from the benchmark's own code around calls into a layer.
//!
//! A [`Span`] aggregates one call site: calls, items moved, total
//! nanoseconds, calls that moved nothing, and a log-linear histogram of
//! per-call durations for the p99. Spans live in memory and are read once
//! the run ends. [`TracedQdisc`] is the pass-through `ShaperQdisc` wrapper
//! that times every qdisc call the runtimes make.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eiffel_qdisc::{ShaperQdisc, TimerStyle};
use eiffel_sim::{Nanos, Packet};

/// Sub-buckets per power of two: per-call durations are kept to within
/// 1/16 (about 6%).
const SUB: usize = 16;
const SUB_BITS: u32 = 4;
const BUCKETS: usize = 64 * SUB;

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower edge of a histogram bucket, in ns.
fn bucket_floor(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let exp = (b / SUB) as u32 + SUB_BITS - 1;
    ((SUB + b % SUB) as u64) << (exp - SUB_BITS)
}

/// Aggregated spans of one call site.
///
/// Counts cover every call. Durations cover a sample: every call by
/// default, or one call in `period` (drawn at random, so the sample does
/// not alias with periodic call patterns) where the call is shorter than
/// two clock reads and timing every call would swamp it.
#[derive(Clone)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Items (packets) the calls moved.
    pub items: u64,
    /// Calls that moved no item.
    pub empty: u64,
    timed_calls: u64,
    timed_items: u64,
    timed_ns: u64,
    mask: u64,
    rng: u64,
    hist: Box<[u64; BUCKETS]>,
}

impl Default for Span {
    fn default() -> Self {
        Span::sampled(1)
    }
}

impl Span {
    /// A span that times one call in `period` (a power of two).
    pub fn sampled(period: u64) -> Self {
        assert!(period.is_power_of_two(), "sampling period must be 2^k");
        Span {
            calls: 0,
            items: 0,
            empty: 0,
            timed_calls: 0,
            timed_items: 0,
            timed_ns: 0,
            mask: period - 1,
            rng: 0x2545_f491_4f6c_dd1d,
            hist: Box::new([0; BUCKETS]),
        }
    }

    #[inline]
    fn count(&mut self, items: u64) {
        self.calls += 1;
        self.items += items;
        self.empty += u64::from(items == 0);
    }

    /// Records one timed call that took `ns` and moved `items`.
    #[inline]
    pub fn record(&mut self, ns: u64, items: u64) {
        self.count(items);
        self.timed_calls += 1;
        self.timed_items += items;
        self.timed_ns += ns;
        self.hist[bucket_of(ns)] += 1;
    }

    /// Runs `f`, timing it if this call is sampled, and records the items
    /// it reports.
    #[inline]
    pub fn time<R>(&mut self, items: impl FnOnce(&R) -> u64, f: impl FnOnce() -> R) -> R {
        if self.mask != 0 {
            // xorshift64: a cheap draw for the sampling decision.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            if self.rng & self.mask != 0 {
                let r = f();
                self.count(items(&r));
                return r;
            }
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.record(ns, items(&r));
        r
    }

    /// Adds another span's records to this one.
    pub fn merge(&mut self, o: &Span) {
        self.calls += o.calls;
        self.items += o.items;
        self.empty += o.empty;
        self.timed_calls += o.timed_calls;
        self.timed_items += o.timed_items;
        self.timed_ns += o.timed_ns;
        for (a, b) in self.hist.iter_mut().zip(o.hist.iter()) {
            *a += b;
        }
    }

    /// Estimated nanoseconds inside all calls.
    pub fn ns(&self) -> f64 {
        ratio(
            self.timed_ns as f64 * self.calls as f64,
            self.timed_calls as f64,
        )
    }

    /// Nanoseconds per item (0 when nothing moved).
    pub fn ns_per_item(&self) -> f64 {
        ratio(self.timed_ns as f64, self.timed_items as f64)
    }

    /// Nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.timed_ns as f64, self.timed_calls as f64)
    }

    /// Items per call (0 without calls).
    pub fn items_per_call(&self) -> f64 {
        ratio(self.items as f64, self.calls as f64)
    }

    /// Share of calls that moved nothing (0 without calls).
    pub fn empty_frac(&self) -> f64 {
        ratio(self.empty as f64, self.calls as f64)
    }

    /// 99th percentile of one call's duration, ns (lower bucket edge;
    /// 0 without timed calls).
    pub fn p99_ns(&self) -> f64 {
        if self.timed_calls == 0 {
            return 0.0;
        }
        let rank = (self.timed_calls as f64 * 0.99).ceil() as u64;
        let mut seen = 0;
        for (b, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(b) as f64;
            }
        }
        bucket_floor(BUCKETS - 1) as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One qdisc call in `QDISC_PERIOD` is timed: the calls take about as long
/// as the two clock reads that would time them.
pub const QDISC_PERIOD: u64 = 8;

/// Spans of the qdisc layer, one per `ShaperQdisc` entry point.
#[derive(Clone)]
pub struct QdiscSpans {
    /// `enqueue` and `enqueue_batch` (items = packets accepted).
    pub enqueue: Span,
    /// `dequeue_batch` and `dequeue` (items = packets released).
    pub dequeue: Span,
    /// `next_deadline`.
    pub next_deadline: Span,
    /// `evict_worst` (the admission path; unused without a budget).
    pub other: Span,
}

impl Default for QdiscSpans {
    fn default() -> Self {
        QdiscSpans {
            enqueue: Span::sampled(QDISC_PERIOD),
            dequeue: Span::sampled(QDISC_PERIOD),
            next_deadline: Span::sampled(QDISC_PERIOD),
            other: Span::sampled(QDISC_PERIOD),
        }
    }
}

impl QdiscSpans {
    /// Adds another set of spans to this one.
    pub fn merge(&mut self, o: &QdiscSpans) {
        self.enqueue.merge(&o.enqueue);
        self.dequeue.merge(&o.dequeue);
        self.next_deadline.merge(&o.next_deadline);
        self.other.merge(&o.other);
    }

    /// Estimated nanoseconds inside the qdisc, all entry points.
    pub fn ns(&self) -> f64 {
        self.enqueue.ns() + self.dequeue.ns() + self.next_deadline.ns() + self.other.ns()
    }
}

/// Where a [`TracedQdisc`] hands its spans when it is dropped: the
/// runtimes own the qdisc for the whole run and drop it at the end.
pub type QdiscSink = Arc<Mutex<QdiscSpans>>;

/// A pass-through `ShaperQdisc`: every trait method, the defaulted ones
/// included, forwards to the wrapped qdisc, so a traced run executes the
/// same qdisc code as an untraced one. Every call except the `name`,
/// `timer_style`, `len` and `is_empty` accessors is timed.
pub struct TracedQdisc<Q> {
    inner: Q,
    /// `next_deadline` takes `&self`, so the spans sit in a cell.
    spans: RefCell<QdiscSpans>,
    sink: QdiscSink,
}

impl<Q> TracedQdisc<Q> {
    /// Wraps `inner`; its spans are merged into `sink` on drop.
    pub fn new(inner: Q, sink: QdiscSink) -> Self {
        TracedQdisc {
            inner,
            spans: RefCell::default(),
            sink,
        }
    }
}

impl<Q> Drop for TracedQdisc<Q> {
    fn drop(&mut self) {
        // A poisoned sink means another wrapper panicked mid-merge; the
        // spans are diagnostics, so drop them rather than panic in drop.
        if let Ok(mut s) = self.sink.lock() {
            s.merge(self.spans.get_mut());
        }
    }
}

impl<Q: ShaperQdisc> ShaperQdisc for TracedQdisc<Q> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn enqueue(&mut self, now: Nanos, pkt: Packet, pacing_rate_bps: u64) {
        let inner = &mut self.inner;
        self.spans
            .get_mut()
            .enqueue
            .time(|_| 1, || inner.enqueue(now, pkt, pacing_rate_bps));
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        let inner = &mut self.inner;
        self.spans.get_mut().dequeue.time(
            |r: &Option<Packet>| u64::from(r.is_some()),
            || inner.dequeue(now),
        )
    }

    fn enqueue_batch(&mut self, now: Nanos, pkts: &mut Vec<Packet>, pacing_rate_bps: u64) {
        let n = pkts.len() as u64;
        let inner = &mut self.inner;
        self.spans
            .get_mut()
            .enqueue
            .time(|_| n, || inner.enqueue_batch(now, pkts, pacing_rate_bps));
    }

    fn dequeue_batch(&mut self, now: Nanos, max: usize, out: &mut Vec<Packet>) -> usize {
        let inner = &mut self.inner;
        self.spans
            .get_mut()
            .dequeue
            .time(|n: &usize| *n as u64, || inner.dequeue_batch(now, max, out))
    }

    fn evict_worst(&mut self) -> Option<Packet> {
        let inner = &mut self.inner;
        self.spans.get_mut().other.time(
            |r: &Option<Packet>| u64::from(r.is_some()),
            || inner.evict_worst(),
        )
    }

    fn next_deadline(&self, now: Nanos) -> Option<Nanos> {
        let inner = &self.inner;
        self.spans
            .borrow_mut()
            .next_deadline
            .time(|_| 1, || inner.next_deadline(now))
    }

    fn timer_style(&self) -> TimerStyle {
        self.inner.timer_style()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}
