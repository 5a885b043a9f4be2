//! The scheduler benchmark.
//!
//! Four closed-loop workloads drive the eiffel crates through their public
//! APIs in one process (see `README.md` in this directory for why each
//! exists). An untraced run prints the end-to-end metrics; a traced run
//! times the calls into each layer from this crate's own code and prints
//! the per-layer ledger. Every run checks the scheduler's outputs and
//! counts failed packets against the packets attempted.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use eiffel_sim::Packet;

pub mod host;
pub mod pfabric;
pub mod rng;
pub mod trace;
pub mod tree;

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("mpps", "Mpps"),
    ("busy_cores", "cores"),
    ("rate_accuracy", "ratio"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. A layer the
/// workload never calls reads 0: no calls, no time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("qdisc.enqueue.ns_per_pkt", "ns"),
    ("qdisc.enqueue.ns_p99", "ns"),
    ("qdisc.dequeue_batch.ns_per_pkt", "ns"),
    ("qdisc.dequeue_batch.ns_p99", "ns"),
    ("qdisc.dequeue_batch.pkts_per_call", "pkts"),
    ("qdisc.dequeue_batch.empty_frac", "fraction"),
    ("qdisc.next_deadline.calls_per_pkt", "calls/pkt"),
    ("qdisc.next_deadline.ns_per_call", "ns"),
    ("qdisc.share", "fraction"),
    ("runtime.self_ns_per_pkt", "ns"),
    ("runtime.ring_full_per_pkt", "count/pkt"),
    ("runtime.timer_fires_per_kpkt", "count/kpkt"),
    ("runtime.system_cores", "cores"),
    ("runtime.softirq_cores", "cores"),
    ("runtime.peak_backlog", "pkts"),
    ("driver.self_ns_per_pkt", "ns"),
    ("driver.timer_fires_per_kpkt", "count/kpkt"),
    ("pfabric.enqueue.ns_per_pkt", "ns"),
    ("pfabric.dequeue_batch.ns_per_pkt", "ns"),
    ("pfabric.dequeue_batch.ns_p99", "ns"),
    ("pfabric.dequeue_batch.pkts_per_call", "pkts"),
    ("gen.ns_per_pkt", "ns"),
    ("tree.enqueue.ns_per_pkt", "ns"),
    ("tree.dequeue_batch.ns_per_pkt", "ns"),
    ("tree.dequeue_batch.ns_p99", "ns"),
    ("tree.dequeue_batch.pkts_per_call", "pkts"),
    ("tree.dequeue_batch.empty_frac", "fraction"),
    ("tree.soonest_deadline.calls_per_kpkt", "count/kpkt"),
    ("tree.soonest_deadline.ns_per_call", "ns"),
    ("ledger.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["host_shaping", "host_sim", "switch_pfabric", "tree_hclock"];

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed of every generator the benchmark owns.
    pub seed: u64,
    /// Wall time the measured part of the run may take.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own self-test.
    pub tiny: bool,
}

impl Params {
    /// The measuring budget as a `Duration`.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Result of one workload run: checks, counts and metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Packets attempted (offered to the scheduler under test).
    pub attempted: u64,
    /// Packets that failed: lost, served against policy, or over limit.
    pub failed: u64,
    /// Check failures, each with how many reps hit it (any one makes
    /// the run incorrect).
    pub problems: Vec<(String, u64)>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric; `name` must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// Records `n` failed packets and why.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.problem(why);
        }
    }

    /// Records a check failure.
    pub fn problem(&mut self, why: impl Into<String>) {
        let why = why.into();
        match self.problems.iter_mut().find(|(w, _)| *w == why) {
            Some((_, reps)) => *reps += 1,
            None => self.problems.push((why, 1)),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The human-readable lines and the final JSON line for the metrics
    /// of this run's kind. A metric the workload left unset reads 0.
    pub fn render(&self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for (why, reps) in &self.problems {
            let _ = writeln!(out, "CHECK FAILED ({reps} reps): {why}");
        }
        let mut json = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let mut v = self.values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                v = 0.0;
            }
            let _ = writeln!(out, "{name:<40} {v:>16.6} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Start value of a served-order digest.
pub const DIGEST_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one served packet into a served-order digest (FNV-1a style).
#[inline]
pub fn digest(d: u64, pkt: &Packet) -> u64 {
    (d ^ pkt.id ^ (u64::from(pkt.flow) << 40)).wrapping_mul(0x0100_0000_01b3)
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up samples taken before the measured reps. Each untraced rep adds
/// one more, so `setup_s`, their median, covers the whole run.
pub const SETUP_REPS: usize = 5;

/// Wall seconds `setup` took; what it built is dropped outside the timing.
pub fn time_setup<T>(setup: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let built = setup();
    let secs = t.elapsed().as_secs_f64();
    drop(built);
    secs
}

/// [`SETUP_REPS`] samples of [`time_setup`].
pub fn setup_samples<T>(mut setup: impl FnMut() -> T) -> Vec<f64> {
    (0..SETUP_REPS).map(|_| time_setup(&mut setup)).collect()
}

/// Paces the measured reps of a run: at least `min` reps, then more
/// while another rep as long as the last one still fits the budget.
pub struct Reps {
    start: Instant,
    last: Instant,
    budget: Duration,
    min: usize,
    done: usize,
}

impl Reps {
    /// Reps for `p`'s budget, at least `min` of them.
    pub fn new(p: &Params, min: usize) -> Self {
        let now = Instant::now();
        Reps {
            start: now,
            last: now,
            budget: p.budget(),
            min,
            done: 0,
        }
    }

    /// Whether to run another rep.
    pub fn more(&mut self) -> bool {
        let now = Instant::now();
        let rep = now - self.last;
        self.last = now;
        self.done += 1;
        self.done <= self.min || now - self.start + rep <= self.budget
    }
}

/// Runs one workload by name.
pub fn run(workload: &str, p: &Params) -> Option<Outcome> {
    let mut out = match workload {
        "host_shaping" => host::shaping(p),
        "host_sim" => host::sim(p),
        "switch_pfabric" => pfabric::run(p),
        "tree_hclock" => tree::run(p),
        _ => return None,
    };
    if !p.trace {
        let ok = 1.0 - trace::ratio(out.failed as f64, out.attempted as f64);
        out.set("ok_frac", ok);
        if !out.values.contains_key("rss_peak_mb") {
            out.set("rss_peak_mb", rss_peak_mb());
        }
    }
    Some(out)
}
