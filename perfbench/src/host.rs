//! The §5.1.1 host: 20k paced bulk flows through `EiffelQdisc`, on the
//! wall-clock threaded runtime (`host_shaping`) and on the virtual-clock
//! runtime (`host_sim`).
//!
//! Both are closed loops: the TSQ budget of 2 lets a flow emit its next
//! packet only when one of its packets completes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use eiffel_qdisc::{
    run_sharded, run_threaded, EiffelQdisc, HostConfig, ShardedConfig, ShardedReport,
    ThreadedConfig, ThreadedReport,
};
use eiffel_sim::{Nanos, Rate, WallNanos, MILLISECOND, SECOND};

use crate::rng::{stream, Rng};
use crate::trace::{ratio, QdiscSpans, TracedQdisc};
use crate::{median, setup_samples, time_setup, Outcome, Params, Reps};

/// Paced bulk flows (the paper's 20k; tiny: 500).
fn flows(p: &Params) -> usize {
    if p.tiny {
        500
    } else {
        20_000
    }
}

/// `host_shaping` phase A: a fixed target well below capacity.
pub const PHASE_A: Rate = Rate::gbps(12);
/// `host_shaping` phase B: far above capacity, so the rate is the capacity.
pub const PHASE_B: Rate = Rate::gbps(96);
/// `host_sim`'s target, the paper's 24 Gb/s.
pub const SIM_RATE: Rate = Rate::gbps(24);

/// The host workload at `aggregate`: TSQ 2, packet-at-a-time softirq.
pub fn host_config(p: &Params, aggregate: Rate, duration: Nanos, bin: Nanos) -> HostConfig {
    HostConfig {
        flows: flows(p),
        aggregate,
        duration,
        bin,
        tsq_budget: 2,
        batch: 1,
    }
}

/// Seeded flow starts, spread over one pacing gap.
pub fn starts(p: &Params, host: &HostConfig) -> Vec<Nanos> {
    let per_flow_bps = (host.aggregate.as_bps() / host.flows as u64).max(1);
    let gap = 1_500 * 8 * SECOND / per_flow_bps;
    Rng::new(p.seed, stream::STAGGER).stagger(host.flows, gap)
}

/// A threaded, timed run of `wall` ns at `aggregate`, one shard.
pub fn threaded_config(p: &Params, aggregate: Rate, wall: Nanos) -> ThreadedConfig {
    let host = host_config(p, aggregate, wall, 100 * MILLISECOND);
    let mut cfg = ThreadedConfig::timed(1, host, WallNanos(wall));
    cfg.starts = Some(starts(p, &cfg.host));
    cfg
}

/// A virtual-clock run of `duration` virtual ns at the paper's 24 Gb/s.
pub fn sim_config(p: &Params, duration: Nanos) -> ShardedConfig {
    let host = host_config(p, SIM_RATE, duration, 50 * MILLISECOND);
    let mut cfg = ShardedConfig::new(1, host);
    cfg.starts = Some(starts(p, &cfg.host));
    cfg
}

/// `1 - |achieved / target - 1|`.
pub fn accuracy(achieved_bps: f64, target: Rate) -> f64 {
    1.0 - (achieved_bps / target.as_bps() as f64 - 1.0).abs()
}

/// Conservation at join: every emitted packet was transmitted, refused,
/// evicted or is still resident.
fn check_threaded(out: &mut Outcome, r: &ThreadedReport) {
    out.attempted += r.emitted;
    let lost = r.chaos.final_unaccounted.unsigned_abs();
    out.fail(lost, format!("threaded run: {lost} packets unaccounted"));
}

fn check_sim(out: &mut Outcome, r: &ShardedReport) {
    out.attempted += r.emitted;
    let lost = r.emitted.abs_diff(r.transmitted + r.residue);
    out.fail(
        lost,
        format!(
            "virtual run: emitted {} != transmitted {} + residue {}",
            r.emitted, r.transmitted, r.residue
        ),
    );
}

/// Rep length of the threaded phases: twenty reps fill the budget.
fn phase_wall(p: &Params) -> Nanos {
    ((p.seconds / 20.0).max(0.05) * SECOND as f64) as Nanos
}

/// `host_shaping`'s set-up: seeded inputs, qdisc, rings, threads and their
/// teardown — a zero-length run of the phase A configuration.
fn shaping_setup(p: &Params, out: &mut Outcome) {
    let cfg = threaded_config(p, PHASE_A, 1);
    let r = run_threaded(|_| EiffelQdisc::paper_config(), &cfg);
    check_threaded(out, &r);
}

/// `host_shaping`: the threaded producer → ring → qdisc → softirq →
/// completion pipeline. Phase A reps give `busy_cores` and
/// `rate_accuracy`, phase B reps give `mpps`; A and B alternate.
pub fn shaping(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let wall = phase_wall(p);
    let cfg_a = threaded_config(p, PHASE_A, wall);
    let cfg_b = threaded_config(p, PHASE_B, wall);
    if p.trace {
        return shaping_traced(p, out, &cfg_a, &cfg_b);
    }
    let mut setups = setup_samples(|| shaping_setup(p, &mut out));
    let (mut mpps, mut cores, mut acc) = (Vec::new(), Vec::new(), Vec::new());
    let mut reps = Reps::new(p, 3);
    while reps.more() {
        setups.push(time_setup(|| shaping_setup(p, &mut out)));
        let a = run_threaded(|_| EiffelQdisc::paper_config(), &cfg_a);
        check_threaded(&mut out, &a);
        cores.push(a.total_median_cores);
        acc.push(accuracy(a.achieved_bps, PHASE_A));
        let b = run_threaded(|_| EiffelQdisc::paper_config(), &cfg_b);
        check_threaded(&mut out, &b);
        mpps.push(b.transmitted as f64 / b.wall_elapsed.as_secs_f64() / 1e6);
    }
    out.set("setup_s", median(&setups));
    out.set("mpps", median(&mpps));
    out.set("busy_cores", median(&cores));
    out.set("rate_accuracy", median(&acc));
    out
}

/// The traced `host_shaping` run: one untraced phase A rep for the
/// runtime's own counters, then untraced and traced phase B reps in
/// turn. The ledger follows the shard thread over phase B: its window
/// (`wall_elapsed`) splits into qdisc spans and the runtime's self time;
/// what the benchmark's rep time has beyond input generation and that
/// window (spawn, join, report assembly) is unattributed.
fn shaping_traced(
    p: &Params,
    mut out: Outcome,
    cfg_a: &ThreadedConfig,
    cfg_b: &ThreadedConfig,
) -> Outcome {
    let a = run_threaded(|_| EiffelQdisc::paper_config(), cfg_a);
    check_threaded(&mut out, &a);
    let system: Vec<f64> = a.breakdown.iter().map(|b| b.0).collect();
    let softirq: Vec<f64> = a.breakdown.iter().map(|b| b.1).collect();
    if !system.is_empty() {
        out.set("runtime.system_cores", median(&system));
        out.set("runtime.softirq_cores", median(&softirq));
    }
    out.set(
        "runtime.timer_fires_per_kpkt",
        1e3 * ratio(a.timer_fires as f64, a.transmitted as f64),
    );
    out.set("runtime.peak_backlog", a.peak_backlog as f64);

    let sink = Arc::new(Mutex::new(QdiscSpans::default()));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut rep_ns, mut gen_ns, mut window_ns) = (0.0, 0.0, 0.0);
    let (mut pkts, mut emitted, mut ring_full) = (0u64, 0u64, 0u64);
    let mut reps = Reps::new(p, 2);
    while reps.more() {
        let b = run_threaded(|_| EiffelQdisc::paper_config(), cfg_b);
        check_threaded(&mut out, &b);
        plain.push(b.transmitted as f64 / b.wall_elapsed.as_secs_f64() / 1e6);

        let rep = Instant::now();
        let cfg = threaded_config(p, PHASE_B, cfg_b.wall_limit.as_nanos());
        gen_ns += rep.elapsed().as_nanos() as f64;
        let b = run_threaded(
            |_| TracedQdisc::new(EiffelQdisc::paper_config(), sink.clone()),
            &cfg,
        );
        rep_ns += rep.elapsed().as_nanos() as f64;
        check_threaded(&mut out, &b);
        window_ns += b.wall_elapsed.as_nanos() as f64;
        pkts += b.transmitted;
        emitted += b.emitted;
        ring_full += b.ring_full_retries;
        traced.push(b.transmitted as f64 / b.wall_elapsed.as_secs_f64() / 1e6);
    }
    let q = sink.lock().expect("qdisc sink poisoned").clone();
    set_qdisc_metrics(&mut out, &q, rep_ns);
    let pk = pkts as f64;
    out.set("gen.ns_per_pkt", ratio(gen_ns, pk));
    out.set("runtime.self_ns_per_pkt", ratio(window_ns - q.ns(), pk));
    out.set(
        "runtime.ring_full_per_pkt",
        ratio(ring_full as f64, emitted as f64),
    );
    out.set(
        "ledger.unattributed_frac",
        ratio(rep_ns - gen_ns - window_ns, rep_ns),
    );
    out.set(
        "trace.overhead_frac",
        1.0 - median(&traced) / median(&plain),
    );
    out
}

/// The qdisc layer's metrics from its spans; `total_ns` is the traced
/// reps' end-to-end wall time.
fn set_qdisc_metrics(out: &mut Outcome, q: &QdiscSpans, total_ns: f64) {
    out.set("qdisc.enqueue.ns_per_pkt", q.enqueue.ns_per_item());
    out.set("qdisc.enqueue.ns_p99", q.enqueue.p99_ns());
    out.set("qdisc.dequeue_batch.ns_per_pkt", q.dequeue.ns_per_item());
    out.set("qdisc.dequeue_batch.ns_p99", q.dequeue.p99_ns());
    out.set(
        "qdisc.dequeue_batch.pkts_per_call",
        q.dequeue.items_per_call(),
    );
    out.set("qdisc.dequeue_batch.empty_frac", q.dequeue.empty_frac());
    out.set(
        "qdisc.next_deadline.calls_per_pkt",
        ratio(q.next_deadline.calls as f64, q.dequeue.items as f64),
    );
    out.set(
        "qdisc.next_deadline.ns_per_call",
        q.next_deadline.ns_per_call(),
    );
    out.set("qdisc.share", ratio(q.ns(), total_ns));
}

/// Virtual duration of one `host_sim` rep.
fn sim_duration(p: &Params) -> Nanos {
    if p.tiny {
        50 * MILLISECOND
    } else {
        400 * MILLISECOND
    }
}

/// `host_sim`'s set-up: seeded inputs plus the runtime's own build, prefill
/// and teardown — a run of one virtual nanosecond.
fn sim_setup(p: &Params, out: &mut Outcome) {
    let cfg = sim_config(p, 1);
    let r = run_sharded(|_| EiffelQdisc::paper_config(), &cfg);
    check_sim(out, &r);
}

/// `host_sim`: the same host on the virtual-clock runtime for a fixed
/// virtual duration. Its outputs are deterministic, so every rep must
/// transmit exactly as many packets as the first.
pub fn sim(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let cfg = sim_config(p, sim_duration(p));
    if p.trace {
        return sim_traced(p, out, &cfg);
    }
    let mut setups = setup_samples(|| sim_setup(p, &mut out));
    let (mut mpps, mut cores, mut acc) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<u64> = None;
    let mut reps = Reps::new(p, 3);
    while reps.more() {
        setups.push(time_setup(|| sim_setup(p, &mut out)));
        let t = Instant::now();
        let r = run_sharded(|_| EiffelQdisc::paper_config(), &cfg);
        let wall = t.elapsed().as_secs_f64();
        check_sim(&mut out, &r);
        if *first.get_or_insert(r.transmitted) != r.transmitted {
            out.problem("virtual run is not deterministic: transmitted counts differ");
        }
        mpps.push(r.transmitted as f64 / wall / 1e6);
        cores.push(r.total_median_cores);
        acc.push(accuracy(r.achieved_bps, SIM_RATE));
    }
    out.set("setup_s", median(&setups));
    out.set("mpps", median(&mpps));
    out.set("busy_cores", median(&cores));
    out.set("rate_accuracy", median(&acc));
    out
}

/// The traced `host_sim` run: untraced and traced reps in turn, which must
/// transmit alike. The runtime's self time is its call's wall time minus
/// the qdisc spans inside it; input generation is the benchmark's own
/// span.
fn sim_traced(p: &Params, mut out: Outcome, cfg: &ShardedConfig) -> Outcome {
    let sink = Arc::new(Mutex::new(QdiscSpans::default()));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut rep_ns, mut gen_ns, mut call_ns) = (0.0, 0.0, 0.0);
    let (mut pkts, mut fires) = (0u64, 0u64);
    let mut reps = Reps::new(p, 2);
    while reps.more() {
        let t = Instant::now();
        let untraced = run_sharded(|_| EiffelQdisc::paper_config(), cfg);
        plain.push(untraced.transmitted as f64 / t.elapsed().as_secs_f64() / 1e6);
        check_sim(&mut out, &untraced);

        let rep = Instant::now();
        let c = sim_config(p, cfg.host.duration);
        let g = rep.elapsed();
        let r = run_sharded(
            |_| TracedQdisc::new(EiffelQdisc::paper_config(), sink.clone()),
            &c,
        );
        let call = rep.elapsed() - g;
        rep_ns += rep.elapsed().as_nanos() as f64;
        gen_ns += g.as_nanos() as f64;
        call_ns += call.as_nanos() as f64;
        check_sim(&mut out, &r);
        if r.transmitted != untraced.transmitted {
            out.problem("traced virtual run transmitted another count");
        }
        pkts += r.transmitted;
        fires += r.timer_fires;
        traced.push(r.transmitted as f64 / call.as_secs_f64() / 1e6);
    }
    let q = sink.lock().expect("qdisc sink poisoned").clone();
    set_qdisc_metrics(&mut out, &q, rep_ns);
    out.set(
        "driver.self_ns_per_pkt",
        ratio(call_ns - q.ns(), pkts as f64),
    );
    out.set("gen.ns_per_pkt", ratio(gen_ns, pkts as f64));
    out.set(
        "driver.timer_fires_per_kpkt",
        1e3 * ratio(fires as f64, pkts as f64),
    );
    out.set(
        "ledger.unattributed_frac",
        ratio(rep_ns - gen_ns - call_ns, rep_ns),
    );
    out.set(
        "trace.overhead_frac",
        1.0 - median(&traced) / median(&plain),
    );
    out
}
