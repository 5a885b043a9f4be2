//! Pins the exact output of one fixed virtual-clock run: a digest of its
//! packet-level trace and its timer-fire count.
//!
//! The virtual driver's event order — `(time, kind, insertion)`, timers
//! before sources at equal instants, resumes before both — decides every
//! release time, drop and timer fire. Any change to how the driver queues
//! its events must leave this run bit-identical; the pinned values were
//! recorded with the original heap-ordered driver.

use eiffel_chaos::FaultPlan;
use eiffel_qdisc::{run_sharded_traced, EiffelQdisc, HostConfig, ShardTrace, ShardedConfig};
use eiffel_sim::{Rate, MILLISECOND, SECOND};

/// FNV-1a over every release `(time, flow, bytes)` then every drop
/// `(time, flow, arrival index)`, in trace order.
fn trace_digest(trace: &ShardTrace) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            d ^= u64::from(b);
            d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(t, f, b) in &trace.releases {
        fold(t);
        fold(u64::from(f));
        fold(u64::from(b));
    }
    for &(t, f, i) in &trace.drops {
        fold(t);
        fold(u64::from(f));
        fold(i);
    }
    d
}

/// Three shards, a binding per-flow cap, batched drains, two stalls on
/// shard 0 behind a squeezed ingress ring — the first while flows are
/// still starting, so the ring fills — and timer jitter on shard 1. That
/// covers resume events, pended timers, ring-full retries and cap drops.
fn pinned_config() -> ShardedConfig {
    let host = HostConfig {
        flows: 300,
        aggregate: Rate::mbps(360),
        duration: SECOND / 4,
        bin: SECOND / 20,
        tsq_budget: 3,
        batch: 4,
    };
    let mut cfg = ShardedConfig::new(3, host);
    cfg.flow_cap = Some(2);
    cfg.chaos.plan = FaultPlan::new(7)
        .stall(0, 2 * MILLISECOND, 6 * MILLISECOND)
        .stall(0, 50 * MILLISECOND, 60 * MILLISECOND)
        .ring_squeeze(0, 0, 60 * MILLISECOND, 8)
        .timer_jitter(1, 100 * MILLISECOND, 150 * MILLISECOND, 20_000);
    cfg
}

#[test]
fn fixed_run_is_bit_identical_to_the_recorded_trace() {
    let (r, trace) = run_sharded_traced(|_| EiffelQdisc::new(1 << 14, 100_000), &pinned_config());
    assert_eq!(
        (
            r.transmitted,
            r.dropped,
            r.timer_fires,
            r.ring_full_retries,
            r.audits
        ),
        (7460, 7459, 5135, 39, 8),
        "run counters"
    );
    assert_eq!(
        trace_digest(&trace),
        0x14364f2a78df4c56,
        "release/drop trace digest"
    );
}

/// The benchmark's virtual host in small: one shard, 500 paced bulk flows
/// at 24 Gb/s, packet-at-a-time softirq. Timers here are routinely armed
/// for the very instant a source event is being handled.
#[test]
fn fixed_host_sim_run_is_bit_identical_to_the_recorded_trace() {
    let host = HostConfig {
        flows: 500,
        aggregate: Rate::gbps(24),
        duration: 20 * MILLISECOND,
        bin: 10 * MILLISECOND,
        tsq_budget: 2,
        batch: 1,
    };
    let (r, trace) = run_sharded_traced(
        |_| EiffelQdisc::paper_config(),
        &ShardedConfig::new(1, host),
    );
    assert_eq!((r.transmitted, r.timer_fires), (40000, 698), "run counters");
    assert_eq!(
        trace_digest(&trace),
        0xceb334f988bef9a,
        "release trace digest"
    );
}
