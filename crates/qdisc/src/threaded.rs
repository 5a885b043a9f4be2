//! The threaded multi-core host: one real OS thread per shard, lock-free
//! rings between them, wall-clock time.
//!
//! [`crate::sharded`] proved the N-shard host *semantically* equal to the
//! single-shard host — but under one virtual clock on one OS thread, which
//! cannot measure the paper's headline systems claim (§5.1, Fig 9: Eiffel
//! shapes 20k flows with ~1/20 the cores FQ needs). This module runs the
//! same shards as real threads:
//!
//! ```text
//!             data ring (SPSC, Packet)          ┌───────────────┐
//!        ┌──────────────────────────────────▶   │ shard thread 0 │──┐
//!        │    ctrl ring (SPSC, CtrlMsg)         │  qdisc + timer │  │
//! ┌──────┴─┐ ─────────────────────────────▶     │  + CpuMeter    │  │
//! │producer│                                    └───────────────┘  │
//! │ /demux │   ◀─────────────────────────────────────────────────  │
//! └──────┬─┘    completion ring (SPSC, FlowId)                     ▼
//!        │                                       CounterBlock (stats,
//!        └──▶ … shard thread N-1                 read without locks)
//! ```
//!
//! * The **producer/demux thread** plays the application + TCP stack: it
//!   paces flow start-up, enforces the TSQ budget, hashes each packet to
//!   its home shard with [`eiffel_sim::shard_of`], and pushes it into that
//!   shard's data ring ([`eiffel_core::ring::SpscRing`]).
//! * Each **shard thread** owns one qdisc instance and one softirq timer,
//!   and runs *the same stage code* (`Shard::ingress`, `Shard::softirq`,
//!   `Shard::tighten_timer`, `Shard::rearm`) that [`crate::sharded`]'s
//!   event loop drives under the virtual clock — the two runtimes share one
//!   body and cannot drift. The event axis here is the wall clock
//!   (nanoseconds since run start), polled instead of popped from an event
//!   queue.
//! * **Completions** flow back over a second SPSC ring: one [`Completion`]
//!   per disposed packet, returning TSQ budget to the producer — the TSQ
//!   callback, as a message. The completion carries the packet's fate
//!   (delivered, delivered-with-ECN-mark, dropped), which is the feedback
//!   edge of the closed loop: ECN-reactive transports
//!   ([`eiffel_workloads::ClosedLoopSource`]) read it and pace themselves.
//! * The **control plane** is a third, cold ring: the producer sends
//!   [`CtrlMsg::Shutdown`] (drain for finite workloads, immediate for timed
//!   runs); config travels by value at spawn time.
//! * **Per-shard statistics** are single-writer counter blocks
//!   ([`eiffel_core::CounterBlock`]) the producer reads without locks while
//!   the run is live; exact totals come from joining the shard.
//!
//! There are **no locks anywhere on the per-packet path** — rings and
//! single-writer atomics only. Blocking is by spin-then-yield, and the
//! producer always drains completion rings while waiting on a full data
//! ring (and vice versa the shards only ever block pushing completions,
//! which the producer drains), so the pair cannot deadlock.
//!
//! Determinism: wall-clock runs cannot reproduce release *times*, so the
//! equivalence suite uses **finite workloads** ([`ThreadedConfig::finite`]):
//! every flow emits exactly `pkts_per_flow` packets and the run ends when
//! the qdiscs drain. The per-flow packet/byte/drop totals are then
//! time-free invariants, identical to a [`crate::sharded`] run of the same
//! workload — so the virtual-clock proptests keep guarding the threaded
//! path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eiffel_chaos::{AdmitPolicy, ChaosConfig, ShardFaults};
use eiffel_core::ring::{SpscConsumer, SpscProducer, SpscRing};
use eiffel_core::{CounterBlock, DegradeTier, MemBudget, FLOW_SETUP_BYTES, PKT_SLAB_BYTES};
use eiffel_sim::{shard_of, CpuCategory, CpuMeter, FlowId, Nanos, Packet, WallNanos, SECOND};
use eiffel_workloads::{
    summarize_closed_loop, ClosedLoopParams, ClosedLoopSource, ClosedLoopSummary,
};

use crate::host::HostConfig;
use crate::qdisc::ShaperQdisc;
use crate::sharded::{backoff_jitter, IngressVerdict, Shard, ShardStats};

/// Counter slots published by each shard thread (single writer each).
const C_TRANSMITTED: usize = 0;
const C_TX_BYTES: usize = 1;
const C_TIMER_FIRES: usize = 2;
const C_ENQUEUED: usize = 3;
/// Wall nanoseconds (since run start) of the shard's last live loop
/// iteration — frozen while the shard is stalled; the watchdog reads it.
const C_HEARTBEAT: usize = 4;
/// Packets this shard has disposed of (transmitted + admission-dropped +
/// evicted) — each one owes the producer exactly one completion. Written
/// *after* the completion push (release-fenced) so the producer's
/// reconciliation can only under-estimate losses, never over-estimate.
const C_DISPOSED: usize = 5;
/// One shard's live statistics block.
type ShardCounters = CounterBlock<6>;

/// What happened to one disposed packet, echoed to the producer on the
/// completion ring. This is the only feedback channel a source has — on
/// real hardware it is the ACK (with its ECE bit) coming back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// Transmitted, no congestion signal.
    Delivered,
    /// Transmitted with the ECN congestion-experienced mark set by
    /// admission — the signal closed-loop transports react to.
    DeliveredMarked,
    /// Refused by admission or evicted to make room: the skb is freed (so
    /// the TSQ budget returns) and the transport sees a loss.
    Dropped,
}

/// One completion-ring message: which flow, and what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The flow whose packet was disposed.
    pub flow: FlowId,
    /// Its fate.
    pub kind: CompletionKind,
}

/// Control-plane messages (cold path; one per run today).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Stop the shard. With `drain`, finish everything already queued
    /// (ring + qdisc) first; without, stop at the next loop iteration
    /// (timed runs, where lingering packets are expected).
    Shutdown {
        /// Whether to empty the data ring and qdisc before exiting.
        drain: bool,
    },
}

/// Parameters of a threaded run.
///
/// Reuses [`HostConfig`] for the workload shape (`flows`, `aggregate`,
/// `tsq_budget`, `batch`, `bin`), with one deliberate difference:
/// **`host.duration` is ignored** — a threaded run is bounded by
/// [`wall_limit`](Self::wall_limit) real nanoseconds (and, for finite
/// workloads, usually ends earlier by draining).
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// OS threads / qdisc instances. Flows are split by
    /// [`eiffel_sim::shard_of`], exactly as in the simulated host.
    pub shards: usize,
    /// Workload shape (see type-level docs: `duration` is ignored).
    pub host: HostConfig,
    /// Per-flow in-qdisc packet cap, as in
    /// [`crate::sharded::ShardedConfig::flow_cap`]. Note drop *counts* under
    /// a cap are scheduling-dependent on real threads (a completion may or
    /// may not beat the retry), so the equivalence suite leaves this off.
    pub flow_cap: Option<u32>,
    /// Finite workload: each flow emits exactly this many packets and the
    /// run ends when the qdiscs drain. `None` = continuously backlogged
    /// until `wall_limit`.
    pub pkts_per_flow: Option<u64>,
    /// Hard wall-clock bound on the run. For timed runs this *is* the
    /// duration; for finite workloads it is a safety net (the report's
    /// [`ThreadedReport::timed_out`] flags it firing).
    pub wall_limit: WallNanos,
    /// Capacity of each data ring (completion rings match).
    pub ring_capacity: usize,
    /// Per-flow packet-count overrides (heavy-tailed workloads), as in
    /// [`crate::sharded::ShardedConfig::pkts_override`]. Any override makes
    /// the run finite.
    pub pkts_override: Option<Vec<u64>>,
    /// Per-flow first-emission wall times (incast waves). Must be
    /// nondecreasing in flow id — the producer starts flows by walking the
    /// schedule in order. `None` = smooth stagger over one pacing gap.
    pub starts: Option<Vec<Nanos>>,
    /// Fault plan, admission policy, and watchdog. The default is a no-op.
    pub chaos: ChaosConfig,
    /// ECN-reactive closed-loop sources: each flow runs a DCTCP-style
    /// estimator over the mark fraction echoed on its completions and
    /// paces its own emissions. `None` = the historical open loop (bulk
    /// senders gated only by TSQ).
    pub closed_loop: Option<ClosedLoopParams>,
    /// Memory-budget accountant shared by the producer (flow setup and
    /// per-packet slab charges) and the shard threads (tier lookups and
    /// slab releases). `None` = unbounded, the historical behavior.
    pub mem: Option<Arc<MemBudget>>,
    /// Source-side emission gap, decoupled from the shard-side shaping
    /// rate (which stays `host.aggregate / host.flows`). Mirrors
    /// [`crate::sharded::ShardedConfig::offered_gap`]: a gap smaller than
    /// the shaped per-flow gap means sustained overload of a
    /// fixed-capacity drain. Applies to the flow-start stagger and to
    /// closed-loop pacing (open-loop senders are TSQ-gated bulk emitters
    /// either way). `None` = offered rate equals the shaped rate.
    pub offered_gap: Option<Nanos>,
}

impl ThreadedConfig {
    /// A timed run: flows stay backlogged, the run stops at `wall_limit`.
    pub fn timed(shards: usize, host: HostConfig, wall_limit: WallNanos) -> Self {
        ThreadedConfig {
            shards,
            host,
            flow_cap: None,
            pkts_per_flow: None,
            wall_limit,
            ring_capacity: 4_096,
            pkts_override: None,
            starts: None,
            chaos: ChaosConfig::default(),
            closed_loop: None,
            mem: None,
            offered_gap: None,
        }
    }

    /// A finite run: every flow emits exactly `pkts_per_flow` packets, the
    /// run ends by draining. The wall limit is a generous multiple of the
    /// ideal pacing schedule so a healthy run never hits it.
    pub fn finite(shards: usize, host: HostConfig, pkts_per_flow: u64) -> Self {
        let per_flow_bps = (host.aggregate.as_bps() / host.flows.max(1) as u64).max(1);
        let pacing_gap = 1_500 * 8 * 1_000_000_000 / per_flow_bps;
        let ideal = pacing_gap * (pkts_per_flow + host.tsq_budget as u64 + 2);
        ThreadedConfig {
            shards,
            host,
            flow_cap: None,
            pkts_per_flow: Some(pkts_per_flow),
            wall_limit: WallNanos(ideal.saturating_mul(4) + 2 * SECOND),
            ring_capacity: 4_096,
            pkts_override: None,
            starts: None,
            chaos: ChaosConfig::default(),
            closed_loop: None,
            mem: None,
            offered_gap: None,
        }
    }
}

/// Fault-handling outcome of a threaded run — all zeros for a no-op
/// [`ChaosConfig`].
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Arrivals refused by the admission policy at the qdiscs.
    pub admission_dropped: u64,
    /// Arrivals admitted but ECN-marked.
    pub ecn_marked: u64,
    /// Resident packets evicted by priority-drop admission.
    pub evicted: u64,
    /// Completions the fault plan dropped on the completion rings.
    pub completions_lost: u64,
    /// Leaked TSQ budgets the watchdog's reconciliation refunded. Catches
    /// up to `completions_lost` one watchdog tick later (losses in the
    /// final tick of a run can stay unrecovered — honestly reported here).
    pub completions_recovered: u64,
    /// Packets steered away from a watchdog-suspect shard to a live one.
    /// Failover trades per-flow ordering for liveness while it lasts.
    pub redirected: u64,
    /// Shard-stall detections (heartbeat older than `stall_after`).
    pub stalls_detected: u64,
    /// Suspect shards whose heartbeat came back.
    pub recoveries: u64,
    /// Packets left in data rings at shutdown (timed runs end mid-flight;
    /// a drained finite run reports 0).
    pub ring_residue: u64,
    /// Conservation check: `emitted − (transmitted + admission_dropped +
    /// evicted + qdisc residue + ring residue)` at join. **Always 0** —
    /// every emitted packet is accounted for at every fault intensity;
    /// every build asserts it at join.
    pub final_unaccounted: i64,
}

/// The merged result of a threaded run. Mirrors
/// [`crate::sharded::ShardedReport`], except every rate and duration here
/// is **wall-clock** ([`WallNanos`]), not virtual.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Qdisc name (all shards run the same discipline).
    pub name: &'static str,
    /// Per-thread slices (the `achieved_bps` inside is over wall time).
    pub per_shard: Vec<ShardStats>,
    /// Total packets released.
    pub transmitted: u64,
    /// Total packets pushed into shard rings by the producer.
    pub emitted: u64,
    /// Aggregate achieved rate in bits per **wall** second.
    pub achieved_bps: f64,
    /// Arrivals dropped at the flow cap (producer-side decision).
    pub dropped: u64,
    /// Timer fires across all shard threads.
    pub timer_fires: u64,
    /// Sum of per-shard median busy cores: wall nanoseconds of executed
    /// scheduler code (plus the same modelled IRQ/lock constants as the
    /// simulated host) per wall-time bin. On a machine with fewer physical
    /// cores than shards the *threads* time-slice, but this metric counts
    /// busy time, so it still measures the CPU a real multi-core host
    /// would spend.
    pub total_median_cores: f64,
    /// Whole-machine per-bin `(system, softirq)` cores: the per-shard
    /// [`CpuMeter`] bins summed element-wise (shards share the bin width
    /// and the wall-time axis), trimmed to the bins the run actually
    /// reached. The wall-clock counterpart of
    /// [`HostReport::breakdown`](crate::HostReport) (Figure 10 panels).
    pub breakdown: Vec<(f64, f64)>,
    /// Sum of per-shard peak backlogs (an upper bound on the true
    /// simultaneous peak — shards peak at different instants).
    pub peak_backlog: usize,
    /// Wall time from spawn to the last shard joining.
    pub wall_elapsed: WallNanos,
    /// Times the producer found a data ring full (or squeezed below its
    /// occupancy by a fault) and deferred the emission with bounded
    /// backoff — a backpressure signal, not an error.
    pub ring_full_retries: u64,
    /// A finite workload hit [`ThreadedConfig::wall_limit`] before
    /// draining — the counters below are then truncated, not complete.
    pub timed_out: bool,
    /// Flow setups refused by the memory budget (refuse tier, or the
    /// setup charge itself failing) — refused flows park until the tier
    /// clears, then re-attempt (and are counted again if re-refused).
    pub setup_refused: u64,
    /// Emissions deferred because the per-packet slab charge found the
    /// budget exhausted (the bounded-memory guarantee biting).
    pub mem_deferrals: u64,
    /// Peak bytes ever charged against the memory budget (0 without one).
    /// Never exceeds the budget — `try_charge` refuses, by construction.
    pub mem_peak_bytes: u64,
    /// Closed-loop transport summary (`None` for open-loop runs).
    pub cl: Option<ClosedLoopSummary>,
    /// Fault-handling outcome (all zeros without a chaos plan).
    pub chaos: ChaosReport,
}

/// Packet-level record of a threaded run.
///
/// `releases` concatenates the per-shard release logs; a flow lives on
/// exactly one shard, so **per-flow projections are in true release
/// order** even though cross-shard interleaving is lost. Times are wall
/// nanoseconds since run start.
#[derive(Debug, Clone, Default)]
pub struct ThreadedTrace {
    /// `(wall release time, flow, packet id, bytes)` per released packet.
    pub releases: Vec<(WallNanos, FlowId, u64, u32)>,
    /// `(wall drop time, flow, per-flow arrival index)` per cap drop.
    pub drops: Vec<(WallNanos, FlowId, u64)>,
}

impl ThreadedTrace {
    /// One flow's released packet ids, in release order.
    pub fn flow_release_ids(&self, flow: FlowId) -> Vec<u64> {
        self.releases
            .iter()
            .filter(|(_, f, _, _)| *f == flow)
            .map(|&(_, _, id, _)| id)
            .collect()
    }

    /// One flow's released `(wall time, bytes)`, in release order.
    pub fn flow_releases(&self, flow: FlowId) -> Vec<(WallNanos, u32)> {
        self.releases
            .iter()
            .filter(|(_, f, _, _)| *f == flow)
            .map(|&(t, _, _, b)| (t, b))
            .collect()
    }

    /// One flow's released byte total.
    pub fn flow_bytes(&self, flow: FlowId) -> u64 {
        self.releases
            .iter()
            .filter(|(_, f, _, _)| *f == flow)
            .map(|&(_, _, _, b)| b as u64)
            .sum()
    }

    /// One flow's drop count.
    pub fn flow_drop_count(&self, flow: FlowId) -> u64 {
        self.drops.iter().filter(|(_, f, _)| *f == flow).count() as u64
    }
}

/// Runs the threaded host, returning the merged report.
///
/// `mk` builds shard `i`'s qdisc on the *calling* thread; the instance is
/// then moved to its shard thread (hence `Q: Send` — no sharing, just a
/// move).
pub fn run_threaded<Q: ShaperQdisc + Send>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ThreadedConfig,
) -> ThreadedReport {
    run_inner(mk, cfg, false).0
}

/// [`run_threaded`] plus the packet-level [`ThreadedTrace`] — the ordering
/// and equivalence suites' entry point.
pub fn run_threaded_traced<Q: ShaperQdisc + Send>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ThreadedConfig,
) -> (ThreadedReport, ThreadedTrace) {
    run_inner(mk, cfg, true)
}

/// What one shard thread hands back at join.
struct ShardOutcome<Q> {
    shard: Shard<Q>,
    releases: Vec<(WallNanos, FlowId, u64, u32)>,
    /// Wall time at this shard's exit (its rate denominator).
    final_now: Nanos,
    /// Packets still in the data ring at exit (timed runs only).
    ring_residue: u64,
    /// Completions the fault plan dropped at this shard.
    completions_lost: u64,
}

fn run_inner<Q: ShaperQdisc + Send>(
    mut mk: impl FnMut(usize) -> Q,
    cfg: &ThreadedConfig,
    want_trace: bool,
) -> (ThreadedReport, ThreadedTrace) {
    let n = cfg.shards.max(1);
    let host = &cfg.host;
    assert!(host.flows > 0, "threaded host needs at least one flow");
    let per_flow_bps = (host.aggregate.as_bps() / host.flows as u64).max(1);
    let batch = host.batch.max(1);
    let ring_cap = cfg.ring_capacity.max(1);

    // Plumbing: three SPSC rings per shard.
    let mut data_tx = Vec::with_capacity(n);
    let mut data_rx = Vec::with_capacity(n);
    let mut ctrl_tx = Vec::with_capacity(n);
    let mut ctrl_rx = Vec::with_capacity(n);
    let mut comp_tx = Vec::with_capacity(n);
    let mut comp_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = SpscRing::<Packet>::new(ring_cap);
        data_tx.push(tx);
        data_rx.push(rx);
        let (tx, rx) = SpscRing::<CtrlMsg>::new(4);
        ctrl_tx.push(tx);
        ctrl_rx.push(rx);
        let (tx, rx) = SpscRing::<Completion>::new(ring_cap);
        comp_tx.push(tx);
        comp_rx.push(rx);
    }
    let counters: Vec<ShardCounters> = (0..n).map(|_| ShardCounters::new()).collect();

    // Qdiscs are built on this thread (mk may capture state), then moved.
    let mut shards_init: Vec<Shard<Q>> = (0..n)
        .map(|i| {
            Shard::new(
                mk(i),
                CpuMeter::new(host.bin, cfg.wall_limit.as_nanos().max(host.bin)),
            )
        })
        .collect();
    let home: Vec<u32> = (0..host.flows as u32)
        .map(|f| shard_of(f, n) as u32)
        .collect();
    for &h in &home {
        shards_init[h as usize].flows += 1;
    }

    // Per-shard fault schedules, compiled once; workers get a clone, the
    // producer keeps the set (for ring squeezes and the watchdog).
    let faults: Vec<ShardFaults> = (0..n).map(|i| cfg.chaos.plan.compile(i)).collect();
    let admit = cfg.chaos.admit;

    // Per-flow producer state comes first: at the largest flow counts it
    // is a multi-hundred-MB allocation whose first-touch cost must not be
    // billed against the wall the shards and sources share.
    let mut pstate = ProducerState::build(cfg);

    let start = Instant::now();
    let mut outcomes: Vec<ShardOutcome<Q>> = Vec::with_capacity(n);
    let mut producer_out = ProducerOutcome::default();

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        // `.rev()` + pop keeps ring endpoints aligned with shard ids.
        for (i, shard) in shards_init.into_iter().enumerate().rev() {
            let data = data_rx.pop().expect("one data ring per shard");
            let ctrl = ctrl_rx.pop().expect("one ctrl ring per shard");
            let comp = comp_tx.pop().expect("one completion ring per shard");
            let stats = &counters[i];
            let shard_faults = faults[i].clone();
            let shard_mem = cfg.mem.clone();
            handles.push(s.spawn(move || {
                shard_worker(
                    shard,
                    data,
                    ctrl,
                    comp,
                    stats,
                    start,
                    per_flow_bps,
                    batch,
                    shard_faults,
                    admit,
                    shard_mem,
                    want_trace,
                )
            }));
        }
        handles.reverse(); // spawned in reverse; report in shard order

        producer_out = producer_loop(
            cfg,
            &mut pstate,
            &home,
            per_flow_bps,
            start,
            &mut data_tx,
            &mut ctrl_tx,
            &mut comp_rx,
            &counters,
            &faults,
            want_trace,
        );

        // Shards may still be draining (or blocked pushing completions):
        // keep the completion rings moving until every thread exits.
        while handles.iter().any(|h| !h.is_finished()) {
            for rx in comp_rx.iter_mut() {
                while rx.pop().is_some() {}
            }
            std::thread::yield_now();
        }
        for h in handles {
            outcomes.push(h.join().expect("shard thread panicked"));
        }
    });
    let wall_elapsed = WallNanos::from_duration(start.elapsed());

    // Exact totals from the joined shards; the counter blocks only served
    // live readers during the run.
    let name = outcomes[0].shard.qdisc.name();
    let per_shard: Vec<ShardStats> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let secs = WallNanos(o.final_now).as_secs_f64().max(1e-9);
            ShardStats {
                flows: o.shard.flows,
                transmitted: o.shard.transmitted,
                achieved_bps: o.shard.tx_bytes as f64 * 8.0 / secs,
                dropped: producer_out.dropped_per_shard[i],
                timer_fires: o.shard.timer_fires,
                median_cores: o.shard.meter.median_cores(),
                peak_backlog: o.shard.peak_backlog,
                admission_dropped: o.shard.admission_dropped,
                ecn_marked: o.shard.ecn_marked,
                evicted: o.shard.evicted,
                mean_latency_ns: if o.shard.transmitted > 0 {
                    o.shard.lat_sum_ns as f64 / o.shard.transmitted as f64
                } else {
                    0.0
                },
                max_latency_ns: o.shard.lat_max_ns,
                tiers: o.shard.tiers,
                sojourn: o.shard.sojourn.clone(),
            }
        })
        .collect();
    // Whole-machine breakdown: shard meters share the bin geometry, so
    // summing bin `i` across shards gives total cores busy in wall
    // window `i`. Trim to the windows the run reached — the meters are
    // sized for `wall_limit`, and a run that drained early would
    // otherwise pad the CDF with empty bins.
    let used_bins = (wall_elapsed.as_nanos().div_ceil(host.bin) as usize).max(1);
    let mut breakdown: Vec<(f64, f64)> = Vec::new();
    for o in &outcomes {
        let bins = o.shard.meter.cores_per_bin();
        breakdown.resize(bins.len().min(used_bins).max(breakdown.len()), (0.0, 0.0));
        for (acc, (s, irq)) in breakdown.iter_mut().zip(bins) {
            acc.0 += s;
            acc.1 += irq;
        }
    }
    // Exact conservation at join: the producer stopped before the shards
    // exited (the control push synchronizes the rings), so every emitted
    // packet is in exactly one bucket below.
    let disposed: u64 = outcomes
        .iter()
        .map(|o| o.shard.transmitted + o.shard.admission_dropped + o.shard.evicted)
        .sum();
    let qdisc_residue: u64 = outcomes.iter().map(|o| o.shard.qdisc.len() as u64).sum();
    let ring_residue: u64 = outcomes.iter().map(|o| o.ring_residue).sum();
    let chaos = ChaosReport {
        admission_dropped: outcomes.iter().map(|o| o.shard.admission_dropped).sum(),
        ecn_marked: outcomes.iter().map(|o| o.shard.ecn_marked).sum(),
        evicted: outcomes.iter().map(|o| o.shard.evicted).sum(),
        completions_lost: outcomes.iter().map(|o| o.completions_lost).sum(),
        completions_recovered: producer_out.completions_recovered,
        redirected: producer_out.redirected,
        stalls_detected: producer_out.stalls_detected,
        recoveries: producer_out.recoveries,
        ring_residue,
        final_unaccounted: producer_out.emitted as i64
            - (disposed + qdisc_residue + ring_residue) as i64,
    };
    assert_eq!(
        chaos.final_unaccounted, 0,
        "threaded packet conservation violated"
    );
    let report = ThreadedReport {
        name,
        transmitted: per_shard.iter().map(|s| s.transmitted).sum(),
        emitted: producer_out.emitted,
        achieved_bps: {
            let bytes: u64 = outcomes.iter().map(|o| o.shard.tx_bytes).sum();
            bytes as f64 * 8.0 / wall_elapsed.as_secs_f64().max(1e-9)
        },
        dropped: per_shard.iter().map(|s| s.dropped).sum(),
        timer_fires: per_shard.iter().map(|s| s.timer_fires).sum(),
        total_median_cores: per_shard.iter().map(|s| s.median_cores).sum(),
        breakdown,
        peak_backlog: per_shard.iter().map(|s| s.peak_backlog).sum(),
        wall_elapsed,
        ring_full_retries: producer_out.ring_full_retries,
        timed_out: producer_out.timed_out,
        setup_refused: producer_out.setup_refused,
        mem_deferrals: producer_out.mem_deferrals,
        mem_peak_bytes: cfg.mem.as_ref().map_or(0, |m| m.peak()),
        cl: producer_out.cl.take(),
        chaos,
        per_shard,
    };
    let trace = ThreadedTrace {
        releases: outcomes.into_iter().flat_map(|o| o.releases).collect(),
        drops: producer_out.drops,
    };
    (report, trace)
}

/// One completion per disposed packet (transmitted, admission-dropped, or
/// evicted) — unless the fault plan loses it on the wire. The push blocks
/// spin-then-yield; the producer always drains completion rings.
fn send_completion(
    comp: &mut SpscProducer<Completion>,
    faults: &ShardFaults,
    now: Nanos,
    comp_seq: &mut u64,
    lost: &mut u64,
    c: Completion,
) {
    let seq = *comp_seq;
    *comp_seq += 1;
    if faults.lose_completion(now, seq) {
        *lost += 1;
        return;
    }
    let mut c = c;
    loop {
        match comp.push(c) {
            Ok(()) => break,
            Err(back) => {
                c = back;
                std::thread::yield_now();
            }
        }
    }
}

/// One shard thread: poll the rings and the wall clock, run the shared
/// pipeline stages. No locks; the only blocking is pushing completions
/// into a full ring (spin-then-yield — the producer always drains it).
#[allow(clippy::too_many_arguments)]
fn shard_worker<Q: ShaperQdisc>(
    mut shard: Shard<Q>,
    mut data: SpscConsumer<Packet>,
    mut ctrl: SpscConsumer<CtrlMsg>,
    mut comp: SpscProducer<Completion>,
    stats: &ShardCounters,
    start: Instant,
    per_flow_bps: u64,
    batch: usize,
    faults: ShardFaults,
    admit: AdmitPolicy,
    mem: Option<Arc<MemBudget>>,
    want_trace: bool,
) -> ShardOutcome<Q> {
    const INGRESS_BURST: usize = 64;
    let mut releases = Vec::new();
    let mut drained: Vec<Packet> = Vec::with_capacity(batch.max(1));
    let mut enqueued = 0u64;
    let mut draining = false;
    let mut idle = 0u32;
    // Jitter of the currently armed timer fire (keyed on the epoch so the
    // virtual-clock runtime draws the identical delay).
    let mut jitter: Nanos = 0;
    let mut comp_seq = 0u64;
    let mut completions_lost = 0u64;
    let final_now;
    loop {
        let now = start.elapsed().as_nanos() as Nanos;
        match ctrl.pop() {
            Some(CtrlMsg::Shutdown { drain: false }) => {
                final_now = now;
                break;
            }
            Some(CtrlMsg::Shutdown { drain: true }) => draining = true,
            None => {}
        }
        if faults.stalled(now) {
            // Paused core: no heartbeat, no ingress, no softirq — the
            // watchdog sees the heartbeat freeze while producers fill this
            // shard's ring. Sleep in short slices so the control plane
            // stays responsive.
            let until = faults.stall_until(now).expect("stalled => end");
            let remaining = until.saturating_sub(now);
            std::thread::sleep(Duration::from_nanos(remaining.min(100_000)));
            continue;
        }
        stats.set(C_HEARTBEAT, now);
        let mut worked = false;

        // Ingress: a burst of arrivals from the data ring, each through
        // admission (tightened by the memory budget's current degradation
        // tier). Refused arrivals and evicted victims owe the producer a
        // completion too — the kernel frees the skb either way — and every
        // disposal returns its slab charge to the budget.
        for _ in 0..INGRESS_BURST {
            let Some(pkt) = data.pop() else { break };
            let flow = pkt.flow;
            let tier = mem.as_deref().map_or(DegradeTier::Normal, |m| m.tier());
            match shard.ingress(now, pkt, per_flow_bps, &admit, tier) {
                IngressVerdict::Queued | IngressVerdict::Marked => {}
                IngressVerdict::DroppedArrival => {
                    if let Some(m) = mem.as_deref() {
                        m.release(PKT_SLAB_BYTES);
                    }
                    send_completion(
                        &mut comp,
                        &faults,
                        now,
                        &mut comp_seq,
                        &mut completions_lost,
                        Completion {
                            flow,
                            kind: CompletionKind::Dropped,
                        },
                    )
                }
                IngressVerdict::Evicted(victim) => {
                    if let Some(m) = mem.as_deref() {
                        m.release(PKT_SLAB_BYTES);
                    }
                    send_completion(
                        &mut comp,
                        &faults,
                        now,
                        &mut comp_seq,
                        &mut completions_lost,
                        Completion {
                            flow: victim.flow,
                            kind: CompletionKind::Dropped,
                        },
                    )
                }
            }
            if let Some(want) = shard.tighten_timer(now) {
                jitter = faults.timer_extra_delay(want, shard.timer_epoch());
            }
            enqueued += 1;
            worked = true;
        }
        if worked {
            stats.set(C_ENQUEUED, enqueued);
            publish_disposed(stats, &shard);
        }

        // Softirq: fire when the armed deadline (plus any injected timer
        // jitter) has passed on the wall clock — the poll-side version of
        // the virtual driver's event queue delivering it.
        if shard.timer_due(now.saturating_sub(jitter)) {
            shard.softirq(now, batch, &mut drained);
            let penalty = faults.consumer_penalty_ns(now);
            if penalty > 0 && !drained.is_empty() {
                // Slow consumer: burn the extra per-packet wall time in
                // softirq context (metered like any real drain work).
                let extra = penalty.saturating_mul(drained.len() as u64);
                let t0 = Instant::now();
                shard.meter.measure(now, CpuCategory::SoftIrq, || {
                    while (t0.elapsed().as_nanos() as u64) < extra {
                        std::hint::spin_loop();
                    }
                });
            }
            for p in drained.drain(..) {
                if want_trace {
                    releases.push((WallNanos(now), p.flow, p.id, p.bytes));
                }
                if let Some(m) = mem.as_deref() {
                    m.release(PKT_SLAB_BYTES);
                }
                send_completion(
                    &mut comp,
                    &faults,
                    now,
                    &mut comp_seq,
                    &mut completions_lost,
                    Completion {
                        flow: p.flow,
                        kind: if p.ecn {
                            CompletionKind::DeliveredMarked
                        } else {
                            CompletionKind::Delivered
                        },
                    },
                );
            }
            if let Some(want) = shard.rearm(now) {
                jitter = faults.timer_extra_delay(want, shard.timer_epoch());
            }
            publish_disposed(stats, &shard);
            stats.set(C_TRANSMITTED, shard.transmitted);
            stats.set(C_TX_BYTES, shard.tx_bytes);
            stats.set(C_TIMER_FIRES, shard.timer_fires);
            worked = true;
        }

        if draining && data.is_empty() && shard.qdisc.is_empty() {
            final_now = now;
            break;
        }
        if worked {
            idle = 0;
        } else {
            idle += 1;
            if idle % 64 == 0 {
                // Busy-poll, but share the core: on machines with fewer
                // cores than shards the other threads need the timeslice.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
    // Timed runs exit with packets still in flight: count the ring residue
    // so the join-time conservation check balances exactly. (The producer
    // exited before sending Shutdown, and its control push synchronizes
    // the data ring, so everything it emitted is visible here.)
    let mut ring_residue = 0u64;
    while data.pop().is_some() {
        ring_residue += 1;
        if let Some(m) = mem.as_deref() {
            m.release(PKT_SLAB_BYTES);
        }
    }
    if let Some(m) = mem.as_deref() {
        // Packets still resident in the qdisc at a timed shutdown hold
        // slab charges; the run is over, so give them back — the budget's
        // books close at zero.
        m.release(PKT_SLAB_BYTES.saturating_mul(shard.qdisc.len() as u64));
    }
    stats.set(C_TRANSMITTED, shard.transmitted);
    stats.set(C_TX_BYTES, shard.tx_bytes);
    stats.set(C_TIMER_FIRES, shard.timer_fires);
    stats.set(C_ENQUEUED, enqueued);
    ShardOutcome {
        shard,
        releases,
        final_now,
        ring_residue,
        completions_lost,
    }
}

/// Publishes the disposed-packet counter *after* the completion pushes it
/// covers. The release fence (paired with the producer's acquire fence)
/// guarantees a reader that observes the new count can also pop every
/// completion it counts — so reconciliation under-estimates losses rather
/// than inventing them.
fn publish_disposed<Q: ShaperQdisc>(stats: &ShardCounters, shard: &Shard<Q>) {
    fence(Ordering::Release);
    stats.set(
        C_DISPOSED,
        shard.transmitted + shard.admission_dropped + shard.evicted,
    );
}

/// What the producer loop hands back.
#[derive(Debug, Default)]
struct ProducerOutcome {
    emitted: u64,
    ring_full_retries: u64,
    timed_out: bool,
    dropped_per_shard: Vec<u64>,
    drops: Vec<(WallNanos, FlowId, u64)>,
    redirected: u64,
    stalls_detected: u64,
    recoveries: u64,
    completions_recovered: u64,
    setup_refused: u64,
    mem_deferrals: u64,
    cl: Option<ClosedLoopSummary>,
}

/// Per-flow producer state (the application + TCP-stack model).
struct FlowState {
    budget: u32,
    inflight: u32,
    sent: u64,
    arrivals: u64,
    /// Already sitting in the ready queue (dedup so the deque stays
    /// bounded by the flow count).
    queued: bool,
    /// Consecutive ring-full deferrals (exponential-backoff exponent,
    /// capped; reset on a successful emission).
    backoff: u8,
    /// Retry attempts so far — the per-flow jitter key.
    retry_seq: u32,
    /// Flow setup charged against the memory budget (always true without
    /// one).
    established: bool,
    /// Setup charge already released (finite flow fully drained).
    freed: bool,
    /// Earliest next emission (closed-loop pacing; 0 in open loop).
    next_allowed: Nanos,
}

/// Returns one TSQ budget to `flow` — from a completion, or from the
/// watchdog's loss reconciliation. The `inflight == 0` guard makes refunds
/// exact per flow even when reconciliation guessed and the real completion
/// arrives later: a flow never receives more refunds than it had packets
/// in flight. Under a memory budget, the last refund of a fully drained
/// finite flow also tears the flow down, releasing its setup charge —
/// the churn that keeps the active flow set bounded.
fn credit_flow(
    fs: &mut [FlowState],
    flow: FlowId,
    limits: &[u64],
    ready: &mut VecDeque<FlowId>,
    mem: Option<&MemBudget>,
) -> bool {
    let f = &mut fs[flow as usize];
    if f.inflight == 0 {
        return false; // already reconciled by the watchdog
    }
    f.inflight -= 1;
    f.budget += 1;
    let lim = limits[flow as usize];
    if !f.queued && f.sent < lim {
        f.queued = true;
        ready.push_back(flow);
    }
    if let Some(m) = mem {
        if f.established && !f.freed && lim != u64::MAX && f.sent >= lim && f.inflight == 0 {
            f.freed = true;
            m.release(FLOW_SETUP_BYTES);
        }
    }
    true
}

/// Producer per-flow state, allocated *before* the wall clock starts.
///
/// At 10 M flows these vectors are on the order of a gigabyte of
/// first-touch memory — on a small box that alone can take seconds.
/// Building them inside the timed region would silently shorten (or, at
/// the largest grid points, entirely consume) the measured wall, so
/// `run_inner` constructs this up front and only then takes `start`.
struct ProducerState {
    /// Per-flow packet limit (`u64::MAX` = unbounded timed flow).
    limits: Vec<u64>,
    /// Closed-loop transports, one per flow (empty in open loop).
    cl: Vec<ClosedLoopSource>,
    fs: Vec<FlowState>,
    ready: VecDeque<FlowId>,
}

impl ProducerState {
    fn build(cfg: &ThreadedConfig) -> Self {
        let flows = cfg.host.flows;
        let limits: Vec<u64> = match &cfg.pkts_override {
            Some(v) => {
                assert_eq!(v.len(), flows, "pkts_override length");
                v.clone()
            }
            None => vec![cfg.pkts_per_flow.unwrap_or(u64::MAX); flows],
        };
        let cl: Vec<ClosedLoopSource> = match &cfg.closed_loop {
            Some(p) => vec![ClosedLoopSource::new(p); flows],
            None => Vec::new(),
        };
        let fs: Vec<FlowState> = (0..flows)
            .map(|_| FlowState {
                budget: cfg.host.tsq_budget.max(1),
                inflight: 0,
                sent: 0,
                arrivals: 0,
                queued: false,
                backoff: 0,
                retry_seq: 0,
                established: cfg.mem.is_none(),
                freed: false,
                next_allowed: 0,
            })
            .collect();
        ProducerState {
            limits,
            cl,
            fs,
            ready: VecDeque::with_capacity(flows),
        }
    }
}

/// The producer/demux thread body (runs on the caller's thread while the
/// shard threads live in the scope).
#[allow(clippy::too_many_arguments)]
fn producer_loop(
    cfg: &ThreadedConfig,
    state: &mut ProducerState,
    home: &[u32],
    per_flow_bps: u64,
    start: Instant,
    data_tx: &mut [SpscProducer<Packet>],
    ctrl_tx: &mut [SpscProducer<CtrlMsg>],
    comp_rx: &mut [SpscConsumer<Completion>],
    counters: &[ShardCounters],
    faults: &[ShardFaults],
    want_trace: bool,
) -> ProducerOutcome {
    const EMIT_BURST: usize = 256;
    /// Base ring-full backoff; doubles per consecutive deferral, capped at
    /// `BACKOFF_BASE_NS << BACKOFF_MAX_EXP` (≈ 640 µs).
    const BACKOFF_BASE_NS: Nanos = 10_000;
    const BACKOFF_MAX_EXP: u8 = 6;
    let host = &cfg.host;
    let flows = host.flows;
    let n = data_tx.len();
    let pacing_gap = 1_500 * 8 * 1_000_000_000 / per_flow_bps;
    // Source-side gap: what a flow *offers*, vs `pacing_gap` — what the
    // shard-side shaper *grants*. Equal unless the run models overload.
    let offered_gap = cfg.offered_gap.unwrap_or(pacing_gap).max(1);
    let ring_cap = cfg.ring_capacity.max(1);
    let ProducerState {
        limits,
        cl,
        fs,
        ready,
    } = state;
    let finite = cfg.pkts_per_flow.is_some() || cfg.pkts_override.is_some();
    let flow_cap = cfg.flow_cap.map(|c| c.max(1));
    let wall_limit = cfg.wall_limit.as_nanos();
    if let Some(st) = &cfg.starts {
        assert_eq!(st.len(), flows, "starts length");
        assert!(
            st.windows(2).all(|w| w[0] <= w[1]),
            "starts must be nondecreasing in flow id"
        );
    }
    let watchdog = cfg.chaos.watchdog;
    let cl_params = cfg.closed_loop;
    let mem = cfg.mem.as_deref();

    let mut out = ProducerOutcome {
        dropped_per_shard: vec![0; n],
        ..ProducerOutcome::default()
    };
    // Cap-dropped and ring-deferred flows retry later, as in the simulation.
    let mut retries: BinaryHeap<Reverse<(Nanos, FlowId)>> = BinaryHeap::new();
    // Flows turned away at setup park here, off the hot path entirely: a
    // timed retry at millions of refused flows would have the producer
    // re-refusing the same setups all run — a livelock, not admission
    // control. A bounded probe re-admits them once the refuse tier
    // clears; established-flow churn (a drained finite flow releases its
    // setup charge in `credit_flow`) is what makes the room.
    let mut parked: VecDeque<FlowId> = VecDeque::new();
    const UNPARK_BURST: usize = 256;
    let mut started = 0usize; // flows staggered in over one pacing gap
                              // Flows with a zero limit are born done.
    let mut flows_done = if finite {
        limits.iter().filter(|&&l| l == 0).count()
    } else {
        0
    };
    let mut next_pkt_id = 0u64;

    // Watchdog state: which shards are currently believed alive, the
    // live-set failover list, and per-shard credited completions (popped +
    // reconciled) for completion-loss recovery.
    let mut live = vec![true; n];
    let mut alive: Vec<usize> = (0..n).collect();
    let mut credited = vec![0u64; n];
    let mut next_check = watchdog.map_or(u64::MAX, |w| w.check_every.as_nanos());

    loop {
        let now = start.elapsed().as_nanos() as Nanos;
        let mut worked = false;

        // TSQ completions: return budget, wake throttled flows, and feed
        // the transport its congestion signal (the echoed ECN mark or the
        // loss) — the closed loop closing. A rejected credit
        // (`inflight == 0`) is the real completion of a disposal the
        // reconciliation below already pre-refunded — that disposal was
        // counted then, so counting the pop too would double-credit it and
        // hide a genuinely lost completion forever. (The congestion signal
        // is still genuine either way, so it is always delivered.)
        for (s, rx) in comp_rx.iter_mut().enumerate() {
            while let Some(c) = rx.pop() {
                if let Some(p) = &cl_params {
                    match c.kind {
                        CompletionKind::Delivered => {
                            cl[c.flow as usize].on_completion(p, false);
                        }
                        CompletionKind::DeliveredMarked => {
                            cl[c.flow as usize].on_completion(p, true);
                        }
                        CompletionKind::Dropped => cl[c.flow as usize].on_loss(p),
                    }
                }
                if credit_flow(fs, c.flow, limits, ready, mem) {
                    credited[s] += 1;
                }
                worked = true;
            }
        }

        // Watchdog tick: stall detection via heartbeats, failover of the
        // live set, and completion-loss reconciliation.
        if now >= next_check {
            let w = watchdog.expect("next_check is finite only with a watchdog");
            for s in 0..n {
                let hb = counters[s].read(C_HEARTBEAT);
                let stalled = now.saturating_sub(hb) > w.stall_after.as_nanos();
                if stalled && live[s] {
                    live[s] = false;
                    out.stalls_detected += 1;
                } else if !stalled && !live[s] {
                    live[s] = true;
                    out.recoveries += 1;
                }
                // Reconciliation order matters: snapshot the disposed
                // counter *first* (acquire-fenced against the shard's
                // release), then drain the ring — so `disposed − credited`
                // can only under-count losses, never invent them.
                let disposed = counters[s].read(C_DISPOSED);
                fence(Ordering::Acquire);
                while let Some(c) = comp_rx[s].pop() {
                    if let Some(p) = &cl_params {
                        match c.kind {
                            CompletionKind::Delivered => {
                                cl[c.flow as usize].on_completion(p, false);
                            }
                            CompletionKind::DeliveredMarked => {
                                cl[c.flow as usize].on_completion(p, true);
                            }
                            CompletionKind::Dropped => cl[c.flow as usize].on_loss(p),
                        }
                    }
                    if credit_flow(fs, c.flow, limits, ready, mem) {
                        credited[s] += 1;
                    }
                }
                let lost = disposed.saturating_sub(credited[s]);
                if lost > 0 {
                    // Leaked TSQ budgets: completions vanished on the wire.
                    // Refund flows still holding inflight — starved flows
                    // (budget 0) first, socket-scan style. Per-flow
                    // attribution is best-effort; the aggregate is exact
                    // and `credit_flow`'s guard keeps refunds ≤ inflight.
                    let mut recovered = 0u64;
                    for pass in 0..2 {
                        for f in 0..flows as u32 {
                            if recovered == lost {
                                break;
                            }
                            let starving = fs[f as usize].budget == 0;
                            if (pass == 0 && !starving) || fs[f as usize].inflight == 0 {
                                continue;
                            }
                            if credit_flow(fs, f, limits, ready, mem) {
                                recovered += 1;
                            }
                        }
                    }
                    credited[s] += recovered;
                    out.completions_recovered += recovered;
                }
            }
            alive = (0..n).filter(|&s| live[s]).collect();
            next_check = now + w.check_every.as_nanos();
            worked = true;
        }

        // Start flows: explicit schedule (incast waves), or staggered
        // across one offered gap (same schedule as the simulated host:
        // depends only on id and total flow count).
        loop {
            if started >= flows {
                break;
            }
            let due = match &cfg.starts {
                Some(st) => now >= st[started],
                None => now >= offered_gap * started as u64 / flows as u64,
            };
            if !due {
                break;
            }
            let flow = started as FlowId;
            if !fs[started].queued {
                fs[started].queued = true;
                ready.push_back(flow);
            }
            started += 1;
            worked = true;
        }

        // Due retries from earlier cap drops and ring-full deferrals.
        while let Some(&Reverse((at, flow))) = retries.peek() {
            if at > now {
                break;
            }
            retries.pop();
            let f = &mut fs[flow as usize];
            if !f.queued {
                f.queued = true;
                ready.push_back(flow);
            }
            worked = true;
        }

        // Re-admit parked flows once the refuse tier clears — a bounded
        // burst per pass, so a tier flickering at the threshold costs
        // O(UNPARK_BURST), never a stampede of the whole parked set.
        if !parked.is_empty() && mem.is_some_and(|m| m.tier() != DegradeTier::Refuse) {
            for _ in 0..UNPARK_BURST {
                let Some(flow) = parked.pop_front() else {
                    break;
                };
                let f = &mut fs[flow as usize];
                if !f.queued {
                    f.queued = true;
                    ready.push_back(flow);
                }
                worked = true;
            }
        }

        // Emit a burst of arrivals.
        for _ in 0..EMIT_BURST {
            let Some(flow) = ready.pop_front() else { break };
            let i = flow as usize;
            fs[i].queued = false;
            if fs[i].budget == 0 || fs[i].sent >= limits[i] {
                continue; // throttled (a completion requeues) or done
            }
            if cl_params.is_some() && now < fs[i].next_allowed {
                // Closed-loop pacing: the transport's congestion window
                // says not yet (stray completion wakeups land here).
                retries.push(Reverse((fs[i].next_allowed, flow)));
                continue;
            }
            if !fs[i].established {
                // Flow setup under a memory budget: the refuse tier (or an
                // exhausted budget) turns new flows away before any packet
                // memory is committed — the strongest degradation. Refused
                // flows park until the tier clears (the unpark probe
                // above), so a saturated budget costs O(1) per flow, not a
                // retry storm. A failed charge nearly always means the
                // tier is already Refuse (512 B of headroom sits inside
                // the 95 % threshold once the budget exceeds ~10 KB), so
                // park/unpark churn stays within the probe's burst bound.
                let m = mem.expect("unestablished flows only exist under a budget");
                if m.tier() == DegradeTier::Refuse || !m.try_charge(FLOW_SETUP_BYTES) {
                    out.setup_refused += 1;
                    parked.push_back(flow);
                    continue;
                }
                fs[i].established = true;
            }
            let s_home = home[i] as usize;
            // Failover: a watchdog-suspect shard stops receiving new work;
            // its flows rehash over the live set (stable `shard_of` on the
            // live list, so a flow keeps one failover home while the set
            // is unchanged). Trades per-flow ordering for liveness.
            let s = if live[s_home] || alive.is_empty() {
                s_home
            } else {
                alive[shard_of(flow, alive.len())]
            };
            // Bounded backoff on a full — or fault-squeezed — ring. The
            // producer-view `len()` can only over-count occupancy, so
            // `len < cap` guarantees the push lands; no spin, no blocking.
            let eff_cap = faults[s].ring_capacity(now, ring_cap);
            if data_tx[s].len() >= eff_cap {
                // Bounded exponential backoff, plus deterministic seeded
                // jitter keyed on (flow, attempt): producers that found
                // the ring full at the same instant would otherwise all
                // return `BACKOFF_BASE_NS << exp` later — in lockstep, to
                // the same full ring (the thundering herd).
                out.ring_full_retries += 1;
                let exp = fs[i].backoff.min(BACKOFF_MAX_EXP);
                fs[i].backoff = fs[i].backoff.saturating_add(1);
                fs[i].retry_seq = fs[i].retry_seq.wrapping_add(1);
                let base = BACKOFF_BASE_NS << exp;
                let at = now + base + backoff_jitter(flow, fs[i].retry_seq, base / 2);
                retries.push(Reverse((at, flow)));
                continue;
            }
            fs[i].backoff = 0;
            fs[i].arrivals += 1;
            if flow_cap.is_some_and(|cap| fs[i].inflight >= cap) {
                out.dropped_per_shard[s_home] += 1;
                if want_trace {
                    out.drops.push((WallNanos(now), flow, fs[i].arrivals - 1));
                }
                retries.push(Reverse((now + offered_gap, flow)));
                continue;
            }
            if let Some(m) = mem {
                // Per-packet slab accounting: an exhausted budget defers
                // the emission (jittered) instead of allocating — backlog
                // memory cannot exceed the budget, whatever the ring and
                // qdisc capacities would admit. The retry is source-side
                // (the sender re-offers), so it backs off by the offered
                // gap — under decoupled overload the shaped gap can be
                // seconds, which would idle the slab pool it waits for.
                if !m.try_charge(PKT_SLAB_BYTES) {
                    out.mem_deferrals += 1;
                    fs[i].retry_seq = fs[i].retry_seq.wrapping_add(1);
                    let base = offered_gap;
                    let at = now + base + backoff_jitter(flow, fs[i].retry_seq, base / 2);
                    retries.push(Reverse((at, flow)));
                    continue;
                }
            }
            fs[i].budget -= 1;
            fs[i].inflight += 1;
            fs[i].sent += 1;
            if finite && fs[i].sent == limits[i] {
                flows_done += 1;
            }
            let pkt = Packet::mtu(next_pkt_id, flow, now);
            next_pkt_id += 1;
            data_tx[s]
                .push(pkt)
                .unwrap_or_else(|_| unreachable!("len() < capacity guarantees SPSC space"));
            if s != s_home {
                out.redirected += 1;
            }
            out.emitted += 1;
            if cl_params.is_some() {
                // The transport paces itself: next emission no earlier
                // than the base gap stretched by its congestion scale.
                fs[i].next_allowed = now + cl[i].gap(offered_gap).max(1);
            }
            if fs[i].budget > 0 && fs[i].sent < limits[i] {
                if cl_params.is_some() {
                    retries.push(Reverse((fs[i].next_allowed, flow)));
                } else {
                    // Bulk sender: back-to-back until TSQ throttles.
                    fs[i].queued = true;
                    ready.push_back(flow);
                }
            }
            worked = true;
        }

        // Termination.
        if finite && flows_done == flows {
            for tx in ctrl_tx.iter_mut() {
                let _ = tx.push(CtrlMsg::Shutdown { drain: true });
            }
            break;
        }
        if now >= wall_limit {
            out.timed_out = finite; // normal end for timed runs
            for tx in ctrl_tx.iter_mut() {
                let _ = tx.push(CtrlMsg::Shutdown { drain: false });
            }
            break;
        }
        if !worked {
            std::thread::yield_now();
        }
    }
    if let Some(m) = mem {
        // Run over: the sources close. Release the setup charge of every
        // still-established flow — their final completions may still be in
        // flight (the join loop discards them), and timed runs end with
        // flows mid-stream by design.
        for f in fs.iter_mut() {
            if f.established && !f.freed {
                f.freed = true;
                m.release(FLOW_SETUP_BYTES);
            }
        }
    }
    out.cl = cl_params.map(|_| summarize_closed_loop(cl));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eiffel::EiffelQdisc;
    use eiffel_sim::Rate;

    fn tiny_host(flows: usize) -> HostConfig {
        HostConfig {
            flows,
            aggregate: Rate::mbps(60 * flows as u64), // 60 Mbps per flow
            duration: SECOND,                         // ignored by threaded runs
            bin: SECOND / 20,
            tsq_budget: 2,
            batch: 4,
        }
    }

    #[test]
    fn finite_run_delivers_every_packet_and_drains() {
        let cfg = ThreadedConfig::finite(2, tiny_host(8), 5);
        let (r, tr) = run_threaded_traced(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out, "drain run hit the wall limit");
        assert_eq!(r.emitted, 8 * 5);
        assert_eq!(r.transmitted, 8 * 5, "everything emitted must release");
        assert_eq!(r.dropped, 0);
        assert_eq!(r.per_shard.len(), 2);
        let homed: usize = r.per_shard.iter().map(|s| s.flows).sum();
        assert_eq!(homed, 8);
        for flow in 0..8u32 {
            assert_eq!(tr.flow_release_ids(flow).len(), 5, "flow {flow}");
        }
    }

    #[test]
    fn timed_run_reports_wall_rate_and_live_counters_converge() {
        let mut cfg = ThreadedConfig::timed(2, tiny_host(16), WallNanos::from_millis(40));
        cfg.host.batch = 8;
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(r.transmitted > 0, "a 40ms run must release packets");
        assert!(r.wall_elapsed >= WallNanos::from_millis(40));
        assert!(r.achieved_bps > 0.0);
        assert!(r.timer_fires > 0);
        assert!(!r.timed_out, "timed runs end at the limit by design");
    }

    #[test]
    fn flow_cap_drops_and_recovers_on_threads() {
        let mut cfg = ThreadedConfig::finite(3, tiny_host(6), 12);
        cfg.host.tsq_budget = 4;
        cfg.flow_cap = Some(1); // cap below budget ⇒ must bind sometimes
        let (r, tr) = run_threaded_traced(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out);
        // Every flow still completes its finite workload despite drops.
        assert_eq!(r.transmitted, 6 * 12);
        assert_eq!(r.dropped as usize, tr.drops.len());
    }

    use eiffel_chaos::{FaultPlan, WatchdogConfig};

    /// Every packet minted must end the run accounted for: released,
    /// refused by admission, or evicted — nothing lost, nothing invented.
    fn assert_conserving(r: &ThreadedReport) {
        assert_eq!(r.chaos.final_unaccounted, 0, "conservation: {:?}", r.chaos);
        assert_eq!(
            r.emitted,
            r.transmitted + r.chaos.admission_dropped + r.chaos.evicted + r.chaos.ring_residue,
            "emitted must split exactly into released + refused + evicted"
        );
    }

    #[test]
    fn watchdog_detects_stall_redirects_and_recovers() {
        // Shard 0 freezes 1ms..4ms; the watchdog (0.5ms sampling, 1ms
        // threshold) must notice by ~2.5ms, fail its flows over to shard 1,
        // and restore it when the heartbeat returns. Every flow starts at
        // 3ms — inside the stall, after detection — so the shard-0 flows'
        // opening bursts *must* take the failover path (flows already
        // throttled on a dead shard hold no budget and cannot be steered;
        // they drain in place when it thaws).
        let mut cfg = ThreadedConfig::finite(2, tiny_host(8), 40);
        cfg.starts = Some(vec![3_000_000; 8]);
        cfg.chaos.plan = FaultPlan::new(11).stall(0, 1_000_000, 4_000_000);
        cfg.chaos.watchdog = Some(WatchdogConfig {
            check_every: WallNanos::from_nanos(500_000),
            stall_after: WallNanos::from_nanos(1_000_000),
        });
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out, "stalled run must not wedge");
        assert_eq!(r.transmitted, 8 * 40, "every packet still delivered");
        assert!(r.chaos.stalls_detected >= 1, "{:?}", r.chaos);
        assert!(r.chaos.recoveries >= 1, "shard 0 resumes at 4ms");
        assert!(
            r.chaos.redirected > 0,
            "shard-0 flows emitted during the stall"
        );
        assert_conserving(&r);
    }

    #[test]
    fn stall_without_watchdog_still_drains_and_conserves() {
        // No watchdog: the producer backs off against the frozen shards'
        // rings and simply waits the stall out. Slower, never wedged.
        // Both shards freeze from t=0 with 2-slot rings, so the flows'
        // opening TSQ burst (budget 4 each, back-to-back) must overrun
        // the squeezed capacity and defer — TSQ alone cannot gate it.
        let mut cfg = ThreadedConfig::finite(2, tiny_host(8), 20);
        cfg.host.tsq_budget = 4;
        cfg.chaos.plan = FaultPlan::new(12)
            .stall(0, 0, 2_000_000)
            .ring_squeeze(0, 0, 2_000_000, 2)
            .stall(1, 0, 2_000_000)
            .ring_squeeze(1, 0, 2_000_000, 2);
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out);
        assert_eq!(r.transmitted, 8 * 20);
        assert!(
            r.ring_full_retries > 0,
            "an opening burst into frozen 2-slot rings must defer"
        );
        assert_eq!(r.chaos.stalls_detected, 0, "no watchdog, no detections");
        assert_conserving(&r);
    }

    #[test]
    fn completion_loss_is_reconciled_not_wedged() {
        // Half of shard 0's completions vanish for the whole run. Without
        // reconciliation every flow homed there wedges once its TSQ budget
        // leaks away; the watchdog's credit audit must refund them.
        let mut cfg = ThreadedConfig::finite(2, tiny_host(6), 25);
        cfg.chaos.plan = FaultPlan::new(13).completion_loss(0, 0, 40_000_000, 2);
        cfg.chaos.watchdog = Some(WatchdogConfig {
            check_every: WallNanos::from_nanos(300_000),
            stall_after: WallNanos::from_nanos(30_000_000),
        });
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(
            !r.timed_out,
            "leaked budgets must be refunded, not waited on"
        );
        assert_eq!(r.transmitted, 6 * 25);
        assert!(r.chaos.completions_lost > 0, "{:?}", r.chaos);
        assert!(
            r.chaos.completions_recovered > 0,
            "reconciliation must refund leaked budgets: {:?}",
            r.chaos
        );
        assert_conserving(&r);
    }

    #[test]
    fn jitter_squeeze_and_slow_consumer_conserve() {
        // The "everything at once" run: timers slip, rings shrink, the
        // consumer crawls. Throughput may degrade; accounting may not.
        let mut cfg = ThreadedConfig::finite(3, tiny_host(9), 15);
        cfg.chaos.plan = FaultPlan::new(14)
            .timer_jitter(0, 0, 20_000_000, 150_000)
            .ring_squeeze(1, 1_000_000, 6_000_000, 4)
            .slow_consumer(2, 0, 20_000_000, 20_000)
            .stall(1, 2_000_000, 3_000_000);
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out);
        assert_eq!(r.transmitted, 9 * 15, "degraded, never lossy");
        assert_conserving(&r);
    }

    #[test]
    fn closed_loop_with_mem_budget_drains_and_frees_everything() {
        // ECN-reactive sources under a budget small enough that packet
        // slabs contend: the run must still drain its finite workload,
        // never charge past the budget, and return every byte by the end
        // (slabs on disposal, flow setups on teardown).
        let mut cfg = ThreadedConfig::finite(2, tiny_host(8), 30);
        cfg.host.tsq_budget = 4;
        cfg.chaos.admit = AdmitPolicy::EcnMark {
            cap: 16,
            mark_at: 2,
        };
        cfg.closed_loop = Some(ClosedLoopParams::default());
        let budget = Arc::new(MemBudget::new(8 * 1024));
        cfg.mem = Some(Arc::clone(&budget));
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out, "budget contention must not wedge the run");
        assert_eq!(r.transmitted, 8 * 30);
        assert!(r.cl.is_some(), "closed-loop summary present");
        assert!(r.mem_peak_bytes > 0, "charges were taken");
        assert!(r.mem_peak_bytes <= budget.budget(), "hard ceiling");
        assert_eq!(
            budget.in_use(),
            0,
            "every slab and setup charge returned by the end"
        );
        assert_conserving(&r);
    }

    #[test]
    fn tail_drop_admission_sheds_load_and_refunds_budget() {
        // A 1-packet qdisc budget under a 4-packet TSQ window: admission
        // must shed arrivals, and every refusal must hand its TSQ budget
        // back so the flow keeps emitting to its finite limit.
        let mut cfg = ThreadedConfig::finite(2, tiny_host(6), 20);
        cfg.host.tsq_budget = 4;
        cfg.chaos.admit = AdmitPolicy::TailDrop { cap: 1 };
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out);
        assert_eq!(
            r.emitted,
            6 * 20,
            "refusals refund budget; emission completes"
        );
        assert!(r.chaos.admission_dropped > 0, "{:?}", r.chaos);
        assert_eq!(r.transmitted + r.chaos.admission_dropped, r.emitted);
        assert_conserving(&r);
    }
}
