//! The sharded multi-core host model: N simulated cores, one shaping qdisc
//! each, under one virtual clock.
//!
//! Modern hosts do not funnel every socket through one qdisc instance: the
//! stack hashes flows to per-core queues (RSS/XPS style) and each core runs
//! its own scheduler — Carousel's deployment model ("a single queue per
//! core") and the scale-out shape Eiffel's §5 end-host numbers assume. This
//! module owns the one event loop behind both host models —
//! [`crate::host::run`] is its 1-shard case — and generalizes it to N:
//!
//! * **Stable flow→shard hashing** ([`eiffel_sim::shard_of`]): a flow's
//!   packets always meet the same qdisc instance, so per-flow FIFO order and
//!   shaping behaviour are preserved no matter how many cores serve the
//!   host. The shard-equivalence property test pins this: an N-shard host
//!   is *per-flow identical* (release times, byte counts, drop decisions)
//!   to the single-shard host.
//! * **Per-shard timers and CPU meters**: each simulated core arms its own
//!   softirq timer from its own qdisc's `next_deadline` and meters its own
//!   enqueue/dequeue nanoseconds; the merged [`ShardedReport`] carries both
//!   the per-shard and the aggregate view (rate, backlog, drops, fires).
//! * **Batched dequeue**: the softirq drain goes through
//!   [`ShaperQdisc::dequeue_batch`] with [`HostConfig::batch`], the
//!   queue-layer amortization (one min-find per due bucket) lifted into the
//!   host pipeline.
//!
//! Event ordering: at equal virtual time, timer (softirq) events run before
//! source (syscall) events — softirq context preempts the sender path on a
//! real core. Unlike the plain arrival-order tie-break of
//! [`eiffel_sim::EventQueue`], this rule is shard-count-invariant, which is
//! what makes the N-vs-1 equivalence exact rather than statistical. The
//! events ride Eiffel's own FFS-bucketed wheel
//! ([`eiffel_sim::BucketedEventQueue`]) with the kind folded into the key
//! (see `EvQueue`).

use std::collections::VecDeque;
use std::sync::Arc;

use eiffel_chaos::{Admission, AdmitPolicy, ChaosConfig, ShardFaults};
use eiffel_core::{DegradeTier, MemBudget, FLOW_SETUP_BYTES, PKT_SLAB_BYTES};
use eiffel_sim::cpu::{IRQ_ENTRY_NS, LOCK_NS, PER_PACKET_STACK_NS};
use eiffel_sim::{
    shard_of, BucketedEventQueue, CpuCategory, CpuMeter, EventScheduler, FlowId, Nanos, Packet,
    SplitMix64,
};
use eiffel_workloads::{
    summarize_closed_loop, ClosedLoopParams, ClosedLoopSource, ClosedLoopSummary,
};

use crate::host::{wanted_deadline, HostConfig};
use crate::qdisc::ShaperQdisc;

/// Parameters of a sharded run. `host.flows` and `host.aggregate` are the
/// totals across all shards; flows are split by [`eiffel_sim::shard_of`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Simulated cores (qdisc instances). 1 reproduces the single-core
    /// host's behaviour under the sharded event rules.
    pub shards: usize,
    /// The per-host workload (flows, aggregate rate, duration, TSQ budget,
    /// softirq drain batch).
    pub host: HostConfig,
    /// Per-flow in-qdisc packet cap (≥ 1): an arrival finding the flow at
    /// its cap is dropped and the source retries one pacing gap later —
    /// qdisc-full backpressure. `None` = never drop. Kept per-flow (not
    /// per-shard) so drop decisions are shard-count-invariant, which the
    /// equivalence property test asserts.
    pub flow_cap: Option<u32>,
    /// Finite workload: each flow emits exactly this many packets, then
    /// stops (dropped arrivals are retried, not counted). The run ends when
    /// the qdiscs drain, even before `host.duration`. `None` = flows stay
    /// backlogged for the whole duration (the paper's neper workload).
    ///
    /// A finite workload makes the per-flow packet/byte/drop totals
    /// *time-free* invariants — the property the threaded-vs-simulated
    /// equivalence suite compares across clocks.
    pub pkts_per_flow: Option<u64>,
    /// Per-flow packet-count overrides (heavy-tailed workloads): flow `i`
    /// emits `pkts_override[i]` packets. Takes precedence over
    /// `pkts_per_flow` where present; must have `host.flows` entries.
    pub pkts_override: Option<Vec<u64>>,
    /// Per-flow first-emission times (incast waves): flow `i` starts at
    /// `starts[i]`. `None` = the classic smooth stagger over one pacing
    /// gap. Must have `host.flows` entries.
    pub starts: Option<Vec<Nanos>>,
    /// Fault plan + admission policy. The default is a no-op: no fault
    /// windows, unlimited admission — behavior is bit-identical to the
    /// pre-chaos host (the watchdog field is threaded-runtime-only and
    /// ignored here; the virtual clock *knows* when stalls end).
    pub chaos: ChaosConfig,
    /// Closed-loop (DCTCP-style) sources: emissions are paced at a
    /// per-flow rate scale driven by the ECN marks and drops the
    /// admission layer echoes back on the completion path. `None` keeps
    /// the historical open-loop sources bit-identical.
    pub closed_loop: Option<ClosedLoopParams>,
    /// Memory budget the run charges flow setup and packet slabs
    /// against; its [`DegradeTier`] tightens admission and, at the
    /// refuse tier, blocks new flow setup. `None` = unbounded (the
    /// historical behavior).
    pub mem: Option<Arc<MemBudget>>,
    /// Base inter-emission gap for closed-loop sources, decoupled from
    /// the shaped per-flow rate. The qdisc still paces (ranks) at
    /// `aggregate/flows`; a source at full scale emits one packet per
    /// `offered_gap` — smaller than the pacing gap means sustained
    /// overload, the regime the control loop exists for. `None` = the
    /// pacing gap (offered equals shaped; a quiet channel).
    pub offered_gap: Option<Nanos>,
}

impl ShardedConfig {
    /// `shards` cores over the given host workload, no drops, open-ended.
    pub fn new(shards: usize, host: HostConfig) -> Self {
        ShardedConfig {
            shards,
            host,
            flow_cap: None,
            pkts_per_flow: None,
            pkts_override: None,
            starts: None,
            chaos: ChaosConfig::default(),
            closed_loop: None,
            mem: None,
            offered_gap: None,
        }
    }
}

/// Admission outcomes split by the [`DegradeTier`] they were decided
/// under — the per-tier marks/drops/shed view the overload reports
/// surface. Indexed by `tier as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Arrivals admitted unmarked at each tier.
    pub admitted: [u64; DegradeTier::COUNT],
    /// Arrivals admitted with an ECN mark at each tier.
    pub marked: [u64; DegradeTier::COUNT],
    /// Arrivals dropped at each tier.
    pub dropped: [u64; DegradeTier::COUNT],
    /// Worst-ranked residents shed (evicted) at each tier.
    pub shed: [u64; DegradeTier::COUNT],
}

impl TierCounters {
    /// Element-wise accumulate.
    pub fn merge(&mut self, o: &TierCounters) {
        for t in 0..DegradeTier::COUNT {
            self.admitted[t] += o.admitted[t];
            self.marked[t] += o.marked[t];
            self.dropped[t] += o.dropped[t];
            self.shed[t] += o.shed[t];
        }
    }

    /// Number of distinct tiers that saw any admission decision.
    pub fn tiers_exercised(&self) -> usize {
        (0..DegradeTier::COUNT)
            .filter(|&t| self.admitted[t] + self.marked[t] + self.dropped[t] + self.shed[t] > 0)
            .count()
    }

    /// Total decisions recorded at one tier.
    pub fn total_at(&self, tier: DegradeTier) -> u64 {
        let t = tier as usize;
        self.admitted[t] + self.marked[t] + self.dropped[t] + self.shed[t]
    }
}

/// Power-of-two-bucketed sojourn histogram: bucket `b` holds released
/// packets whose in-qdisc sojourn fell in `[2^b, 2^{b+1})` ns. 64
/// buckets cover the whole `u64` range in 512 bytes per shard, enough
/// resolution for the p99-style tail the overload figures report.
#[derive(Debug, Clone)]
pub struct SojournHist {
    counts: [u64; 64],
    total: u64,
}

impl Default for SojournHist {
    fn default() -> Self {
        SojournHist {
            counts: [0; 64],
            total: 0,
        }
    }
}

impl SojournHist {
    fn bucket(ns: u64) -> usize {
        63 - (ns | 1).leading_zeros() as usize
    }

    /// Record one released packet's sojourn.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, o: &SojournHist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Upper edge of the bucket holding the `q`-quantile sample (e.g.
    /// `quantile(0.99)` bounds the p99 sojourn from above within a
    /// factor of 2). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if b >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (b + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// Fraction of samples at or below `ns`, with linear interpolation
    /// inside the straddling bucket — the SLO-goodput numerator.
    pub fn frac_le(&self, ns: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut covered = 0.0f64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = if b == 0 { 0u64 } else { 1u64 << b };
            let hi = if b >= 63 { u64::MAX } else { 1u64 << (b + 1) };
            if hi <= ns {
                covered += c as f64;
            } else if lo < ns {
                let span = (hi - lo) as f64;
                covered += c as f64 * (ns - lo) as f64 / span;
            }
        }
        covered / self.total as f64
    }
}

/// One simulated core's slice of the run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Flows hashed to this shard.
    pub flows: usize,
    /// Packets this shard's qdisc released.
    pub transmitted: u64,
    /// This shard's achieved rate in bits/s.
    pub achieved_bps: f64,
    /// Arrivals dropped at this shard's cap.
    pub dropped: u64,
    /// Timer fires on this core.
    pub timer_fires: u64,
    /// Median cores of this core's meter (system + softirq).
    pub median_cores: f64,
    /// Peak packets inside this shard's qdisc.
    pub peak_backlog: usize,
    /// Arrivals dropped by the admission policy at this shard's qdisc
    /// (tail drops, plus priority-drop fallbacks on maxless backends).
    pub admission_dropped: u64,
    /// Arrivals admitted but ECN-marked.
    pub ecn_marked: u64,
    /// Resident packets evicted by priority-drop admission.
    pub evicted: u64,
    /// Mean in-qdisc sojourn of released packets, ns (0 when none).
    pub mean_latency_ns: f64,
    /// Worst in-qdisc sojourn of a released packet, ns.
    pub max_latency_ns: u64,
    /// Admission decisions split by the memory-pressure tier they were
    /// made under (all in the `Normal` column without a [`MemBudget`]).
    pub tiers: TierCounters,
    /// Sojourn histogram of this shard's released packets.
    pub sojourn: SojournHist,
}

/// The merged result: per-shard slices plus host-level aggregates.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Qdisc name (all shards run the same discipline).
    pub name: &'static str,
    /// Per-core slices, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Total packets released.
    pub transmitted: u64,
    /// Aggregate achieved rate in bits/s.
    pub achieved_bps: f64,
    /// Total arrivals dropped.
    pub dropped: u64,
    /// Total timer fires across cores.
    pub timer_fires: u64,
    /// Sum of per-shard median cores — the host's CPU bill.
    pub total_median_cores: f64,
    /// Peak packets inside all qdiscs combined.
    pub peak_backlog: usize,
    /// Total arrivals dropped by admission policy.
    pub admission_dropped: u64,
    /// Total arrivals ECN-marked.
    pub ecn_marked: u64,
    /// Total priority-drop evictions.
    pub evicted: u64,
    /// Emissions deferred because a stalled/squeezed shard's pending ring
    /// was full (the virtual-clock analogue of producer ring-full retries).
    pub ring_full_retries: u64,
    /// Conservation audits performed (one per fault boundary crossed, plus
    /// one at end of run). Every audit asserted
    /// `emitted = delivered + dropped + in-flight` exactly.
    pub audits: u64,
    /// Packets minted over the whole run. Conservation over report
    /// totals: `emitted = transmitted + admission_dropped + evicted +
    /// residue` exactly.
    pub emitted: u64,
    /// Packets still inside qdiscs or pending rings when the duration
    /// ended (a drained finite run reports 0).
    pub residue: u64,
    /// New-flow setups refused at the memory budget's refuse tier (the
    /// flow retries with jittered backoff).
    pub setup_refused: u64,
    /// Emissions deferred because the packet-slab charge would exceed
    /// the memory budget (retried like a full ring).
    pub mem_deferrals: u64,
    /// High-water mark of the memory ledger, bytes (0 without a budget).
    pub mem_peak: u64,
    /// Final closed-loop source state, when closed-loop sources ran.
    pub cl: Option<ClosedLoopSummary>,
}

/// Packet-level record of a run, for equivalence testing.
#[derive(Debug, Clone, Default)]
pub struct ShardTrace {
    /// `(release time, flow, bytes)` per transmitted packet, in release
    /// order (cross-flow order at equal times is shard-dependent; per-flow
    /// projections are not).
    pub releases: Vec<(Nanos, FlowId, u32)>,
    /// `(drop time, flow, per-flow arrival index)` per dropped arrival.
    pub drops: Vec<(Nanos, FlowId, u64)>,
}

impl ShardTrace {
    /// Release sequence of one flow: `(time, bytes)` in release order.
    pub fn flow_releases(&self, flow: FlowId) -> Vec<(Nanos, u32)> {
        self.releases
            .iter()
            .filter(|(_, f, _)| *f == flow)
            .map(|&(t, _, b)| (t, b))
            .collect()
    }

    /// Drop sequence of one flow: `(time, arrival index)` in drop order.
    pub fn flow_drops(&self, flow: FlowId) -> Vec<(Nanos, u64)> {
        self.drops
            .iter()
            .filter(|(_, f, _)| *f == flow)
            .map(|&(t, _, seq)| (t, seq))
            .collect()
    }
}

/// Event kinds; [`Ev::kind`] orders them at equal time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Shard `shard`'s stall window ended: drain its pending ingress ring.
    Resume { shard: u32 },
    /// Shard `shard`'s softirq timer (epoch guards stale timers).
    Timer { shard: u32, epoch: u64 },
    /// A flow has (possibly) TSQ budget: emit its next bulk packet.
    Source(FlowId),
}

impl Ev {
    fn kind(&self) -> u64 {
        match self {
            // A resuming core first drains the ring its producers filled
            // while it was paused, then its pended timer interrupt fires.
            Ev::Resume { .. } => 0,
            Ev::Timer { .. } => 1, // softirq preempts the syscall path
            Ev::Source(_) => 2,
        }
    }
}

/// Latest instant the folded key `at · 4 + kind` can carry; later events
/// are filed at it. Runs must end by then ([`drive`] asserts it), so a
/// clamped event still stops the loop wherever it would have.
const MAX_AT: Nanos = u64::MAX >> 2;

/// Wheel span in key units, i.e. 1,024 ns: same-instant sources and the
/// nearest timers take the wheel; the flows' staggered first emissions and
/// later timers wait in its overflow level. A 2¹⁶-slot wheel ran no faster
/// on the 20k-flow host and cost memory.
const WHEEL_SLOTS: usize = 1 << 12;

/// The driver's event queue, in `(time, kind, insertion)` order —
/// deterministic and shard-count-invariant (see the module docs).
///
/// The wheel is keyed `at · 4 + kind`, so its own `(key, insertion)` order
/// is exactly that order. Only one event ever sorts below the key just
/// popped: a softirq timer armed for the current instant while that
/// instant's [`Ev::Source`] is handled. Such timers queue in `now_timers`,
/// served in insertion order before the wheel — where the fold would have
/// put them.
struct EvQueue {
    wheel: BucketedEventQueue<Ev>,
    now_timers: VecDeque<Ev>,
}

impl EvQueue {
    fn new() -> Self {
        EvQueue {
            wheel: BucketedEventQueue::with_slots(WHEEL_SLOTS),
            now_timers: VecDeque::new(),
        }
    }

    fn schedule(&mut self, at: Nanos, ev: Ev) {
        let key = at.min(MAX_AT) * 4 + ev.kind();
        if key < self.wheel.now() {
            assert!(
                matches!(ev, Ev::Timer { .. }) && at == self.wheel.now() / 4,
                "event {ev:?} at {at} sorts before the current one"
            );
            self.now_timers.push_back(ev);
        } else {
            self.wheel.schedule(key, ev);
        }
    }

    fn pop(&mut self) -> Option<(Nanos, Ev)> {
        if let Some(ev) = self.now_timers.pop_front() {
            return Some((self.wheel.now() / 4, ev));
        }
        self.wheel.pop().map(|(key, ev)| (key / 4, ev))
    }
}

/// One core's live state and its pipeline stages — crate-visible so
/// [`crate::host::run`] can assemble a `HostReport` from the 1-shard case
/// and [`crate::threaded`] can run the *same stage code* on a real OS
/// thread. [`drive`] sequences the stages under the virtual clock's
/// [`EvQueue`]; the threaded shard loop sequences them under the wall
/// clock. Neither has a private copy of the enqueue/softirq logic, so the
/// models cannot drift.
pub(crate) struct Shard<Q> {
    pub(crate) qdisc: Q,
    pub(crate) meter: CpuMeter,
    timer_epoch: u64,
    timer_armed_at: Option<Nanos>,
    pub(crate) timer_fires: u64,
    pub(crate) transmitted: u64,
    pub(crate) tx_bytes: u64,
    pub(crate) dropped: u64,
    pub(crate) peak_backlog: usize,
    pub(crate) flows: usize,
    pub(crate) admission_dropped: u64,
    pub(crate) ecn_marked: u64,
    pub(crate) evicted: u64,
    pub(crate) lat_sum_ns: u128,
    pub(crate) lat_max_ns: u64,
    pub(crate) tiers: TierCounters,
    pub(crate) sojourn: SojournHist,
}

/// Outcome of admitting one arrival at a shard's qdisc — what the caller
/// needs for TSQ/backlog bookkeeping. The shard's own admission counters
/// are updated inside [`Shard::ingress`].
pub(crate) enum IngressVerdict {
    /// Admitted.
    Queued,
    /// Admitted and ECN-marked (counter-only: the model carries the
    /// congestion *signal*, not a sender response loop).
    Marked,
    /// Refused at the door — tail drop, or priority-drop falling back on a
    /// backend without a max path. The packet was freed; the caller must
    /// refund its flow's TSQ budget (a kernel drop frees the skb).
    DroppedArrival,
    /// Admitted by evicting the worst-ranked resident; the caller must
    /// refund the *victim's* flow.
    Evicted(Packet),
}

impl<Q: ShaperQdisc> Shard<Q> {
    /// A fresh core around one qdisc instance and its CPU meter.
    pub(crate) fn new(qdisc: Q, meter: CpuMeter) -> Self {
        Shard {
            qdisc,
            meter,
            timer_epoch: 0,
            timer_armed_at: None,
            timer_fires: 0,
            transmitted: 0,
            tx_bytes: 0,
            dropped: 0,
            peak_backlog: 0,
            flows: 0,
            admission_dropped: 0,
            ecn_marked: 0,
            evicted: 0,
            lat_sum_ns: 0,
            lat_max_ns: 0,
            tiers: TierCounters::default(),
            sojourn: SojournHist::default(),
        }
    }

    /// Syscall-path stage: modelled lock + stack constants, admission
    /// decision (tightened by the memory-pressure `tier`), measured
    /// enqueue (and eviction), backlog peak bookkeeping. With
    /// [`AdmitPolicy::Unlimited`] this is exactly the pre-chaos
    /// unconditional-enqueue path; a marked admission sets the packet's
    /// ECN bit so the completion path can echo it to the source.
    pub(crate) fn ingress(
        &mut self,
        now: Nanos,
        mut pkt: Packet,
        pacing_bps: u64,
        admit: &AdmitPolicy,
        tier: DegradeTier,
    ) -> IngressVerdict {
        self.meter
            .charge(now, CpuCategory::System, LOCK_NS + PER_PACKET_STACK_NS);
        let t = tier as usize;
        let verdict = match admit.decide_tiered(self.qdisc.len(), tier) {
            Admission::Enqueue => {
                self.tiers.admitted[t] += 1;
                IngressVerdict::Queued
            }
            Admission::EnqueueMarked => {
                self.ecn_marked += 1;
                self.tiers.marked[t] += 1;
                pkt.ecn = true;
                IngressVerdict::Marked
            }
            Admission::DropArriving => {
                self.admission_dropped += 1;
                self.tiers.dropped[t] += 1;
                return IngressVerdict::DroppedArrival;
            }
            Admission::EvictWorst => {
                let Shard { meter, qdisc, .. } = self;
                let victim = meter.measure(now, CpuCategory::System, || qdisc.evict_worst());
                match victim {
                    Some(v) => {
                        self.evicted += 1;
                        self.tiers.shed[t] += 1;
                        self.tiers.admitted[t] += 1; // the arrival goes in
                        IngressVerdict::Evicted(v)
                    }
                    None => {
                        // Backend without a max path (`evict_worst`'s
                        // default): degrade to tail-dropping the arrival.
                        self.admission_dropped += 1;
                        self.tiers.dropped[t] += 1;
                        return IngressVerdict::DroppedArrival;
                    }
                }
            }
        };
        let Shard { meter, qdisc, .. } = self;
        meter.measure(now, CpuCategory::System, || {
            qdisc.enqueue(now, pkt, pacing_bps);
        });
        self.peak_backlog = self.peak_backlog.max(self.qdisc.len());
        verdict
    }

    /// Arms — or tightens, if the new deadline is earlier — the softirq
    /// timer after an arrival. Returns the deadline when (re)armed; the
    /// epoch bump invalidates any timer already in flight for this shard.
    pub(crate) fn tighten_timer(&mut self, now: Nanos) -> Option<Nanos> {
        let want = wanted_deadline(&self.qdisc, now)?.max(now);
        if self.timer_armed_at.map_or(true, |at| want < at) {
            self.timer_epoch += 1;
            self.timer_armed_at = Some(want);
            return Some(want);
        }
        None
    }

    /// Whether the armed timer's deadline has arrived — the threaded
    /// runtime's poll-side equivalent of [`EvQueue`] delivering a timer
    /// event.
    pub(crate) fn timer_due(&self, now: Nanos) -> bool {
        self.timer_armed_at.is_some_and(|at| now >= at)
    }

    /// Whether this event's epoch matches the live timer (stale timers
    /// never fired in hardware).
    pub(crate) fn timer_epoch_is(&self, epoch: u64) -> bool {
        self.timer_epoch == epoch
    }

    /// The live timer epoch — the jitter fault keys its per-fire seeded
    /// draw on it so both runtimes delay the same fire by the same amount.
    pub(crate) fn timer_epoch(&self) -> u64 {
        self.timer_epoch
    }

    /// Softirq stage: modelled IRQ entry, measured batched drain of
    /// everything due, transmit accounting. Clears `released` and leaves
    /// the drained packets in it for the caller's flow bookkeeping.
    pub(crate) fn softirq(&mut self, now: Nanos, batch: usize, released: &mut Vec<Packet>) {
        self.timer_armed_at = None;
        self.timer_fires += 1;
        self.meter.charge(now, CpuCategory::SoftIrq, IRQ_ENTRY_NS);
        released.clear();
        let Shard { meter, qdisc, .. } = self;
        meter.measure(now, CpuCategory::SoftIrq, || loop {
            if qdisc.dequeue_batch(now, batch, released) == 0 {
                break;
            }
        });
        for p in released.iter() {
            self.transmitted += 1;
            self.tx_bytes += p.bytes as u64;
            let sojourn = now.saturating_sub(p.created_at);
            self.lat_sum_ns += sojourn as u128;
            self.lat_max_ns = self.lat_max_ns.max(sojourn);
            self.sojourn.record(sojourn);
        }
    }

    /// Re-arms after a softirq at a strictly future deadline. Returns the
    /// deadline when armed (i.e. when the qdisc still holds packets).
    pub(crate) fn rearm(&mut self, now: Nanos) -> Option<Nanos> {
        let want = wanted_deadline(&self.qdisc, now)?.max(now + 1);
        self.timer_epoch += 1;
        self.timer_armed_at = Some(want);
        Some(want)
    }
}

/// What [`drive`] hands back before report assembly.
pub(crate) struct DriveOutcome<Q> {
    pub(crate) shards: Vec<Shard<Q>>,
    peak_total_backlog: usize,
    ring_full_retries: u64,
    audits: u64,
    emitted: u64,
    residue: u64,
    setup_refused: u64,
    mem_deferrals: u64,
    mem_peak: u64,
    cl: Option<ClosedLoopSummary>,
}

/// Deterministic seeded jitter for retry backoff: a pure function of
/// `(flow, attempt)`, so synchronized producers that hit a full ring at
/// the same instant spread their retries out instead of returning in
/// lockstep — and, being keyed on the flow rather than the shard, the
/// draw is identical at every shard count (the N-vs-1 equivalence
/// property survives).
pub(crate) fn backoff_jitter(flow: FlowId, attempt: u32, span: Nanos) -> Nanos {
    if span == 0 {
        return 0;
    }
    SplitMix64::new(0xbac0_0ff5_eed0_0000 ^ (u64::from(flow) << 20) ^ u64::from(attempt)).next_u64()
        % span
}

/// Closed-loop and memory-budget state of one run, bundled so every
/// disposal path (direct ingress, post-stall ring drains, softirq
/// releases) shares the same hooks. All hooks are cheap no-ops when
/// neither feature is configured.
struct Overload<'a> {
    params: Option<ClosedLoopParams>,
    cl: Vec<ClosedLoopSource>,
    /// Earliest next emission per flow (closed-loop pacing).
    next_allowed: Vec<Nanos>,
    mem: Option<&'a MemBudget>,
    /// Flow setup already charged (always true without a budget).
    established: Vec<bool>,
    /// Flow setup charge already released (finite flows that drained).
    freed: Vec<bool>,
    /// Per-flow retry attempts — the jitter key.
    retry_seq: Vec<u32>,
    setup_refused: u64,
    mem_deferrals: u64,
}

impl<'a> Overload<'a> {
    fn new(cfg: &'a ShardedConfig) -> Self {
        let flows = cfg.host.flows;
        let mem = cfg.mem.as_deref();
        Overload {
            params: cfg.closed_loop,
            cl: match &cfg.closed_loop {
                Some(p) => vec![ClosedLoopSource::new(p); flows],
                None => Vec::new(),
            },
            next_allowed: vec![0; if cfg.closed_loop.is_some() { flows } else { 0 }],
            mem,
            established: vec![mem.is_none(); flows],
            freed: vec![false; if mem.is_some() { flows } else { 0 }],
            retry_seq: vec![0; flows],
            setup_refused: 0,
            mem_deferrals: 0,
        }
    }

    fn tier(&self) -> DegradeTier {
        self.mem.map_or(DegradeTier::Normal, |m| m.tier())
    }

    /// Next jittered retry delay for `flow` around a base `gap`.
    fn retry_in(&mut self, flow: FlowId, gap: Nanos) -> Nanos {
        let i = flow as usize;
        self.retry_seq[i] = self.retry_seq[i].wrapping_add(1);
        let gap = gap.max(1);
        gap + backoff_jitter(flow, self.retry_seq[i], gap / 2)
    }

    /// A packet of `flow` was disposed without transmission (admission
    /// drop, or this flow's resident was shed): free its slab charge and
    /// feed the transport a loss signal.
    fn on_loss(&mut self, flow: FlowId) {
        if let Some(m) = self.mem {
            m.release(PKT_SLAB_BYTES);
        }
        if let Some(p) = &self.params {
            self.cl[flow as usize].on_loss(p);
        }
    }

    /// A packet of `flow` was transmitted: free its slab charge and echo
    /// the ECN bit to the transport.
    fn on_delivery(&mut self, flow: FlowId, marked: bool) {
        if let Some(m) = self.mem {
            m.release(PKT_SLAB_BYTES);
        }
        if let Some(p) = &self.params {
            self.cl[flow as usize].on_completion(p, marked);
        }
    }

    /// Release the flow-setup charge once a finite flow has fully
    /// drained (sent its limit and nothing remains in flight) — flow
    /// teardown, the churn that keeps the active set bounded.
    fn maybe_free_flow(&mut self, i: usize, sent: u64, limit: u64, inflight: u32) {
        let Some(m) = self.mem else { return };
        if !self.freed[i]
            && self.established[i]
            && limit != u64::MAX
            && sent >= limit
            && inflight == 0
        {
            self.freed[i] = true;
            m.release(FLOW_SETUP_BYTES);
        }
    }

    /// Run over: the sources close. Residue packets (in qdiscs and
    /// pending rings) and still-established flows hold charges the
    /// completion path can no longer return — release them here so the
    /// ledger ends at zero, mirroring the threaded producer's exit
    /// teardown.
    fn close_books(&mut self, residue: u64) {
        let Some(m) = self.mem else { return };
        m.release(PKT_SLAB_BYTES.saturating_mul(residue));
        for i in 0..self.established.len() {
            if self.established[i] && !self.freed[i] {
                self.freed[i] = true;
                m.release(FLOW_SETUP_BYTES);
            }
        }
    }

    fn summary(&self) -> Option<ClosedLoopSummary> {
        self.params.map(|_| summarize_closed_loop(&self.cl))
    }
}

/// Runs the sharded host, returning the merged report.
///
/// `mk` builds shard `i`'s qdisc instance — every shard must get the same
/// discipline and geometry (per-flow behaviour depends on it).
pub fn run_sharded<Q: ShaperQdisc>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ShardedConfig,
) -> ShardedReport {
    run_inner(mk, cfg, None)
}

/// [`run_sharded`] plus the packet-level [`ShardTrace`] — the equivalence
/// tests' entry point.
pub fn run_sharded_traced<Q: ShaperQdisc>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ShardedConfig,
) -> (ShardedReport, ShardTrace) {
    let mut trace = ShardTrace::default();
    let report = run_inner(mk, cfg, Some(&mut trace));
    (report, trace)
}

fn run_inner<Q: ShaperQdisc>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ShardedConfig,
    trace: Option<&mut ShardTrace>,
) -> ShardedReport {
    let outcome = drive(mk, cfg, trace);
    let host = &cfg.host;
    let name = outcome.shards[0].qdisc.name();
    let secs = host.duration as f64 / 1e9;
    let per_shard: Vec<ShardStats> = outcome
        .shards
        .iter()
        .map(|sh| ShardStats {
            flows: sh.flows,
            transmitted: sh.transmitted,
            achieved_bps: sh.tx_bytes as f64 * 8.0 / secs,
            dropped: sh.dropped,
            timer_fires: sh.timer_fires,
            median_cores: sh.meter.median_cores(),
            peak_backlog: sh.peak_backlog,
            admission_dropped: sh.admission_dropped,
            ecn_marked: sh.ecn_marked,
            evicted: sh.evicted,
            mean_latency_ns: if sh.transmitted > 0 {
                sh.lat_sum_ns as f64 / sh.transmitted as f64
            } else {
                0.0
            },
            max_latency_ns: sh.lat_max_ns,
            tiers: sh.tiers,
            sojourn: sh.sojourn.clone(),
        })
        .collect();
    ShardedReport {
        name,
        transmitted: per_shard.iter().map(|s| s.transmitted).sum(),
        achieved_bps: per_shard.iter().map(|s| s.achieved_bps).sum(),
        dropped: per_shard.iter().map(|s| s.dropped).sum(),
        timer_fires: per_shard.iter().map(|s| s.timer_fires).sum(),
        total_median_cores: per_shard.iter().map(|s| s.median_cores).sum(),
        peak_backlog: outcome.peak_total_backlog,
        admission_dropped: per_shard.iter().map(|s| s.admission_dropped).sum(),
        ecn_marked: per_shard.iter().map(|s| s.ecn_marked).sum(),
        evicted: per_shard.iter().map(|s| s.evicted).sum(),
        ring_full_retries: outcome.ring_full_retries,
        audits: outcome.audits,
        emitted: outcome.emitted,
        residue: outcome.residue,
        setup_refused: outcome.setup_refused,
        mem_deferrals: outcome.mem_deferrals,
        mem_peak: outcome.mem_peak,
        cl: outcome.cl,
        per_shard,
    }
}

/// Conservation audit: every minted packet is transmitted, dropped by
/// admission, evicted, in a qdisc, or parked in a pending ring.
fn audit<Q: ShaperQdisc>(
    now: Nanos,
    shards: &[Shard<Q>],
    pending: &[VecDeque<Packet>],
    next_pkt_id: u64,
    total_backlog: usize,
) {
    let delivered_or_dropped: u64 = shards
        .iter()
        .map(|sh| sh.transmitted + sh.admission_dropped + sh.evicted)
        .sum();
    let in_ring: usize = pending.iter().map(|p| p.len()).sum();
    assert_eq!(
        next_pkt_id,
        delivered_or_dropped + (total_backlog + in_ring) as u64,
        "packet conservation violated at t={now}"
    );
}

/// TSQ refund for a packet the qdisc freed without transmitting (admission
/// drop or eviction): the kernel frees the skb, so the flow's budget comes
/// back immediately — and a throttled flow gets its resume callback.
fn refund(
    now: Nanos,
    flow: FlowId,
    budget: &mut [u32],
    inflight: &mut [u32],
    sent: &[u64],
    limits: &[u64],
    events: &mut EvQueue,
) {
    let i = flow as usize;
    inflight[i] -= 1;
    if budget[i] == 0 && sent[i] < limits[i] {
        events.schedule(now, Ev::Source(flow));
    }
    budget[i] += 1;
}

/// Admission + enqueue of one minted packet at its home shard, shared by
/// the direct ingress path and the post-stall ring drain. Updates the
/// host-level backlog and performs TSQ refunds for refused/evicted packets;
/// the shard's own counters are updated inside [`Shard::ingress`]. Packets
/// disposed without transmission feed the closed loop a loss signal and
/// return their slab charge to the memory budget.
#[allow(clippy::too_many_arguments)]
fn admit_one<Q: ShaperQdisc>(
    now: Nanos,
    pkt: Packet,
    sh: &mut Shard<Q>,
    per_flow_bps: u64,
    admit: &AdmitPolicy,
    budget: &mut [u32],
    inflight: &mut [u32],
    sent: &[u64],
    limits: &[u64],
    total_backlog: &mut usize,
    events: &mut EvQueue,
    ov: &mut Overload<'_>,
) {
    let flow = pkt.flow;
    match sh.ingress(now, pkt, per_flow_bps, admit, ov.tier()) {
        IngressVerdict::Queued | IngressVerdict::Marked => {
            *total_backlog += 1;
        }
        IngressVerdict::DroppedArrival => {
            ov.on_loss(flow);
            refund(now, flow, budget, inflight, sent, limits, events);
            ov.maybe_free_flow(
                flow as usize,
                sent[flow as usize],
                limits[flow as usize],
                inflight[flow as usize],
            );
        }
        IngressVerdict::Evicted(victim) => {
            // The arrival went in and the worst resident came out: the
            // backlog is net unchanged; only the victim's flow is refunded.
            let v = victim.flow;
            ov.on_loss(v);
            refund(now, v, budget, inflight, sent, limits, events);
            ov.maybe_free_flow(
                v as usize,
                sent[v as usize],
                limits[v as usize],
                inflight[v as usize],
            );
        }
    }
}

/// The one event loop behind both host models: N simulated cores under one
/// virtual clock ([`crate::host::run`] is the 1-shard case).
///
/// Fault semantics on the virtual clock (all from `cfg.chaos.plan`,
/// compiled to per-shard [`ShardFaults`]):
///
/// * **Stall**: the core is paused — arrivals park in a per-shard pending
///   ring (bounded by the squeezed ring capacity; emissions that find it
///   full back off a pacing gap without consuming budget, counted in
///   [`ShardedReport::ring_full_retries`]) and pended timer interrupts
///   deliver at stall end. An [`Ev::Resume`] drains the ring in arrival
///   order through admission when the stall lifts.
/// * **RingSqueeze**: bounds the pending ring. Outside a stall the virtual
///   consumer is infinitely fast, so a squeeze alone cannot fill the ring —
///   its bite shows when combined with stalls (and on the threaded runtime,
///   where the ring is a real SPSC queue).
/// * **TimerJitter**: a seeded extra delay added when a timer is armed —
///   same draw for the same (seed, shard, epoch) in both runtimes.
/// * **SlowConsumer**: per-released-packet CPU penalty charged to the
///   softirq meter; the next re-arm is pushed past the time the slow drain
///   would have finished.
/// * **CompletionLoss** is a threaded-runtime fault (it corrupts the real
///   completion rings); the virtual clock has no completion transport to
///   corrupt, so it is a no-op here.
///
/// Packet conservation — `minted = transmitted + admission_dropped +
/// evicted + in-qdisc + in-ring` — is asserted every time virtual time
/// crosses a fault-window boundary, and once at end of run.
pub(crate) fn drive<Q: ShaperQdisc>(
    mut mk: impl FnMut(usize) -> Q,
    cfg: &ShardedConfig,
    mut trace: Option<&mut ShardTrace>,
) -> DriveOutcome<Q> {
    let n_shards = cfg.shards.max(1);
    let host = &cfg.host;
    let flow_cap = cfg.flow_cap.map(|c| c.max(1));
    let per_flow_bps = (host.aggregate.as_bps() / host.flows as u64).max(1);
    let pacing_gap = 1_500 * 8 * 1_000_000_000 / per_flow_bps; // ns per MTU
                                                               // Source-side base emission gap: the overload knob. Defaults to the
                                                               // pacing gap (offered == shaped).
    let emit_gap = cfg.offered_gap.unwrap_or(pacing_gap).max(1);
    let batch = host.batch.max(1);
    let admit = &cfg.chaos.admit;

    // Per-flow emission limits: explicit override > uniform cap > open.
    let limits: Vec<u64> = match &cfg.pkts_override {
        Some(v) => {
            assert_eq!(v.len(), host.flows, "pkts_override length");
            v.clone()
        }
        None => vec![cfg.pkts_per_flow.unwrap_or(u64::MAX); host.flows],
    };

    let mut shards: Vec<Shard<Q>> = (0..n_shards)
        .map(|i| Shard::new(mk(i), CpuMeter::new(host.bin, host.duration)))
        .collect();

    // Compiled per-shard fault schedules and the pending ingress rings the
    // stall model parks arrivals in. All empty for a no-op plan.
    let faults: Vec<ShardFaults> = (0..n_shards).map(|s| cfg.chaos.plan.compile(s)).collect();
    let mut pending: Vec<VecDeque<Packet>> = (0..n_shards).map(|_| VecDeque::new()).collect();
    let boundaries = cfg.chaos.plan.boundaries();
    let mut next_boundary = 0usize;
    let mut ring_full_retries = 0u64;
    let mut audits = 0u64;

    // Stable flow→shard map, fixed before any packet moves.
    let home: Vec<u32> = (0..host.flows as u32)
        .map(|f| shard_of(f, n_shards) as u32)
        .collect();
    for &h in &home {
        shards[h as usize].flows += 1;
    }

    // Per-flow state: TSQ budget, in-qdisc count (for the cap), arrival
    // counter (drop indices in the trace).
    let mut budget = vec![host.tsq_budget; host.flows];
    let mut inflight = vec![0u32; host.flows];
    let mut arrivals = vec![0u64; host.flows];
    let mut sent = vec![0u64; host.flows];

    // Closed-loop transports and the memory-budget accountant (no-ops
    // unless configured on `cfg`).
    let mut ov = Overload::new(cfg);

    assert!(host.duration <= MAX_AT, "virtual duration beyond 2^62 ns");
    let mut events = EvQueue::new();
    // First emissions: explicit start times (incast waves), or staggered
    // across one pacing gap as in `host::run` — the stagger depends only on
    // the flow id and the *total* flow count, so it is identical at every
    // shard count.
    if let Some(starts) = &cfg.starts {
        assert_eq!(starts.len(), host.flows, "starts length");
        for id in 0..host.flows as u32 {
            events.schedule(starts[id as usize], Ev::Source(id));
        }
    } else {
        for id in 0..host.flows as u32 {
            let at = pacing_gap * id as u64 / host.flows as u64;
            events.schedule(at, Ev::Source(id));
        }
    }

    let mut next_pkt_id = 0u64;
    let mut total_backlog = 0usize;
    let mut peak_total_backlog = 0usize;
    let mut released: Vec<Packet> = Vec::new();

    while let Some((now, ev)) = events.pop() {
        if now >= host.duration {
            break;
        }
        // Audit at every fault-boundary crossing: the books must balance
        // exactly when a fault engages or clears.
        while boundaries.get(next_boundary).is_some_and(|&b| b <= now) {
            audit(now, &shards, &pending, next_pkt_id, total_backlog);
            audits += 1;
            next_boundary += 1;
        }
        match ev {
            Ev::Source(id) => {
                let i = id as usize;
                if budget[i] == 0 || sent[i] >= limits[i] {
                    continue; // TSQ throttled (a completion reschedules us)
                              // or the finite workload is done.
                }
                if ov.params.is_some() && now < ov.next_allowed[i] {
                    // Closed-loop pacing: the transport's congestion window
                    // says not yet. (Stray wakeups from completion refunds
                    // land here and defer to the paced slot.)
                    events.schedule(ov.next_allowed[i], Ev::Source(id));
                    continue;
                }
                if !ov.established[i] {
                    // Flow setup under a memory budget: the refuse tier (or
                    // an exhausted budget) turns new flows away at the door
                    // — the strongest degradation, taken before any packet
                    // memory is committed. Refused flows retry much later,
                    // jittered, so recovering budgets aren't stampeded.
                    let m = ov
                        .mem
                        .expect("unestablished flows only exist under a budget");
                    if m.tier() == DegradeTier::Refuse || !m.try_charge(FLOW_SETUP_BYTES) {
                        ov.setup_refused += 1;
                        let delay = ov.retry_in(id, emit_gap.saturating_mul(8));
                        events.schedule(now + delay, Ev::Source(id));
                        continue;
                    }
                    ov.established[i] = true;
                }
                let s = home[i] as usize;
                if faults[s].stalled(now)
                    && pending[s].len() >= faults[s].ring_capacity(now, usize::MAX)
                {
                    // The stalled shard's ingress ring is full: the emission
                    // itself is deferred — no budget consumed, no packet
                    // minted yet. Bounded backoff around one pacing gap,
                    // jittered per (flow, attempt) so the synchronized
                    // retries don't thunder back in lockstep.
                    ring_full_retries += 1;
                    let delay = ov.retry_in(id, emit_gap);
                    events.schedule(now + delay, Ev::Source(id));
                    continue;
                }
                arrivals[i] += 1;
                if flow_cap.is_some_and(|cap| inflight[i] >= cap) {
                    // Qdisc-full backpressure: drop and retry a gap later.
                    shards[s].dropped += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.drops.push((now, id, arrivals[i] - 1));
                    }
                    events.schedule(now + pacing_gap.max(1), Ev::Source(id));
                    continue;
                }
                if let Some(m) = ov.mem {
                    // Per-packet slab accounting: an exhausted budget defers
                    // the emission (jittered) instead of allocating — the
                    // hard guarantee that backlog memory never exceeds the
                    // budget, whatever the qdisc caps say.
                    if !m.try_charge(PKT_SLAB_BYTES) {
                        ov.mem_deferrals += 1;
                        let delay = ov.retry_in(id, emit_gap);
                        events.schedule(now + delay, Ev::Source(id));
                        continue;
                    }
                }
                budget[i] -= 1;
                inflight[i] += 1;
                sent[i] += 1;
                let pkt = Packet::mtu(next_pkt_id, id, now);
                next_pkt_id += 1;
                // Open loop: bulk sender, next packet goes straight away
                // (the qdisc paces). Closed loop: the transport paces its
                // own emissions, stretching the base gap by the inverse of
                // its congestion scale.
                let next_at = if ov.params.is_some() {
                    let at = now + ov.cl[i].gap(emit_gap).max(1);
                    ov.next_allowed[i] = at;
                    at
                } else {
                    now
                };
                if faults[s].stalled(now) {
                    // Core paused: park in the ingress ring; the first
                    // parked packet schedules the resume drain.
                    pending[s].push_back(pkt);
                    if pending[s].len() == 1 {
                        let until = faults[s].stall_until(now).expect("stalled => end");
                        events.schedule(until, Ev::Resume { shard: s as u32 });
                    }
                    if budget[i] > 0 && sent[i] < limits[i] {
                        events.schedule(next_at, Ev::Source(id));
                    }
                    continue;
                }
                admit_one(
                    now,
                    pkt,
                    &mut shards[s],
                    per_flow_bps,
                    admit,
                    &mut budget,
                    &mut inflight,
                    &sent,
                    &limits,
                    &mut total_backlog,
                    &mut events,
                    &mut ov,
                );
                peak_total_backlog = peak_total_backlog.max(total_backlog);
                if budget[i] > 0 && sent[i] < limits[i] {
                    events.schedule(next_at, Ev::Source(id));
                }
                // Arm (or tighten) this shard's timer.
                let sh = &mut shards[s];
                if let Some(want) = sh.tighten_timer(now) {
                    let at = want + faults[s].timer_extra_delay(want, sh.timer_epoch);
                    events.schedule(
                        at,
                        Ev::Timer {
                            shard: s as u32,
                            epoch: sh.timer_epoch,
                        },
                    );
                }
            }
            Ev::Resume { shard } => {
                let s = shard as usize;
                if faults[s].stalled(now) {
                    // An overlapping window extended the stall: stay parked.
                    let until = faults[s].stall_until(now).expect("stalled => end");
                    events.schedule(until, Ev::Resume { shard });
                    continue;
                }
                // Drain the ingress ring in arrival order through admission.
                while let Some(pkt) = pending[s].pop_front() {
                    admit_one(
                        now,
                        pkt,
                        &mut shards[s],
                        per_flow_bps,
                        admit,
                        &mut budget,
                        &mut inflight,
                        &sent,
                        &limits,
                        &mut total_backlog,
                        &mut events,
                        &mut ov,
                    );
                }
                peak_total_backlog = peak_total_backlog.max(total_backlog);
                let sh = &mut shards[s];
                if let Some(want) = sh.tighten_timer(now) {
                    let at = want + faults[s].timer_extra_delay(want, sh.timer_epoch);
                    events.schedule(
                        at,
                        Ev::Timer {
                            shard,
                            epoch: sh.timer_epoch,
                        },
                    );
                }
            }
            Ev::Timer { shard, epoch } => {
                let s = shard as usize;
                if faults[s].stalled(now) {
                    // The core is paused: the hrtimer interrupt pends in
                    // hardware and delivers when the core resumes.
                    if shards[s].timer_epoch_is(epoch) {
                        let until = faults[s].stall_until(now).expect("stalled => end");
                        events.schedule(until, Ev::Timer { shard, epoch });
                    }
                    continue;
                }
                let released_count;
                {
                    let sh = &mut shards[s];
                    if !sh.timer_epoch_is(epoch) {
                        continue; // superseded timer, never fired in hardware
                    }
                    sh.softirq(now, batch, &mut released);
                    released_count = released.len() as u64;
                }
                let penalty = faults[s].consumer_penalty_ns(now);
                if penalty > 0 && released_count > 0 {
                    // Slow consumer: extra per-packet CPU in softirq context.
                    shards[s].meter.charge(
                        now,
                        CpuCategory::SoftIrq,
                        eiffel_sim::WallNanos::from_nanos(penalty.saturating_mul(released_count)),
                    );
                }
                for p in released.drain(..) {
                    total_backlog -= 1;
                    let i = p.flow as usize;
                    inflight[i] -= 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.releases.push((now, p.flow, p.bytes));
                    }
                    if budget[i] == 0 && sent[i] < limits[i] {
                        // TSQ callback: the flow was throttled — resume it.
                        events.schedule(now, Ev::Source(p.flow));
                    }
                    budget[i] += 1;
                    // Completion path: the slab frees, and the transport
                    // sees the echoed ECN bit — the feedback edge of the
                    // closed loop.
                    ov.on_delivery(p.flow, p.ecn);
                    ov.maybe_free_flow(i, sent[i], limits[i], inflight[i]);
                }
                // Re-arm; a slow consumer cannot fire again before its
                // delayed drain would have finished.
                let sh = &mut shards[s];
                if let Some(want) = sh.rearm(now) {
                    let want = want.max(now + penalty.saturating_mul(released_count));
                    let at = want + faults[s].timer_extra_delay(want, sh.timer_epoch);
                    events.schedule(
                        at,
                        Ev::Timer {
                            shard,
                            epoch: sh.timer_epoch,
                        },
                    );
                }
            }
        }
    }

    // End-of-run audit: the books balance after the event loop ends too.
    audit(host.duration, &shards, &pending, next_pkt_id, total_backlog);
    audits += 1;

    let in_ring: u64 = pending.iter().map(|p| p.len() as u64).sum();
    ov.close_books(total_backlog as u64 + in_ring);
    DriveOutcome {
        shards,
        peak_total_backlog,
        ring_full_retries,
        audits,
        emitted: next_pkt_id,
        residue: total_backlog as u64 + in_ring,
        setup_refused: ov.setup_refused,
        mem_deferrals: ov.mem_deferrals,
        mem_peak: cfg.mem.as_ref().map_or(0, |m| m.peak()),
        cl: ov.summary(),
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;
    use crate::eiffel::EiffelQdisc;
    use eiffel_sim::{Rate, SECOND};

    #[derive(Debug, Clone)]
    enum Op {
        Pop,
        /// Schedule an event of `kind` `delta` ns after the current instant.
        Schedule {
            kind: u64,
            delta: Nanos,
        },
    }

    /// Ties at the current instant, deltas inside and across the wheel's
    /// horizon, and far-future events (the stall-length `Resume` case).
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let delta = prop_oneof![
            4 => Just(0u64),
            3 => 1u64..2_000,
            2 => 2_000u64..20_000,
            1 => 1_000_000u64..100_000_000,
        ];
        prop::collection::vec(
            prop_oneof![
                3 => Just(Op::Pop),
                5 => (0u64..3, delta).prop_map(|(kind, delta)| Op::Schedule { kind, delta }),
            ],
            1..400,
        )
    }

    /// An event of `kind` that carries its insertion number `seq`.
    fn event(kind: u64, seq: u64) -> Ev {
        match kind {
            0 => Ev::Resume { shard: seq as u32 },
            1 => Ev::Timer {
                shard: 0,
                epoch: seq,
            },
            _ => Ev::Source(seq as FlowId),
        }
    }

    fn seq_of(ev: Ev) -> u64 {
        match ev {
            Ev::Resume { shard } => u64::from(shard),
            Ev::Timer { epoch, .. } => epoch,
            Ev::Source(flow) => u64::from(flow),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The driver queue pops in exactly the `(time, kind, insertion)`
        /// order of a reference heap, under the driver's scheduling rule:
        /// nothing before the current instant, and at the current instant
        /// nothing of a lower kind — except a timer armed while a source
        /// is handled.
        #[test]
        fn ev_queue_pops_in_reference_heap_order(script in ops()) {
            let mut q = EvQueue::new();
            let mut heap: BinaryHeap<Reverse<(Nanos, u64, u64)>> = BinaryHeap::new();
            let (mut now, mut now_kind, mut seq) = (0u64, 0u64, 0u64);
            let pop_both = |q: &mut EvQueue, heap: &mut BinaryHeap<_>| {
                let got = q.pop().map(|(at, ev)| (at, ev.kind(), seq_of(ev)));
                let want = heap.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want);
                got
            };
            for op in &script {
                match *op {
                    Op::Pop => {
                        if let Some((at, kind, _)) = pop_both(&mut q, &mut heap) {
                            (now, now_kind) = (at, kind);
                        }
                    }
                    Op::Schedule { kind, mut delta } => {
                        let timer_under_source = kind == 1 && now_kind == 2;
                        if delta == 0 && kind < now_kind && !timer_under_source {
                            delta = 1;
                        }
                        q.schedule(now + delta, event(kind, seq));
                        heap.push(Reverse((now + delta, kind, seq)));
                        seq += 1;
                    }
                }
            }
            while pop_both(&mut q, &mut heap).is_some() {}
        }
    }

    #[test]
    #[should_panic(expected = "sorts before the current one")]
    fn ev_queue_refuses_a_resume_at_the_current_source() {
        let mut q = EvQueue::new();
        q.schedule(5, Ev::Timer { shard: 0, epoch: 0 });
        q.schedule(5, Ev::Source(0));
        q.pop();
        q.pop();
        q.schedule(5, Ev::Resume { shard: 0 });
    }

    fn small_host(batch: usize) -> HostConfig {
        HostConfig {
            flows: 200,
            aggregate: Rate::mbps(240),
            duration: SECOND / 2,
            bin: SECOND / 10,
            tsq_budget: 2,
            batch,
        }
    }

    #[test]
    fn sharded_host_achieves_the_aggregate_rate() {
        for shards in [1usize, 2, 4] {
            let cfg = ShardedConfig::new(shards, small_host(1));
            let r = run_sharded(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
            let want = cfg.host.aggregate.as_bps() as f64;
            let rel = (r.achieved_bps - want).abs() / want;
            assert!(
                rel < 0.05,
                "{shards} shards: {:.1} vs {:.1} Mbps",
                r.achieved_bps / 1e6,
                want / 1e6
            );
            assert_eq!(r.dropped, 0);
            assert_eq!(r.per_shard.len(), shards);
            let flows: usize = r.per_shard.iter().map(|s| s.flows).sum();
            assert_eq!(flows, cfg.host.flows, "every flow has a home shard");
        }
    }

    #[test]
    fn single_shard_matches_the_plain_host_model() {
        // `host::run` IS the 1-shard case of `drive` — the counters must
        // agree exactly (only real-time CPU metering may differ).
        let host = small_host(1);
        let plain = crate::host::run(EiffelQdisc::new(20_000, 100_000), &host);
        let sharded = run_sharded(
            |_| EiffelQdisc::new(20_000, 100_000),
            &ShardedConfig::new(1, host),
        );
        assert_eq!(plain.transmitted, sharded.transmitted);
        assert_eq!(plain.timer_fires, sharded.timer_fires);
        assert_eq!(plain.achieved_bps, sharded.achieved_bps);
    }

    #[test]
    fn flow_cap_produces_drops_and_backpressure_recovers() {
        let mut cfg = ShardedConfig::new(2, small_host(1));
        cfg.host.tsq_budget = 4; // budget above the cap ⇒ cap binds
        cfg.flow_cap = Some(1);
        let (r, trace) = run_sharded_traced(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        assert!(r.dropped > 0, "cap 1 under budget 4 must drop");
        assert_eq!(r.dropped as usize, trace.drops.len());
        // Dropped flows keep making progress (backpressure retries).
        let want = cfg.host.aggregate.as_bps() as f64;
        assert!(
            r.achieved_bps > 0.5 * want,
            "throughput collapsed: {:.1} Mbps",
            r.achieved_bps / 1e6
        );
    }

    #[test]
    fn finite_workload_sends_exactly_pkts_per_flow_and_drains() {
        let mut cfg = ShardedConfig::new(3, small_host(1));
        cfg.pkts_per_flow = Some(7);
        let (r, trace) = run_sharded_traced(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        assert_eq!(r.transmitted, 7 * cfg.host.flows as u64, "all drained");
        assert_eq!(r.dropped, 0);
        for flow in 0..cfg.host.flows as u32 {
            let rel = trace.flow_releases(flow);
            assert_eq!(rel.len(), 7, "flow {flow}");
            assert!(rel.windows(2).all(|w| w[0].0 <= w[1].0), "monotone");
        }
    }

    #[test]
    fn batched_drain_changes_no_aggregate_counters() {
        let base = run_sharded(
            |_| EiffelQdisc::new(20_000, 100_000),
            &ShardedConfig::new(2, small_host(1)),
        );
        let batched = run_sharded(
            |_| EiffelQdisc::new(20_000, 100_000),
            &ShardedConfig::new(2, small_host(16)),
        );
        assert_eq!(base.transmitted, batched.transmitted);
        assert_eq!(base.timer_fires, batched.timer_fires);
        assert_eq!(base.dropped, batched.dropped);
    }

    /// The backoff jitter is a pure function of `(flow, attempt)` — the
    /// property that keeps the virtual runtime deterministic and shard-
    /// count-invariant — and spreads synchronized retries apart.
    #[test]
    fn backoff_jitter_is_deterministic_and_spreads() {
        let span = 10_000;
        for flow in 0..32u32 {
            for attempt in 0..8u32 {
                let a = backoff_jitter(flow, attempt, span);
                assert_eq!(a, backoff_jitter(flow, attempt, span));
                assert!(a < span);
            }
        }
        assert_eq!(backoff_jitter(7, 1, 0), 0, "zero span is a no-op");
        // Synchronized producers draw distinct delays: over 64 flows at
        // the same attempt, the draws must not collapse to a few values.
        let distinct: std::collections::BTreeSet<u64> =
            (0..64u32).map(|f| backoff_jitter(f, 1, span)).collect();
        assert!(
            distinct.len() > 48,
            "only {} distinct draws",
            distinct.len()
        );
    }

    /// Overloaded host (aggregate far above what per-flow pacing drains):
    /// closed-loop sources must see ECN marks and back off, and the books
    /// must balance with the new emitted/residue fields.
    #[test]
    fn closed_loop_sources_back_off_under_ecn() {
        use eiffel_workloads::SCALE_ONE;
        let mut host = small_host(4);
        host.tsq_budget = 8;
        let mut cfg = ShardedConfig::new(2, host);
        cfg.chaos.admit = AdmitPolicy::EcnMark {
            cap: 64,
            mark_at: 8,
        };
        cfg.closed_loop = Some(ClosedLoopParams {
            initial_scale: SCALE_ONE,
            ..ClosedLoopParams::default()
        });
        // 8× overload: sources at full scale offer one packet per 1/8 of
        // the shaped pacing gap.
        let per_flow_bps = cfg.host.aggregate.as_bps() / cfg.host.flows as u64;
        let pacing_gap = 1_500 * 8 * 1_000_000_000 / per_flow_bps;
        cfg.offered_gap = Some(pacing_gap / 8);
        let r = run_sharded(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        let cl = r.cl.expect("closed loop configured");
        assert!(r.ecn_marked > 0, "overload must mark");
        assert!(
            cl.mean_scale < 1.0,
            "marked sources must back off: mean_scale {}",
            cl.mean_scale
        );
        assert!(cl.marked > 0);
        assert_eq!(
            r.emitted,
            r.transmitted + r.admission_dropped + r.evicted + r.residue,
            "closed-loop conservation"
        );
        // The sojourn histogram saw every transmitted packet.
        let recorded: u64 = r.per_shard.iter().map(|s| s.sojourn.total()).sum();
        assert_eq!(recorded, r.transmitted);
    }

    /// A tiny memory budget must walk the degradation tiers — harder
    /// marking, worst-first shedding, setup refusal — and the peak charge
    /// can never exceed the budget (`try_charge` refuses first).
    #[test]
    fn mem_budget_degrades_gracefully_and_never_overruns() {
        use eiffel_core::DegradeTier;
        let mut host = small_host(4);
        host.tsq_budget = 8;
        let mut cfg = ShardedConfig::new(2, host);
        cfg.pkts_per_flow = Some(12);
        cfg.chaos.admit = AdmitPolicy::EcnMark {
            cap: 256,
            mark_at: 64,
        };
        cfg.closed_loop = Some(ClosedLoopParams::default());
        // ~200 flows × 512B setup ≈ 100 KiB alone; a 96 KiB budget forces
        // refusals and keeps the packet slabs under pressure.
        let budget = Arc::new(MemBudget::new(96 * 1024));
        cfg.mem = Some(Arc::clone(&budget));
        let r = run_sharded(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        assert!(r.mem_peak <= budget.budget(), "hard ceiling");
        assert!(r.mem_peak > 0, "charges were taken");
        assert!(
            r.setup_refused > 0,
            "a 96 KiB budget cannot establish 200 flows at once"
        );
        assert_eq!(
            r.emitted,
            r.transmitted + r.admission_dropped + r.evicted + r.residue,
            "conservation under memory pressure"
        );
        // Higher tiers were actually consulted at admission time.
        let mut tiers = TierCounters::default();
        for s in &r.per_shard {
            tiers.merge(&s.tiers);
        }
        assert!(
            tiers.total_at(DegradeTier::Pressure)
                + tiers.total_at(DegradeTier::Shed)
                + tiers.total_at(DegradeTier::Refuse)
                > 0,
            "admission never saw a degraded tier: {tiers:?}"
        );
        assert_eq!(budget.in_use(), 0, "the ledger's books close at zero");
    }
}
