//! `switch_pfabric`: §5.1.3 pFabric on one busy-polling core.
//!
//! `PfabricEiffel` holds one packet per flow on average: 100k flows,
//! occupancy held at 100k, drained 32 packets per poll (the BESS batch).
//! Every served packet lets one new packet in, from the next flow of a
//! seeded permutation; each flow's remaining size cycles 64 → 1 from a
//! seeded phase (the Figure 15 stamp). Virtual time advances by each
//! packet's wire time on a 10 Gb/s line.

use std::collections::VecDeque;
use std::time::Instant;

use eiffel_bess::PfabricEiffel;
use eiffel_sim::{Nanos, Packet};

use crate::rng::{stream, Rng};
use crate::trace::{ratio, Span};
use crate::{digest, median, rss_peak_mb, setup_samples, Outcome, Params, Reps, DIGEST_START};

/// Packets per poll (BESS's batch size).
pub const BATCH: usize = 32;
/// Remaining sizes cycle `MAX_REMAINING, …, 1`.
pub const MAX_REMAINING: u64 = 64;
/// Wire time of one 1500 B packet at 10 Gb/s.
pub const WIRE_NS: Nanos = 1_200;

/// Input sizes: flows (= occupancy), warm-up and timed packets per rep.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Flows, and packets held in the scheduler.
    pub flows: usize,
    /// Packets served before the timed part of a rep.
    pub warmup: u64,
    /// Packets served in the timed part of a rep.
    pub timed: u64,
}

impl Scale {
    /// The workload's scale for these parameters.
    pub fn of(p: &Params) -> Self {
        if p.tiny {
            Scale {
                flows: 2_000,
                warmup: 2_000,
                timed: 20_000,
            }
        } else {
            Scale {
                flows: 100_000,
                warmup: 100_000,
                timed: 2_000_000,
            }
        }
    }
}

/// The seeded packet source: flows in a fixed random order, each with its
/// own remaining-size countdown.
pub struct Gen {
    order: Vec<u32>,
    pos: usize,
    remaining: Vec<u64>,
    next_id: u64,
}

impl Gen {
    /// The source for `flows` flows under `seed`.
    pub fn new(seed: u64, flows: usize) -> Self {
        let order = Rng::new(seed, stream::PERMUTATION).permutation(flows);
        let mut phase = Rng::new(seed, stream::PHASE);
        let remaining = (0..flows).map(|_| 1 + phase.below(MAX_REMAINING)).collect();
        Gen {
            order,
            pos: 0,
            remaining,
            next_id: 0,
        }
    }

    /// The next packet, ranked by its flow's remaining size.
    #[inline]
    pub fn next(&mut self, now: Nanos) -> Packet {
        let flow = self.order[self.pos];
        self.pos += 1;
        if self.pos == self.order.len() {
            self.pos = 0;
        }
        let r = &mut self.remaining[flow as usize];
        let mut pkt = Packet::mtu(self.next_id, flow, now);
        pkt.rank = *r;
        *r = if *r == 1 { MAX_REMAINING } else { *r - 1 };
        self.next_id += 1;
        pkt
    }
}

/// An independent model of Figure 14: per-flow FIFOs, the flow rank is
/// the head's remaining size after a dequeue and the minimum seen so far
/// after an enqueue, and the served flow must hold the least rank among
/// backlogged flows.
pub struct Model {
    fifo: Vec<VecDeque<(u64, u64)>>,
    rank: Vec<u64>,
    /// Backlogged flows per rank value.
    at_rank: Vec<u64>,
}

impl Model {
    /// An empty model for `flows` flows.
    pub fn new(flows: usize) -> Self {
        Model {
            fifo: vec![VecDeque::new(); flows],
            rank: vec![0; flows],
            at_rank: vec![0; MAX_REMAINING as usize + 1],
        }
    }

    fn set_rank(&mut self, f: usize, r: u64) {
        self.at_rank[self.rank[f] as usize] -= 1;
        self.rank[f] = r;
        self.at_rank[r as usize] += 1;
    }

    /// Mirrors an enqueue.
    pub fn enqueue(&mut self, p: &Packet) {
        let f = p.flow as usize;
        if self.fifo[f].is_empty() {
            self.rank[f] = p.rank;
            self.at_rank[p.rank as usize] += 1;
        } else if p.rank < self.rank[f] {
            self.set_rank(f, p.rank);
        }
        self.fifo[f].push_back((p.id, p.rank));
    }

    /// Mirrors a dequeue; false if `p` broke the policy (not its flow's
    /// head, or its flow did not hold the least rank).
    pub fn serve(&mut self, p: &Packet) -> bool {
        let f = p.flow as usize;
        let least = self.at_rank.iter().position(|&c| c > 0);
        let ok =
            self.fifo[f].front().map(|h| h.0) == Some(p.id) && least == Some(self.rank[f] as usize);
        match self.fifo[f].iter().position(|h| h.0 == p.id) {
            Some(i) => {
                self.fifo[f].remove(i);
            }
            None => return false,
        }
        match self.fifo[f].front() {
            Some(&(_, r)) => self.set_rank(f, r),
            None => self.at_rank[self.rank[f] as usize] -= 1,
        }
        ok
    }
}

/// Spans of one traced rep.
#[derive(Default)]
pub struct Spans {
    /// `PfabricEiffel::enqueue`, timed per poll's refill.
    pub enqueue: Span,
    /// `PfabricEiffel::dequeue_batch`, timed per call.
    pub dequeue: Span,
    /// The benchmark's generator, timed per poll's refill.
    pub gen: Span,
}

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds of the rep's set-up (build and prefill).
    pub setup: f64,
    /// Digest of the served order, warm-up included.
    pub digest: u64,
    /// Wall seconds of the timed part.
    pub wall: f64,
    /// Packets served in the timed part.
    pub served: u64,
    /// Polls in the timed part.
    pub polls: u64,
    /// Served packets the model rejected.
    pub violations: u64,
    /// Packets offered (prefill and refills).
    pub attempted: u64,
    /// Packets neither served nor still queued at the end, or all unserved
    /// packets if the switch stopped serving with backlog.
    pub lost: u64,
}

/// Build, seed and prefill: one packet per flow in permutation order.
pub fn setup(p: &Params, model: Option<&mut Model>) -> (PfabricEiffel, Gen) {
    let sc = Scale::of(p);
    let mut sched = PfabricEiffel::new();
    let mut gen = Gen::new(p.seed, sc.flows);
    let mut model = model;
    for _ in 0..sc.flows {
        let pkt = gen.next(0);
        if let Some(m) = model.as_deref_mut() {
            m.enqueue(&pkt);
        }
        sched.enqueue(0, pkt);
    }
    (sched, gen)
}

/// The closed loop's state between polls.
struct Loop {
    sched: PfabricEiffel,
    gen: Gen,
    now: Nanos,
    out: Vec<Packet>,
    inbuf: Vec<Packet>,
    digest: u64,
    violations: u64,
    attempted: u64,
    served: u64,
    starved: bool,
}

impl Loop {
    /// Serves at least `n` packets, refilling one packet per packet
    /// served. Returns the polls made. `TRACE` times the calls into
    /// `spans`; `model` checks every served packet.
    fn serve<const TRACE: bool>(
        &mut self,
        n: u64,
        spans: &mut Spans,
        mut model: Option<&mut Model>,
    ) -> u64 {
        let stop = self.served + n;
        let mut polls = 0;
        while self.served < stop {
            self.out.clear();
            let got = if TRACE {
                let t = Instant::now();
                let got = self.sched.dequeue_batch(self.now, BATCH, &mut self.out);
                spans
                    .dequeue
                    .record(t.elapsed().as_nanos() as u64, got as u64);
                got
            } else {
                self.sched.dequeue_batch(self.now, BATCH, &mut self.out)
            };
            polls += 1;
            if got == 0 {
                self.starved = true; // backlog the switch will not serve
                break;
            }
            for pkt in &self.out {
                self.digest = digest(self.digest, pkt);
                if let Some(m) = model.as_deref_mut() {
                    self.violations += u64::from(!m.serve(pkt));
                }
            }
            self.served += got as u64;
            self.attempted += got as u64;
            let t = TRACE.then(Instant::now);
            for _ in 0..got {
                self.now += WIRE_NS;
                self.inbuf.push(self.gen.next(self.now));
            }
            let t = t.map(|t| {
                let n = Instant::now();
                spans.gen.record((n - t).as_nanos() as u64, got as u64);
                n
            });
            for pkt in self.inbuf.drain(..) {
                if let Some(m) = model.as_deref_mut() {
                    m.enqueue(&pkt);
                }
                self.sched.enqueue(self.now, pkt);
            }
            if let Some(t) = t {
                spans
                    .enqueue
                    .record(t.elapsed().as_nanos() as u64, got as u64);
            }
        }
        polls
    }
}

/// One rep: a fresh prefilled scheduler, an untraced warm-up, then the
/// timed part. `TRACE` times the timed part's calls into `spans`; `model`
/// checks every served packet against the independent model.
pub fn rep<const TRACE: bool>(p: &Params, spans: &mut Spans, model: Option<&mut Model>) -> Rep {
    let sc = Scale::of(p);
    let mut model = model;
    let t = Instant::now();
    let (sched, gen) = setup(p, model.as_deref_mut());
    let setup_secs = t.elapsed().as_secs_f64();
    let mut l = Loop {
        sched,
        gen,
        now: 0,
        out: Vec::with_capacity(BATCH),
        inbuf: Vec::with_capacity(BATCH),
        digest: DIGEST_START,
        violations: 0,
        attempted: sc.flows as u64,
        served: 0,
        starved: false,
    };
    l.serve::<false>(sc.warmup, &mut Spans::default(), model.as_deref_mut());
    let before = l.served;
    let t = Instant::now();
    let polls = l.serve::<TRACE>(sc.timed, spans, model);
    let wall = t.elapsed().as_secs_f64();
    Rep {
        setup: setup_secs,
        digest: l.digest,
        wall,
        served: l.served - before,
        polls,
        violations: l.violations,
        attempted: l.attempted,
        lost: if l.starved {
            l.attempted - l.served
        } else {
            l.attempted - l.served - l.sched.len() as u64
        },
    }
}

fn check(out: &mut Outcome, r: &Rep) {
    out.attempted += r.attempted;
    out.fail(r.lost, format!("{} packets lost or stranded", r.lost));
    out.fail(
        r.violations,
        format!("{} packets served against Figure 14", r.violations),
    );
}

/// `switch_pfabric`: timed reps (traced and untraced in turn for a traced
/// run), then a model-checked rep whose served order every timed rep must
/// have matched exactly. The model runs last so that its memory is not
/// counted as the workload's.
pub fn run(p: &Params) -> Outcome {
    let sc = Scale::of(p);
    let mut out = Outcome::default();
    let mut setups = setup_samples(|| setup(p, None));
    let mut digests = Vec::new();
    let mut spans = Spans::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut cores, mut acc) = (Vec::new(), Vec::new());
    let mut wall = 0.0;
    let mut reps = Reps::new(p, 3);
    while reps.more() {
        let r = rep::<false>(p, &mut spans, None);
        check(&mut out, &r);
        digests.push(r.digest);
        setups.push(r.setup);
        plain.push(r.served as f64 / r.wall / 1e6);
        cores.push(r.wall * 1e9 / (r.served * WIRE_NS) as f64);
        acc.push(ratio(r.served as f64, (r.polls * BATCH as u64) as f64));
        if p.trace {
            let r = rep::<true>(p, &mut spans, None);
            check(&mut out, &r);
            digests.push(r.digest);
            traced.push(r.served as f64 / r.wall / 1e6);
            wall += r.wall;
        }
    }
    let rss = rss_peak_mb();
    let mut model = Model::new(sc.flows);
    let verified = rep::<false>(p, &mut Spans::default(), Some(&mut model));
    check(&mut out, &verified);
    if digests.iter().any(|&d| d != verified.digest) {
        out.problem("served order differs from the model-checked rep");
    }
    if !p.trace {
        out.set("rss_peak_mb", rss);
        out.set("setup_s", median(&setups));
        out.set("mpps", median(&plain));
        out.set("busy_cores", median(&cores));
        out.set("rate_accuracy", median(&acc));
        return out;
    }
    let covered = spans.enqueue.ns() + spans.dequeue.ns() + spans.gen.ns();
    out.set("pfabric.enqueue.ns_per_pkt", spans.enqueue.ns_per_item());
    out.set(
        "pfabric.dequeue_batch.ns_per_pkt",
        spans.dequeue.ns_per_item(),
    );
    out.set("pfabric.dequeue_batch.ns_p99", spans.dequeue.p99_ns());
    out.set(
        "pfabric.dequeue_batch.pkts_per_call",
        spans.dequeue.items_per_call(),
    );
    out.set("gen.ns_per_pkt", spans.gen.ns_per_item());
    out.set("ledger.unattributed_frac", 1.0 - ratio(covered, wall * 1e9));
    out.set(
        "trace.overhead_frac",
        1.0 - median(&traced) / median(&plain),
    );
    out
}
