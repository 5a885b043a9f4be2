//! `tree_hclock`: Figure 12's flat hClock as a DSL program on the PIFO
//! tree, on a virtual 10 Gb/s line.
//!
//! `node root kind=flow:hclock res=<L> lim=<L> share=1`, with `L` = 5 Gb/s
//! ÷ flows, is compiled by `eiffel_pifo::compile`. Every flow holds two packets;
//! each served packet lets its flow's next packet in. A poll that moves
//! nothing hops virtual time to `soonest_deadline`; each served packet
//! advances it by its wire time. The limits bind, so the aggregate is the
//! 5 Gb/s sum of the limits.
//!
//! The reservation equals the limit, so a flow's reservation clock never
//! runs ahead of its limit clock. With a reservation below the limit,
//! `HClockFlow` serves flows over their limit (see
//! `tests/known_defects.rs`), so such a program cannot pass the check.

use std::time::Instant;

use eiffel_pifo::{compile, NodeId, PifoTree};
use eiffel_sim::{Nanos, Packet, Rate};

use crate::pfabric::{BATCH, WIRE_NS};
use crate::rng::{stream, Rng};
use crate::trace::{ratio, Span};
use crate::{digest, median, setup_samples, Outcome, Params, Reps, DIGEST_START};

/// The aggregate of the per-flow limits.
pub const AGGREGATE: Rate = Rate::gbps(5);
/// Packets each flow holds.
pub const DEPTH: usize = 2;

/// Input sizes: flows, warm-up and timed packets per rep.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// hClock flows.
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
                flows: 500,
                warmup: 2_000,
                timed: 20_000,
            }
        } else {
            Scale {
                flows: 10_000,
                warmup: 40_000,
                timed: 1_000_000,
            }
        }
    }

    /// Each flow's limit.
    pub fn limit(&self) -> Rate {
        Rate::bps(AGGREGATE.as_bps() / self.flows as u64)
    }

    /// The policy program: every flow reserved and limited to
    /// [`Scale::limit`].
    pub fn program(&self) -> String {
        let l = self.limit().as_bps();
        format!("node root kind=flow:hclock res={l}bps lim={l}bps share=1")
    }
}

/// Tolerance of the over-limit check: hClock keeps its limit gates in
/// buckets of at least 1 µs, so a gate may open up to one bucket early.
pub const LIMIT_SLACK: Nanos = 1_000;

/// An independent per-flow limit clock: a packet may leave no earlier
/// than its flow's previous departure (or the clock, if later) plus one
/// packet's time at the limit.
pub struct LimitCheck {
    clock: Vec<Nanos>,
    cost: Nanos,
}

impl LimitCheck {
    /// A check of `flows` flows limited to `limit`.
    pub fn new(flows: usize, limit: Rate) -> Self {
        LimitCheck {
            clock: vec![0; flows],
            cost: limit.tx_time(1_500).expect("limit is positive"),
        }
    }

    /// Records `p` served at `now`; false if it left over its limit.
    #[inline]
    pub fn serve(&mut self, now: Nanos, p: &Packet) -> bool {
        let c = &mut self.clock[p.flow as usize];
        let ok = now + LIMIT_SLACK >= *c;
        *c = (*c).max(now) + self.cost;
        ok
    }
}

/// Spans of one traced rep.
#[derive(Default)]
pub struct Spans {
    /// `PifoTree::enqueue`, timed per poll's refill.
    pub enqueue: Span,
    /// `PifoTree::dequeue_batch`, timed per call.
    pub dequeue: Span,
    /// `PifoTree::soonest_deadline`, timed per call.
    pub deadline: Span,
    /// The benchmark's generator, timed per poll's refill.
    pub gen: Span,
}

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds of the rep's set-up (compile and prefill).
    pub setup: f64,
    /// Digest of the served order, warm-up included.
    pub digest: u64,
    /// Wall seconds of the timed part.
    pub wall: f64,
    /// Virtual nanoseconds of the timed part.
    pub virt: Nanos,
    /// Packets served in the timed part.
    pub served: u64,
    /// Bytes served in the timed part.
    pub bytes: u64,
    /// Packets served over their flow's limit.
    pub over_limit: u64,
    /// Packets offered (prefill and refills).
    pub attempted: u64,
    /// Packets neither served nor still queued at the end, or all unserved
    /// packets if the tree stalled with backlog and no wakeup.
    pub lost: u64,
}

/// Compile and prefill: `DEPTH` packets per flow, flows in a seeded order.
pub fn setup(p: &Params) -> (PifoTree, NodeId, u64) {
    let sc = Scale::of(p);
    let mut tree = compile(&sc.program()).expect("the hClock program compiles");
    let root = tree.node_by_name("root").expect("the program names root");
    let order = Rng::new(p.seed, stream::PERMUTATION).permutation(sc.flows);
    let mut id = 0;
    for _ in 0..DEPTH {
        for &f in &order {
            tree.enqueue(0, root, Packet::mtu(id, f, 0))
                .expect("root is a flow leaf");
            id += 1;
        }
    }
    (tree, root, id)
}

/// The closed loop's state between polls.
struct Loop {
    tree: PifoTree,
    root: NodeId,
    now: Nanos,
    next_id: u64,
    out: Vec<Packet>,
    inbuf: Vec<Packet>,
    digest: u64,
    limits: LimitCheck,
    over_limit: u64,
    served: u64,
    bytes: u64,
    stalled: bool,
}

impl Loop {
    /// Serves at least `n` packets, each letting its flow's next packet
    /// in. `TRACE` times the calls into `spans`.
    fn serve<const TRACE: bool>(&mut self, n: u64, spans: &mut Spans) {
        let stop = self.served + n;
        while self.served < stop {
            self.out.clear();
            let now = self.now;
            let got = if TRACE {
                let t = Instant::now();
                let got = self.tree.dequeue_batch(now, BATCH, &mut self.out);
                spans
                    .dequeue
                    .record(t.elapsed().as_nanos() as u64, got as u64);
                got
            } else {
                self.tree.dequeue_batch(now, BATCH, &mut self.out)
            };
            if got == 0 {
                let next = if TRACE {
                    let t = Instant::now();
                    let d = self.tree.soonest_deadline(now);
                    spans.deadline.record(t.elapsed().as_nanos() as u64, 1);
                    d
                } else {
                    self.tree.soonest_deadline(now)
                };
                match next {
                    Some(d) => self.now = d.max(now + 1),
                    None => {
                        self.stalled = true; // backlog with no wakeup
                        return;
                    }
                }
                continue;
            }
            for pkt in &self.out {
                self.digest = digest(self.digest, pkt);
                self.over_limit += u64::from(!self.limits.serve(now, pkt));
                self.bytes += u64::from(pkt.bytes);
            }
            let t = TRACE.then(Instant::now);
            for pkt in &self.out {
                self.inbuf.push(Packet::mtu(self.next_id, pkt.flow, now));
                self.next_id += 1;
            }
            let t = t.map(|t| {
                let n = Instant::now();
                spans.gen.record((n - t).as_nanos() as u64, got as u64);
                n
            });
            for pkt in self.inbuf.drain(..) {
                self.tree
                    .enqueue(now, self.root, pkt)
                    .expect("root is a flow leaf");
            }
            if let Some(t) = t {
                spans
                    .enqueue
                    .record(t.elapsed().as_nanos() as u64, got as u64);
            }
            self.served += got as u64;
            self.now = now + got as Nanos * WIRE_NS;
        }
    }
}

/// One rep: a fresh prefilled tree, an untraced warm-up, then the timed
/// part. `TRACE` times the timed part's calls into `spans`.
pub fn rep<const TRACE: bool>(p: &Params, spans: &mut Spans) -> Rep {
    let sc = Scale::of(p);
    let t = Instant::now();
    let (tree, root, next_id) = setup(p);
    let setup_secs = t.elapsed().as_secs_f64();
    let mut l = Loop {
        tree,
        root,
        now: 0,
        next_id,
        out: Vec::with_capacity(BATCH),
        inbuf: Vec::with_capacity(BATCH),
        digest: DIGEST_START,
        limits: LimitCheck::new(sc.flows, sc.limit()),
        over_limit: 0,
        served: 0,
        bytes: 0,
        stalled: false,
    };
    l.serve::<false>(sc.warmup, &mut Spans::default());
    let (served0, bytes0, now0) = (l.served, l.bytes, l.now);
    let t = Instant::now();
    l.serve::<TRACE>(sc.timed, spans);
    let wall = t.elapsed().as_secs_f64();
    let attempted = l.next_id;
    Rep {
        setup: setup_secs,
        digest: l.digest,
        wall,
        virt: l.now - now0,
        served: l.served - served0,
        bytes: l.bytes - bytes0,
        over_limit: l.over_limit,
        attempted,
        lost: if l.stalled {
            attempted - l.served
        } else {
            attempted - l.served - l.tree.len() as u64
        },
    }
}

fn check(out: &mut Outcome, r: &Rep, reference: u64) {
    out.attempted += r.attempted;
    out.fail(r.lost, format!("{} packets lost or stranded", r.lost));
    out.fail(
        r.over_limit,
        format!("{} packets served over their flow's limit", r.over_limit),
    );
    if r.digest != reference {
        out.problem("served order differs from the first rep");
    }
}

/// `tree_hclock`: every rep checks the limits and must serve the first
/// rep's order exactly (traced reps included).
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = setup_samples(|| setup(p));
    let mut spans = Spans::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut cores, mut acc) = (Vec::new(), Vec::new());
    let (mut wall, mut served) = (0.0, 0u64);
    let mut reference = None;
    let mut reps = Reps::new(p, 3);
    while reps.more() {
        let r = rep::<false>(p, &mut spans);
        let reference = *reference.get_or_insert(r.digest);
        check(&mut out, &r, reference);
        setups.push(r.setup);
        plain.push(r.served as f64 / r.wall / 1e6);
        cores.push(r.wall * 1e9 / r.virt as f64);
        let achieved = r.bytes as f64 * 8.0 / (r.virt as f64 / 1e9);
        acc.push(crate::host::accuracy(achieved, AGGREGATE));
        if p.trace {
            let r = rep::<true>(p, &mut spans);
            check(&mut out, &r, reference);
            traced.push(r.served as f64 / r.wall / 1e6);
            wall += r.wall;
            served += r.served;
        }
    }
    if !p.trace {
        out.set("setup_s", median(&setups));
        out.set("mpps", median(&plain));
        out.set("busy_cores", median(&cores));
        out.set("rate_accuracy", median(&acc));
        return out;
    }
    let covered = spans.enqueue.ns() + spans.dequeue.ns() + spans.deadline.ns() + spans.gen.ns();
    out.set("tree.enqueue.ns_per_pkt", spans.enqueue.ns_per_item());
    out.set("tree.dequeue_batch.ns_per_pkt", spans.dequeue.ns_per_item());
    out.set("tree.dequeue_batch.ns_p99", spans.dequeue.p99_ns());
    out.set(
        "tree.dequeue_batch.pkts_per_call",
        spans.dequeue.items_per_call(),
    );
    out.set("tree.dequeue_batch.empty_frac", spans.dequeue.empty_frac());
    out.set(
        "tree.soonest_deadline.calls_per_kpkt",
        1e3 * ratio(spans.deadline.calls as f64, served as f64),
    );
    out.set(
        "tree.soonest_deadline.ns_per_call",
        spans.deadline.ns_per_call(),
    );
    out.set("gen.ns_per_pkt", spans.gen.ns_per_item());
    out.set("ledger.unattributed_frac", 1.0 - ratio(covered, wall * 1e9));
    out.set(
        "trace.overhead_frac",
        1.0 - median(&traced) / median(&plain),
    );
    out
}
