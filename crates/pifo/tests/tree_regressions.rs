//! Pinned tree-layer bugs (PR 10's bug squash):
//!
//! 1. Shaped-release re-ranking used the poll time instead of the release
//!    timestamp: every packet released since the last poll ranked as if it
//!    had arrived "now", erasing the order information between releases.
//! 2. `soonest_deadline` busy-woke hosts when the root was unshaped but
//!    all backlog sat behind shaped descendants (or a parking flow
//!    policy): it answered `now` although nothing was transmittable.
//! 3. `HClockFlow` promoted every reservation fire to the reservation
//!    band. A reservation beyond the 65,536-bucket window was clamped into
//!    the last bucket, fired long before it was due, and the promoted flow
//!    was served over its limit.

use eiffel_core::{QueueConfig, QueueKind};
use eiffel_pifo::policies::Fifo;
use eiffel_pifo::{NodeProgram, RankCtx, TreeBuilder};
use eiffel_sim::{Packet, Rate};

/// Serves the *latest*-released packet first: rank is the complement of
/// the ranking instant. Contrived on purpose — it makes the rank context
/// observable, so ranking a release at the poll time instead of its
/// release timestamp flips the service order.
struct LatestRelease;

impl NodeProgram for LatestRelease {
    fn rank(&mut self, ctx: &RankCtx<'_>) -> u64 {
        u64::MAX - ctx.now
    }

    fn queue_hint(&self) -> (QueueKind, QueueConfig) {
        (QueueKind::BTree, QueueConfig::new(1, 1, 0))
    }
}

#[test]
fn shaped_releases_rank_at_their_release_timestamp() {
    let mut b = TreeBuilder::new();
    let root = b.node("root", None, Box::new(LatestRelease), None);
    // 12 Mbps ⇒ 1 ms per MTU; 6 Mbps ⇒ 2 ms per MTU.
    let a = b.node("a", Some(root), Box::new(Fifo::new()), Some(Rate::mbps(12)));
    let bb = b.node("b", Some(root), Box::new(Fifo::new()), Some(Rate::mbps(6)));
    let mut t = b.build().unwrap();
    for (id, leaf) in [(0, a), (1, a), (2, bb), (3, bb)] {
        t.enqueue(0, leaf, Packet::mtu(id, leaf.0 as u32, 0))
            .unwrap();
    }
    // First packet of each leaf releases immediately.
    assert!(t.dequeue(0).is_some());
    assert!(t.dequeue(0).is_some());
    assert!(t.dequeue(0).is_none());
    // The stragglers release at ~1 ms (a) and ~2 ms (b). Polling long
    // after both: under LatestRelease the ~2 ms release must win. The old
    // code ranked both with the poll time (a tie broken by shaper order),
    // serving a's ~1 ms release first.
    let p = t.dequeue(10_000_000).expect("both released by 10 ms");
    assert_eq!(
        p.id, 3,
        "the later release (b at ~2 ms) must rank ahead under LatestRelease"
    );
    assert_eq!(t.dequeue(10_000_000).map(|p| p.id), Some(1));
    assert!(t.is_empty());
}

#[test]
fn soonest_deadline_is_the_shaper_release_behind_an_unshaped_root() {
    let mut b = TreeBuilder::new();
    let root = b.node("root", None, Box::new(Fifo::new()), None);
    let leaf = b.node(
        "leaf",
        Some(root),
        Box::new(Fifo::new()),
        Some(Rate::mbps(12)),
    );
    let mut t = b.build().unwrap();
    t.enqueue(0, leaf, Packet::mtu(0, 0, 0)).unwrap();
    t.enqueue(0, leaf, Packet::mtu(1, 0, 0)).unwrap();
    assert_eq!(t.dequeue(0).map(|p| p.id), Some(0));
    assert!(t.dequeue(0).is_none(), "second packet is paced");
    // All backlog is behind the leaf shaper: the wakeup must be its next
    // release (~1 ms at 12 Mbps), not a busy-wake at `now`.
    let d = t.soonest_deadline(0).expect("backlog pending");
    assert!(
        (1..=1_100_000).contains(&d),
        "wakeup {d} must be the ~1 ms release, not now"
    );
    assert_eq!(t.dequeue(d).map(|p| p.id), Some(1));
    assert!(t.is_empty());
    assert_eq!(t.soonest_deadline(d), None);
}

#[test]
fn soonest_deadline_is_the_gate_wakeup_when_every_flow_is_parked() {
    use eiffel_pifo::{HClockFlow, QosSpec};
    let mut b = TreeBuilder::new();
    b.flow_leaf(
        "root",
        None,
        Box::new(HClockFlow::new(vec![QosSpec {
            reservation: Rate::mbps(1),
            limit: Rate::mbps(10),
            share: 1,
        }])),
        QueueKind::BTree.build(QueueConfig::new(1, 1, 0)),
        None,
    );
    let mut t = b.build().unwrap();
    let root = t.node_by_name("root").unwrap();
    t.enqueue(0, root, Packet::mtu(0, 0, 0)).unwrap();
    t.enqueue(0, root, Packet::mtu(1, 0, 0)).unwrap();
    assert_eq!(t.dequeue(0).map(|p| p.id), Some(0), "reservation is due");
    assert!(
        t.dequeue(0).is_none(),
        "after the first service the flow is limit-gated (l_rank ~1.2 ms)"
    );
    // The flow is parked: no queue entry at all. The wakeup must be the
    // gate's release (≈ 1.2 ms at 10 Mbps, bucket-granular early is fine),
    // not `now` (busy-wake) and not `None` (lost packet).
    let w = t.soonest_deadline(0).expect("parked backlog still pending");
    assert!(
        (1..=1_200_000).contains(&w),
        "wakeup {w} must be the limit gate, not now"
    );
    assert_eq!(t.dequeue(w).map(|p| p.id), Some(1));
    assert!(t.is_empty());
}

/// `res` far below `lim`: one packet per 1.2 s of reservation against one
/// per 24 ms of limit, so the reservation clock lies well beyond the
/// promotion queue's window after the first service. Backlogged flows must
/// still never leave faster than their limit (one bucket of slack).
#[test]
fn hclock_reservation_beyond_the_window_keeps_the_limit() {
    const FLOWS: u32 = 100;
    const WIRE_NS: u64 = 1_200;
    let limit = Rate::kbps(500);
    let gap = limit.tx_time(1_500).unwrap();
    let program = format!(
        "node root kind=flow:hclock res=10kbps lim={}bps share=1",
        limit.as_bps()
    );
    let mut t = eiffel_pifo::compile(&program).unwrap();
    let root = t.node_by_name("root").unwrap();
    let mut id = 0;
    for _ in 0..2 {
        for f in 0..FLOWS {
            t.enqueue(0, root, Packet::mtu(id, f, 0)).unwrap();
            id += 1;
        }
    }
    // Per flow: the earliest instant its next packet may leave.
    let mut clock = vec![0u64; FLOWS as usize];
    let (mut now, mut served) = (0u64, 0u64);
    let mut out = Vec::new();
    while now < 2_000_000_000 {
        out.clear();
        if t.dequeue_batch(now, 32, &mut out) == 0 {
            now = t.soonest_deadline(now).unwrap().max(now + 1);
            continue;
        }
        for p in &out {
            let c = &mut clock[p.flow as usize];
            assert!(
                now + 1_000 >= *c,
                "flow {} served at {now} ns, {} ns before its limit allows \
                 (packet {served})",
                p.flow,
                *c - now
            );
            *c = (*c).max(now) + gap;
            t.enqueue(now, root, Packet::mtu(id, p.flow, now)).unwrap();
            id += 1;
            served += 1;
        }
        now += out.len() as u64 * WIRE_NS;
    }
    // Every flow ran at its limit for the whole two seconds.
    let want = u64::from(FLOWS) * 2_000_000_000 / gap;
    assert!(
        served + u64::from(FLOWS) >= want,
        "{served} of ~{want} served"
    );
}
