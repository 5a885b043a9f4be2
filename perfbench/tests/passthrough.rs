//! The tracing shims are pass-through: a traced run serves exactly what
//! an untraced run serves.

use std::sync::{Arc, Mutex};

use eiffel_qdisc::{
    run_sharded_traced, run_threaded_traced, EiffelQdisc, ShaperQdisc, ThreadedConfig,
};
use eiffel_sim::{Packet, Rate};
use perfbench::trace::{QdiscSpans, TracedQdisc};
use perfbench::{host, pfabric, tree, Params};

fn tiny(seed: u64) -> Params {
    Params {
        seed,
        seconds: 0.5,
        trace: false,
        tiny: true,
    }
}

fn sink() -> Arc<Mutex<QdiscSpans>> {
    Arc::new(Mutex::new(QdiscSpans::default()))
}

#[test]
fn traced_qdisc_forwards_every_method() {
    let spans = sink();
    let mut bare = EiffelQdisc::new(1_024, 1_000);
    let mut traced = TracedQdisc::new(EiffelQdisc::new(1_024, 1_000), spans.clone());
    let rate = 120_000_000;
    let burst = |first: u64| -> Vec<Packet> {
        (first..first + 8)
            .map(|i| Packet::mtu(i, (i % 3) as u32, 0))
            .collect()
    };
    bare.enqueue_batch(0, &mut burst(0), rate);
    traced.enqueue_batch(0, &mut burst(0), rate);
    bare.enqueue(0, Packet::mtu(100, 7, 0), rate);
    traced.enqueue(0, Packet::mtu(100, 7, 0), rate);
    assert_eq!(traced.name(), bare.name());
    assert_eq!(traced.timer_style(), bare.timer_style());
    assert_eq!(traced.len(), bare.len());
    assert_eq!(traced.is_empty(), bare.is_empty());
    assert_eq!(traced.next_deadline(0), bare.next_deadline(0));
    assert_eq!(
        traced.evict_worst().map(|p| p.id),
        bare.evict_worst().map(|p| p.id)
    );
    assert_eq!(
        traced.dequeue(0).map(|p| p.id),
        bare.dequeue(0).map(|p| p.id)
    );
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for now in (0..2_000_000).step_by(50_000) {
        assert_eq!(
            traced.dequeue_batch(now, 4, &mut a),
            bare.dequeue_batch(now, 4, &mut b)
        );
    }
    let ids = |v: &[Packet]| v.iter().map(|p| p.id).collect::<Vec<_>>();
    assert_eq!(ids(&a), ids(&b));
    assert!(traced.is_empty() && bare.is_empty());
    drop(traced);
    let s = spans.lock().unwrap();
    assert_eq!(s.enqueue.items, 9);
    assert_eq!(s.enqueue.calls, 2);
    assert_eq!(
        s.dequeue.items, 8,
        "one packet left by dequeue, one evicted"
    );
    assert_eq!(s.next_deadline.calls, 1);
    assert_eq!(s.other.calls, 1);
}

#[test]
fn host_sim_release_trace_is_unchanged_by_tracing() {
    let p = tiny(7);
    let cfg = host::sim_config(&p, 20_000_000);
    let (r0, t0) = run_sharded_traced(|_| EiffelQdisc::paper_config(), &cfg);
    let spans = sink();
    let (r1, t1) = run_sharded_traced(
        |_| TracedQdisc::new(EiffelQdisc::paper_config(), spans.clone()),
        &cfg,
    );
    assert!(r0.transmitted > 1_000);
    assert_eq!(t0.releases, t1.releases);
    assert_eq!(t0.drops, t1.drops);
    assert_eq!(r0.transmitted, r1.transmitted);
    assert_eq!(spans.lock().unwrap().dequeue.items, r1.transmitted);
}

#[test]
fn threaded_per_flow_counts_are_unchanged_by_tracing() {
    let p = tiny(11);
    let host = host::host_config(&p, Rate::gbps(12), 0, 100_000_000);
    let flows = host.flows as u32;
    let cfg = ThreadedConfig::finite(1, host, 20);
    let (r0, t0) = run_threaded_traced(|_| EiffelQdisc::paper_config(), &cfg);
    let spans = sink();
    let (r1, t1) = run_threaded_traced(
        |_| TracedQdisc::new(EiffelQdisc::paper_config(), spans.clone()),
        &cfg,
    );
    assert!(!r0.timed_out && !r1.timed_out);
    assert_eq!(r0.transmitted, u64::from(flows) * 20);
    assert_eq!(r0.transmitted, r1.transmitted);
    // Packet ids number emissions across flows in wall-clock order, so
    // only the per-flow counts are time-free.
    for f in 0..flows {
        let (a, b) = (t0.flow_release_ids(f), t1.flow_release_ids(f));
        assert_eq!(a.len(), b.len(), "flow {f}");
        assert_eq!(t0.flow_bytes(f), t1.flow_bytes(f), "flow {f}");
        assert_eq!(t0.flow_drop_count(f), t1.flow_drop_count(f), "flow {f}");
    }
    assert_eq!(spans.lock().unwrap().dequeue.items, r1.transmitted);
}

#[test]
fn pfabric_served_order_is_unchanged_by_tracing() {
    let p = tiny(3);
    let sc = pfabric::Scale::of(&p);
    let mut model = pfabric::Model::new(sc.flows);
    let checked = pfabric::rep::<false>(&p, &mut pfabric::Spans::default(), Some(&mut model));
    assert_eq!(checked.violations, 0);
    assert_eq!(checked.lost, 0);
    let plain = pfabric::rep::<false>(&p, &mut pfabric::Spans::default(), None);
    let mut spans = pfabric::Spans::default();
    let traced = pfabric::rep::<true>(&p, &mut spans, None);
    assert_eq!(plain.digest, checked.digest);
    assert_eq!(traced.digest, checked.digest);
    assert_eq!(spans.dequeue.items, traced.served);
    // Another seed serves another order.
    let other = pfabric::rep::<false>(&tiny(4), &mut pfabric::Spans::default(), None);
    assert_ne!(other.digest, plain.digest);
}

#[test]
fn pfabric_model_rejects_a_wrong_flow() {
    let mut m = pfabric::Model::new(2);
    let mut a = Packet::mtu(0, 0, 0);
    a.rank = 5;
    let mut b = Packet::mtu(1, 1, 0);
    b.rank = 3;
    m.enqueue(&a);
    m.enqueue(&b);
    assert!(!m.serve(&a), "flow 1 holds the least remaining size");
    assert!(m.serve(&b));
}

#[test]
fn tree_served_order_is_unchanged_by_tracing() {
    let p = tiny(5);
    let plain = tree::rep::<false>(&p, &mut tree::Spans::default());
    let mut spans = tree::Spans::default();
    let traced = tree::rep::<true>(&p, &mut spans);
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(plain.lost, 0);
    assert_eq!(spans.dequeue.items, traced.served);
    assert!(spans.deadline.calls > 0, "limits bind, so polls go idle");
}

#[test]
fn limit_check_flags_an_early_packet() {
    let limit = Rate::mbps(12); // 1 ms per packet
    let mut c = tree::LimitCheck::new(1, limit);
    let p = Packet::mtu(0, 0, 0);
    assert!(c.serve(0, &p));
    assert!(c.serve(1_000_000, &p));
    assert!(c.serve(2_000_000 - tree::LIMIT_SLACK, &p));
    assert!(!c.serve(2_500_000, &p), "due at 3 ms");
}
