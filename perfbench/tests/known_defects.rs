//! Defects of the crates under test that the benchmark's workloads are
//! built not to trigger, kept here so they stay visible. Each test states
//! the correct behaviour and fails while the defect stands; run them with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml -- --ignored`.

use eiffel_pifo::compile;
use eiffel_sim::{Nanos, Packet, Rate};
use perfbench::pfabric::{BATCH, WIRE_NS};
use perfbench::tree::LimitCheck;

/// `tree_hclock`'s loop on a program whose reservation (10 kb/s, one
/// packet per 1.2 s) lies beyond `HClockFlow`'s 65,536-bucket reservation
/// queue. The queue clamps the deadline into its last bucket, the flow is
/// promoted to the reservation band long before its reservation is due,
/// and reserved service ignores the limit clock: packets leave over their
/// flow's limit.
#[test]
#[ignore = "known defect: HClockFlow serves over the limit when res < lim"]
fn hclock_with_reservation_below_limit_keeps_the_limit() {
    const FLOWS: usize = 10_000;
    let limit = Rate::bps(Rate::gbps(5).as_bps() / FLOWS as u64);
    let program = format!(
        "node root kind=flow:hclock res=10kbps lim={}bps share=1",
        limit.as_bps()
    );
    let mut tree = compile(&program).expect("the hClock program compiles");
    let root = tree.node_by_name("root").expect("the program names root");
    let mut id = 0;
    for _ in 0..2 {
        for f in 0..FLOWS as u32 {
            tree.enqueue(0, root, Packet::mtu(id, f, 0)).expect("leaf");
            id += 1;
        }
    }
    let mut limits = LimitCheck::new(FLOWS, limit);
    let (mut now, mut served, mut over): (Nanos, u64, u64) = (0, 0, 0);
    let mut out = Vec::with_capacity(BATCH);
    while served < 1_100_000 {
        out.clear();
        let got = tree.dequeue_batch(now, BATCH, &mut out);
        if got == 0 {
            now = tree
                .soonest_deadline(now)
                .expect("backlogged flows have a wakeup")
                .max(now + 1);
            continue;
        }
        for pkt in &out {
            over += u64::from(!limits.serve(now, pkt));
            tree.enqueue(now, root, Packet::mtu(id, pkt.flow, now))
                .expect("leaf");
            id += 1;
        }
        served += got as u64;
        now += got as Nanos * WIRE_NS;
    }
    assert_eq!(over, 0, "{over} of {served} packets left over their limit");
}
