//! The link stage: the one deadline-heap deliverer shared by the
//! latency model and the fault shim's held copies.
//!
//! Every test here builds worlds whose deliverer threads are visible in
//! `/proc/self/task`, so they serialize on one lock: the thread count
//! asserted by one test must not see another test's world.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_comm::{kind, Address, CommWorld, FaultConfig, LatencyModel, RecvSpec, TransportConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Threads of this process whose name starts with `prefix`.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|t| {
                    std::fs::read_to_string(t.path().join("comm"))
                        .is_ok_and(|c| c.trim_end().starts_with(prefix))
                })
                .count()
        })
        .unwrap_or(0)
}

/// Wait (bounded) until `f` holds; a world's deliverer exits shortly
/// after teardown, not synchronously with it.
#[cfg(target_os = "linux")]
fn eventually(f: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !f() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[cfg(target_os = "linux")]
#[test]
fn latency_and_faults_share_one_deliverer_thread() {
    let _g = serial();
    assert!(eventually(|| threads_named("chant-comm") == 0));
    let world = CommWorld::with_config(
        2,
        1,
        Some(LatencyModel {
            fixed_ns: 1_000_000,
            per_byte_ns: 0,
        }),
        Some(FaultConfig::new(5).dup_p(1.0)),
        TransportConfig::InProcess,
    );
    assert!(world.has_latency() && world.has_faults());
    // A thread names itself as it starts: wait for one message down each
    // path (the modelled original and the held duplicate) before counting.
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    a.isend(
        Address::new(1, 0),
        1,
        0,
        kind::DATA,
        Bytes::from_static(b"x"),
    );
    bep.crecv(RecvSpec::tag(1));
    bep.crecv(RecvSpec::tag(1));
    assert_eq!(threads_named("chant-comm"), 1, "one deliverer per world");
    world.shutdown();
    drop(world);
    assert!(
        eventually(|| threads_named("chant-comm") == 0),
        "deliverer outlived its world"
    );
}

/// Latency-model messages keep per-link FIFO even when a later, smaller
/// message has the shorter flight time; fault-held copies skip both the
/// FIFO floor and the model, so they overtake.
#[test]
fn latency_stays_fifo_while_held_copies_overtake() {
    const N: usize = 40;
    let _g = serial();
    let mut faults = FaultConfig::new(11).delay_p(0.3);
    faults.delay_ns = (0, 1_000_000);
    let world = CommWorld::with_config(
        2,
        1,
        Some(LatencyModel {
            fixed_ns: 50_000_000,
            // Earlier messages are bigger: without the floor, later ones
            // would land first.
            per_byte_ns: 20_000,
        }),
        Some(faults),
        TransportConfig::InProcess,
    );
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    for i in 0..N {
        let mut body = vec![0u8; N - i];
        body[0] = i as u8;
        a.isend(Address::new(1, 0), 1, 0, kind::DATA, Bytes::from(body));
    }
    let held = world.fault_stats().unwrap().delayed as usize;
    assert!(held > 0 && held < N, "seed must hold some, not all: {held}");

    let order: Vec<usize> = (0..N)
        .map(|_| bep.crecv(RecvSpec::tag(1)).1[0] as usize)
        .collect();
    // Held copies are due within 1 ms, model traffic after 50 ms: the
    // held ones arrive first, the rest in send order.
    let (early, modelled) = order.split_at(held);
    assert!(
        modelled.windows(2).all(|w| w[0] < w[1]),
        "latency-model traffic reordered: {order:?}"
    );
    assert!(
        early.iter().any(|&h| h > modelled[0]),
        "no held copy overtook earlier traffic: {order:?}"
    );
}

/// The shim's decisions are a pure function of the seed and the per-link
/// send script: these counts are pinned across refactors of the stage
/// that delivers the held copies.
#[test]
fn fault_counts_for_a_fixed_seed_and_script_are_pinned() {
    let _g = serial();
    let cfg = FaultConfig::new(42)
        .drop_p(0.1)
        .dup_p(0.1)
        .delay_p(0.1)
        .reorder_p(0.1);
    let world = CommWorld::with_config(
        3,
        2,
        Some(LatencyModel {
            fixed_ns: 10_000,
            per_byte_ns: 0,
        }),
        Some(cfg),
        TransportConfig::InProcess,
    );
    let addrs = world.addresses();
    for i in 0..600usize {
        let src = addrs[i % addrs.len()];
        let dst = addrs[(i * 7 + 1) % addrs.len()];
        // Every tenth message uses a control-range tag: exempt from faults.
        let tag = if i % 10 == 0 { 0xFF00 } else { 3 };
        world
            .endpoint(src)
            .isend(dst, tag, 0, kind::DATA, Bytes::from_static(b"x"));
    }
    let s = world.fault_stats().unwrap();
    assert_eq!(
        (s.dropped, s.duplicated, s.delayed, s.reordered, s.passed),
        (63, 44, 60, 35, 398),
        "{s:?}"
    );
}
