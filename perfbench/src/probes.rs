//! Isolation probes, run from PE 0's main thread on the live cluster
//! after the timed phase: each times one layer's primitive on its own.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use chant_comm::Address;
use chant_core::ChantNode;
use chant_ult::SpawnAttr;

use crate::harness::{must, ECHO_REPLY_TAG, ECHO_TAG};
use crate::stats::Latency;
use crate::trace::SpanLog;

/// Warm-up iterations discarded before each probe's timed ones.
const WARMUP: usize = 100;

/// What the probes measured.
#[derive(Clone, Debug, Default)]
pub struct ProbeOut {
    /// `ChantNode::ping` to PE 1's server thread (chant-core RSR).
    pub ping: Latency,
    /// send / `recv_tag` ping-pong with a thread on PE 1 (chant-comm).
    pub rtt: Latency,
    /// Two ULTs on PE 0 alternating `yield_now` (chant-ult).
    pub yield_: Latency,
    /// Spawn and join an empty chanter on PE 0 (chant-ult).
    pub spawn_join: Latency,
    /// Raw loopback socket echo, the transport's floor (ns median), on
    /// the cross-process workload only.
    pub floor_ns: Option<f64>,
}

/// Time `n` calls of `f` (after [`WARMUP`] untimed ones), each as a
/// span named `name`.
fn timed(log: &mut SpanLog, name: &'static str, n: usize, mut f: impl FnMut()) -> Latency {
    let mut ns = Vec::with_capacity(n);
    for i in 0..WARMUP + n {
        let t = Instant::now();
        let s = log.begin();
        f();
        if i >= WARMUP {
            ns.push(t.elapsed().as_nanos() as u64);
            log.end(name, 0, i as u64, s);
        }
    }
    Latency::of_ns(&mut ns)
}

/// Run every probe; `n` timed iterations each (spawn/join runs a
/// quarter as many: each spawn starts an OS thread).
pub fn run(node: &Arc<ChantNode>, n: usize, floor: bool, log: &mut SpanLog) -> ProbeOut {
    let peer = Address::new(1, 0);
    let ping = timed(log, "probe.ping", n, || {
        must("ping", node.ping(peer, &[0u8; 8]));
    });

    let me = node.self_id();
    let mut arg = Vec::with_capacity(24);
    for w in [(WARMUP + n) as u64, u64::from(me.pe), u64::from(me.thread)] {
        arg.extend_from_slice(&w.to_le_bytes());
    }
    let echo = must("spawn echo", node.remote_spawn(peer, "echo", &arg));
    let body = Bytes::from_static(&[0u8; 8]);
    let rtt = timed(log, "probe.rtt", n, || {
        must("rtt send", node.send_bytes(echo, ECHO_TAG, body.clone()));
        must("rtt recv", node.recv_tag(ECHO_REPLY_TAG));
    });
    must("join echo", node.remote_join(echo));

    let partner = node.spawn_chanter(SpawnAttr::new().name("yield-partner"), move |node| {
        for _ in 0..WARMUP + n {
            node.yield_now();
        }
        Bytes::new()
    });
    let yield_ = timed(log, "probe.yield", n, || node.yield_now());
    must("join yield partner", node.remote_join(partner));

    let spawn_join = timed(log, "probe.spawn_join", n / 4, || {
        let id = node.spawn_chanter(SpawnAttr::new(), |_| Bytes::new());
        must("join empty chanter", node.remote_join(id));
    });

    let floor_ns = floor.then(|| chant_bench::latency::raw_tcp_floor_ns(n, WARMUP));
    ProbeOut {
        ping,
        rtt,
        yield_,
        spawn_join,
        floor_ns,
    }
}
