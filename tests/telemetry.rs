//! End-to-end live telemetry: a real cluster run with the emitter
//! enabled must produce a parseable NDJSON stream whose per-tick deltas
//! add up to the run's actual totals.
//!
//! This is the production-build path — no `trace` feature involved: the
//! emitter folds the always-on counter families (comm, scheduler, RSR,
//! faults, transport) into flat JSON lines that `chant-top` renders.
//!
//! The sink path goes through `ClusterBuilder::telemetry_path` — no
//! process-global environment mutation, so this test is safe under
//! parallel test threads and the path cannot collide across
//! concurrently-running binaries (it carries the pid).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use chant::chant::{ChantCluster, ChanterId, TransportConfig};

const FN_COUNT: u32 = 1001;

#[test]
fn emitter_streams_parseable_deltas_that_sum_to_the_run_totals() {
    let path = std::env::temp_dir().join(format!("chant_telemetry_{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&path);

    const N: u32 = 64;
    let counter = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&counter);
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(TransportConfig::tcp_event_loopback())
        .telemetry(Duration::from_millis(5))
        .telemetry_path(&path)
        .rsr_handler(FN_COUNT, move |_node, req| {
            c2.fetch_add(1, Ordering::SeqCst);
            Ok(Bytes::copy_from_slice(&req.args))
        })
        .build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        for i in 0..N {
            node.send(peer, 3, &i.to_le_bytes()).unwrap();
            node.recv_tag(3).unwrap();
        }
        if me.pe == 0 {
            for i in 0..8u32 {
                node.rsr_call(peer.address(), FN_COUNT, &i.to_le_bytes()).unwrap();
            }
        }
    });
    let total_sends = cluster.world().total_stats().sends;
    drop(cluster); // Emitter::stop flushed a final tick before this returns.

    let text = std::fs::read_to_string(&path).expect("telemetry file was written");
    let _ = std::fs::remove_file(&path);

    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "no telemetry ticks emitted:\n{text}");

    let mut prev_seq = 0u64;
    let mut prev_elapsed = -1.0f64;
    let mut summed_sends = 0u64;
    let mut summed_msgtests = 0u64;
    for line in &lines {
        let v: serde::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e:?}"));
        let obj = v.as_object().expect("tick is a flat object");
        let seq = obj.get("seq").and_then(serde::Value::as_u128).expect("seq") as u64;
        let elapsed = obj
            .get("elapsed_s")
            .and_then(serde::Value::as_f64)
            .expect("elapsed_s");
        assert_eq!(seq, prev_seq + 1, "seq must be dense: {line}");
        assert!(elapsed >= prev_elapsed, "elapsed_s went backwards: {line}");
        prev_seq = seq;
        prev_elapsed = elapsed;
        // Every value is a non-negative integer (deltas of monotone
        // counters); sum the ones the workload pins exactly.
        for (key, val) in obj {
            if key == "elapsed_s" {
                continue;
            }
            assert!(val.as_u128().is_some(), "non-integer value for {key}: {line}");
        }
        summed_sends += obj.get("sends").and_then(serde::Value::as_u128).unwrap() as u64;
        summed_msgtests += obj.get("msgtests").and_then(serde::Value::as_u128).unwrap() as u64;
    }
    // Deltas must reassemble the run's totals: the final flush-on-stop
    // tick guarantees nothing after the last interval is lost.
    assert_eq!(
        summed_sends, total_sends,
        "per-tick send deltas don't sum to the run total:\n{text}"
    );
    assert!(summed_msgtests > 0, "polling never showed up in telemetry:\n{text}");
    assert_eq!(counter.load(Ordering::SeqCst), 8, "RSR workload ran");
}
