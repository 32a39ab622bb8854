//! One-sided operation latency: get/put round-trip times, in-process
//! vs TCP loopback (`tcp-event`, Linux), dumped to
//! `bench_results/BENCH_PR5.json`.
//!
//! Every RMA op is a full RSR round trip (request to the target's
//! server thread, reply to the issuing thread's posted receive), so
//! these numbers bound the store-access latency of anything built on
//! the layer (the `dkv` example's shards, for instance). CI diffs the
//! snapshot across commits to catch RMA-path regressions.
//!
//! The measurement body lives in [`chant_bench::latency`], shared with
//! `xport_scale` (which refreshes the same medians into
//! `BENCH_PR6.json`).

use serde::Serialize;

use chant_bench::latency::rma_standard_medians;
use chant_bench::results_dir;
use chant_core::TransportConfig;

/// One measured operation flavour.
#[derive(Serialize)]
struct BenchLine {
    id: String,
    median_ns: f64,
}

#[derive(Serialize)]
struct Snapshot {
    snapshot: String,
    benches: Vec<BenchLine>,
}

fn main() {
    const N: usize = 2000;
    const WARMUP: usize = 200;
    let mut benches = Vec::new();

    let mut backends = vec![("inproc", TransportConfig::InProcess)];
    // The socket backend is Linux-only (epoll).
    if cfg!(target_os = "linux") {
        backends.push(("tcp-event", TransportConfig::tcp_event_loopback()));
    }
    for (tname, transport) in backends {
        for (op, median_ns) in rma_standard_medians(transport, N, WARMUP) {
            benches.push(BenchLine {
                id: format!("rma/{tname}/{op}"),
                median_ns,
            });
        }
    }

    for b in &benches {
        println!("{:28} {:10.0} ns", b.id, b.median_ns);
    }
    let snapshot = Snapshot {
        snapshot: "BENCH_PR5".to_string(),
        benches,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    let path = results_dir().join("BENCH_PR5.json");
    std::fs::write(&path, json + "\n").expect("write snapshot");
    println!("wrote {}", path.display());
}
