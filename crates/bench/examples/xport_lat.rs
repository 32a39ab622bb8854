//! Transport latency probe: the cost of real sockets, measured.
//!
//! Runs the same two-PE ping-pong on the in-process backend and (on
//! Linux) the `tcp-event` socket backend, and reports the **median**
//! round-trip time of each — the "expected latency delta" quoted in
//! EXPERIMENTS.md §cross-process. Medians, not means: a single
//! scheduler hiccup on a busy box should not move the reported number.
//!
//! The report is self-calibrating: it first measures the raw kernel
//! floor (a bare 32-byte echo over a nodelay loopback socket pair) and
//! quotes the socket backend as floor + delta. A socket RTT crosses the
//! kernel twice no matter how good the transport is, so the floor — not
//! the in-process RTT — is the number a backend should be judged
//! against; on a single-CPU box the floor alone can exceed the
//! in-process RTT several times over.
//!
//! Run with: `cargo run --release -p chant-bench --example xport_lat`
//!
//! With `--check`, additionally asserts the socket backend's median RTT
//! is within [`FLOOR_BOUND`] × the raw floor and exits nonzero on
//! regression.

use chant_bench::latency::{median_rtt_ns, raw_tcp_floor_ns};
use chant_core::TransportConfig;

/// `--check` passes when tcp-event's median RTT is at most this
/// multiple of the raw socket floor measured in the same run.
const FLOOR_BOUND: f64 = 1.25;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let n = 4000;
    let warmup = 400;
    let _ = median_rtt_ns(TransportConfig::InProcess, 500, 100); // warm the process
    let inproc = median_rtt_ns(TransportConfig::InProcess, n, warmup);
    let floor = raw_tcp_floor_ns(n, warmup);
    println!("inproc     median rtt: {:8.1} us", inproc / 1000.0);
    println!(
        "raw socket floor:      {:8.1} us  (32B nodelay echo, 2 kernel crossings)",
        floor / 1000.0
    );
    if !cfg!(target_os = "linux") {
        println!("tcp-event: unavailable on this platform (linux-only backend)");
        return;
    }
    let tcp_event = median_rtt_ns(TransportConfig::tcp_event_loopback(), n, warmup);
    println!(
        "tcp-event  median rtt: {:8.1} us  ({:.2}x inproc, {:.2}x floor, floor {:+.1} us)",
        tcp_event / 1000.0,
        tcp_event / inproc,
        tcp_event / floor,
        (tcp_event - floor) / 1000.0
    );
    if check {
        let verdict = if tcp_event <= floor * FLOOR_BOUND {
            "OK"
        } else {
            "FAILED"
        };
        let line = format!(
            "xport_lat --check {verdict}: tcp-event {:.1} us vs floor {:.1} us (bound {FLOOR_BOUND}x)",
            tcp_event / 1000.0,
            floor / 1000.0
        );
        if verdict == "OK" {
            println!("{line}");
        } else {
            eprintln!("{line}");
            std::process::exit(1);
        }
    }
}
