//! Cross-process integration: a 4-node TCP cluster of real OS
//! processes running the lossy robustness workload.
//!
//! This is the acceptance test for the transport tentpole: `cargo test`
//! spawns four copies of the `xproc_node` helper binary, hands them a
//! rank and a shared peer list over the environment (the same bootstrap
//! the examples use), and asserts that every process finishes the
//! 1000-op exactly-once workload (4 × 250 counted RSRs through a 1%
//! drop + 1% dup shim), joins the termination barrier cleanly, and
//! exits having leaked zero socket file descriptors.

use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NODES: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(120);

/// Reserve `n` distinct loopback ports: bind them all concurrently,
/// record the assignments, then release. A raced port is possible but
/// vanishingly rare; the caller retries once.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

fn spawn_cluster(
    ports: &[u16],
    per_rank_env: impl Fn(usize) -> Vec<(String, String)>,
) -> Vec<Child> {
    let peers = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");
    let seed = std::env::var("CHANT_FAULT_SEED").unwrap_or_else(|_| "42".into());
    (0..NODES)
        .map(|rank| {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_xproc_node"));
            cmd.env("CHANT_TRANSPORT", "tcp-event")
                .env("CHANT_RANK", rank.to_string())
                .env("CHANT_PEERS", &peers)
                .env("CHANT_FAULT_SEED", &seed)
                .env("CHANT_XPROC_OPS", "250")
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            for (k, v) in per_rank_env(rank) {
                cmd.env(k, v);
            }
            cmd.spawn().expect("spawn xproc_node")
        })
        .collect()
}

/// Wait for every child with a shared deadline; on timeout, kill the
/// stragglers so the test fails instead of hanging.
fn join_all(mut children: Vec<Child>) -> Vec<(bool, String, String)> {
    let deadline = Instant::now() + TIMEOUT;
    let mut done: Vec<Option<bool>> = vec![None; children.len()];
    while done.iter().any(Option::is_none) {
        for (i, child) in children.iter_mut().enumerate() {
            if done[i].is_none() {
                if let Ok(Some(status)) = child.try_wait() {
                    done[i] = Some(status.success());
                }
            }
        }
        if Instant::now() > deadline {
            for child in children.iter_mut() {
                let _ = child.kill();
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    children
        .into_iter()
        .enumerate()
        .map(|(i, mut child)| {
            let _ = child.wait();
            let mut out = String::new();
            let mut err = String::new();
            if let Some(mut s) = child.stdout.take() {
                let _ = s.read_to_string(&mut out);
            }
            if let Some(mut s) = child.stderr.take() {
                let _ = s.read_to_string(&mut err);
            }
            (done[i].unwrap_or(false), out, err)
        })
        .collect()
}

fn run_once() -> Result<(), String> {
    let ports = free_ports(NODES);
    let children = spawn_cluster(&ports, |_| Vec::new());
    let results = join_all(children);
    for (rank, (ok, out, err)) in results.iter().enumerate() {
        if !ok {
            return Err(format!(
                "rank {rank} failed.\n--- stdout ---\n{out}\n--- stderr ---\n{err}"
            ));
        }
        let marker = format!("XPROC-OK rank={rank}");
        if !out.contains(&marker) {
            return Err(format!(
                "rank {rank} exited 0 without '{marker}'.\n--- stdout ---\n{out}"
            ));
        }
    }
    Ok(())
}

/// Each process runs one poller thread for all its connections, and the
/// per-rank fd-leak assertion in `xproc_node` also covers the epoll and
/// eventfd descriptors.
#[cfg(target_os = "linux")]
#[test]
fn four_process_tcp_event_cluster_runs_lossy_workload_exactly_once() {
    // One retry covers the (rare) case of a reserved port being raced
    // away between release and the child's bind.
    if let Err(first) = run_once() {
        eprintln!("first attempt failed, retrying once:\n{first}");
        run_once().expect("cross-process cluster failed twice");
    }
}

/// The PR 7 tracing acceptance scenario: the same four-process lossy
/// cluster, now with per-rank trace export (`CHANT_TRACE_OUT`), merged
/// in-test into one clock-aligned cluster timeline. Asserts that every
/// cross-process RSR interaction appears as a send span flow-arrowed to
/// its recv/serve span with non-negative wire gaps after alignment, and
/// that the lossy shim's retries show up as first-class events.
#[cfg(all(feature = "trace", target_os = "linux"))]
mod traced {
    use super::*;
    use chant_obs::merge::{merge_cluster_trace, read_process_trace, ProcessTrace};
    use chant_obs::perfetto::validate_chrome_trace;
    use serde::Value;

    fn run_traced(dir: &std::path::Path) -> Result<u64, String> {
        let ports = free_ports(NODES);
        let children = spawn_cluster(&ports, |rank| {
            vec![(
                "CHANT_TRACE_OUT".to_string(),
                dir.join(format!("rank{rank}.json")).to_string_lossy().into_owned(),
            )]
        });
        let results = join_all(children);
        let mut retries = 0u64;
        for (rank, (ok, out, err)) in results.iter().enumerate() {
            if !ok {
                return Err(format!(
                    "rank {rank} failed.\n--- stdout ---\n{out}\n--- stderr ---\n{err}"
                ));
            }
            let marker = format!("XPROC-OK rank={rank}");
            let line = out
                .lines()
                .find(|l| l.contains(&marker))
                .ok_or_else(|| format!("rank {rank} exited 0 without '{marker}':\n{out}"))?;
            retries += line
                .split("retries=")
                .nth(1)
                .and_then(|s| s.trim().parse::<u64>().ok())
                .unwrap_or(0);
        }
        Ok(retries)
    }

    /// Count non-metadata events whose `name` matches `pred`.
    fn count_events(merged: &Value, pred: impl Fn(&str) -> bool) -> usize {
        merged
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(Value::as_array)
            .map(|evs| {
                evs.iter()
                    .filter(|e| {
                        e.as_object()
                            .and_then(|o| o.get("name"))
                            .and_then(Value::as_str)
                            .is_some_and(&pred)
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    #[test]
    fn four_process_traces_merge_into_one_causal_timeline() {
        let dir =
            std::env::temp_dir().join(format!("chant_xproc_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create trace dir");
        let retries = match run_traced(&dir) {
            Ok(r) => r,
            Err(first) => {
                eprintln!("first attempt failed, retrying once:\n{first}");
                run_traced(&dir).expect("traced cross-process cluster failed twice")
            }
        };

        let mut processes: Vec<ProcessTrace> = Vec::with_capacity(NODES);
        for rank in 0..NODES {
            let path = dir.join(format!("rank{rank}.json"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("rank {rank} wrote no trace at {path:?}: {e}"));
            let value: serde::Value = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("rank {rank} trace is not JSON: {e:?}"));
            processes.push(
                read_process_trace(value)
                    .unwrap_or_else(|e| panic!("rank {rank} trace malformed: {e}")),
            );
        }
        let (merged, report) =
            merge_cluster_trace(processes).expect("cluster traces must merge");
        let _ = std::fs::remove_dir_all(&dir);

        let summary = validate_chrome_trace(&merged).expect("merged trace obeys the schema");
        assert_eq!(
            summary.flow_starts, summary.flow_ends,
            "every flow arrow must have both halves: {report:?}"
        );
        assert_eq!(report.processes, NODES, "{report:?}");
        // The workload is 1000 cross-process RSRs: their request/reply
        // messages must appear as cross-process send->recv flows...
        assert!(
            report.cross_process_flows >= 1000,
            "cross-process causality missing: {report:?}"
        );
        // ...and after clock alignment (plus causal repair for offset
        // estimation error) no message arrives before it was sent.
        assert!(
            report.min_wire_gap_ns >= 0,
            "a message arrived before it was sent: {report:?}"
        );
        // The lossy shim makes retries a near-certainty over 2000+
        // frames at 1% drop + 1% dup (P[zero] < 1e-8); they must appear
        // as first-class annotated events, not silence.
        assert!(retries > 0, "lossy run produced no retries");
        let retry_events = count_events(&merged, |n| n == "rsr.retry");
        assert!(
            retry_events as u64 >= retries,
            "{retries} retries reported but only {retry_events} rsr.retry events in the merge"
        );
        assert!(
            count_events(&merged, |n| n.starts_with("fault.")) > 0,
            "fault shim injected nothing visible"
        );
        assert!(
            count_events(&merged, |n| n == "msg.send") > 0
                && count_events(&merged, |n| n == "msg.recv") > 0,
            "wire-level msg spans missing from the merge"
        );
    }
}
