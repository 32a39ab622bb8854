//! Cross-process acceptance for the fan-out benchmark: four OS
//! processes run a scaled-down `fanout_node` cluster and the snapshot
//! they produce must hold the tree-economy invariant — deliveries
//! scale with subscribers, tree data frames do not.
//!
//! The full-size run (10 000 subscribers, the committed
//! `bench_results/BENCH_PR9.json`) uses the same binary with its
//! defaults; see EXPERIMENTS.md. Here the population is shrunk so the
//! whole spawn/subscribe/publish/report cycle fits comfortably in a
//! test run on a small host.

use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NODES: usize = 4;
const SUBS: u64 = 800;
const MSGS: u64 = 4;
const TIMEOUT: Duration = Duration::from_secs(180);

/// Reserve `n` distinct loopback ports (see `tests/xproc.rs`).
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

fn spawn_cluster(ports: &[u16], out: &std::path::Path) -> Vec<Child> {
    let peers = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");
    (0..NODES)
        .map(|rank| {
            Command::new(env!("CARGO_BIN_EXE_fanout_node"))
                .env("CHANT_TRANSPORT", "tcp-event")
                .env("CHANT_RANK", rank.to_string())
                .env("CHANT_PEERS", &peers)
                .env("CHANT_FANOUT_SUBS", SUBS.to_string())
                .env("CHANT_FANOUT_MSGS", MSGS.to_string())
                .env("CHANT_FANOUT_OUT", out)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn fanout_node")
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

fn run_once(out: &std::path::Path) -> Result<(), String> {
    let _ = std::fs::remove_file(out);
    let ports = free_ports(NODES);
    let results = join_all(spawn_cluster(&ports, out));
    for (rank, (ok, stdout, stderr)) in results.iter().enumerate() {
        if !ok {
            return Err(format!(
                "rank {rank} failed.\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
            ));
        }
        let marker = format!("FANOUT-OK rank={rank}");
        if !stdout.contains(&marker) {
            return Err(format!(
                "rank {rank} exited 0 without '{marker}'.\n--- stdout ---\n{stdout}"
            ));
        }
    }
    Ok(())
}

#[test]
fn four_process_fanout_tree_is_edge_economical() {
    let out = std::env::temp_dir().join(format!("chant_fanout_{}.json", std::process::id()));
    if let Err(first) = run_once(&out) {
        eprintln!("first attempt failed, retrying once:\n{first}");
        run_once(&out).expect("fanout cluster failed twice");
    }

    let text = std::fs::read_to_string(&out).expect("rank 0 wrote the snapshot");
    let _ = std::fs::remove_file(&out);
    let v: serde::Value = serde_json::from_str(&text).expect("snapshot is JSON");
    let obj = v.as_object().expect("snapshot is an object").clone();
    let get = |k: &str| {
        obj.get(k)
            .unwrap_or_else(|| panic!("snapshot key {k}:\n{text}"))
    };

    assert_eq!(get("snapshot").as_str(), Some("BENCH_PR9"));
    assert_eq!(get("processes").as_u128(), Some(NODES as u128));
    assert_eq!(get("subscribers").as_u128(), Some(SUBS as u128));
    assert_eq!(get("samples").as_u128(), Some((SUBS * MSGS) as u128));
    assert_eq!(get("deliveries").as_u128(), Some((SUBS * MSGS) as u128));
    let lat = get("publish_to_deliver")
        .as_object()
        .expect("publish_to_deliver is an object");
    let quantile = |k: &str| lat.get(k).and_then(serde::Value::as_u128).expect(k);
    let (p50, p99) = (quantile("p50_ns"), quantile("p99_ns"));
    assert!(p50 > 0 && p99 >= p50, "latency quantiles out of order:\n{text}");
    // The headline invariant, re-checked from the snapshot itself: the
    // tree moved O(edges) frames per publish while delivering to every
    // subscriber. 800 subscribers behind at most (4 ranks × 2 + slack)
    // frames per publish.
    let frames = get("tree_data_frames").as_u128().expect("tree_data_frames");
    let retrans: u128 = get("per_rank")
        .as_array()
        .expect("per_rank")
        .iter()
        .map(|r| {
            r.as_object()
                .and_then(|o| o.get("retransmits"))
                .and_then(serde::Value::as_u128)
                .unwrap_or(0)
        })
        .sum();
    assert!(
        frames <= (MSGS as u128) * 2 * NODES as u128 + retrans,
        "per-link traffic must scale with tree edges, not subscribers:\n{text}"
    );
}
