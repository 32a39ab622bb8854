//! Cross-process killed-primary recovery: four OS processes run a
//! chant-kv cluster over real TCP under 1% drop + 1% dup; this test
//! SIGKILLs rank 1 mid-run and respawns it, and every surviving rank
//! plus the reincarnation must finish with an exact exactly-once
//! version-sum ledger (see `kv_recover_node`). Swept across all three
//! polling policies with distinct fault seeds.
//!
//! The choreography: rank 1 drains its replication queues, writes a
//! sentinel file, and parks; the test watches for the sentinel, kills
//! the process (a real SIGKILL — no destructors, sockets torn down by
//! the kernel), and respawns the same rank with `CHANT_KV_PHASE=2`.
//! The respawn re-binds the same listen port, re-seeds its shards from
//! the surviving replicas, and re-joins the protocol.

use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NODES: usize = 4;
/// Covers seed + kill + recovery + second round on a loaded host.
const TIMEOUT: Duration = Duration::from_secs(240);
/// How long rank 1 may take to reach its sentinel.
const SENTINEL_PATIENCE: Duration = Duration::from_secs(120);

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

fn spawn_rank(
    rank: usize,
    peers: &str,
    policy: &str,
    seed: u64,
    sentinel: &std::path::Path,
    phase2: bool,
) -> Child {
    let mut c = Command::new(env!("CARGO_BIN_EXE_kv_recover_node"));
    c.env("CHANT_TRANSPORT", "tcp-event")
        .env("CHANT_RANK", rank.to_string())
        .env("CHANT_PEERS", peers)
        .env("CHANT_KV_POLICY", policy)
        .env("CHANT_FAULT_SEED", seed.to_string())
        .env("CHANT_KV_SENTINEL", sentinel)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if phase2 {
        c.env("CHANT_KV_PHASE", "2");
    }
    c.spawn().expect("spawn kv_recover_node")
}

/// Wait for every child under one deadline; kill stragglers on timeout.
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
        std::thread::sleep(Duration::from_millis(25));
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

fn run_once(policy: &str, seed: u64) -> Result<(), String> {
    let ports = free_ports(NODES);
    let peers = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");
    let sentinel = std::env::temp_dir().join(format!(
        "chant_kvrec_{}_{policy}_{seed}.sentinel",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&sentinel);

    let mut children: Vec<Child> = (0..NODES)
        .map(|r| spawn_rank(r, &peers, policy, seed, &sentinel, false))
        .collect();

    // Wait for rank 1 to drain and park, then deliver the SIGKILL.
    let deadline = Instant::now() + SENTINEL_PATIENCE;
    while !sentinel.exists() {
        if Instant::now() > deadline {
            for c in children.iter_mut() {
                let _ = c.kill();
            }
            let dumps: Vec<String> = join_all(children)
                .into_iter()
                .enumerate()
                .map(|(r, (_, out, err))| format!("--- rank {r} ---\n{out}\n{err}"))
                .collect();
            return Err(format!(
                "[{policy}/{seed}] rank 1 never reached its sentinel\n{}",
                dumps.join("\n")
            ));
        }
        if let Ok(Some(status)) = children[1].try_wait() {
            return Err(format!(
                "[{policy}/{seed}] rank 1 exited ({status}) before the kill"
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let mut victim = children.remove(1);
    victim.kill().expect("SIGKILL rank 1");
    let _ = victim.wait();
    let _ = std::fs::remove_file(&sentinel);

    // Reincarnate rank 1 on the same port.
    children.push(spawn_rank(1, &peers, policy, seed, &sentinel, true));

    // children is now [rank0, rank2, rank3, rank1'].
    let labels = [0usize, 2, 3, 1];
    let results = join_all(children);
    for (i, (ok, stdout, stderr)) in results.iter().enumerate() {
        let rank = labels[i];
        let marker = format!("KVREC-OK rank={rank}");
        if !ok || !stdout.contains(&marker) {
            return Err(format!(
                "[{policy}/{seed}] rank {rank} (slot {i}) failed (ok={ok}).\n\
                 --- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
            ));
        }
    }
    Ok(())
}

/// One attempt may be unlucky (the kill window and fault stream are
/// timing-dependent); a deterministic protocol bug fails both attempts.
fn run_policy(policy: &str, seed: u64) {
    if let Err(first) = run_once(policy, seed) {
        eprintln!("first attempt failed, retrying once:\n{first}");
        run_once(policy, seed).expect("killed-primary recovery failed twice");
    }
}

#[test]
fn killed_primary_recovers_thread_polls() {
    run_policy("tp", 1);
}

#[test]
fn killed_primary_recovers_scheduler_wq() {
    run_policy("wq", 7);
}

#[test]
fn killed_primary_recovers_scheduler_ps() {
    run_policy("ps", 42);
}
