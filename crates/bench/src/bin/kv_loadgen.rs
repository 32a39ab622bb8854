//! YCSB-style load generator for chant-kv, dumped to
//! `bench_results/BENCH_PR10.json`.
//!
//! One binary, two roles:
//!
//! * **Driver** (the default): for each backend in `CHANT_KV_BACKENDS`
//!   it launches a fresh KV cluster of worker processes — one child
//!   hosting all PEs for `inproc`, one child per PE over real loopback
//!   sockets for `tcp-event` — waits for them, collects the
//!   per-backend result part rank 0 wrote, and assembles the combined
//!   snapshot.
//! * **Worker** (`CHANT_KV_WORKER=1`): runs its rank(s) of the cluster.
//!   After a uniform preload, every rank drives the configured YCSB
//!   mixes (A 50/50, B 95/5, C read-only; Zipfian theta 0.99 or
//!   uniform keys) from `CHANT_KV_CLIENTS` client threads, recording
//!   each op's latency into a chant-obs histogram per op type. Ranks
//!   ship histogram snapshots to rank 0, which merges them (histogram
//!   merge is exact — see `chant-obs`) and extracts p50/p99/p999.
//!
//! After the last mix every rank drains its replication queues and the
//! harness closes the loop on correctness: the sum of primary shard
//! versions across the cluster must equal the total number of
//! acknowledged mutations (preload + every update of every mix) — the
//! exactly-once invariant, checked after ~10⁶ live ops.
//!
//! Knobs (defaults in parentheses): `CHANT_KV_BACKENDS`
//! (`inproc,tcp-event`), `CHANT_KV_OPS` per workload (250 000),
//! `CHANT_KV_WORKLOADS` (`a,b,c,a-uniform`), `CHANT_KV_KEYS` (50 000),
//! `CHANT_KV_VAL` value bytes (100), `CHANT_KV_CLIENTS` per rank (4),
//! `CHANT_KV_PES` (4), `CHANT_KV_SEED` (42), `CHANT_KV_OUT`
//! (`bench_results/BENCH_PR10.json`).

use std::io::Read as _;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use chant_bench::load::{
    key_of, next_op, parse_workload, value_of, KeyChooser, KeyDist, MixSpec, OpKind, SplitMix64,
};
use chant_bench::results_dir;
use chant_core::{ChantCluster, ChantGroup, ChanterId, TransportConfig};
use chant_kv::{kv_await_ready, kv_drain, kv_stats, kv_version_sum, with_kv, KvClient};
use chant_obs::metrics::HistogramSnapshot;
use chant_obs::Histogram;
use chant_ult::SpawnAttr;
use serde::Serialize;

/// Tag the non-zero ranks ship per-workload reports on (in the user-tag
/// space: loadgen runs faultless, so plain sends are reliable).
const REPORT_TAG: i32 = 7200;
/// Tag for the final accounting report (version sum, acked mutations).
const ACCOUNT_TAG: i32 = 7201;
/// Group barrier tag.
const GROUP_TAG: u8 = 11;
/// Per-phase deadline inside the workers.
const PATIENCE: Duration = Duration::from_secs(120);
/// Client threads only drive blocking KV ops; keep their stacks small.
const CLIENT_STACK: usize = 256 * 1024;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn env_str(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn main() {
    if std::env::var("CHANT_KV_WORKER").is_ok() {
        run_worker();
    } else {
        run_driver();
    }
}

// ---------------------------------------------------------------------
// Driver: spawn one cluster per backend, assemble the snapshot.
// ---------------------------------------------------------------------

/// Reserve `n` distinct loopback ports (see `tests/xproc.rs`).
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral port"))
        .collect();
    listeners.iter().map(|l| l.local_addr().expect("local addr").port()).collect()
}

/// Wait for every child under one deadline; kill stragglers on timeout.
fn join_all(mut children: Vec<Child>, deadline: Instant) -> Vec<(bool, String, String)> {
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

/// Run one backend's cluster to completion; returns the JSON part rank
/// 0 wrote.
fn run_backend(backend: &str, pes: u32, deadline: Instant) -> String {
    let exe = std::env::current_exe().expect("own path");
    let part = std::env::temp_dir().join(format!(
        "chant_kvload_{}_{backend}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&part);

    let cmd_for = |rank: Option<u32>, ports: &[u16]| {
        let mut c = Command::new(&exe);
        c.env("CHANT_KV_WORKER", "1")
            .env("CHANT_KV_BACKEND", backend)
            .env("CHANT_KV_PART", &part)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(r) = rank {
            let peers = ports
                .iter()
                .map(|p| format!("127.0.0.1:{p}"))
                .collect::<Vec<_>>()
                .join(",");
            c.env("CHANT_TRANSPORT", backend)
                .env("CHANT_RANK", r.to_string())
                .env("CHANT_PEERS", peers);
        } else {
            c.env_remove("CHANT_TRANSPORT").env_remove("CHANT_RANK").env_remove("CHANT_PEERS");
        }
        c
    };

    let children: Vec<Child> = if backend == "inproc" {
        vec![cmd_for(None, &[]).spawn().expect("spawn inproc worker")]
    } else {
        let ports = free_ports(pes as usize);
        (0..pes)
            .map(|r| cmd_for(Some(r), &ports).spawn().expect("spawn tcp worker"))
            .collect()
    };
    let n = children.len();

    let results = join_all(children, deadline);
    for (rank, (ok, stdout, stderr)) in results.iter().enumerate() {
        let marker = format!("KVLOAD-OK rank={}", if n == 1 { 0 } else { rank });
        if !ok || !stdout.contains(&marker) {
            panic!(
                "[{backend}] worker {rank} failed (ok={ok}).\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
            );
        }
    }
    let text = std::fs::read_to_string(&part)
        .unwrap_or_else(|e| panic!("[{backend}] rank 0 part {}: {e}", part.display()));
    let _ = std::fs::remove_file(&part);
    text
}

fn run_driver() {
    let backends = env_str("CHANT_KV_BACKENDS", "inproc,tcp-event");
    let pes = env_u64("CHANT_KV_PES", 4) as u32;
    let ops = env_u64("CHANT_KV_OPS", 250_000);
    let keys = env_u64("CHANT_KV_KEYS", 50_000);
    let val = env_u64("CHANT_KV_VAL", 100);
    let seed = env_u64("CHANT_KV_SEED", 42);
    let workloads = env_str("CHANT_KV_WORKLOADS", "a,b,c,a-uniform");
    let deadline = Instant::now() + Duration::from_secs(env_u64("CHANT_KV_DEADLINE", 3000));

    let mut parts = Vec::new();
    for backend in backends.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if backend == "tcp-event" && !cfg!(target_os = "linux") {
            eprintln!("[kv_loadgen] skipping tcp-event (not linux)");
            continue;
        }
        eprintln!("[kv_loadgen] running backend {backend} …");
        let t = Instant::now();
        let part = run_backend(backend, pes, deadline);
        eprintln!("[kv_loadgen] backend {backend} done in {:.1}s", t.elapsed().as_secs_f64());
        parts.push(part);
    }
    assert!(!parts.is_empty(), "no backend produced results");

    // The parts are complete JSON objects; splice them verbatim so the
    // driver needs no JSON parser.
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"snapshot\": \"BENCH_PR10\",\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!("  \"processes\": {pes},\n"));
    out.push_str(&format!("  \"ops_per_workload\": {ops},\n"));
    out.push_str(&format!("  \"keys\": {keys},\n"));
    out.push_str(&format!("  \"value_bytes\": {val},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"workloads\": \"{workloads}\",\n"));
    out.push_str("  \"backends\": [\n");
    for (i, p) in parts.iter().enumerate() {
        for line in p.trim().lines() {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        if i + 1 < parts.len() {
            out.truncate(out.trim_end().len());
            out.push_str(",\n");
        }
    }
    out.push_str("  ]\n}\n");

    let path = std::env::var("CHANT_KV_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| results_dir().join("BENCH_PR10.json"));
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("KVLOADGEN-DONE wrote {}", path.display());
}

// ---------------------------------------------------------------------
// Worker: one cluster run (all PEs in-process, or this process's rank).
// ---------------------------------------------------------------------

/// One op type's merged latency digest.
#[derive(Serialize)]
struct OpLatency {
    ops: u64,
    mean_ns: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

impl OpLatency {
    fn from_snapshot(s: &HistogramSnapshot) -> OpLatency {
        let p = s.percentiles();
        OpLatency {
            ops: s.count,
            mean_ns: s.mean() as u64,
            p50_ns: p.p50,
            p90_ns: p.p90,
            p99_ns: p.p99,
            p999_ns: p.p999,
        }
    }
}

#[derive(Serialize)]
struct WorkloadOut {
    workload: String,
    skew: String,
    ops: u64,
    wall_ms: u64,
    throughput_ops_per_s: u64,
    read: OpLatency,
    update: OpLatency,
}

#[derive(Serialize)]
struct KvCounters {
    mutations: u64,
    reads: u64,
    read_misses: u64,
    dup_replayed: u64,
    stale_dropped: u64,
    repl_sent: u64,
    repl_retries: u64,
    staged_bulk: u64,
}

#[derive(Serialize)]
struct BackendOut {
    backend: String,
    multi_process: bool,
    preload_keys: u64,
    /// Σ primary shard versions across the cluster after the drain.
    version_sum: u64,
    /// Every acknowledged mutation (preload + updates), client-counted.
    acked_mutations: u64,
    kv_counters: KvCounters,
    workloads: Vec<WorkloadOut>,
}

/// Per-workload wire report: `[wall_ns, reads_hist…, updates_hist…]`,
/// all little-endian u64 words.
fn encode_hist(b: &mut BytesMut, s: &HistogramSnapshot) {
    b.put_u64_le(s.count);
    b.put_u64_le(s.sum);
    b.put_u64_le(s.buckets.len() as u64);
    for &c in &s.buckets {
        b.put_u64_le(c);
    }
}

fn decode_hist(body: &[u8], at: &mut usize) -> HistogramSnapshot {
    let mut word = || {
        let w = u64::from_le_bytes(body[*at..*at + 8].try_into().expect("hist word"));
        *at += 8;
        w
    };
    let count = word();
    let sum = word();
    let n = word() as usize;
    HistogramSnapshot { count, sum, buckets: (0..n).map(|_| word()).collect() }
}

fn run_worker() {
    let transport = TransportConfig::from_env();
    let backend = env_str("CHANT_KV_BACKEND", "inproc");
    let pes = env_u64("CHANT_KV_PES", 4) as u32;
    let multi_process = matches!(
        &transport,
        TransportConfig::TcpEvent(o) if o.rank.is_some()
    );
    let my_rank: u32 = std::env::var("CHANT_RANK").ok().and_then(|s| s.parse().ok()).unwrap_or(0);

    let ops = env_u64("CHANT_KV_OPS", 250_000);
    let keys = env_u64("CHANT_KV_KEYS", 50_000);
    let val_len = env_u64("CHANT_KV_VAL", 100) as usize;
    let clients = env_u64("CHANT_KV_CLIENTS", 4).max(1);
    let seed = env_u64("CHANT_KV_SEED", 42);
    let workloads: Vec<(MixSpec, KeyDist)> = env_str("CHANT_KV_WORKLOADS", "a,b,c,a-uniform")
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|t| parse_workload(t).unwrap_or_else(|| panic!("unknown workload {t:?}")))
        .collect();
    assert!(!workloads.is_empty(), "no workloads configured");

    let summary: Arc<Mutex<Option<BackendOut>>> = Arc::new(Mutex::new(None));
    let summary2 = Arc::clone(&summary);

    let cluster = with_kv(ChantCluster::builder().pes(pes).transport(transport)).build();
    cluster.run(move |node| {
        kv_await_ready(node, PATIENCE).expect("kv ready");
        let me = node.self_id();
        let pe = me.pe;
        let rank0 = ChanterId::new(0, 0, me.thread);
        let members: Vec<_> = (0..pes).map(|p| ChanterId::new(p, 0, me.thread)).collect();
        let group = ChantGroup::new(node, members, GROUP_TAG).expect("loadgen group");

        // Preload: rank r loads keys r, r+pes, … so the whole key space
        // exists before any mix runs.
        let mut loader = KvClient::new(node);
        let mut acked: u64 = 0;
        let mut i = u64::from(pe);
        while i < keys {
            loader.put(&key_of(i), &value_of(i, val_len)).expect("preload put");
            acked += 1;
            i += u64::from(pes);
        }
        group.barrier(node).expect("preload barrier");

        let mut outs: Vec<WorkloadOut> = Vec::new();
        for (widx, &(mix, dist)) in workloads.iter().enumerate() {
            group.barrier(node).expect("mix start barrier");
            let t0 = Instant::now();

            // This rank's share of the ops, split over client threads.
            let rank_ops = ops / u64::from(pes)
                + u64::from(u64::from(pe) < ops % u64::from(pes));
            let read_hist = Arc::new(Histogram::default());
            let update_hist = Arc::new(Histogram::default());
            let mut threads = Vec::new();
            for c in 0..clients {
                let share = rank_ops / clients + u64::from(c < rank_ops % clients);
                let read_hist = Arc::clone(&read_hist);
                let update_hist = Arc::clone(&update_hist);
                // Distinct deterministic streams per (workload, rank,
                // client): one for key choice, one for the op mix.
                let kseed = seed ^ (widx as u64) << 40 ^ u64::from(pe) << 20 ^ c;
                threads.push(node.spawn_chanter(
                    SpawnAttr::new().stack_size(CLIENT_STACK),
                    move |node| {
                        let mut kv = KvClient::new(node);
                        let mut chooser = KeyChooser::new(keys, dist, kseed);
                        let mut ops_rng = SplitMix64::new(kseed ^ 0xA5A5_5A5A);
                        let mut updates: u64 = 0;
                        for _ in 0..share {
                            let k = chooser.next_key();
                            let key = key_of(k);
                            let t = Instant::now();
                            match next_op(mix, &mut ops_rng) {
                                OpKind::Read => {
                                    let got = kv.get(&key).expect("get");
                                    read_hist.record(t.elapsed().as_nanos() as u64);
                                    // Preload covered the whole space.
                                    assert!(got.is_some(), "preloaded key missing");
                                }
                                OpKind::Update => {
                                    kv.put(&key, &value_of(k, val_len)).expect("put");
                                    update_hist.record(t.elapsed().as_nanos() as u64);
                                    updates += 1;
                                }
                            }
                        }
                        Bytes::copy_from_slice(&updates.to_le_bytes())
                    },
                ));
            }
            for t in threads {
                let body = node.remote_join(t).expect("client thread");
                acked += u64::from_le_bytes(body[..8].try_into().expect("update count"));
            }
            let wall_ns = t0.elapsed().as_nanos() as u64;
            group.barrier(node).expect("mix end barrier");

            let read_snap = read_hist.snapshot();
            let update_snap = update_hist.snapshot();
            if pe != 0 {
                let mut b = BytesMut::new();
                b.put_u64_le(wall_ns);
                encode_hist(&mut b, &read_snap);
                encode_hist(&mut b, &update_snap);
                node.send_bytes(rank0, REPORT_TAG, b.freeze()).expect("ship mix report");
            } else {
                let mut wall_max = wall_ns;
                let mut read_all = read_snap;
                let mut update_all = update_snap;
                for _ in 1..pes {
                    let (_info, body) = node.recv_tag(REPORT_TAG).expect("mix report");
                    let mut at = 0usize;
                    let w = u64::from_le_bytes(body[..8].try_into().expect("wall"));
                    at += 8;
                    wall_max = wall_max.max(w);
                    read_all.merge(&decode_hist(&body, &mut at));
                    update_all.merge(&decode_hist(&body, &mut at));
                }
                let total = read_all.count + update_all.count;
                assert_eq!(total, ops, "every configured op ran exactly once");
                outs.push(WorkloadOut {
                    workload: mix.name.to_string(),
                    skew: match dist {
                        KeyDist::Zipfian => "zipfian".to_string(),
                        KeyDist::Uniform => "uniform".to_string(),
                    },
                    ops: total,
                    wall_ms: wall_max / 1_000_000,
                    throughput_ops_per_s: (total as f64
                        / (wall_max as f64 / 1_000_000_000.0)) as u64,
                    read: OpLatency::from_snapshot(&read_all),
                    update: OpLatency::from_snapshot(&update_all),
                });
            }
        }

        // Close the loop: drain replication everywhere, then check the
        // exactly-once ledger — Σ primary shard versions must equal the
        // client-side count of acknowledged mutations.
        kv_drain(node, PATIENCE).expect("drain");
        group.barrier(node).expect("drain barrier");
        let vsum = kv_version_sum(node);
        let st = kv_stats(node);
        if pe != 0 {
            let mut b = BytesMut::new();
            for v in [
                vsum,
                acked,
                st.mutations,
                st.reads,
                st.read_misses,
                st.dup_replayed,
                st.stale_dropped,
                st.repl_sent,
                st.repl_retries,
                st.staged_bulk,
            ] {
                b.put_u64_le(v);
            }
            node.send_bytes(rank0, ACCOUNT_TAG, b.freeze()).expect("ship accounting");
        } else {
            let mut vsum_all = vsum;
            let mut acked_all = acked;
            let mut counters = KvCounters {
                mutations: st.mutations,
                reads: st.reads,
                read_misses: st.read_misses,
                dup_replayed: st.dup_replayed,
                stale_dropped: st.stale_dropped,
                repl_sent: st.repl_sent,
                repl_retries: st.repl_retries,
                staged_bulk: st.staged_bulk,
            };
            for _ in 1..pes {
                let (_info, body) = node.recv_tag(ACCOUNT_TAG).expect("accounting report");
                let word = |i: usize| {
                    u64::from_le_bytes(body[i * 8..(i + 1) * 8].try_into().expect("word"))
                };
                vsum_all += word(0);
                acked_all += word(1);
                counters.mutations += word(2);
                counters.reads += word(3);
                counters.read_misses += word(4);
                counters.dup_replayed += word(5);
                counters.stale_dropped += word(6);
                counters.repl_sent += word(7);
                counters.repl_retries += word(8);
                counters.staged_bulk += word(9);
            }
            assert_eq!(
                vsum_all, acked_all,
                "exactly-once ledger: Σ shard versions must equal acked mutations"
            );
            *summary2.lock().unwrap() = Some(BackendOut {
                backend: backend.clone(),
                multi_process,
                preload_keys: keys,
                version_sum: vsum_all,
                acked_mutations: acked_all,
                kv_counters: counters,
                workloads: std::mem::take(&mut outs),
            });
        }
        // Keep every rank alive until rank 0 has all reports.
        group.barrier(node).expect("final barrier");
    });

    let snapshot = summary.lock().unwrap().take();
    if let Some(snapshot) = snapshot {
        let part = std::env::var("CHANT_KV_PART").expect("CHANT_KV_PART for rank 0");
        let json = serde_json::to_string_pretty(&snapshot).expect("serialize part");
        std::fs::write(&part, json + "\n").unwrap_or_else(|e| panic!("write {part}: {e}"));
        println!(
            "KVLOAD-OK rank=0 backend={} vsum={} acked={}",
            snapshot.backend, snapshot.version_sum, snapshot.acked_mutations
        );
    } else {
        println!("KVLOAD-OK rank={my_rank}");
    }
}
