//! One rank of the pub-sub fan-out benchmark: one publisher thread
//! against `CHANT_FANOUT_SUBS` subscriber threads spread over the
//! cluster's OS processes, dumped to `bench_results/BENCH_PR9.json`.
//!
//! Spawned N times (normally 4) with the standard rank/port bootstrap
//! environment (`CHANT_TRANSPORT`, `CHANT_RANK`, `CHANT_PEERS` — see
//! `xproc_node`). Every rank hosts its share of the subscriber threads;
//! rank 0's main thread is the publisher. The topic is chosen so its
//! home is rank 0: the fan-out tree is rooted at the origin and a
//! publish crosses each inter-process link exactly once before the last
//! hop fans out locally to the rank's whole subscriber population.
//!
//! Measured, per delivery: publisher wall clock at `publish` (stamped
//! into the frame as `sent_ns`) to subscriber wall clock at `recv` —
//! one shared clock, since every process runs on this host. Each rank
//! ships its samples and pub-sub counters to rank 0 over the cluster's
//! own messaging; rank 0 merges, checks the tree-economy invariant
//! (data frames per publish scale with tree *edges*, deliveries with
//! *subscribers*), and writes the snapshot.
//!
//! Knobs: `CHANT_FANOUT_SUBS` (total subscribers, default 10 000),
//! `CHANT_FANOUT_MSGS` (publishes, default 8), `CHANT_FANOUT_OUT`
//! (snapshot path, default `bench_results/BENCH_PR9.json`).
//!
//! Run by hand from the repo root (one line per rank, same ports):
//! `CHANT_TRANSPORT=tcp-event CHANT_RANK=<r> CHANT_PEERS=127.0.0.1:7301,… \
//!  cargo run --release -p chant-bench --bin fanout_node`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use bytes::{BufMut, Bytes, BytesMut};
use chant_bench::results_dir;
use chant_core::{ChantCluster, ChantGroup, ChanterId, TransportConfig};
use chant_pubsub::{home_of, with_pubsub, PubsubNode, PubsubStatsSnapshot};
use chant_ult::SpawnAttr;
use serde::Serialize;

/// Home = PE 0 = the publisher, whatever the PE count.
const TOPIC: u64 = 0;
/// Tag the non-zero ranks ship their sample/counter reports on.
const REPORT_TAG: i32 = 7100;
/// Per-delivery deadline: a wedged run fails loudly, not silently.
const PATIENCE: Duration = Duration::from_secs(120);
/// Subscriber threads are shallow (subscribe, recv loop, encode): a
/// small stack keeps 10k of them cheap.
const SUB_STACK: usize = 256 * 1024;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// This rank's slice of the subscriber population (remainder to the
/// low ranks, so any total divides).
fn subs_on(rank: u32, pes: u32, total: u64) -> u64 {
    total / u64::from(pes) + u64::from(u64::from(rank) < total % u64::from(pes))
}

/// Wire form of one rank's report: 10 counter words, a sample count,
/// then the raw latency samples, all little-endian u64.
fn encode_report(stats: &PubsubStatsSnapshot, lats: &[u64]) -> Bytes {
    let mut b = BytesMut::with_capacity(11 * 8 + lats.len() * 8);
    for v in [
        stats.published,
        stats.delivered,
        stats.forwarded,
        stats.acks,
        stats.retransmits,
        stats.dup_dropped,
        stats.expired,
        stats.resyncs,
        stats.control_updates,
        stats.malformed,
    ] {
        b.put_u64_le(v);
    }
    b.put_u64_le(lats.len() as u64);
    for &l in lats {
        b.put_u64_le(l);
    }
    b.freeze()
}

fn decode_report(body: &[u8]) -> (PubsubStatsSnapshot, Vec<u64>) {
    let word = |i: usize| {
        u64::from_le_bytes(body[i * 8..(i + 1) * 8].try_into().expect("report word"))
    };
    let stats = PubsubStatsSnapshot {
        published: word(0),
        delivered: word(1),
        forwarded: word(2),
        acks: word(3),
        retransmits: word(4),
        dup_dropped: word(5),
        expired: word(6),
        resyncs: word(7),
        control_updates: word(8),
        malformed: word(9),
    };
    let n = word(10) as usize;
    let lats = (0..n).map(|i| word(11 + i)).collect();
    (stats, lats)
}

/// `q`-quantile of an already-sorted sample set (nearest-rank).
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[derive(Serialize)]
struct RankCounters {
    rank: u32,
    subscribers: u64,
    published: u64,
    delivered: u64,
    forwarded: u64,
    acks: u64,
    retransmits: u64,
    dup_dropped: u64,
    resyncs: u64,
}

#[derive(Serialize)]
struct Latency {
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

#[derive(Serialize)]
struct Snapshot {
    snapshot: String,
    host_cores: usize,
    processes: u32,
    subscribers: u64,
    messages: u64,
    samples: u64,
    /// Publisher `publish()` wall clock to subscriber `recv` wall clock.
    publish_to_deliver: Latency,
    /// Data frames sent down fan-out-tree edges, cluster-wide: the
    /// per-link traffic the tree is supposed to bound.
    tree_data_frames: u64,
    /// Messages handed to subscriber queues, cluster-wide.
    deliveries: u64,
    /// `tree_data_frames / messages` — O(tree edges), i.e. about the
    /// number of subscriber *nodes*, independent of subscriber count.
    frames_per_publish: f64,
    /// `deliveries / messages` — O(subscribers), for contrast.
    deliveries_per_publish: f64,
    per_rank: Vec<RankCounters>,
}

fn main() {
    let transport = TransportConfig::from_env();
    let (rank, pes) = match &transport {
        TransportConfig::TcpEvent(opts) => (
            opts.rank.expect("fanout_node needs CHANT_RANK"),
            opts.peers.len() as u32,
        ),
        _ => panic!("fanout_node needs CHANT_TRANSPORT=tcp-event and CHANT_PEERS"),
    };
    assert!(pes >= 2, "fanout_node needs at least two peers");
    assert_eq!(
        home_of(TOPIC, pes, 1),
        chant_comm::Address::new(0, 0),
        "benchmark topic must be homed at the publisher"
    );
    let total_subs = env_u64("CHANT_FANOUT_SUBS", 10_000);
    let msgs = env_u64("CHANT_FANOUT_MSGS", 8);
    let my_subs = subs_on(rank, pes, total_subs);

    let summary: Arc<Mutex<Option<Snapshot>>> = Arc::new(Mutex::new(None));
    let summary2 = Arc::clone(&summary);

    let cluster = with_pubsub(ChantCluster::builder().pes(pes).transport(transport)).build();
    cluster.run(move |node| {
        let me = node.self_id();
        let ready = Arc::new(AtomicU64::new(0));

        // This rank's subscriber population. Each thread records one
        // latency sample per delivery and returns them as its exit
        // value; the main thread harvests via join.
        let mut workers = Vec::with_capacity(my_subs as usize);
        for _ in 0..my_subs {
            let ready = Arc::clone(&ready);
            workers.push(node.spawn_chanter(
                SpawnAttr::new().stack_size(SUB_STACK),
                move |node| {
                    let sub = node.subscribe(TOPIC).expect("subscribe");
                    ready.fetch_add(1, Ordering::SeqCst);
                    let mut out = BytesMut::with_capacity(msgs as usize * 8);
                    for _ in 0..msgs {
                        let m = sub.recv_timeout(PATIENCE).expect("delivery within patience");
                        out.put_u64_le(unix_ns().saturating_sub(m.sent_ns));
                    }
                    out.freeze()
                },
            ));
        }
        while ready.load(Ordering::SeqCst) < my_subs {
            node.yield_now();
        }

        // Every rank's registration is home-side visible (subscribe is
        // a synchronous exactly-once RSR): fence, then publish.
        let members: Vec<_> = (0..pes).map(|pe| ChanterId::new(pe, 0, me.thread)).collect();
        let group = ChantGroup::new(node, members, 9).expect("bench group");
        group.barrier(node).expect("pre-publish barrier");

        if me.pe == 0 {
            for i in 1..=msgs {
                node.publish(TOPIC, &i.to_le_bytes()).expect("publish");
            }
        }

        let mut lats = Vec::with_capacity((my_subs * msgs) as usize);
        for w in workers {
            let body = node.remote_join(w).expect("subscriber thread");
            for chunk in body.chunks_exact(8) {
                lats.push(u64::from_le_bytes(chunk.try_into().expect("sample")));
            }
        }
        let stats = node.pubsub_stats();

        if me.pe != 0 {
            node.send_bytes(
                ChanterId::new(0, 0, me.thread),
                REPORT_TAG,
                encode_report(&stats, &lats),
            )
            .expect("ship report to rank 0");
        } else {
            let mut per_rank = vec![(0u32, stats, lats.len() as u64)];
            let mut all = lats;
            for _ in 1..pes {
                let (info, body) = node.recv_tag(REPORT_TAG).expect("rank report");
                let (rstats, rlats) = decode_report(&body);
                per_rank.push((info.src.pe, rstats, rlats.len() as u64));
                all.extend(rlats);
            }
            per_rank.sort_by_key(|(pe, _, _)| *pe);
            all.sort_unstable();

            let samples = all.len() as u64;
            assert_eq!(
                samples,
                total_subs * msgs,
                "every subscriber sees every publish exactly once"
            );
            let deliveries: u64 = per_rank.iter().map(|(_, s, _)| s.delivered).sum();
            let tree_frames: u64 = per_rank.iter().map(|(_, s, _)| s.forwarded).sum();
            let retrans: u64 = per_rank.iter().map(|(_, s, _)| s.retransmits).sum();
            assert_eq!(deliveries, samples, "queue handoffs match harvested samples");
            // The tree-economy invariant: per-link traffic is O(tree
            // edges) — a handful of frames per publish no matter how
            // many subscriber threads sit behind each node. The bound
            // is edges (< pes per publish) plus whatever loopback
            // retransmissions fired, with slack for a resync racing
            // the counter snapshot.
            assert!(
                tree_frames <= msgs * u64::from(pes) * 2 + retrans,
                "per-link traffic must scale with tree edges, not subscribers: \
                 {tree_frames} data frames for {msgs} publishes to {total_subs} subscribers"
            );

            let snapshot = Snapshot {
                snapshot: "BENCH_PR9".to_string(),
                host_cores: std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
                processes: pes,
                subscribers: total_subs,
                messages: msgs,
                samples,
                publish_to_deliver: Latency {
                    p50_ns: pct(&all, 0.50),
                    p90_ns: pct(&all, 0.90),
                    p99_ns: pct(&all, 0.99),
                    max_ns: all.last().copied().unwrap_or(0),
                },
                tree_data_frames: tree_frames,
                deliveries,
                frames_per_publish: tree_frames as f64 / msgs as f64,
                deliveries_per_publish: deliveries as f64 / msgs as f64,
                per_rank: per_rank
                    .iter()
                    .map(|(pe, s, n)| RankCounters {
                        rank: *pe,
                        subscribers: *n / msgs.max(1),
                        published: s.published,
                        delivered: s.delivered,
                        forwarded: s.forwarded,
                        acks: s.acks,
                        retransmits: s.retransmits,
                        dup_dropped: s.dup_dropped,
                        resyncs: s.resyncs,
                    })
                    .collect(),
            };
            *summary2.lock().unwrap() = Some(snapshot);
        }
        // Keep every rank's relay alive until rank 0 has its reports.
        group.barrier(node).expect("post-report barrier");
    });

    let snapshot = summary.lock().unwrap().take();
    if let Some(snapshot) = snapshot {
        let path = std::env::var("CHANT_FANOUT_OUT")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| results_dir().join("BENCH_PR9.json"));
        let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!(
            "FANOUT-OK rank=0 subs={} samples={} p50_us={} p99_us={} frames_per_publish={:.1} wrote {}",
            snapshot.subscribers,
            snapshot.samples,
            snapshot.publish_to_deliver.p50_ns / 1_000,
            snapshot.publish_to_deliver.p99_ns / 1_000,
            snapshot.frames_per_publish,
            path.display()
        );
    } else {
        println!("FANOUT-OK rank={rank} subs={my_subs}");
    }
}
