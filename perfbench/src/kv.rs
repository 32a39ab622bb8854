//! The two KV workloads: YCSB-A across two OS processes over
//! `tcp-event` (`kv-mixed-xproc`) and YCSB-C on two in-process PEs
//! (`kv-read-inproc`). Closed loops: each client ULT issues its next op
//! only when the previous one returned.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_bench::load::{
    key_of, next_op, value_of, KeyChooser, KeyDist, MixSpec, OpKind, SplitMix64, YCSB_A, YCSB_C,
};
use chant_comm::Address;
use chant_core::{ChantNode, ChanterId};
use chant_kv::{kv_await_ready, kv_drain, kv_version_sum, with_kv_config, KvClient, KvConfig};
use chant_ult::SpawnAttr;

use crate::counters::Service;
use crate::harness::{self, must, Placement, DONE_TAG, LEDGER_TAG, PATIENCE, STOP_TAG};
use crate::outcome::{ClusterOut, PhaseOut, WorkloadOut};
use crate::probes;
use crate::trace::{self, Span, SpanLog};
use crate::{Params, Phase};

/// Value size: below `inline_max`, so replication ships values inline
/// and the RMA staging path stays idle.
pub const VAL_LEN: usize = 100;
/// Concurrent loader threads per PE during the preload.
const LOADERS: u64 = 4;
/// Client threads only drive blocking KV ops; keep their stacks small.
const CLIENT_STACK: usize = 256 * 1024;
/// Span names the KV clients record.
const SPAN_NAMES: [&str; 2] = ["kv.get", "kv.put"];

/// One KV workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct KvSpec {
    pub mix: MixSpec,
    /// Ranks run as separate OS processes over `tcp-event`.
    pub xproc: bool,
    /// The PE each client thread runs on.
    pub client_pes: &'static [u32],
}

pub const MIXED_XPROC: KvSpec = KvSpec {
    mix: YCSB_A,
    xproc: true,
    client_pes: &[0, 0],
};
pub const READ_INPROC: KvSpec = KvSpec {
    mix: YCSB_C,
    xproc: false,
    client_pes: &[0, 1],
};

/// The KV service configuration, every field set explicitly (the
/// values are today's defaults).
// The struct update is for fields a later runtime adds: they take the
// runtime's default instead of breaking the benchmark's build.
#[allow(clippy::needless_update)]
fn pinned_config() -> KvConfig {
    KvConfig {
        shards: 32,
        vnodes: 64,
        inline_max: 1024,
        slot_bytes: 64 * 1024,
        snap_slot_bytes: 256 * 1024,
        lease: Duration::from_secs(2),
        lease_renew: Some(Duration::from_millis(500)),
        tick: Duration::from_millis(2),
        op_patience: Duration::from_secs(30),
        daemon_op_timeout: Duration::from_secs(1),
        suspect_for: Duration::from_millis(250),
        ..KvConfig::default()
    }
}

/// One client thread's outcome over one phase.
#[derive(Clone, Debug, Default)]
struct ClientOut {
    reads: u64,
    updates: u64,
    /// Ops that returned an error (timeout, refusal).
    errors: u64,
    /// Puts among `errors`: their fate is unknown to the ledger.
    put_errors: u64,
    /// Gets that returned anything but `value_of(key)`.
    wrong: u64,
    wall_ns: u64,
    read_ns: Vec<u64>,
    update_ns: Vec<u64>,
    spans: Vec<Span>,
}

impl ClientOut {
    fn encode(&self, log: &SpanLog) -> Bytes {
        let mut out = Vec::new();
        let head = [
            self.reads,
            self.updates,
            self.errors,
            self.put_errors,
            self.wrong,
            self.wall_ns,
            self.read_ns.len() as u64,
            self.update_ns.len() as u64,
        ];
        for w in head.iter().chain(&self.read_ns).chain(&self.update_ns) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&log.encode());
        Bytes::from(out)
    }

    fn decode(body: &[u8]) -> ClientOut {
        let word =
            |i: usize| u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().expect("client word"));
        let (nr, nu) = (word(6) as usize, word(7) as usize);
        let end = (8 + nr + nu) * 8;
        ClientOut {
            reads: word(0),
            updates: word(1),
            errors: word(2),
            put_errors: word(3),
            wrong: word(4),
            wall_ns: word(5),
            read_ns: (8..8 + nr).map(word).collect(),
            update_ns: (8 + nr..8 + nr + nu).map(word).collect(),
            spans: trace::decode(&body[end..], &SPAN_NAMES)
                .unwrap_or_else(|| harness::fatal("malformed client spans")),
        }
    }
}

/// Arguments of the `kv_client` entry.
struct ClientArgs {
    index: u64,
    /// Thread id of PE 0's main thread, told when the client is done.
    coordinator: u64,
    seed: u64,
    dur_ns: u64,
    read_pct: u64,
    keys: u64,
    traced: bool,
}

impl ClientArgs {
    fn encode(&self) -> Vec<u8> {
        [
            self.index,
            self.coordinator,
            self.seed,
            self.dur_ns,
            self.read_pct,
            self.keys,
            u64::from(self.traced),
        ]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
    }

    fn decode(b: &[u8]) -> ClientArgs {
        let word =
            |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("client arg"));
        ClientArgs {
            index: word(0),
            coordinator: word(1),
            seed: word(2),
            dur_ns: word(3),
            read_pct: word(4),
            keys: word(5),
            traced: word(6) == 1,
        }
    }
}

/// `kv_client` entry: a closed loop of YCSB ops for `dur_ns`.
fn client_entry(node: &Arc<ChantNode>, arg: Bytes) -> Bytes {
    let a = ClientArgs::decode(&arg);
    let mix = MixSpec {
        name: "",
        read_pct: a.read_pct as u32,
    };
    let kseed = a.seed ^ (a.index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut chooser = KeyChooser::new(a.keys, KeyDist::Zipfian, kseed);
    let mut ops_rng = SplitMix64::new(kseed ^ 0xA5A5_5A5A);
    let mut log = SpanLog::new(a.traced, a.index + 1);
    let mut kv = KvClient::new(node);
    let mut out = ClientOut::default();
    let t0 = Instant::now();
    let stop = t0 + Duration::from_nanos(a.dur_ns);
    let mut op: u64 = 0;
    while Instant::now() < stop {
        op += 1;
        let k = chooser.next_key();
        let key = key_of(k);
        let want = value_of(k, VAL_LEN);
        let t = Instant::now();
        let s = log.begin();
        match next_op(mix, &mut ops_rng) {
            OpKind::Read => {
                let got = kv.get(&key);
                let ns = t.elapsed().as_nanos() as u64;
                log.end("kv.get", 0, op, s);
                out.reads += 1;
                match got {
                    Ok(Some((_ver, v))) if v[..] == want[..] => out.read_ns.push(ns),
                    Ok(_) => out.wrong += 1,
                    Err(_) => out.errors += 1,
                }
            }
            OpKind::Update => {
                let r = kv.put(&key, &want);
                let ns = t.elapsed().as_nanos() as u64;
                log.end("kv.put", 0, op, s);
                out.updates += 1;
                match r {
                    Ok(_) => out.update_ns.push(ns),
                    Err(_) => {
                        out.errors += 1;
                        out.put_errors += 1;
                    }
                }
            }
        }
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    let coordinator = ChanterId::new(0, 0, a.coordinator as u32);
    must("report done", node.send(coordinator, DONE_TAG, b""));
    out.encode(&log)
}

/// The pinned KV cluster.
fn builder(placement: &Placement) -> chant_core::ClusterBuilder {
    with_kv_config(harness::pinned_builder(placement), pinned_config())
        .entry("kv_client", client_entry)
}

/// Preload this PE's stride of the key space (keys `pe, pe + 2, …`)
/// from [`LOADERS`] concurrent threads; returns the puts acknowledged.
fn preload(node: &Arc<ChantNode>, keys: u64) -> u64 {
    let pe = u64::from(node.pe());
    let loaders: Vec<_> = (0..LOADERS)
        .map(|l| {
            node.spawn_chanter(SpawnAttr::new().stack_size(CLIENT_STACK), move |node| {
                let mut kv = KvClient::new(node);
                let mut acked = 0u64;
                let mut i = pe + 2 * l;
                while i < keys {
                    must("preload put", kv.put(&key_of(i), &value_of(i, VAL_LEN)));
                    acked += 1;
                    i += 2 * LOADERS;
                }
                Bytes::copy_from_slice(&acked.to_le_bytes())
            })
        })
        .collect();
    loaders
        .into_iter()
        .map(|id| {
            let b = must("join loader", node.remote_join(id));
            u64::from_le_bytes(b[..8].try_into().expect("loader count"))
        })
        .sum()
}

/// Everything PE 0 learned from one cluster.
struct RunOut {
    cluster: ClusterOut,
    spans: Vec<Span>,
    /// Σ primary shard versions vs acknowledged mutations, and the
    /// puts whose fate is unknown.
    vsum: u64,
    acked: u64,
    unknown: u64,
    /// Gets that returned a wrong value, and `kv.dup_replayed`.
    wrong: u64,
    dup_replayed: u64,
}

/// PE 1's main thread: preload, serve until told to stop, then report
/// its ledger words.
fn serve(node: &Arc<ChantNode>, keys: u64) {
    must("kv ready", kv_await_ready(node, PATIENCE));
    let acked = preload(node, keys);
    must("preload drain", kv_drain(node, PATIENCE));
    let group = harness::pair(node);
    must("preload fence", group.barrier(node));
    must("stop", node.recv_tag(STOP_TAG));
    must("drain", kv_drain(node, PATIENCE));
    must("drain fence", group.barrier(node));
    let words: Vec<u8> = [kv_version_sum(node), acked]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    must(
        "ship ledger",
        node.send(harness::peer_main(node), LEDGER_TAG, &words),
    );
    must("final fence", group.barrier(node));
}

/// One timed phase: spawn the clients, join them, and charge the
/// cluster's counter deltas to what they did.
fn time_phase(
    node: &Arc<ChantNode>,
    spec: KvSpec,
    job: &Job,
    index: u64,
    ph: &Phase,
) -> (PhaseOut, Vec<ClientOut>) {
    let before = harness::cluster_counters(node, Service::Kv, spec.xproc);
    let ids: Vec<_> = spec
        .client_pes
        .iter()
        .enumerate()
        .map(|(c, &pe)| {
            let args = ClientArgs {
                index: index * spec.client_pes.len() as u64 + c as u64,
                coordinator: u64::from(node.self_id().thread),
                seed: job.seed,
                dur_ns: ph.dur.as_nanos() as u64,
                read_pct: u64::from(spec.mix.read_pct),
                keys: job.keys,
                traced: ph.traced,
            };
            must(
                "spawn client",
                node.remote_spawn(Address::new(pe, 0), "kv_client", &args.encode()),
            )
        })
        .collect();
    for _ in &ids {
        must("client done", node.recv_tag(DONE_TAG));
    }
    let clients: Vec<ClientOut> = ids
        .into_iter()
        .map(|id| ClientOut::decode(&must("join client", node.remote_join(id))))
        .collect();
    let after = harness::cluster_counters(node, Service::Kv, spec.xproc);
    let reads: Vec<u64> = clients
        .iter()
        .flat_map(|c| c.read_ns.iter().copied())
        .collect();
    let updates: Vec<u64> = clients
        .iter()
        .flat_map(|c| c.update_ns.iter().copied())
        .collect();
    let out = PhaseOut {
        traced: ph.traced,
        wall_ns: clients.iter().map(|c| c.wall_ns).max().unwrap_or(0),
        op_ns: reads.iter().chain(&updates).copied().collect(),
        by_kind: vec![("read", reads), ("update", updates)],
        attempted: clients.iter().map(|c| c.reads + c.updates).sum(),
        failed: clients.iter().map(|c| c.errors + c.wrong).sum(),
        threads_peak: before.get("proc.threads").max(after.get("proc.threads")),
        counters: after.delta(&before),
    };
    (out, clients)
}

/// What one cluster's PE 0 is asked to do.
#[derive(Clone)]
struct Job {
    seed: u64,
    keys: u64,
    /// This cluster's index within the run (distinct client streams).
    cluster: u64,
    phases: Vec<Phase>,
    probe_iters: usize,
    /// Run the isolation probes after the phases.
    probe: bool,
}

/// PE 0's main thread: preload, time the phases, probe, then close the
/// exactly-once ledger.
fn coordinate(node: &Arc<ChantNode>, spec: KvSpec, job: &Job, t0: Instant) -> RunOut {
    must("kv ready", kv_await_ready(node, PATIENCE));
    let mut acked = preload(node, job.keys);
    must("preload drain", kv_drain(node, PATIENCE));
    let group = harness::pair(node);
    must("preload fence", group.barrier(node));
    let setup_s = t0.elapsed().as_secs_f64();

    let mut phases = Vec::new();
    let mut spans = Vec::new();
    let (mut unknown, mut wrong, mut dup_replayed) = (0, 0, 0);
    for (i, ph) in job.phases.iter().enumerate() {
        let (out, clients) = time_phase(node, spec, job, job.cluster * 1_000 + i as u64, ph);
        acked += out.kind("update").len() as u64;
        unknown += clients.iter().map(|c| c.put_errors).sum::<u64>();
        wrong += clients.iter().map(|c| c.wrong).sum::<u64>();
        dup_replayed += out.counters.get("kv.dup_replayed");
        spans.extend(clients.into_iter().flat_map(|c| c.spans));
        phases.push(out);
    }
    let probes = job.probe.then(|| {
        let mut log = SpanLog::new(true, 0);
        let probe = probes::run(node, job.probe_iters, spec.xproc, &mut log);
        spans.extend_from_slice(log.spans());
        probe
    });

    must("stop", node.send(harness::peer_main(node), STOP_TAG, b""));
    must("drain", kv_drain(node, PATIENCE));
    must("drain fence", group.barrier(node));
    let (_info, body) = must("ledger", node.recv_tag(LEDGER_TAG));
    let word =
        |i: usize| u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().expect("ledger word"));
    let vsum = kv_version_sum(node) + word(0);
    acked += word(1);
    must("final fence", group.barrier(node));
    RunOut {
        cluster: ClusterOut {
            setup_s,
            phases,
            probes,
        },
        spans,
        vsum,
        acked,
        unknown,
        wrong,
        dup_replayed,
    }
}

/// Rank 1 of the cross-process workload: serve until PE 0 stops us.
pub fn run_rank1(ports: Vec<u16>, p: &Params) {
    let placement = Placement::Rank { rank: 1, ports };
    let keys = p.keys;
    builder(&placement)
        .build()
        .run(move |node| serve(node, keys));
}

/// Run the workload on `p.setups` clusters in turn; each is built, made
/// ready, preloaded and drained (its set-up), then runs `phases`. The
/// last cluster of a traced run also runs the isolation probes.
pub fn run(
    spec: KvSpec,
    p: &Params,
    seed: u64,
    phases: &[Phase],
    deadline: Instant,
) -> WorkloadOut {
    let mut w = WorkloadOut::default();
    for s in 0..p.setups {
        let job = Job {
            seed,
            keys: p.keys,
            cluster: s as u64,
            phases: phases.to_vec(),
            probe_iters: p.probe_iters,
            probe: s + 1 == p.setups && phases.iter().any(|ph| ph.traced),
        };
        let t0 = Instant::now();
        let placement = if spec.xproc {
            let ports = harness::free_ports(2);
            let list = ports
                .iter()
                .map(u16::to_string)
                .collect::<Vec<_>>()
                .join(",");
            harness::spawn_rank1(&p.rank1_args(&list));
            Placement::Rank { rank: 0, ports }
        } else {
            Placement::InProcess
        };
        let slot: Arc<Mutex<Option<RunOut>>> = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        builder(&placement).build().run(move |node| {
            if node.pe() == 0 {
                let o = coordinate(node, spec, &job, t0);
                *slot2.lock().expect("result slot") = Some(o);
            } else {
                serve(node, job.keys);
            }
        });
        harness::collect_rank1(deadline);
        let o = slot
            .lock()
            .expect("result slot")
            .take()
            .unwrap_or_else(|| harness::fatal("PE 0 left no result"));
        // Exactly-once: every acknowledged mutation is in the versions,
        // plus at most the puts whose outcome the client never learned.
        if o.vsum < o.acked || o.vsum > o.acked + o.unknown {
            w.violations.push(format!(
                "cluster {s}: exactly-once ledger: shard version sum {} vs {} acknowledged ({} unknown)",
                o.vsum, o.acked, o.unknown
            ));
        }
        if o.wrong > 0 {
            w.violations.push(format!(
                "cluster {s}: {} gets returned a value other than value_of(key)",
                o.wrong
            ));
        }
        if o.dup_replayed > 0 {
            w.violations.push(format!(
                "cluster {s}: kv.dup_replayed = {} in a faultless run",
                o.dup_replayed
            ));
        }
        w.spans.extend(o.spans);
        w.clusters.push(o.cluster);
    }
    w
}
