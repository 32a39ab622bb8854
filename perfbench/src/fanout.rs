//! `fanout-inproc`: one publisher thread on PE 0 against subscriber
//! threads split over two in-process PEs, one topic homed at PE 0.
//! Closed loop: the next publish waits until every subscriber has
//! received the previous one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use chant_core::{ChantNode, ChanterId, RecvSrc};
use chant_pubsub::{home_of, with_pubsub_config, PubsubConfig, PubsubNode};
use chant_ult::SpawnAttr;

use crate::counters::{Counters, Service};
use crate::harness::{self, must, Placement, ACK_TAG, PATIENCE, STOP_TAG};
use crate::outcome::{ClusterOut, PhaseOut, WorkloadOut};
use crate::probes::{self, ProbeOut};
use crate::trace::{Span, SpanLog};
use crate::{Params, Phase};

/// The topic; its home is PE 0, the publisher's node.
const TOPIC: u64 = 0;
/// Payload round number that tells subscribers to exit.
const STOP_ROUND: u64 = u64::MAX;
/// Subscriber threads are shallow: a small stack keeps many cheap.
const SUB_STACK: usize = 256 * 1024;
/// One subscriber in this many records `recv` spans when traced.
const SPAN_SAMPLE: u64 = 16;

/// The pub-sub service configuration, every field set explicitly (the
/// values are today's defaults).
// The struct update is for fields a later runtime adds: they take the
// runtime's default instead of breaking the benchmark's build.
#[allow(clippy::needless_update)]
fn pinned_config() -> PubsubConfig {
    PubsubConfig {
        resync_interval: Duration::from_millis(250),
        topic_timeout: Duration::from_secs(1),
        arity: 4,
        rto: Duration::from_millis(50),
        max_attempts: 10,
        dedup_window: 1024,
        ..PubsubConfig::default()
    }
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Subscribers on `pe` (remainder to PE 0).
fn subs_on(pe: u32, total: u64) -> u64 {
    total / 2 + u64::from(pe == 0 && total % 2 == 1)
}

/// One subscriber's record of the whole run.
#[derive(Default)]
struct SubOut {
    /// Per round received, in order: publish → receive, ns.
    lat_ns: Vec<u64>,
    /// Deliveries out of sequence, duplicated, or after the stop.
    wrong: u64,
    /// The subscriber gave up waiting for a delivery.
    timed_out: bool,
    spans: Vec<Span>,
}

struct Shared {
    /// Deliveries counted per PE; the one completing a round acks.
    got: [AtomicU64; 2],
    ready: [AtomicU64; 2],
    subs: Mutex<Vec<SubOut>>,
}

fn subscriber(
    node: &Arc<ChantNode>,
    sh: &Shared,
    publisher: ChanterId,
    per_pe: u64,
    sampled: bool,
    index: u64,
) -> SubOut {
    let pe = node.pe() as usize;
    let sub = must("subscribe", node.subscribe(TOPIC));
    sh.ready[pe].fetch_add(1, Ordering::SeqCst);
    let mut out = SubOut::default();
    let mut log = SpanLog::new(sampled, 1_000 + index);
    let mut expect = 1u64;
    loop {
        let s = log.begin();
        let m = match sub.recv_timeout(PATIENCE) {
            Ok(m) => m,
            Err(_) => {
                out.timed_out = true;
                break;
            }
        };
        let now = unix_ns();
        let word = |i: usize| {
            u64::from_le_bytes(
                m.payload[i * 8..i * 8 + 8]
                    .try_into()
                    .expect("payload word"),
            )
        };
        // Word 1 is the publisher's round span in a traced phase, else 0.
        let (round, round_span) = (word(0), word(1));
        if round == STOP_ROUND {
            break;
        }
        if round_span != 0 {
            log.end("recv", round_span, round, s);
        }
        if round != expect {
            out.wrong += 1;
        }
        expect = round + 1;
        out.lat_ns.push(now.saturating_sub(m.sent_ns));
        if sh.got[pe].fetch_add(1, Ordering::SeqCst) + 1 == per_pe * round {
            must(
                "ack round",
                node.send(publisher, ACK_TAG, &now.to_le_bytes()),
            );
        }
    }
    if !out.timed_out && must("drain queue", sub.try_recv()).is_some() {
        out.wrong += 1;
    }
    out.spans = log.spans().to_vec();
    out
}

fn payload(round: u64, round_span: u64) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&round.to_le_bytes());
    b[8..].copy_from_slice(&round_span.to_le_bytes());
    b
}

/// What the publisher saw of one phase.
struct Published {
    traced: bool,
    /// Rounds `first..first + round_ns.len()` (1-based).
    first: usize,
    round_ns: Vec<u64>,
    wall_ns: u64,
    counters: Counters,
    threads_peak: u64,
}

/// PE 0's main thread after the set-up fence: publish rounds until each
/// phase's time is up, then the stop message.
fn publish_phases(node: &Arc<ChantNode>, phases: &[Phase], log: &mut SpanLog) -> Vec<Published> {
    let mut round = 0u64;
    let mut outs = Vec::new();
    for ph in phases {
        let before = harness::cluster_counters(node, Service::Pubsub, false);
        let first = round as usize + 1;
        let mut round_ns = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed() < ph.dur {
            round += 1;
            let start = unix_ns();
            let rs = log.begin();
            let ps = log.begin();
            let round_span = if ph.traced { rs.id } else { 0 };
            must("publish", node.publish(TOPIC, &payload(round, round_span)));
            if ph.traced {
                log.end("publish", rs.id, round, ps);
            }
            let mut last = 0u64;
            for _ in 0..2 {
                let (_info, body) = must(
                    "round ack",
                    node.recv_timeout(RecvSrc::Any, Some(ACK_TAG), PATIENCE),
                );
                last = last.max(u64::from_le_bytes(body[..8].try_into().expect("ack stamp")));
            }
            if ph.traced {
                log.end("round", 0, round, rs);
            }
            round_ns.push(last.saturating_sub(start));
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let after = harness::cluster_counters(node, Service::Pubsub, false);
        outs.push(Published {
            traced: ph.traced,
            first,
            round_ns,
            wall_ns,
            threads_peak: before.get("proc.threads").max(after.get("proc.threads")),
            counters: after.delta(&before),
        });
    }
    must("publish stop", node.publish(TOPIC, &payload(STOP_ROUND, 0)));
    outs
}

struct RunOut {
    setup_s: f64,
    published: Vec<Published>,
    probes: Option<ProbeOut>,
    spans: Vec<Span>,
}

/// Run the workload on `p.setups` clusters in turn; each is built and
/// its subscribers spawned and subscribed (its set-up), then it runs
/// `phases`. The last cluster of a traced run also runs the isolation
/// probes.
pub fn run(p: &Params, phases: &[Phase]) -> WorkloadOut {
    assert_eq!(
        home_of(TOPIC, 2, 1),
        chant_comm::Address::new(0, 0),
        "topic must be homed at the publisher"
    );
    let mut w = WorkloadOut::default();
    for s in 0..p.setups {
        let probe = s + 1 == p.setups && phases.iter().any(|ph| ph.traced);
        let my_phases = phases.to_vec();
        let t0 = Instant::now();
        let sh = Arc::new(Shared {
            got: [AtomicU64::new(0), AtomicU64::new(0)],
            ready: [AtomicU64::new(0), AtomicU64::new(0)],
            subs: Mutex::new(Vec::new()),
        });
        let slot: Arc<Mutex<Option<RunOut>>> = Arc::new(Mutex::new(None));
        let (slot2, sh2) = (Arc::clone(&slot), Arc::clone(&sh));
        let (total, probe_iters) = (p.subscribers, p.probe_iters);
        let builder = with_pubsub_config(
            harness::pinned_builder(&Placement::InProcess),
            pinned_config(),
        );
        builder.build().run(move |node| {
            let pe = node.pe();
            let publisher = ChanterId::new(0, 0, node.self_id().thread);
            let per_pe = subs_on(pe, total);
            let base = if pe == 0 { 0 } else { subs_on(0, total) };
            let ids: Vec<_> = (0..per_pe)
                .map(|i| {
                    let sh = Arc::clone(&sh2);
                    let index = base + i;
                    let sampled = index % SPAN_SAMPLE == 0;
                    node.spawn_chanter(SpawnAttr::new().stack_size(SUB_STACK), move |node| {
                        let out = subscriber(node, &sh, publisher, per_pe, sampled, index);
                        sh.subs.lock().expect("subscriber results").push(out);
                        Bytes::new()
                    })
                })
                .collect();
            while sh2.ready[pe as usize].load(Ordering::SeqCst) < per_pe {
                node.yield_now();
            }
            let group = harness::pair(node);
            must("subscribe fence", group.barrier(node));
            let mut run = None;
            if pe == 0 {
                let setup_s = t0.elapsed().as_secs_f64();
                let mut log = SpanLog::new(my_phases.iter().any(|ph| ph.traced), 0);
                let published = publish_phases(node, &my_phases, &mut log);
                let probes = probe.then(|| probes::run(node, probe_iters, false, &mut log));
                run = Some(RunOut {
                    setup_s,
                    published,
                    probes,
                    spans: log.spans().to_vec(),
                });
                must("stop", node.send(harness::peer_main(node), STOP_TAG, b""));
            } else {
                // Wait blocked, not in a join's yield loop beside the
                // subscribers, until the publisher is done.
                must("stop", node.recv_tag(STOP_TAG));
            }
            for id in ids {
                must("join subscriber", node.remote_join(id));
            }
            must("teardown fence", group.barrier(node));
            if let Some(r) = run {
                *slot2.lock().expect("result slot") = Some(r);
            }
        });
        let o = slot
            .lock()
            .expect("result slot")
            .take()
            .unwrap_or_else(|| harness::fatal("PE 0 left no result"));
        let subs = std::mem::take(&mut *sh.subs.lock().expect("subscriber results"));
        finish(&mut w, s, o, subs, total);
    }
    w
}

/// Check every subscriber's sequence and the delivery counters, and cut
/// the samples into phases.
fn finish(w: &mut WorkloadOut, cluster: usize, o: RunOut, subs: Vec<SubOut>, total: u64) {
    if subs.len() as u64 != total {
        w.violations.push(format!(
            "cluster {cluster}: {} of {total} subscribers reported",
            subs.len()
        ));
    }
    for s in &subs {
        if s.wrong > 0 || s.timed_out {
            w.violations.push(format!(
                "cluster {cluster}: a subscriber saw {} out-of-sequence or duplicate deliveries (timed out: {})",
                s.wrong, s.timed_out
            ));
        }
    }
    let mut phases = Vec::new();
    for pb in o.published {
        let rounds = pb.round_ns.len();
        let range = pb.first - 1..pb.first - 1 + rounds;
        let lat: Vec<u64> = subs
            .iter()
            .flat_map(|s| s.lat_ns.get(range.clone()).unwrap_or(&[]).iter().copied())
            .collect();
        let want = total * rounds as u64;
        if pb.counters.get("pubsub.delivered") != want {
            w.violations.push(format!(
                "cluster {cluster}: pubsub.delivered = {} for {rounds} rounds to {total} subscribers",
                pb.counters.get("pubsub.delivered")
            ));
        }
        phases.push(PhaseOut {
            traced: pb.traced,
            wall_ns: pb.wall_ns,
            attempted: want,
            failed: want.saturating_sub(lat.len() as u64),
            op_ns: lat,
            by_kind: vec![("round", pb.round_ns)],
            counters: pb.counters,
            threads_peak: pb.threads_peak,
        });
    }
    w.spans.extend(o.spans);
    w.spans.extend(subs.into_iter().flat_map(|s| s.spans));
    w.clusters.push(ClusterOut {
        setup_s: o.setup_s,
        phases,
        probes: o.probes,
    });
}
