//! Pub-sub conformance and chaos battery: the full backend × policy ×
//! seed matrix over the fan-out-tree service.
//!
//! Each scenario expands through `for_each_transport!` so both
//! backends (in-process oracle, tcp-event) carry real pub-sub
//! traffic; the scenarios themselves sweep the three polling policies
//! and, for the chaos runs, the standard seed trio (pinned with
//! `CHANT_VPS_SEED` in CI's matrix). Covered:
//!
//! * subscribe / publish / unsubscribe semantics, with the topic home
//!   on the publisher (tree rooted at the origin) *and* remote (a real
//!   first hop), and several subscriber threads per node;
//! * late join: a subscriber that arrives after a batch of publishes
//!   sees none of them, and a registration parked across the home's
//!   expiry window survives on periodic resync alone;
//! * multiple origins interleaving on one topic without loss;
//! * chaos: 1% drop + 1% dup on every link — control stays
//!   exactly-once (RSR dedup), data arrives at-least-once and the
//!   per-subscriber windows dedup it back to exactly-once.

mod common;

use std::time::Duration;

use chant::chant::{ChantCluster, ChantError, FaultConfig, PollingPolicy, RecvSrc, RetryPolicy};
use chant::comm::Address;
use chant::pubsub::{with_pubsub_config, PubsubConfig, PubsubNode};
use common::{for_each_transport, main_group, seeds, Backend};

const POLICIES: [PollingPolicy; 3] = [
    PollingPolicy::ThreadPolls,
    PollingPolicy::SchedulerPollsWq,
    PollingPolicy::SchedulerPollsPs,
];

/// Generous per-message deadline: a hang fails loudly instead of
/// wedging the whole binary.
const PATIENCE: Duration = Duration::from_secs(30);

/// Test-scale timers: resyncs and retransmissions fast enough that the
/// late-join and chaos scenarios converge within a test's patience.
fn fast() -> PubsubConfig {
    PubsubConfig {
        resync_interval: Duration::from_millis(40),
        topic_timeout: Duration::from_millis(400),
        rto: Duration::from_millis(25),
        ..PubsubConfig::default()
    }
}

/// The RSR retry envelope the lossy runs use (same shape as the
/// transport-conformance chaos tests).
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_timeout: Duration::from_millis(25),
        max_timeout: Duration::from_millis(200),
        liveness_ping: Duration::from_millis(500),
    }
}

/// Park the calling user-level thread for `d` without blocking its VP
/// lane: a deadline receive on a tag nobody sends.
fn park(node: &std::sync::Arc<chant::chant::ChantNode>, d: Duration) {
    match node.recv_timeout(RecvSrc::Any, Some(9999), d) {
        Err(ChantError::Timeout) => {}
        other => panic!("parked receive must time out, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Subscribe / publish / unsubscribe semantics
// ---------------------------------------------------------------------

for_each_transport!(subscribe_publish_unsubscribe_across_policies, |backend: Backend| {
    const MSGS: u64 = 8;
    for policy in POLICIES {
        let cluster = with_pubsub_config(
            ChantCluster::builder()
                .pes(3)
                .policy(policy)
                .transport(backend.config()),
            fast(),
        )
        .build();
        cluster.run(move |node| {
            let pe = node.pe();
            // Topic 3's home is PE 0 — the publisher, so the tree is
            // rooted at the origin with no first hop; topic 1's home is
            // PE 1, a real ROUTE_TO_HOME hop. Subscribers must not be
            // able to tell the difference.
            for topic in [3u64, 1] {
                // Two subscriber threads per non-publisher node: the
                // last tree hop fans out locally.
                let subs = (pe != 0)
                    .then(|| (node.subscribe(topic).unwrap(), node.subscribe(topic).unwrap()));
                let group = main_group(node, topic as u8);

                if pe == 0 {
                    for i in 1..=MSGS {
                        let seq = node.publish(topic, &i.to_le_bytes()).unwrap();
                        assert_eq!(seq, i, "publish seq is per-topic and dense");
                    }
                }
                if let Some((a, b)) = &subs {
                    for sub in [a, b] {
                        let mut got: Vec<u64> = (0..MSGS)
                            .map(|_| {
                                let m = sub.recv_timeout(PATIENCE).unwrap();
                                assert_eq!(m.topic, topic);
                                assert_eq!(m.origin, Address::new(0, 0));
                                assert_eq!(&m.payload[..], &m.seq.to_le_bytes());
                                m.seq
                            })
                            .collect();
                        got.sort_unstable();
                        let want: Vec<u64> = (1..=MSGS).collect();
                        assert_eq!(
                            got, want,
                            "[{backend:?}/{policy:?}] topic {topic}: every subscriber sees every publish exactly once"
                        );
                    }
                }
                group.barrier(node).unwrap();

                // PE 2 unsubscribes both threads (exactly-once control:
                // the home's count is corrected before the call
                // returns); PE 1 stays. A second batch must reach PE 1
                // and leave PE 2 untouched.
                let delivered_before = node.pubsub_stats().delivered;
                let keep = match (pe, subs) {
                    (2, Some((a, b))) => {
                        a.unsubscribe(node).unwrap();
                        b.unsubscribe(node).unwrap();
                        None
                    }
                    (_, other) => other,
                };
                group.barrier(node).unwrap();
                if pe == 0 {
                    for i in MSGS + 1..=2 * MSGS {
                        node.publish(topic, &i.to_le_bytes()).unwrap();
                    }
                }
                if let Some((a, b)) = &keep {
                    for sub in [a, b] {
                        for want in MSGS + 1..=2 * MSGS {
                            let m = sub.recv_timeout(PATIENCE).unwrap();
                            assert_eq!(m.seq, want, "[{backend:?}/{policy:?}] in-order per link");
                        }
                    }
                }
                group.barrier(node).unwrap();
                if pe == 2 {
                    assert_eq!(
                        node.pubsub_stats().delivered,
                        delivered_before,
                        "[{backend:?}/{policy:?}] unsubscribed node must not receive the second batch"
                    );
                }
                group.barrier(node).unwrap();
            }
        });
    }
});

// ---------------------------------------------------------------------
// Late join and resync-kept liveness
// ---------------------------------------------------------------------

for_each_transport!(late_joiner_sees_only_later_publishes, |backend: Backend| {
    const TOPIC: u64 = 2; // home = PE 0 = publisher
    const BATCH: u64 = 5;
    let cluster = with_pubsub_config(
        ChantCluster::builder().pes(2).transport(backend.config()),
        fast(),
    )
    .build();
    cluster.run(move |node| {
        let pe = node.pe();
        let group = main_group(node, 0);
        if pe == 0 {
            // The home is local: the tree for each early publish is
            // pinned inside the publish call, before the barrier below,
            // so the late joiner provably cannot be in it.
            for _ in 0..BATCH {
                node.publish(TOPIC, b"early").unwrap();
            }
        }
        group.barrier(node).unwrap();
        let sub = (pe == 1).then(|| node.subscribe(TOPIC).unwrap());
        group.barrier(node).unwrap();

        // Sit out more than a whole home-expiry window: only the relay
        // daemon's periodic resync keeps the registration alive.
        park(node, Duration::from_millis(600));

        if pe == 0 {
            for _ in 0..BATCH {
                node.publish(TOPIC, b"late").unwrap();
            }
        }
        if let Some(sub) = &sub {
            for _ in 0..BATCH {
                let m = sub.recv_timeout(PATIENCE).unwrap();
                assert_eq!(
                    &m.payload[..],
                    b"late",
                    "[{backend:?}] late joiner saw a pre-subscription publish (seq {})",
                    m.seq
                );
                assert!(m.seq > BATCH, "[{backend:?}] early seq leaked: {}", m.seq);
            }
            // Nothing else is in flight: the early frames never had
            // this node in their tree.
            assert!(sub.try_recv().unwrap().is_none(), "[{backend:?}] stray message");
        }
        group.barrier(node).unwrap();
    });
});

// ---------------------------------------------------------------------
// Multiple origins on one topic
// ---------------------------------------------------------------------

for_each_transport!(multiple_origins_interleave_without_loss, |backend: Backend| {
    const TOPIC: u64 = 4; // home = PE 1: one publisher is remote, one is home-resident
    const PER_ORIGIN: u64 = 10;
    let cluster = with_pubsub_config(
        ChantCluster::builder().pes(3).transport(backend.config()),
        fast(),
    )
    .build();
    cluster.run(move |node| {
        let pe = node.pe();
        let sub = (pe == 2).then(|| node.subscribe(TOPIC).unwrap());
        let group = main_group(node, 0);
        if pe < 2 {
            for i in 1..=PER_ORIGIN {
                node.publish(TOPIC, &i.to_le_bytes()).unwrap();
            }
        }
        if let Some(sub) = &sub {
            let mut per_origin = std::collections::HashMap::<Address, Vec<u64>>::new();
            for _ in 0..2 * PER_ORIGIN {
                let m = sub.recv_timeout(PATIENCE).unwrap();
                per_origin.entry(m.origin).or_default().push(m.seq);
            }
            let want: Vec<u64> = (1..=PER_ORIGIN).collect();
            for origin in [Address::new(0, 0), Address::new(1, 0)] {
                let mut got = per_origin.remove(&origin).unwrap_or_default();
                got.sort_unstable();
                assert_eq!(
                    got, want,
                    "[{backend:?}] origin {origin:?}: per-origin seqs must be complete and unique"
                );
            }
            assert!(per_origin.is_empty(), "[{backend:?}] unexpected origin");
        }
        group.barrier(node).unwrap();
    });
});

// ---------------------------------------------------------------------
// Chaos: 1% drop + 1% dup on every link
// ---------------------------------------------------------------------

for_each_transport!(lossy_links_deliver_exactly_once_after_dedup, |backend: Backend| {
    const TOPIC: u64 = 5; // home = PE 2: publisher, home, and a plain leaf all distinct
    const MSGS: u64 = 25;
    for policy in POLICIES {
        for seed in seeds() {
            let cluster = with_pubsub_config(
                ChantCluster::builder()
                    .pes(3)
                    .policy(policy)
                    .transport(backend.config())
                    .faults(FaultConfig::new(seed).drop_p(0.01).dup_p(0.01))
                    .rsr_retry(chaos_retry()),
                fast(),
            )
            .build();
            cluster.run(move |node| {
                let pe = node.pe();
                // Subscribing under faults rides the exactly-once RSR
                // control path: when this returns, the home registered
                // us exactly once, lost/duplicated control frames
                // notwithstanding.
                let sub = (pe != 0).then(|| node.subscribe(TOPIC).unwrap());
                let group = main_group(node, 0);
                if pe == 0 {
                    for i in 1..=MSGS {
                        node.publish(TOPIC, &i.to_le_bytes()).unwrap();
                    }
                }
                if let Some(sub) = &sub {
                    let mut got: Vec<u64> = (0..MSGS)
                        .map(|_| {
                            let m = sub
                                .recv_timeout(PATIENCE)
                                .expect("at-least-once delivery must heal 1% drop");
                            assert_eq!(&m.payload[..], &m.seq.to_le_bytes());
                            m.seq
                        })
                        .collect();
                    got.sort_unstable();
                    let want: Vec<u64> = (1..=MSGS).collect();
                    assert_eq!(
                        got, want,
                        "[{backend:?}/{policy:?}] seed {seed}: dedup must reduce at-least-once to exactly-once"
                    );
                }
                group.barrier(node).unwrap();
            });
        }
    }
});
