//! Quickstart: talking threads in a dozen lines.
//!
//! Two processing elements; each spawns a few threads; every thread on
//! PE 0 talks directly to its partner thread on PE 1 — different address
//! spaces, plain send/receive, no shared memory.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Set `CHANT_TRANSPORT=tcp-event` to route every message through real
//! loopback sockets instead of in-process delivery; add
//! `CHANT_RANK=<pe>` and `CHANT_PEERS=host:port,host:port` (and start
//! one process per PE) to run the same program as two genuinely
//! separate OS processes — the output is identical either way.

use chant::chant::{ChantCluster, ChanterId, PollingPolicy, TransportConfig};
use chant_ult::SpawnAttr;

fn main() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .policy(PollingPolicy::SchedulerPollsPs) // the paper's best policy
        .server(false) // point-to-point only; no remote service requests
        .transport(TransportConfig::from_env()) // CHANT_TRANSPORT=tcp-event knob
        .build();

    let report = cluster.run(|node| {
        let mut workers = Vec::new();
        for i in 0..4u32 {
            workers.push(node.spawn(SpawnAttr::new().name(format!("w{i}")), move |n| {
                let me = n.self_id();
                // Global thread names are (pe, process, thread) 3-tuples;
                // spawn order is deterministic, so partner ids line up.
                let partner = ChanterId::new(1 - me.pe, me.process, me.thread);
                let tag = (i + 1) as i32;

                if me.pe == 0 {
                    let msg = format!("hello from {me}");
                    n.send(partner, tag, msg.as_bytes()).unwrap();
                    let (info, body) = n.recv_tag(tag).unwrap();
                    println!(
                        "pe0/{i}: got reply '{}' from {}",
                        String::from_utf8_lossy(&body),
                        info.src_id().map(|s| s.to_string()).unwrap_or_default()
                    );
                } else {
                    let (_, body) = n.recv_tag(tag).unwrap();
                    let reply = format!("ack[{}]", String::from_utf8_lossy(&body));
                    n.send(partner, tag, reply.as_bytes()).unwrap();
                }
            }));
        }
        for w in workers {
            node.remote_join(w).unwrap();
        }
    });

    println!(
        "\ndone: {} messages, {} context switches, {:.2?} wall time",
        report.nodes.iter().map(|n| n.comm.sends).sum::<u64>(),
        report.total_full_switches(),
        report.elapsed
    );
}
