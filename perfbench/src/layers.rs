//! Per-layer metrics of a traced run: counter deltas of the traced
//! windows charged to the ops they completed, the isolation probes, the
//! `publish` spans and the tracing overhead.

use crate::counters::Counters;
use crate::outcome::{self, WorkloadOut};
use crate::report::Metrics;
use crate::stats::{per_kop, per_op, Latency};
use crate::trace;

/// How a metric derives from the traced windows' summed counters.
enum Derive {
    /// The counter per completed op.
    PerOp(&'static str),
    /// The counter per thousand completed ops.
    PerKop(&'static str),
    /// One counter over another.
    Ratio(&'static str, &'static str),
    /// The counter itself.
    Count(&'static str),
}

use Derive::{Count, PerKop, PerOp, Ratio};

const FROM_COUNTERS: [(&str, Derive); 27] = [
    ("kv.not_ready_per_kop", PerKop("kv.not_ready")),
    ("kv.no_lease_per_kop", PerKop("kv.no_lease")),
    ("kv.repl_retries_per_kop", PerKop("kv.repl_retries")),
    ("kv.leases_granted", Count("kv.leases_granted")),
    ("kv.dup_replayed", Count("kv.dup_replayed")),
    ("rsr.retries_per_kop", PerKop("rsr.retries")),
    ("rsr.timeouts_per_kop", PerKop("rsr.timeouts")),
    ("comm.sends_per_op", PerOp("comm.sends")),
    ("comm.bytes_sent_per_op", PerOp("comm.bytes_sent")),
    ("comm.unexpected_per_op", PerOp("comm.unexpected")),
    ("comm.msgtests_per_op", PerOp("comm.msgtests")),
    (
        "comm.msgtest_fail_ratio",
        Ratio("comm.msgtest_failures", "comm.msgtests"),
    ),
    ("xport.frames_per_op", PerOp("xport.frames_sent")),
    ("xport.bytes_per_op", PerOp("xport.bytes_sent")),
    (
        "xport.coalesced_ratio",
        Ratio("xport.coalesced_frames", "xport.frames_sent"),
    ),
    ("xport.send_failures", Count("xport.send_failures")),
    ("xport.reconnects", Count("xport.reconnects")),
    ("ult.full_switches_per_op", PerOp("ult.full_switches")),
    ("ult.partial_switches_per_op", PerOp("ult.partial_switches")),
    ("ult.idle_spins_per_op", PerOp("ult.idle_spins")),
    ("ult.blocks_per_op", PerOp("ult.blocks")),
    ("ult.steals_per_op", PerOp("ult.steals")),
    (
        "pubsub.frames_per_publish",
        Ratio("pubsub.forwarded", "pubsub.published"),
    ),
    (
        "pubsub.retransmits_per_publish",
        Ratio("pubsub.retransmits", "pubsub.published"),
    ),
    ("pubsub.dup_dropped", Count("pubsub.dup_dropped")),
    ("pubsub.resyncs", Count("pubsub.resyncs")),
    ("proc.cpu_us_per_op", PerOp("proc.cpu_us")),
];

impl Derive {
    fn eval(&self, c: &Counters, ops: u64) -> f64 {
        match *self {
            PerOp(n) => per_op(c.get(n), ops),
            PerKop(n) => per_kop(c.get(n), ops),
            Ratio(a, b) => per_op(c.get(a), c.get(b)),
            Count(n) => c.get(n) as f64,
        }
    }
}

/// Whether `metric`'s layer is on `workload`'s op path: KV metrics on
/// the KV workloads, pub-sub on fan-out, socket transport on the
/// cross-process workload; every other layer is on every path.
fn applies(metric: &str, workload: &str) -> bool {
    match metric.split('.').next() {
        Some("kv") => workload.starts_with("kv-"),
        Some("pubsub") => workload == "fanout-inproc",
        Some("xport") => workload == "kv-mixed-xproc",
        _ => true,
    }
}

/// A percentile that must exist.
fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("too few samples for {what} (needs ten beyond it)"))
}

/// Put `value` under `name` when its layer applies, else mark it.
fn put_if(
    m: &mut Metrics,
    workload: &str,
    name: &'static str,
    value: impl FnOnce() -> Result<f64, String>,
    samples: Option<usize>,
) -> Result<(), String> {
    if applies(name, workload) {
        m.put(name, value()?, samples);
    } else {
        m.not_applicable(name);
    }
    Ok(())
}

/// Every per-layer metric of a traced run of `workload`.
pub fn per_layer(m: &mut Metrics, workload: &str, w: &WorkloadOut) -> Result<(), String> {
    let t = outcome::traced_totals(&w.clusters);
    let c = &t.counters;
    for (name, derive) in &FROM_COUNTERS {
        put_if(m, workload, name, || Ok(derive.eval(c, t.ops)), None)?;
    }
    let updates = outcome::traced_kind_count(&w.clusters, "update");
    if updates > 0 {
        m.put(
            "kv.repl_per_update",
            per_op(c.get("kv.repl_sent"), updates),
            None,
        );
    } else {
        m.not_applicable("kv.repl_per_update");
    }
    let mut publish = trace::durations(&w.spans, "publish");
    let publish = Latency::of_ns(&mut publish);
    let publish_p50 = || need(publish.p50_us, "pubsub.publish_p50_us");
    put_if(
        m,
        workload,
        "pubsub.publish_p50_us",
        publish_p50,
        Some(publish.samples),
    )?;
    m.put("ult.os_threads_peak", t.threads_peak as f64, None);
    m.put(
        "proc.rss_peak_mb",
        c.get("proc.rss_peak_kib") as f64 / 1024.0,
        None,
    );

    let probe = w
        .clusters
        .iter()
        .find_map(|c| c.probes.as_ref())
        .ok_or("traced run without probes")?;
    m.put(
        "rsr.ping_p50_us",
        need(probe.ping.p50_us, "rsr.ping_p50_us")?,
        Some(probe.ping.samples),
    );
    m.put(
        "rsr.ping_p99_us",
        need(probe.ping.p99_us, "rsr.ping_p99_us")?,
        Some(probe.ping.samples),
    );
    let rtt = need(probe.rtt.p50_us, "comm.rtt_p50_us")?;
    m.put("comm.rtt_p50_us", rtt, Some(probe.rtt.samples));
    m.put(
        "ult.yield_p50_us",
        need(probe.yield_.p50_us, "ult.yield_p50_us")?,
        Some(probe.yield_.samples),
    );
    let spawn_join = need(probe.spawn_join.p50_us, "ult.spawn_join_p50_us")?;
    m.put(
        "ult.spawn_join_p50_us",
        spawn_join,
        Some(probe.spawn_join.samples),
    );
    let floor_us = probe.floor_ns.map(|f| f / 1_000.0);
    let floor = || floor_us.ok_or_else(|| "no socket floor measured".to_string());
    put_if(m, workload, "xport.floor_rtt_p50_us", floor, None)?;
    put_if(
        m,
        workload,
        "xport.rtt_over_floor",
        || Ok(rtt / floor()?),
        None,
    )?;

    m.put(
        "trace.overhead_ratio",
        outcome::trace_overhead(&w.clusters)?,
        None,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_apply_by_workload() {
        assert!(applies("kv.dup_replayed", "kv-read-inproc"));
        assert!(!applies("kv.dup_replayed", "fanout-inproc"));
        assert!(applies("pubsub.resyncs", "fanout-inproc"));
        assert!(!applies("xport.frames_per_op", "kv-read-inproc"));
        assert!(applies("xport.frames_per_op", "kv-mixed-xproc"));
        assert!(applies("ult.blocks_per_op", "fanout-inproc"));
    }

    #[test]
    fn every_counter_metric_is_catalogued_once() {
        for (name, _) in &FROM_COUNTERS {
            assert_eq!(
                crate::report::PER_LAYER
                    .iter()
                    .filter(|(n, _)| n == name)
                    .count(),
                1,
                "{name}"
            );
        }
    }
}
