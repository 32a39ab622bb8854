//! One snapshot of every layer's counters, taken through the runtime's
//! public `*Stats` accessors, so a timed phase can be charged to layers
//! as counter deltas.
//!
//! Per-node families (scheduler, endpoint, RSR, KV, pub-sub) are summed
//! over every node; per-process families (transport, `/proc`) are
//! counted once per OS process, since all PEs of a process share them.

use std::sync::Arc;

use chant_core::ChantNode;
use chant_pubsub::PubsubNode;

use crate::procfs;

/// Every counter a snapshot carries, in wire order.
pub const FIELDS: [&str; 34] = [
    // chant-ult scheduler (VpStats)
    "ult.full_switches",
    "ult.partial_switches",
    "ult.idle_spins",
    "ult.blocks",
    "ult.steals",
    // chant-comm endpoint (CommStats)
    "comm.sends",
    "comm.bytes_sent",
    "comm.unexpected",
    "comm.msgtests",
    "comm.msgtest_failures",
    // chant-core RSR (RsrStats)
    "rsr.retries",
    "rsr.timeouts",
    // chant-kv (KvStats)
    "kv.mutations",
    "kv.not_ready",
    "kv.no_lease",
    "kv.repl_sent",
    "kv.repl_retries",
    "kv.leases_granted",
    "kv.dup_replayed",
    "kv.staged_bulk",
    // chant-pubsub (PubsubStats)
    "pubsub.published",
    "pubsub.delivered",
    "pubsub.forwarded",
    "pubsub.retransmits",
    "pubsub.dup_dropped",
    "pubsub.resyncs",
    // chant-comm transport (TransportStats), once per process
    "xport.frames_sent",
    "xport.bytes_sent",
    "xport.coalesced_frames",
    "xport.send_failures",
    "xport.reconnects",
    // /proc, once per process
    "proc.cpu_us",
    "proc.rss_peak_kib",
    "proc.threads",
];

/// Which services the cluster was built with; a family is only read
/// when its service is installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Service {
    Kv,
    Pubsub,
}

/// A snapshot (or a delta, or a sum) of [`FIELDS`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters([u64; FIELDS.len()]);

impl Default for Counters {
    fn default() -> Counters {
        Counters([0; FIELDS.len()])
    }
}

impl Counters {
    fn idx(name: &str) -> usize {
        FIELDS
            .iter()
            .position(|f| *f == name)
            .unwrap_or_else(|| panic!("unknown counter {name}"))
    }

    /// The value of counter `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.0[Self::idx(name)]
    }

    fn set(&mut self, name: &str, v: u64) {
        self.0[Self::idx(name)] = v;
    }

    /// This node's per-node families.
    pub fn of_node(node: &Arc<ChantNode>, service: Service) -> Counters {
        let mut c = Counters::default();
        let vp = node.vp().stats().snapshot();
        c.set("ult.full_switches", vp.full_switches);
        c.set("ult.partial_switches", vp.partial_switches);
        c.set("ult.idle_spins", vp.idle_spins);
        c.set("ult.blocks", vp.blocks);
        c.set("ult.steals", vp.steals);
        let comm = node.endpoint().stats().snapshot();
        c.set("comm.sends", comm.sends);
        c.set("comm.bytes_sent", comm.bytes_sent);
        c.set("comm.unexpected", comm.unexpected_buffered);
        c.set("comm.msgtests", comm.msgtests);
        c.set("comm.msgtest_failures", comm.msgtest_failures);
        let rsr = node.rsr_stats();
        c.set("rsr.retries", rsr.retries);
        c.set("rsr.timeouts", rsr.timeouts);
        match service {
            Service::Kv => {
                let kv = chant_kv::kv_stats(node);
                c.set("kv.mutations", kv.mutations);
                c.set("kv.not_ready", kv.not_ready);
                c.set("kv.no_lease", kv.no_lease);
                c.set("kv.repl_sent", kv.repl_sent);
                c.set("kv.repl_retries", kv.repl_retries);
                c.set("kv.leases_granted", kv.leases_granted);
                c.set("kv.dup_replayed", kv.dup_replayed);
                c.set("kv.staged_bulk", kv.staged_bulk);
            }
            Service::Pubsub => {
                let ps = node.pubsub_stats();
                c.set("pubsub.published", ps.published);
                c.set("pubsub.delivered", ps.delivered);
                c.set("pubsub.forwarded", ps.forwarded);
                c.set("pubsub.retransmits", ps.retransmits);
                c.set("pubsub.dup_dropped", ps.dup_dropped);
                c.set("pubsub.resyncs", ps.resyncs);
            }
        }
        c
    }

    /// This process's per-process families, read through `node`'s world.
    pub fn of_process(node: &Arc<ChantNode>) -> Counters {
        let mut c = Counters::default();
        let x = node.world().transport_stats();
        c.set("xport.frames_sent", x.frames_sent);
        c.set("xport.bytes_sent", x.frame_bytes_sent);
        c.set("xport.coalesced_frames", x.coalesced_frames);
        c.set("xport.send_failures", x.send_failures);
        c.set("xport.reconnects", x.reconnects);
        let p = procfs::sample_self();
        c.set("proc.cpu_us", p.cpu_us);
        c.set("proc.rss_peak_kib", p.rss_peak_kib);
        c.set("proc.threads", p.threads);
        c
    }

    /// Field-wise sum (nodes or processes of one cluster).
    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += *b;
        }
    }

    /// Fold in a later phase's delta: counters add up, gauges keep the
    /// larger reading.
    pub fn accumulate(&mut self, later: &Counters) {
        for (i, name) in FIELDS.iter().enumerate() {
            self.0[i] = if is_gauge(name) {
                self.0[i].max(later.0[i])
            } else {
                self.0[i] + later.0[i]
            };
        }
    }

    /// Field-wise `self - earlier`. Gauges (peak RSS, thread count)
    /// keep their later value instead.
    pub fn delta(&self, earlier: &Counters) -> Counters {
        let mut d = Counters::default();
        for (i, name) in FIELDS.iter().enumerate() {
            d.0[i] = if is_gauge(name) {
                self.0[i]
            } else {
                self.0[i].saturating_sub(earlier.0[i])
            };
        }
        d
    }

    /// Little-endian wire form, for shipping between processes.
    pub fn encode(&self) -> Vec<u8> {
        self.0.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Inverse of [`Counters::encode`].
    pub fn decode(body: &[u8]) -> Option<Counters> {
        if body.len() != FIELDS.len() * 8 {
            return None;
        }
        let mut c = Counters::default();
        for (slot, chunk) in c.0.iter_mut().zip(body.chunks_exact(8)) {
            *slot = u64::from_le_bytes(chunk.try_into().ok()?);
        }
        Some(c)
    }
}

fn is_gauge(name: &str) -> bool {
    matches!(name, "proc.rss_peak_kib" | "proc.threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_names_are_unique() {
        let mut names = FIELDS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIELDS.len());
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let mut a = Counters::default();
        a.set("comm.msgtests", 100);
        a.set("proc.threads", 9);
        let mut b = a.clone();
        b.set("comm.msgtests", 350);
        b.set("proc.threads", 4);
        let d = b.delta(&a);
        assert_eq!(d.get("comm.msgtests"), 250);
        assert_eq!(d.get("proc.threads"), 4);
    }

    #[test]
    fn phases_accumulate_counters_but_not_gauges() {
        let mut total = Counters::default();
        for (sends, rss) in [(10, 2_048), (30, 4_096), (5, 1_024)] {
            let mut phase = Counters::default();
            phase.set("comm.sends", sends);
            phase.set("proc.rss_peak_kib", rss);
            total.accumulate(&phase);
        }
        assert_eq!(total.get("comm.sends"), 45);
        assert_eq!(total.get("proc.rss_peak_kib"), 4_096);
    }

    #[test]
    fn sum_then_delta_normalises_per_op() {
        // Two processes' deltas summed, then charged per op.
        let mut rank0 = Counters::default();
        rank0.set("comm.sends", 3_000);
        let mut rank1 = Counters::default();
        rank1.set("comm.sends", 1_000);
        let mut total = Counters::default();
        total.add(&rank0);
        total.add(&rank1);
        assert_eq!(crate::stats::per_op(total.get("comm.sends"), 2_000), 2.0);
    }

    #[test]
    fn wire_roundtrip_and_length_check() {
        let mut c = Counters::default();
        for (i, name) in FIELDS.iter().enumerate() {
            c.set(name, (i as u64) << 33 | 7);
        }
        assert_eq!(Counters::decode(&c.encode()), Some(c.clone()));
        assert_eq!(Counters::decode(&c.encode()[1..]), None);
    }
}
