//! What a workload run produced, in one shape for every workload, and
//! the aggregation into reported metrics.
//!
//! A run builds its cluster several times. Each cluster reports its own
//! set-up time and times a series of short phases (windows); an
//! end-to-end metric is the median over every window of every cluster,
//! so a few seconds of host contention move single windows, not the
//! result. Per-layer counters are summed over the traced windows and
//! charged to the ops those windows completed.

use crate::counters::Counters;
use crate::probes::ProbeOut;
use crate::report::Metrics;
use crate::stats::{self, Latency};
use crate::trace::Span;

/// One timed phase on one cluster.
pub struct PhaseOut {
    pub traced: bool,
    pub wall_ns: u64,
    /// Latency of every completed op (KV op, or fan-out delivery).
    pub op_ns: Vec<u64>,
    /// Report-only breakdowns: `("read" | "update" | "round", samples)`.
    pub by_kind: Vec<(&'static str, Vec<u64>)>,
    /// Ops issued, and ops that errored, timed out or were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Cluster-wide counter deltas over the phase.
    pub counters: Counters,
    /// Most OS threads seen across the cluster's processes.
    pub threads_peak: u64,
}

impl PhaseOut {
    fn ops(&self) -> u64 {
        self.op_ns.len() as u64
    }

    pub fn kind(&self, name: &str) -> &[u64] {
        self.by_kind
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(&[], |(_, v)| v)
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct WorkloadOut {
    pub clusters: Vec<ClusterOut>,
    /// Correctness-gate violations; any fails the run.
    pub violations: Vec<String>,
    /// Every span recorded (traced phases and probes).
    pub spans: Vec<Span>,
}

/// One cluster's life: set-up, phases, and (on the last cluster of a
/// traced run) the isolation probes.
pub struct ClusterOut {
    pub setup_s: f64,
    pub phases: Vec<PhaseOut>,
    pub probes: Option<ProbeOut>,
}

/// The untraced or traced phases of every cluster.
fn phases(clusters: &[ClusterOut], traced: bool) -> impl Iterator<Item = &PhaseOut> {
    clusters
        .iter()
        .flat_map(move |c| c.phases.iter().filter(move |ph| ph.traced == traced))
}

fn p50(ns: &[u64]) -> Option<f64> {
    Latency::of_ns(&mut ns.to_vec()).p50_us
}

fn p99(ns: &[u64]) -> Option<f64> {
    Latency::of_ns(&mut ns.to_vec()).p99_us
}

/// Median over phases of a percentile; `None` unless every phase had
/// ten samples beyond it.
fn median_pct(
    clusters: &[ClusterOut],
    traced: bool,
    kind: Option<&str>,
    pct: fn(&[u64]) -> Option<f64>,
) -> Option<(f64, usize)> {
    let n = phases(clusters, traced).count();
    let mut samples = 0;
    let vals: Vec<f64> = phases(clusters, traced)
        .filter_map(|ph| {
            let ns = kind.map_or(&ph.op_ns[..], |k| ph.kind(k));
            samples += ns.len();
            pct(ns)
        })
        .collect();
    (n > 0 && vals.len() == n).then(|| (stats::median(&vals), samples))
}

/// End-to-end metrics from the untraced phases, plus the report-only
/// per-kind percentiles.
pub fn end_to_end(
    m: &mut Metrics,
    clusters: &[ClusterOut],
    kinds: &[&'static str],
) -> Result<(), String> {
    let setups: Vec<f64> = clusters.iter().map(|c| c.setup_s).collect();
    m.put("setup_s", stats::median(&setups), Some(setups.len()));
    let tput: Vec<f64> = phases(clusters, false)
        .map(|ph| ph.ops() as f64 / (ph.wall_ns.max(1) as f64 / 1e9))
        .collect();
    let ops = phases(clusters, false).map(PhaseOut::ops).sum::<u64>() as usize;
    m.put("throughput_ops_s", stats::median(&tput), Some(ops));
    for (name, pct) in [
        ("latency_p50_us", p50 as fn(&[u64]) -> Option<f64>),
        ("latency_p99_us", p99),
    ] {
        let (v, n) = median_pct(clusters, false, None, pct).ok_or_else(|| {
            format!("too few samples for {name} (needs ten beyond it in every window)")
        })?;
        m.put(name, v, Some(n));
    }
    for kind in kinds {
        let names: (&'static str, &'static str) = match *kind {
            "read" => ("read_p50_us", "read_p99_us"),
            "update" => ("update_p50_us", "update_p99_us"),
            "round" => ("round_p50_us", "round_p99_us"),
            other => unreachable!("unknown op kind {other}"),
        };
        if let Some((v, n)) = median_pct(clusters, false, Some(kind), p50) {
            m.put(names.0, v, Some(n));
        }
        if let Some((v, n)) = median_pct(clusters, false, Some(kind), p99) {
            m.put(names.1, v, Some(n));
        }
    }
    Ok(())
}

/// The traced phases' counters summed over clusters, the ops they
/// completed, and their most OS threads.
pub struct TracedTotals {
    pub counters: Counters,
    pub ops: u64,
    pub threads_peak: u64,
}

pub fn traced_totals(clusters: &[ClusterOut]) -> TracedTotals {
    let mut t = TracedTotals {
        counters: Counters::default(),
        ops: 0,
        threads_peak: 0,
    };
    for ph in phases(clusters, true) {
        t.counters.accumulate(&ph.counters);
        t.ops += ph.ops();
        t.threads_peak = t.threads_peak.max(ph.threads_peak);
    }
    t
}

/// Samples of `kind` over every traced phase.
pub fn traced_kind_count(clusters: &[ClusterOut], kind: &str) -> u64 {
    phases(clusters, true)
        .map(|ph| ph.kind(kind).len() as u64)
        .sum()
}

/// Median traced p50 over median untraced p50.
pub fn trace_overhead(clusters: &[ClusterOut]) -> Result<f64, String> {
    let traced = median_pct(clusters, true, None, p50).ok_or("too few traced samples")?;
    let untraced = median_pct(clusters, false, None, p50).ok_or("too few untraced samples")?;
    Ok(traced.0 / untraced.0)
}

/// Ops attempted and failed over every phase of every cluster.
pub fn totals(clusters: &[ClusterOut]) -> (u64, u64) {
    clusters
        .iter()
        .flat_map(|c| &c.phases)
        .fold((0, 0), |(a, f), ph| (a + ph.attempted, f + ph.failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(traced: bool, lat_us: u64, n: u64, wall_s: u64) -> PhaseOut {
        PhaseOut {
            traced,
            wall_ns: wall_s * 1_000_000_000,
            op_ns: vec![lat_us * 1_000; n as usize],
            by_kind: vec![("read", vec![lat_us * 1_000; n as usize])],
            attempted: n,
            failed: 0,
            counters: Counters::default(),
            threads_peak: 3,
        }
    }

    fn cluster(setup_s: f64, lat_us: u64, ops: u64) -> ClusterOut {
        ClusterOut {
            setup_s,
            phases: vec![
                phase(false, lat_us, ops, 1),
                phase(true, lat_us * 2, ops, 1),
            ],
            probes: None,
        }
    }

    #[test]
    fn cluster_medians_ignore_one_outlier() {
        let cs = vec![
            cluster(1.0, 10, 2_000),
            cluster(9.0, 500, 1_100),
            cluster(2.0, 12, 2_200),
        ];
        let mut m = Metrics::default();
        end_to_end(&mut m, &cs, &["read"]).expect("enough samples");
        assert_eq!(m.get("setup_s").map(|x| x.value), Some(2.0));
        assert_eq!(m.get("throughput_ops_s").map(|x| x.value), Some(2_000.0));
        assert_eq!(m.get("latency_p50_us").map(|x| x.value), Some(12.0));
        assert_eq!(
            m.get("read_p50_us").map(|x| (x.value, x.samples)),
            Some((12.0, Some(5_300)))
        );
        assert_eq!(m.get("latency_p99_us").map(|x| x.value), Some(12.0));
        assert_eq!(trace_overhead(&cs), Ok(2.0));
        assert_eq!(totals(&cs), (10_600, 0));
        assert_eq!(traced_totals(&cs).ops, 5_300);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let cs = vec![cluster(1.0, 10, 50)];
        let mut m = Metrics::default();
        assert!(end_to_end(&mut m, &cs, &[]).is_err());
    }
}
