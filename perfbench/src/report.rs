//! The metric catalogue and the two output lines: a full report (every
//! metric with unit and sample count, plus the run's configuration) and
//! the final result line.

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p99_us", "us"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("kv.not_ready_per_kop", "1/kop"),
    ("kv.no_lease_per_kop", "1/kop"),
    ("kv.repl_retries_per_kop", "1/kop"),
    ("kv.repl_per_update", "ratio"),
    ("kv.leases_granted", "count"),
    ("kv.dup_replayed", "count"),
    ("rsr.ping_p50_us", "us"),
    ("rsr.ping_p99_us", "us"),
    ("rsr.retries_per_kop", "1/kop"),
    ("rsr.timeouts_per_kop", "1/kop"),
    ("comm.rtt_p50_us", "us"),
    ("comm.sends_per_op", "1/op"),
    ("comm.bytes_sent_per_op", "B/op"),
    ("comm.unexpected_per_op", "1/op"),
    ("comm.msgtests_per_op", "1/op"),
    ("comm.msgtest_fail_ratio", "ratio"),
    ("xport.frames_per_op", "1/op"),
    ("xport.bytes_per_op", "B/op"),
    ("xport.coalesced_ratio", "ratio"),
    ("xport.send_failures", "count"),
    ("xport.reconnects", "count"),
    ("xport.floor_rtt_p50_us", "us"),
    ("xport.rtt_over_floor", "ratio"),
    ("ult.yield_p50_us", "us"),
    ("ult.spawn_join_p50_us", "us"),
    ("ult.full_switches_per_op", "1/op"),
    ("ult.partial_switches_per_op", "1/op"),
    ("ult.idle_spins_per_op", "1/op"),
    ("ult.blocks_per_op", "1/op"),
    ("ult.steals_per_op", "1/op"),
    ("ult.os_threads_peak", "count"),
    ("pubsub.frames_per_publish", "1/publish"),
    ("pubsub.retransmits_per_publish", "1/publish"),
    ("pubsub.dup_dropped", "count"),
    ("pubsub.resyncs", "count"),
    ("pubsub.publish_p50_us", "us"),
    ("proc.cpu_us_per_op", "us/op"),
    ("proc.rss_peak_mb", "MiB"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ops_ratio", "ratio"),
];

/// Metrics printed in the report only. The op-kind percentiles apply
/// to some workloads only. `latency_p50_us` is not a result metric
/// because on `kv-mixed-xproc` the median falls where the latency
/// density is flat (local ops at 20-40 us, remote ops spread over
/// 50-300 us), so host CPU drift moves it by a third between runs.
pub const REPORT_ONLY: [(&str, &str); 7] = [
    ("latency_p50_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("round_p50_us", "us"),
    ("round_p99_us", "us"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The sample count a percentile rests on; `None` for counts and
    /// ratios.
    pub samples: Option<usize>,
    /// False when the metric's layer is not on this workload's path
    /// (reported as 0).
    pub applies: bool,
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(REPORT_ONLY.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not catalogued"))
}

/// Collects metrics by catalogue name.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric {
            name,
            unit: unit_of(name),
            value,
            samples,
            applies: true,
        });
    }

    /// A metric whose layer this workload does not exercise.
    pub fn not_applicable(&mut self, name: &'static str) {
        self.0.push(Metric {
            name,
            unit: unit_of(name),
            value: 0.0,
            samples: None,
            applies: false,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The final line: `correct`, `attempted`, `failed`, and exactly the
/// catalogue's metrics for this mode, each with value and unit.
pub fn final_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    traced: bool,
) -> String {
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = metrics
                .get(name)
                .map(|m| m.value)
                .unwrap_or_else(|| panic!("metric {name} missing"));
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The report line: every metric measured, with unit, sample count and
/// applicability, plus free-form `context` pairs (already JSON values).
pub fn report_line(metrics: &Metrics, context: &[(&str, String)]) -> String {
    let ms: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let samples = m.samples.map_or("null".to_string(), |n| n.to_string());
            format!(
                "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {samples}, \"applies\": {}}}",
                m.name,
                m.value,
                escape(m.unit),
                m.applies
            )
        })
        .collect();
    let ctx: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"report\": {{{}, \"metrics\": [{}]}}}}",
        ctx.join(", "),
        ms.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn final_line_carries_exactly_the_mode_metrics() {
        let mut m = Metrics::default();
        for (n, _) in END_TO_END {
            m.put(n, 1.5, Some(20));
        }
        let line = final_line(true, 10, 0, &m, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"latency_p99_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert!(!line.contains("kv."));
    }
}
