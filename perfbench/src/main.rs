//! The repository benchmark: three workloads on the live Chant runtime,
//! measured end to end (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <kv-mixed-xproc|kv-read-inproc|fanout-inproc>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! Every run builds its cluster `setups` times in turn. Each cluster
//! is set up (built, made ready, preloaded or subscribed, fenced), times
//! its share of `--seconds` in one-second windows, and is torn down.
//! `setup_s` is the median of the clusters' set-up times; every other
//! end-to-end metric is the median of the windows' values. A traced run
//! alternates untraced and traced windows (their latency ratio is the
//! tracing overhead); the traced windows' counter deltas are charged to
//! layers, and the isolation probes run on the last cluster. Spans go to
//! `.perfbench_out/<workload>.spans.jsonl`.
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`;
//! the line before it is the full report. A correctness violation
//! prints the result with `"correct": false` and exits 1; any other
//! failure exits nonzero without a result line.

mod counters;
mod fanout;
mod harness;
mod kv;
mod layers;
mod outcome;
mod probes;
mod procfs;
mod report;
mod stats;
mod trace;

use std::path::Path;
use std::time::{Duration, Instant};

use outcome::WorkloadOut;
use report::Metrics;
use stats::per_op;

/// How long a run may take before the watchdog fails it.
const RUN_BUDGET: Duration = Duration::from_secs(170);
/// Where traced runs write their spans (relative to the working
/// directory).
const SPAN_DIR: &str = ".perfbench_out";

/// Workload sizes.
#[derive(Clone, Debug)]
pub struct Params {
    scale: String,
    /// KV keys preloaded.
    pub keys: u64,
    /// Fan-out subscriber threads.
    pub subscribers: u64,
    /// Full set-ups per run (median reported).
    pub setups: usize,
    /// Timed iterations per isolation probe.
    pub probe_iters: usize,
    workload: String,
}

impl Params {
    fn new(scale: &str, workload: &str) -> Params {
        // Five set-ups where they are cheap; three where each costs a
        // child process and a replication drain over sockets (~7 s).
        let setups = if workload == "kv-mixed-xproc" { 3 } else { 5 };
        let (keys, subscribers, setups, probe_iters) = match scale {
            "full" => (10_000, 1_024, setups, 2_000),
            "smoke" => (1_000, 64, 2, 1_100),
            other => usage(&format!("unknown --scale {other}")),
        };
        Params {
            scale: scale.into(),
            keys,
            subscribers,
            setups,
            probe_iters,
            workload: workload.into(),
        }
    }

    /// Arguments that start this binary as rank 1 on `ports`.
    pub fn rank1_args(&self, ports: &str) -> Vec<String> {
        [
            "--rank1",
            ports,
            "--workload",
            &self.workload,
            "--scale",
            &self.scale,
        ]
        .map(String::from)
        .to_vec()
    }
}

/// One timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub dur: Duration,
    pub traced: bool,
}

/// Length of one timed window. The host's speed drifts by several
/// percent over seconds; an end-to-end value is the median over many
/// short windows, so the drift is sampled instead of averaged in.
const WINDOW_S: f64 = 1.0;

/// One cluster's timed phases: `--seconds` of timed work shared evenly
/// by the clusters and cut into windows of about [`WINDOW_S`]. A traced
/// run alternates untraced and traced windows, so warm-up and drift
/// fall on both sides of the tracing-overhead ratio.
fn windows(seconds: f64, clusters: usize, traced: bool) -> Vec<Phase> {
    let per_cluster = seconds / clusters as f64;
    let min = if traced { 2 } else { 1 };
    let n = ((per_cluster / WINDOW_S).round() as usize).max(min);
    let dur = Duration::from_secs_f64(per_cluster / n as f64);
    (0..n)
        .map(|i| Phase {
            dur,
            traced: traced && i % 2 == 1,
        })
        .collect()
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <kv-mixed-xproc|kv-read-inproc|fanout-inproc> \
         --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]"
    );
    std::process::exit(64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: String,
    rank1: Option<Vec<u16>>,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: "full".into(),
        rank1: None,
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => seed = val.parse().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            "--scale" => a.scale = val,
            "--rank1" => {
                a.rank1 = Some(
                    val.split(',')
                        .map(|p| p.parse().unwrap_or_else(|_| usage("bad port")))
                        .collect(),
                )
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if a.rank1.is_none() {
        a.seed = seed.unwrap_or_else(|| usage("--seed <n> is required"));
        a.seconds = seconds.unwrap_or_else(|| usage("--seconds <s> must be positive"));
        a.trace = trace.unwrap_or_else(|| usage("--trace must be 0 or 1"));
    }
    a
}

fn main() {
    let scrubbed = harness::scrub_env();
    let args = parse_args();
    let p = Params::new(&args.scale, &args.workload);
    harness::start_watchdog(Instant::now() + RUN_BUDGET);
    if let Some(ports) = args.rank1 {
        kv::run_rank1(ports, &p);
        return;
    }

    let phases = windows(args.seconds, p.setups, args.trace);
    let deadline = Instant::now() + RUN_BUDGET;
    let (w, config) = match args.workload.as_str() {
        "kv-mixed-xproc" => (
            kv::run(kv::MIXED_XPROC, &p, args.seed, &phases, deadline),
            kv_config(kv::MIXED_XPROC, &p),
        ),
        "kv-read-inproc" => (
            kv::run(kv::READ_INPROC, &p, args.seed, &phases, deadline),
            kv_config(kv::READ_INPROC, &p),
        ),
        "fanout-inproc" => (fanout::run(&p, &phases), fanout_config(&p)),
        other => usage(&format!("unknown --workload {other:?}")),
    };
    let metrics = metrics(&args.workload, &w, args.trace).unwrap_or_else(|e| harness::fatal(&e));
    let (attempted, failed) = outcome::totals(&w.clusters);

    if args.trace {
        let file = format!("{}.spans.jsonl", args.workload);
        trace::write_jsonl(Path::new(SPAN_DIR), &file, &w.spans)
            .unwrap_or_else(|e| harness::fatal(&format!("write spans: {e}")));
    }
    let quote = |v: &[String]| {
        format!(
            "[{}]",
            v.iter()
                .map(|x| format!("\"{x}\""))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let context = [
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("scale", format!("\"{}\"", args.scale)),
        ("config", format!("\"{config}\"")),
        ("clusters", p.setups.to_string()),
        ("env_scrubbed", quote(&scrubbed)),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("violations", quote(&w.violations)),
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
    ];
    println!("{}", report::report_line(&metrics, &context));
    let correct = w.violations.is_empty();
    println!(
        "{}",
        report::final_line(correct, attempted.max(1), failed, &metrics, args.trace)
    );
    if !correct {
        for v in &w.violations {
            eprintln!("perfbench: correctness violation: {v}");
        }
        std::process::exit(1);
    }
}

fn kv_config(spec: kv::KvSpec, p: &Params) -> String {
    format!(
        "{}, {} keys zipfian theta=0.99, {}B values, clients on PEs {:?}, 2 PEs, vps=1, PS polling, {}",
        spec.mix.name,
        p.keys,
        kv::VAL_LEN,
        spec.client_pes,
        if spec.xproc { "tcp-event, 2 OS processes" } else { "inproc, 1 OS process" }
    )
}

fn fanout_config(p: &Params) -> String {
    format!(
        "1 publisher on PE 0, {} subscribers over 2 PEs, topic homed at PE 0, inproc, vps=1, PS polling",
        p.subscribers
    )
}

/// Every metric of the run: end to end always, per layer when traced.
fn metrics(workload: &str, w: &WorkloadOut, traced: bool) -> Result<Metrics, String> {
    let fanout = workload == "fanout-inproc";
    let mut m = Metrics::default();
    let kinds: &[&str] = if fanout {
        &["round"]
    } else {
        &["read", "update"]
    };
    outcome::end_to_end(&mut m, &w.clusters, kinds)?;
    let (attempted, failed) = outcome::totals(&w.clusters);
    m.put("failed_ops_ratio", per_op(failed, attempted), None);
    if !traced {
        return Ok(m);
    }

    layers::per_layer(&mut m, workload, w)?;
    Ok(m)
}
