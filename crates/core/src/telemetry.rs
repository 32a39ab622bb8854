//! Live telemetry: periodic NDJSON snapshots of every stats family.
//!
//! Tracing (the `trace` feature) answers "what happened", after the
//! fact, at event granularity. This module answers "what is happening
//! *now*", cheaply, in production builds: an [`Emitter`] thread wakes
//! every `CHANT_TELEMETRY_MS` milliseconds, snapshots the always-on
//! counters ([`chant_comm::CommStatsSnapshot`], scheduler stats, RSR
//! robustness stats, fault-shim tallies, transport counters), folds
//! them into cluster-wide *deltas since the previous tick*, and writes
//! one flat JSON object per line to `CHANT_TELEMETRY_PATH` — a file to
//! append to, or a unix-domain socket when the value starts with
//! `unix:`. The `chant-top` binary tails and renders that stream.
//!
//! The JSON is hand-rolled: every field is a `u64` (plus one f64
//! `elapsed_s`), so a formatter is ~20 lines and the emitter needs no
//! serializer in the default build. Keys are stable; new keys may be
//! appended.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chant_comm::CommWorld;
use parking_lot::{Condvar, Mutex};

use crate::node::ChantNode;

/// Env var: emission interval in milliseconds (0/unset = off).
pub const INTERVAL_ENV: &str = "CHANT_TELEMETRY_MS";

/// Env var: where the NDJSON stream goes. A plain value is a file path
/// (opened in append mode); a `unix:`-prefixed value names a
/// unix-domain stream socket to connect to.
pub const PATH_ENV: &str = "CHANT_TELEMETRY_PATH";

/// Default output file when [`PATH_ENV`] is unset.
pub const DEFAULT_PATH: &str = "chant_telemetry.ndjson";

/// One tick's cluster-wide counter values, in emission order.
/// `collect` produces absolutes; the emitter subtracts the previous
/// tick to publish deltas (rates), which is what a live view wants.
fn collect(nodes: &[Arc<ChantNode>], world: &CommWorld) -> Vec<(&'static str, u64)> {
    let mut sends = 0u64;
    let mut bytes_sent = 0u64;
    let mut recvs_posted = 0u64;
    let mut posted_matches = 0u64;
    let mut unexpected = 0u64;
    let mut msgtests = 0u64;
    let mut full_switches = 0u64;
    let mut partial_switches = 0u64;
    let mut unblocks = 0u64;
    let mut rsr_retries = 0u64;
    let mut rsr_timeouts = 0u64;
    let mut rsr_unreachable = 0u64;
    let mut rsr_dups = 0u64;
    for n in nodes {
        let c = n.endpoint().stats().snapshot();
        sends += c.sends;
        bytes_sent += c.bytes_sent;
        recvs_posted += c.recvs_posted;
        posted_matches += c.posted_matches;
        unexpected += c.unexpected_buffered;
        msgtests += c.msgtests;
        let s = n.vp().stats().snapshot();
        full_switches += s.full_switches;
        partial_switches += s.partial_switches;
        unblocks += s.unblocks;
        let r = n.rsr_stats();
        rsr_retries += r.retries;
        rsr_timeouts += r.timeouts;
        rsr_unreachable += r.unreachable;
        rsr_dups += r.dup_dropped + r.dup_replayed;
    }
    let f = world.fault_stats().unwrap_or_default();
    let t = world.transport_stats();
    vec![
        ("sends", sends),
        ("bytes_sent", bytes_sent),
        ("recvs_posted", recvs_posted),
        ("posted_matches", posted_matches),
        ("unexpected", unexpected),
        ("msgtests", msgtests),
        ("full_switches", full_switches),
        ("partial_switches", partial_switches),
        ("unblocks", unblocks),
        ("rsr_retries", rsr_retries),
        ("rsr_timeouts", rsr_timeouts),
        ("rsr_unreachable", rsr_unreachable),
        ("rsr_dups", rsr_dups),
        ("faults_dropped", f.dropped),
        ("faults_duplicated", f.duplicated),
        ("faults_delayed", f.delayed),
        ("faults_reordered", f.reordered),
        ("tx_frames_sent", t.frames_sent),
        ("tx_frames_received", t.frames_received),
        ("tx_bytes_sent", t.frame_bytes_sent),
        ("tx_bytes_received", t.frame_bytes_received),
        ("tx_coalesced_writes", t.coalesced_writes),
        ("tx_send_failures", t.send_failures),
    ]
}

/// Where the stream goes.
enum Sink {
    File(std::fs::File),
    #[cfg(unix)]
    Socket(std::os::unix::net::UnixStream),
}

impl Sink {
    /// Open the sink at `over` when given (the
    /// [`crate::ClusterBuilder::telemetry_path`] knob), else wherever
    /// [`PATH_ENV`] points, else [`DEFAULT_PATH`].
    fn open(over: Option<&std::path::Path>) -> Option<Sink> {
        let path = match over {
            Some(p) => p.to_string_lossy().into_owned(),
            None => std::env::var(PATH_ENV).unwrap_or_else(|_| DEFAULT_PATH.to_string()),
        };
        if let Some(sock) = path.strip_prefix("unix:") {
            #[cfg(unix)]
            return std::os::unix::net::UnixStream::connect(sock)
                .ok()
                .map(Sink::Socket);
            #[cfg(not(unix))]
            {
                let _ = sock;
                return None;
            }
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .ok()
            .map(Sink::File)
    }

    fn write_line(&mut self, line: &str) -> bool {
        let w: &mut dyn Write = match self {
            Sink::File(f) => f,
            #[cfg(unix)]
            Sink::Socket(s) => s,
        };
        w.write_all(line.as_bytes()).and_then(|()| w.flush()).is_ok()
    }
}

/// The background emitter; [`stop`](Emitter::stop) flushes a final tick
/// and joins the thread, so a run's last counters always reach the
/// sink even when the run is shorter than one interval.
pub(crate) struct Emitter {
    stop: Arc<(Mutex<bool>, Condvar)>,
    /// `None` when the OS refused the thread: telemetry is disabled for
    /// this run but the run itself proceeds.
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Times an [`Emitter::start`] failed to spawn its background thread
/// (process-wide). Telemetry is an observer — a resource-exhausted host
/// that cannot spare one more OS thread must not take the workload down
/// with it, so the failure is counted and the emitter degrades to a
/// no-op instead of panicking.
pub static SPAWN_FAILURES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Emitter {
    pub fn start(
        interval: Duration,
        nodes: Vec<Arc<ChantNode>>,
        world: CommWorld,
        path: Option<std::path::PathBuf>,
    ) -> Emitter {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        // Baseline before the nodes start, not when the thread gets to
        // run: traffic in between would be missing from every tick.
        let baseline = collect(&nodes, &world);
        let thread = std::thread::Builder::new()
            .name("chant-telemetry".into())
            .spawn(move || run(interval, &nodes, &world, path.as_deref(), &stop2, baseline))
            .map_err(|e| {
                SPAWN_FAILURES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                eprintln!("chant: telemetry emitter thread failed to spawn ({e}); telemetry disabled for this run");
            })
            .ok();
        Emitter { stop, thread }
    }

    pub fn stop(self) {
        *self.stop.0.lock() = true;
        self.stop.1.notify_one();
        if let Some(thread) = self.thread {
            let _ = thread.join();
        }
    }
}

fn run(
    interval: Duration,
    nodes: &[Arc<ChantNode>],
    world: &CommWorld,
    path: Option<&std::path::Path>,
    stop: &(Mutex<bool>, Condvar),
    mut prev: Vec<(&'static str, u64)>,
) {
    let Some(mut sink) = Sink::open(path) else {
        return;
    };
    let started = Instant::now();
    let mut seq = 0u64;
    loop {
        let stopped = {
            let mut guard = stop.0.lock();
            if !*guard {
                stop.1.wait_for(&mut guard, interval);
            }
            *guard
        };
        let now = collect(nodes, world);
        seq += 1;
        let mut line = format!(
            "{{\"seq\":{seq},\"elapsed_s\":{:.3}",
            started.elapsed().as_secs_f64()
        );
        for ((key, cur), (_, old)) in now.iter().zip(prev.iter()) {
            use std::fmt::Write as _;
            let _ = write!(line, ",\"{key}\":{}", cur.saturating_sub(*old));
        }
        line.push_str("}\n");
        if !sink.write_line(&line) {
            return; // sink gone (reader hung up, disk full): go quiet
        }
        prev = now;
        if stopped {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The emitter is driven end to end by a real cluster run in
    /// `tests/telemetry.rs`; here, pin the line format contract the
    /// `chant-top` renderer parses: flat object, `seq` first,
    /// integer-valued counter keys.
    #[test]
    fn snapshot_keys_are_stable_and_flat() {
        let keys: Vec<&str> = vec![
            "sends",
            "bytes_sent",
            "recvs_posted",
            "posted_matches",
            "unexpected",
            "msgtests",
            "full_switches",
            "partial_switches",
            "unblocks",
            "rsr_retries",
            "rsr_timeouts",
            "rsr_unreachable",
            "rsr_dups",
            "faults_dropped",
            "faults_duplicated",
            "faults_delayed",
            "faults_reordered",
            "tx_frames_sent",
            "tx_frames_received",
            "tx_bytes_sent",
            "tx_bytes_received",
            "tx_coalesced_writes",
            "tx_send_failures",
        ];
        let cluster = crate::ChantCluster::builder().pes(1).server(false).build();
        let got = collect(cluster.nodes(), cluster.world());
        assert_eq!(got.iter().map(|(k, _)| *k).collect::<Vec<_>>(), keys);
    }
}
