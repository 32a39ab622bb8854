//! Cluster plumbing shared by every workload: the pinned cluster
//! configuration, the rank-1 child process of the cross-process
//! workload, the run watchdog, counter collection across PEs, and the
//! messaging between the coordinating PE 0 and the serving PE 1.

use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_comm::Address;
use chant_core::{
    ChantCluster, ChantGroup, ChantNode, ChanterId, ClusterBuilder, NamingMode, PollingPolicy,
    TcpOptions, TransportConfig,
};

use crate::counters::{Counters, Service};

/// PE 1 leaves its serving loop when PE 0 sends this.
pub const STOP_TAG: i32 = 7301;
/// PE 1's exactly-once ledger words, shipped to PE 0 after the drain.
pub const LEDGER_TAG: i32 = 7302;
/// Probe ping-pong tags (request, reply).
pub const ECHO_TAG: i32 = 7303;
pub const ECHO_REPLY_TAG: i32 = 7304;
/// Fan-out round acknowledgements (subscriber PE → publisher).
pub const ACK_TAG: i32 = 7305;
/// A timed client tells the coordinator it finished, so the coordinator
/// waits blocked instead of in a join's yield loop beside the load.
pub const DONE_TAG: i32 = 7306;
/// Group colour of the benchmark's two-PE group.
const GROUP_COLOR: u8 = 13;

/// Deadline for any one blocking step of set-up or teardown.
pub const PATIENCE: Duration = Duration::from_secs(60);

/// Where this process's PEs live.
#[derive(Clone, Debug)]
pub enum Placement {
    /// Both PEs in this process, on the in-process transport.
    InProcess,
    /// One PE per OS process over `tcp-event` on loopback.
    Rank { rank: u32, ports: Vec<u16> },
}

/// The pinned cluster every workload runs on: 2 PEs, 1 lane, the
/// partial-switch polling policy, communicator naming, RSR server on,
/// no fault shim, no latency model, no retry policy — all set here, so
/// nothing in the environment can change what runs.
pub fn pinned_builder(placement: &Placement) -> ClusterBuilder {
    let transport = match placement {
        Placement::InProcess => TransportConfig::InProcess,
        Placement::Rank { rank, ports } => TransportConfig::TcpEvent(TcpOptions {
            rank: Some(*rank),
            peers: ports.iter().map(|p| format!("127.0.0.1:{p}")).collect(),
            ..TcpOptions::default()
        }),
    };
    ChantCluster::builder()
        .pes(2)
        .procs_per_pe(1)
        .vps(1)
        .policy(PollingPolicy::SchedulerPollsPs)
        .naming(NamingMode::Communicator)
        .server(true)
        .transport(transport)
        .entry("snap", snap_entry)
        .entry("echo", echo_entry)
}

/// Remove every `CHANT_*` variable from this process's environment
/// (transport, lane count, fault shim, telemetry, flight recorder), so
/// neither this process nor a child it spawns reads them. Must run
/// before any other thread starts.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CHANT_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Reserve `n` distinct loopback ports.
pub fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind an ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

/// The rank-1 child process, owned by the watchdog until collected.
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// Abort the run: kill and reap the child, then exit nonzero without a
/// result line.
pub fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    if let Ok(mut slot) = CHILD.lock() {
        if let Some(mut child) = slot.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    std::process::exit(2);
}

/// Start the watchdog: fail the run at `deadline`, or as soon as the
/// child process dies unsuccessfully.
pub fn start_watchdog(deadline: Instant) {
    std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(50));
            if Instant::now() >= deadline {
                fatal("run deadline passed; stragglers killed");
            }
            let died = CHILD
                .lock()
                .ok()
                .and_then(|mut slot| slot.as_mut().and_then(|c| c.try_wait().ok().flatten()))
                .filter(|status| !status.success());
            if let Some(status) = died {
                fatal(&format!("rank 1 exited early ({status})"));
            }
        })
        .expect("spawn watchdog");
}

/// Launch this binary as rank 1 of the cross-process cluster.
pub fn spawn_rank1(args: &[String]) {
    let exe = std::env::current_exe().expect("own executable path");
    let child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| fatal(&format!("spawn rank 1: {e}")));
    *CHILD.lock().expect("child slot") = Some(child);
}

/// Reap the rank-1 child after its cluster run ended; kill it if it
/// has not exited by `deadline`.
pub fn collect_rank1(deadline: Instant) {
    loop {
        let status = match CHILD.lock().expect("child slot").as_mut() {
            None => return,
            Some(c) => c.try_wait(),
        };
        match status.unwrap_or_else(|e| fatal(&format!("wait rank 1: {e}"))) {
            Some(s) if s.success() => {
                CHILD.lock().expect("child slot").take();
                return;
            }
            Some(s) => fatal(&format!("rank 1 failed ({s})")),
            None if Instant::now() >= deadline => fatal("rank 1 did not exit; killed"),
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The group of both PEs' main threads.
pub fn pair(node: &ChantNode) -> ChantGroup {
    let me = node.self_id();
    let members = (0..2).map(|pe| ChanterId::new(pe, 0, me.thread)).collect();
    ChantGroup::new(node, members, GROUP_COLOR).expect("main thread is a group member")
}

/// PE 1's main thread, seen from PE 0's (thread ids are laid out
/// identically on every node).
pub fn peer_main(node: &ChantNode) -> ChanterId {
    let me = node.self_id();
    ChanterId::new(1 - me.pe, 0, me.thread)
}

/// A fatal step inside a cluster run.
pub fn must<T, E: std::fmt::Debug>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| fatal(&format!("{what}: {e:?}")))
}

fn service_byte(s: Service) -> u8 {
    match s {
        Service::Kv => 0,
        Service::Pubsub => 1,
    }
}

/// `snap` entry: this node's counters, plus its process's when the
/// caller lives in another process.
fn snap_entry(node: &Arc<ChantNode>, arg: Bytes) -> Bytes {
    let service = if arg.first() == Some(&1) {
        Service::Pubsub
    } else {
        Service::Kv
    };
    let mut c = Counters::of_node(node, service);
    if arg.get(1) == Some(&1) {
        c.add(&Counters::of_process(node));
    }
    Bytes::from(c.encode())
}

/// Cluster-wide counters, read from PE 0: both nodes' families, and
/// each process's once.
pub fn cluster_counters(node: &Arc<ChantNode>, service: Service, multi_process: bool) -> Counters {
    let arg = [service_byte(service), u8::from(multi_process)];
    let id = must(
        "spawn snap",
        node.remote_spawn(Address::new(1, 0), "snap", &arg),
    );
    let body = must("join snap", node.remote_join(id));
    let mut c = Counters::decode(&body).unwrap_or_else(|| fatal("malformed counter snapshot"));
    c.add(&Counters::of_node(node, service));
    c.add(&Counters::of_process(node));
    c
}

/// `echo` entry: answer `n` ping-pong rounds from the thread named in
/// the argument.
fn echo_entry(node: &Arc<ChantNode>, arg: Bytes) -> Bytes {
    let word = |i: usize| u64::from_le_bytes(arg[i * 8..i * 8 + 8].try_into().expect("echo arg"));
    let (n, pe, thread) = (word(0), word(1) as u32, word(2) as u32);
    let from = ChanterId::new(pe, 0, thread);
    for _ in 0..n {
        let (_info, body) = must("echo recv", node.recv_tag(ECHO_TAG));
        must("echo send", node.send_bytes(from, ECHO_REPLY_TAG, body));
    }
    Bytes::new()
}
