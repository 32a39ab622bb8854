//! The communication world: a process group of endpoints over a
//! pluggable transport.
//!
//! This plays the role of NX on the Paragon (or an MPI communicator's
//! process group): `pes × procs_per_pe` addressable endpoints with
//! reliable, per-sender-FIFO delivery. Latency is not modelled here —
//! semantic fidelity is this crate's job; the Paragon *cost* model lives
//! in `chant-sim`.
//!
//! The final hop of [`WorldInner::route`] — getting a framed message to
//! the destination endpoint's matching tables — goes through the
//! world's [`Transport`]: synchronous in-process delivery by default,
//! or TCP sockets (possibly to other OS processes) when built with
//! [`TransportConfig::TcpEvent`]. Everything upstream of that hop (the
//! link stage's fault shim and latency model, matching, statistics) is
//! transport-agnostic.

use std::sync::{Arc, Once, OnceLock};

use bytes::Bytes;

use crate::endpoint::Endpoint;
use crate::fault::{FaultConfig, FaultStatsSnapshot};
use crate::header::{Address, Header};
use crate::link::{LatencyModel, LinkStage};
use crate::stats::CommStatsSnapshot;
use crate::transport::{build_transport, Transport, TransportConfig, TransportStatsSnapshot};

pub(crate) struct WorldInner {
    pes: u32,
    procs_per_pe: u32,
    /// PEs whose endpoints this OS process hosts (all of them except in
    /// multi-process TCP mode, where the process boundary is the PE).
    hosted: std::ops::Range<u32>,
    endpoints: Vec<Arc<Endpoint>>,
    /// The fault shim and latency model with their deliverer; `None`
    /// when the world has neither.
    link: Option<Arc<LinkStage>>,
    /// Installed immediately after `Arc::new_cyclic` returns, so the
    /// transport's background threads can never observe (or deliver
    /// into) a half-constructed world. Always populated by the time any
    /// message is routed.
    transport: OnceLock<Arc<dyn Transport>>,
    /// Guards teardown so [`CommWorld::shutdown`] and `Drop` compose:
    /// whichever runs first does the work, the other is a no-op.
    shutdown: Once,
}

impl WorldInner {
    /// Route a message: through the link stage when the world has a
    /// fault shim or a latency model, otherwise straight to the
    /// transport.
    pub(crate) fn route(&self, header: Header, body: Bytes) {
        match &self.link {
            Some(link) => link.route(header, body, &**self.transport()),
            None => self.transport().send(header, body),
        }
    }

    pub(crate) fn transport(&self) -> &Arc<dyn Transport> {
        self.transport
            .get()
            .expect("transport installed during world construction")
    }

    /// Does this OS process host the endpoint at `addr`? False for
    /// out-of-bounds addresses (a corrupted frame must not panic the
    /// transport poller) and for PEs hosted by other processes.
    pub(crate) fn hosts(&self, addr: Address) -> bool {
        addr.pe < self.pes && addr.process < self.procs_per_pe && self.hosted.contains(&addr.pe)
    }
}

impl WorldInner {
    /// Stop the pipeline and join the transport's threads. Idempotent.
    ///
    /// This exists separately from `Drop` because drop timing is
    /// refcount-driven: the link stage's deliverer and the transport's
    /// poller hold transient upgrades of their `Weak<WorldInner>`, so
    /// the *last* strong reference can die on one of those threads — in
    /// which case `shutdown` skips joining the caller's own thread and
    /// socket fds linger until it exits. An owner that needs teardown
    /// to be complete when its drop returns (a `ChantCluster`, a test
    /// asserting no fd leaks) calls this explicitly from its own thread
    /// instead.
    pub(crate) fn shutdown_now(&self) {
        self.shutdown.call_once(|| {
            // The link stage first, so nothing new reaches the
            // transport while it tears down.
            if let Some(link) = &self.link {
                link.shutdown();
            }
            if let Some(t) = self.transport.get() {
                t.shutdown();
            }
        });
    }
}

impl Drop for WorldInner {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

impl WorldInner {
    pub(crate) fn rank(&self, addr: Address) -> usize {
        assert!(
            addr.pe < self.pes && addr.process < self.procs_per_pe,
            "address {addr} outside world ({} PEs x {} procs)",
            self.pes,
            self.procs_per_pe
        );
        (addr.pe * self.procs_per_pe + addr.process) as usize
    }

    pub(crate) fn endpoint(&self, addr: Address) -> &Arc<Endpoint> {
        &self.endpoints[self.rank(addr)]
    }
}

/// A group of communicating processes (cf. the paper's Figure 3 "Process
/// Management: create a process group / add a process").
#[derive(Clone)]
pub struct CommWorld {
    inner: Arc<WorldInner>,
}

impl CommWorld {
    /// Create a world of `pes` processing elements with `procs_per_pe`
    /// processes each.
    pub fn new(pes: u32, procs_per_pe: u32) -> CommWorld {
        CommWorld::build(pes, procs_per_pe, None, None, TransportConfig::InProcess)
    }

    /// Create a world whose transport imposes wall-clock flight time on
    /// every message (`fixed + per_byte × n` nanoseconds, per-link FIFO).
    /// This makes the live runtime exhibit the latency the paper's
    /// threads exist to hide.
    pub fn with_latency(pes: u32, procs_per_pe: u32, model: LatencyModel) -> CommWorld {
        CommWorld::build(
            pes,
            procs_per_pe,
            Some(model),
            None,
            TransportConfig::InProcess,
        )
    }

    /// Create a world with the seeded fault shim installed (see
    /// [`FaultConfig`]): deliveries may be dropped, duplicated, delayed,
    /// or reordered per link, deterministically for a given seed.
    pub fn with_faults(pes: u32, procs_per_pe: u32, config: FaultConfig) -> CommWorld {
        CommWorld::build(
            pes,
            procs_per_pe,
            None,
            Some(config),
            TransportConfig::InProcess,
        )
    }

    /// Create a world routed through the given transport backend (see
    /// [`TransportConfig`]), with no latency model or fault shim.
    pub fn with_transport(pes: u32, procs_per_pe: u32, transport: TransportConfig) -> CommWorld {
        CommWorld::build(pes, procs_per_pe, None, None, transport)
    }

    /// The fully general constructor: latency model, fault shim, and
    /// transport backend all chosen independently. The shim and the
    /// latency model sit *above* the transport, so faults injected on a
    /// TCP world genuinely perturb socket traffic.
    pub fn with_config(
        pes: u32,
        procs_per_pe: u32,
        latency: Option<LatencyModel>,
        faults: Option<FaultConfig>,
        transport: TransportConfig,
    ) -> CommWorld {
        CommWorld::build(pes, procs_per_pe, latency, faults, transport)
    }

    pub(crate) fn build(
        pes: u32,
        procs_per_pe: u32,
        model: Option<LatencyModel>,
        faults: Option<FaultConfig>,
        transport: TransportConfig,
    ) -> CommWorld {
        assert!(pes > 0 && procs_per_pe > 0, "world must be non-empty");
        let hosted = transport.hosted_pes(pes);
        let inner = Arc::new_cyclic(|weak| {
            let mut endpoints = Vec::with_capacity((pes * procs_per_pe) as usize);
            for pe in 0..pes {
                for process in 0..procs_per_pe {
                    endpoints.push(Arc::new(Endpoint::new(
                        Address::new(pe, process),
                        weak.clone(),
                    )));
                }
            }
            WorldInner {
                pes,
                procs_per_pe,
                hosted,
                endpoints,
                link: LinkStage::start(model, faults, weak.clone()),
                transport: OnceLock::new(),
                shutdown: Once::new(),
            }
        });
        // Install the transport only now, on the completed world: a TCP
        // listener starts accepting the moment it exists, and its drain
        // threads must always be able to upgrade their weak reference.
        let t = build_transport(&transport, pes, Arc::downgrade(&inner));
        if inner.transport.set(t).is_err() {
            unreachable!("transport installed twice");
        }
        CommWorld { inner }
    }

    /// Whether this world models message flight time.
    pub fn has_latency(&self) -> bool {
        self.inner.link.as_ref().is_some_and(|l| l.has_latency())
    }

    /// Whether this world has the fault shim installed.
    pub fn has_faults(&self) -> bool {
        self.inner.link.as_ref().is_some_and(|l| l.faults().is_some())
    }

    /// What the fault shim has done so far (`None` when no shim is
    /// installed).
    pub fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        let shim = self.inner.link.as_ref()?.faults()?;
        Some(shim.stats().snapshot())
    }

    /// The name of the transport backend this world routes through
    /// (`"inproc"` or `"tcp-event"`).
    pub fn transport_name(&self) -> &'static str {
        self.inner.transport().name()
    }

    /// What the transport has done so far (frames, bytes, connections,
    /// failures — see [`TransportStatsSnapshot`]).
    pub fn transport_stats(&self) -> TransportStatsSnapshot {
        self.inner.transport().stats()
    }

    /// A callable that opportunistically drives the transport's progress
    /// engine from the calling thread, or `None` for backends whose
    /// delivery needs no external driver (in-process). Schedulers with
    /// spinning idle loops install this so socket completions are reaped
    /// by an already-running application thread instead of waiting for
    /// the transport's background poller to be scheduled. Safe to call from any thread at any time,
    /// including after shutdown (it becomes a no-op).
    pub fn progress_fn(&self) -> Option<Arc<dyn Fn() -> bool + Send + Sync>> {
        let t = Arc::clone(self.inner.transport());
        if !t.wants_progress_driver() {
            return None;
        }
        t.attach_progress_driver();
        Some(Arc::new(move || t.try_progress()))
    }

    /// Tear the world down *now*, on the calling thread: stop the link
    /// stage, close every transport socket, and join the
    /// transport's background threads. Idempotent, and implied by
    /// dropping the last `CommWorld` clone — but drop timing is
    /// refcount-driven (the link deliverer's transient upgrade can
    /// be the last reference), so callers that need teardown to be
    /// *complete* when this returns — before sampling `/proc/self/fd`,
    /// say — call it explicitly. Messages routed afterwards are
    /// silently dropped.
    pub fn shutdown(&self) {
        self.inner.shutdown_now();
    }

    /// The contiguous range of PEs whose endpoints live in this OS
    /// process: all of them, except in multi-process TCP mode where
    /// each process hosts exactly one PE.
    pub fn hosted_pes(&self) -> std::ops::Range<u32> {
        self.inner.hosted.clone()
    }

    /// A flat world: `n` PEs with one process each.
    pub fn flat(n: u32) -> CommWorld {
        CommWorld::new(n, 1)
    }

    /// Number of processing elements.
    pub fn pes(&self) -> u32 {
        self.inner.pes
    }

    /// Processes per processing element.
    pub fn procs_per_pe(&self) -> u32 {
        self.inner.procs_per_pe
    }

    /// Total number of endpoints.
    pub fn len(&self) -> usize {
        self.inner.endpoints.len()
    }

    /// Whether the world has no endpoints (never true; worlds are
    /// non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.inner.endpoints.is_empty()
    }

    /// The endpoint at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is outside the world.
    pub fn endpoint(&self, addr: Address) -> Arc<Endpoint> {
        Arc::clone(self.inner.endpoint(addr))
    }

    /// All endpoint addresses, in rank order.
    pub fn addresses(&self) -> Vec<Address> {
        self.inner.endpoints.iter().map(|e| e.addr()).collect()
    }

    /// Sum of all endpoints' statistics (e.g. the paper's total `msgtest`
    /// count across both PEs).
    pub fn total_stats(&self) -> CommStatsSnapshot {
        let mut total = CommStatsSnapshot::default();
        for ep in &self.inner.endpoints {
            let s = ep.stats().snapshot();
            total.sends += s.sends;
            total.recvs_posted += s.recvs_posted;
            total.posted_matches += s.posted_matches;
            total.unexpected_buffered += s.unexpected_buffered;
            total.unexpected_claimed += s.unexpected_claimed;
            total.posted_retired += s.posted_retired;
            total.msgtests += s.msgtests;
            total.msgtest_failures += s.msgtest_failures;
            total.testany_calls += s.testany_calls;
            total.blocking_waits += s.blocking_waits;
            total.probes += s.probes;
            total.bytes_sent += s.bytes_sent;
            total.bytes_received += s.bytes_received;
            total.multicasts += s.multicasts;
            total.multicast_dedups += s.multicast_dedups;
        }
        total
    }
}

impl std::fmt::Debug for CommWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommWorld")
            .field("pes", &self.inner.pes)
            .field("procs_per_pe", &self.inner.procs_per_pe)
            .field("transport", &self.inner.transport().name())
            .finish()
    }
}
