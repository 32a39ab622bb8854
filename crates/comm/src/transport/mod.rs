//! Pluggable transports under the matching engine.
//!
//! [`crate::CommWorld`]'s routing path is a thin, swappable seam: after
//! the link stage (fault shim, latency model) has had its say, a message is
//! handed to the world's [`Transport`], which is responsible for getting
//! the framed `(header, body)` pair to the destination endpoint's
//! matching tables (via [`DeliverySink::deliver`]). Everything above the
//! seam — matching, polling policies, deadlines, RSR retry/dedup, fault
//! injection, observability — is transport-agnostic and must behave
//! identically on every backend; `tests/transport_conformance.rs`
//! enforces exactly that, with the in-process backend as the oracle.
//!
//! Two backends ship:
//!
//! * **in-process** ([`TransportConfig::InProcess`], the default): the
//!   original synchronous delivery into the destination endpoint. Zero
//!   new cost; the paper's table reproductions run on this path.
//! * **TCP, event-loop** ([`TransportConfig::TcpEvent`], Linux only):
//!   length-prefixed frames ([`encode_frame`]) over TCP sockets, every
//!   connection driven by a single epoll poller thread with nonblocking
//!   sockets, same-peer send coalescing into vectored writes, pooled
//!   frame buffers, and an adaptive spin-then-park progress loop — the
//!   LCI-style nonblocking progress engine. In *loopback* mode all
//!   endpoints stay in one OS process and traffic makes a real kernel
//!   round trip; in *multi-process* mode (a rank and a peer list,
//!   usually from [`TransportConfig::from_env`]) each OS process hosts
//!   one PE's endpoints and a chant message genuinely crosses address
//!   spaces — the paper's "threads that talk to threads in other
//!   address spaces", live.

mod frame;
#[cfg(target_os = "linux")]
mod pool;
#[cfg(target_os = "linux")]
mod sys;
#[cfg(target_os = "linux")]
mod tcp_event;

pub use frame::{
    decode_frame, encode_frame, encode_frame_into, FrameError, FRAME_HEADER_LEN, FRAME_MAGIC,
    MAX_FRAME_LEN,
};

#[cfg(target_os = "linux")]
pub(crate) use tcp_event::TcpEventTransport;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use bytes::Bytes;

use crate::header::Header;
use crate::world::WorldInner;

/// A message-moving backend under the matching engine.
///
/// Implementations receive fully-formed headers (the `(pe, process,
/// thread-bearing ctx/tag)` signature of §3.1) and opaque bodies, and
/// must eventually hand every non-lost message to the destination
/// endpoint via the [`DeliverySink`] they were constructed with.
/// Ordering contract: two messages sent on the same `(src, dst)` link
/// must be delivered in send order (per-sender FIFO, the NX guarantee
/// the matching tables rely on). Loss is permitted only for transports
/// that document it (the upper layers' retry/dedup machinery recovers).
pub trait Transport: Send + Sync {
    /// Short stable name for reports and traces (`"inproc"`, `"tcp-event"`).
    fn name(&self) -> &'static str;

    /// Move one message toward its destination. May block briefly for
    /// backpressure; must not block indefinitely.
    fn send(&self, header: Header, body: Bytes);

    /// What this transport has done so far.
    fn stats(&self) -> TransportStatsSnapshot;

    /// Tear down background threads and close any handles. Called once
    /// from world teardown; must be idempotent.
    fn shutdown(&self);

    /// Opportunistically advance this transport's progress engine on the
    /// calling thread (one nonblocking event-loop turn). Runtimes with
    /// spinning schedulers call this from their idle loops so message
    /// delivery rides an already-hot application thread instead of
    /// waiting for a background poller to be scheduled. Must be cheap,
    /// never block, and be safe from any thread. Returns whether any
    /// progress was made. Default: no-op for transports whose delivery
    /// is already synchronous or thread-driven.
    fn try_progress(&self) -> bool {
        false
    }

    /// Whether [`Transport::try_progress`] can actually do work here —
    /// i.e. whether installing an idle-loop progress driver is worth a
    /// virtual call per idle spin.
    fn wants_progress_driver(&self) -> bool {
        false
    }

    /// Notify the transport that application threads will call
    /// [`Transport::try_progress`] from now on. A backend may demote its
    /// own background poller to a backstop role (e.g. stop waking per
    /// inbound frame) — callers must actually follow through and drive.
    fn attach_progress_driver(&self) {}
}

/// Where a transport hands arriving messages back into the runtime: the
/// destination endpoint's matching tables, reached through a weak
/// world reference so a transport thread can never keep a dead world
/// alive.
#[derive(Clone)]
pub struct DeliverySink {
    world: Weak<WorldInner>,
}

/// Why a [`DeliverySink::deliver`] did not deliver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliverError {
    /// The world was torn down; the message is dropped (same rule as
    /// the link stage at shutdown).
    WorldGone,
    /// The destination endpoint is not hosted by this process (a
    /// misrouted or corrupted frame in multi-process mode).
    NotHosted,
}

impl DeliverySink {
    pub(crate) fn new(world: Weak<WorldInner>) -> DeliverySink {
        DeliverySink { world }
    }

    /// Deliver into the destination endpoint's matching tables.
    pub fn deliver(&self, header: Header, body: Bytes) -> Result<(), DeliverError> {
        let Some(w) = self.world.upgrade() else {
            return Err(DeliverError::WorldGone);
        };
        if !w.hosts(header.dst) {
            return Err(DeliverError::NotHosted);
        }
        w.endpoint(header.dst).deliver(header, body);
        Ok(())
    }
}

/// Always-on transport tallies (relaxed atomics; same monotone-counter
/// soundness argument as [`crate::CommStats`]).
#[derive(Debug, Default)]
pub(crate) struct TransportStats {
    pub frames_sent: AtomicU64,
    pub frames_received: AtomicU64,
    pub frame_bytes_sent: AtomicU64,
    pub frame_bytes_received: AtomicU64,
    pub connects: AtomicU64,
    pub accepts: AtomicU64,
    pub reconnects: AtomicU64,
    pub send_failures: AtomicU64,
    pub malformed_frames: AtomicU64,
    pub misrouted: AtomicU64,
    pub coalesced_writes: AtomicU64,
    pub coalesced_frames: AtomicU64,
    pub partial_writes: AtomicU64,
    pub wakeups: AtomicU64,
}

impl TransportStats {
    #[inline]
    pub fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> TransportStatsSnapshot {
        TransportStatsSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            frame_bytes_sent: self.frame_bytes_sent.load(Ordering::Relaxed),
            frame_bytes_received: self.frame_bytes_received.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            send_failures: self.send_failures.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            misrouted: self.misrouted.load(Ordering::Relaxed),
            coalesced_writes: self.coalesced_writes.load(Ordering::Relaxed),
            coalesced_frames: self.coalesced_frames.load(Ordering::Relaxed),
            partial_writes: self.partial_writes.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            pool_hits: 0,
            pool_misses: 0,
        }
    }
}

/// A point-in-time copy of a transport's counters. In-process worlds
/// report frames but keep every socket-specific counter at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStatsSnapshot {
    /// Frames handed to the wire (or delivered directly, in-process).
    pub frames_sent: u64,
    /// Frames received and delivered into endpoints.
    pub frames_received: u64,
    /// Frame bytes written (headers + bodies + prefixes).
    pub frame_bytes_sent: u64,
    /// Frame bytes read.
    pub frame_bytes_received: u64,
    /// Outbound connections established.
    pub connects: u64,
    /// Inbound connections accepted.
    pub accepts: u64,
    /// Outbound connections re-established after a write failure.
    pub reconnects: u64,
    /// Messages dropped because the peer stayed unreachable.
    pub send_failures: u64,
    /// Frames rejected by the codec (connection dropped afterwards).
    pub malformed_frames: u64,
    /// Well-formed frames addressed to an endpoint this process does
    /// not host.
    pub misrouted: u64,
    /// Vectored writes that carried more than one frame (event-loop
    /// backend; batch depth = `coalesced_frames / coalesced_writes`).
    pub coalesced_writes: u64,
    /// Frames carried by those multi-frame vectored writes.
    pub coalesced_frames: u64,
    /// Writes the kernel cut short, resumed later from the saved
    /// offset (event-loop backend).
    pub partial_writes: u64,
    /// Times the parked poller was woken through the eventfd
    /// (event-loop backend; shutdown and stragglers only).
    pub wakeups: u64,
    /// Frame buffers served from the reuse pool (socket backend).
    pub pool_hits: u64,
    /// Frame buffers that had to be freshly allocated.
    pub pool_misses: u64,
}

/// Configuration of the event-loop TCP backend.
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// This OS process's PE index, or `None` for single-process
    /// loopback (all PEs hosted here, traffic still over sockets).
    pub rank: Option<u32>,
    /// Listen addresses (`host:port`), one per PE in rank order. Empty
    /// selects loopback mode with an ephemeral port. Non-empty requires
    /// `rank` to be set.
    pub peers: Vec<String>,
    /// Dial attempts for a peer never reached before (bootstrap: peers
    /// start in parallel, so patience here is correctness).
    pub connect_attempts: u32,
    /// Initial backoff between dial attempts; doubles up to 500 ms.
    pub connect_backoff_ms: u64,
    /// Per-frame length ceiling (capped by [`MAX_FRAME_LEN`]).
    pub max_frame_len: u32,
    /// How long the poller keeps polling hot (zero-timeout
    /// `epoll_wait`, yielding between polls) after the last activity
    /// before parking in the kernel. Keeps ping-pong traffic off the
    /// park/unpark path; 0 parks immediately.
    pub spin_us: u64,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            rank: None,
            peers: Vec::new(),
            connect_attempts: 80,
            connect_backoff_ms: 25,
            max_frame_len: MAX_FRAME_LEN,
            spin_us: 100,
        }
    }
}

/// Which transport a world routes through, and how it is configured.
#[derive(Clone, Debug, Default)]
pub enum TransportConfig {
    /// Synchronous in-process delivery (the default; the oracle backend
    /// for the conformance suite).
    #[default]
    InProcess,
    /// Length-prefixed frames over TCP sockets, driven by a single epoll
    /// poller thread with nonblocking sockets, send coalescing, and
    /// pooled buffers (Linux only; see [`TcpOptions`]).
    TcpEvent(TcpOptions),
}

impl TransportConfig {
    /// A single-process TCP world: every endpoint lives here, but every
    /// message makes a real kernel round trip through a loopback
    /// socket, all sockets on one poller. This is the configuration the
    /// conformance suite and the fault-seed matrix run against.
    pub fn tcp_event_loopback() -> TransportConfig {
        TransportConfig::TcpEvent(TcpOptions::default())
    }

    /// Read the transport from the environment — the rank/port
    /// bootstrap shared by examples and the cross-process tests:
    ///
    /// * `CHANT_TRANSPORT` — `tcp-event` selects the socket backend;
    ///   `inproc` (or unset) selects in-process. Any other value is a
    ///   configuration error.
    /// * `CHANT_RANK` — this OS process's PE index (multi-process mode;
    ///   omit for single-process loopback).
    /// * `CHANT_PEERS` — comma-separated `host:port` listen addresses,
    ///   one per PE in rank order (required when `CHANT_RANK` is set).
    ///
    /// # Panics
    /// Panics on an unrecognised `CHANT_TRANSPORT` value, rather than
    /// silently running every PE in-process.
    pub fn from_env() -> TransportConfig {
        let rank = std::env::var("CHANT_RANK")
            .ok()
            .and_then(|s| s.parse().ok());
        let peers = std::env::var("CHANT_PEERS")
            .map(|s| {
                s.split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect()
            })
            .unwrap_or_default();
        let socket = TcpOptions {
            rank,
            peers,
            ..TcpOptions::default()
        };
        let value = std::env::var("CHANT_TRANSPORT").ok();
        TransportConfig::parse(value.as_deref(), socket).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Select a backend by its `CHANT_TRANSPORT` name (`None` = unset):
    /// `inproc` or nothing for in-process, `tcp-event` (or `tcp_event`,
    /// any case) for sockets configured by `socket`. Anything else —
    /// including the removed `tcp` backend's name — is an error naming
    /// the accepted values.
    fn parse(value: Option<&str>, socket: TcpOptions) -> Result<TransportConfig, String> {
        let v = value.map(str::trim).unwrap_or_default();
        if v.is_empty() || v.eq_ignore_ascii_case("inproc") {
            Ok(TransportConfig::InProcess)
        } else if v.eq_ignore_ascii_case("tcp-event") || v.eq_ignore_ascii_case("tcp_event") {
            Ok(TransportConfig::TcpEvent(socket))
        } else if v.eq_ignore_ascii_case("tcp") {
            Err(
                "CHANT_TRANSPORT=tcp: the thread-per-connection backend was removed; \
                 use CHANT_TRANSPORT=tcp-event"
                    .to_string(),
            )
        } else {
            Err(format!(
                "unknown CHANT_TRANSPORT value '{v}' (expected 'inproc' or 'tcp-event')"
            ))
        }
    }

    /// The contiguous PE range this process hosts under this config:
    /// one PE in multi-process mode, all of them otherwise.
    pub fn hosted_pes(&self, pes: u32) -> std::ops::Range<u32> {
        match self {
            TransportConfig::TcpEvent(TcpOptions { rank: Some(r), .. }) => {
                assert!(*r < pes, "CHANT_RANK {r} outside the world ({pes} PEs)");
                *r..*r + 1
            }
            _ => 0..pes,
        }
    }
}

/// The original backend: deliver synchronously into the destination
/// endpoint, on the sender's thread, before `send` returns. This is the
/// exact pre-trait code path — the paper's table reproductions and
/// every existing test run on it unchanged.
pub(crate) struct InProcessTransport {
    sink: DeliverySink,
    stats: Arc<TransportStats>,
}

impl InProcessTransport {
    pub fn new(sink: DeliverySink) -> InProcessTransport {
        InProcessTransport {
            sink,
            stats: Arc::new(TransportStats::default()),
        }
    }
}

impl Transport for InProcessTransport {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn send(&self, header: Header, body: Bytes) {
        TransportStats::bump(&self.stats.frames_sent);
        if self.sink.deliver(header, body).is_ok() {
            TransportStats::bump(&self.stats.frames_received);
        }
    }

    fn stats(&self) -> TransportStatsSnapshot {
        self.stats.snapshot()
    }

    fn shutdown(&self) {}
}

/// Construct the configured transport for a world being built. Must be
/// called from inside the world's `Arc::new_cyclic` so background
/// threads hold only weak references.
pub(crate) fn build_transport(
    config: &TransportConfig,
    pes: u32,
    world: Weak<WorldInner>,
) -> Arc<dyn Transport> {
    let sink = DeliverySink::new(world);
    match config {
        TransportConfig::InProcess => Arc::new(InProcessTransport::new(sink)),
        #[cfg(target_os = "linux")]
        TransportConfig::TcpEvent(opts) => TcpEventTransport::start(opts.clone(), pes, sink)
            .unwrap_or_else(|e| panic!("failed to start event-loop TCP transport: {e}")),
        #[cfg(not(target_os = "linux"))]
        TransportConfig::TcpEvent(_) => {
            panic!("the tcp-event transport requires Linux (epoll/eventfd)")
        }
    }
}

/// Trace-gated counter for the socket backend (compiled out entirely
/// without the `trace` feature).
#[cfg(all(target_os = "linux", feature = "trace"))]
pub(crate) fn emit_counter(name: &'static str) {
    chant_obs::registry().counter(name).incr();
}

#[cfg(all(target_os = "linux", not(feature = "trace")))]
pub(crate) fn emit_counter(_name: &'static str) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: Option<&str>) -> Result<TransportConfig, String> {
        TransportConfig::parse(v, TcpOptions::default())
    }

    #[test]
    fn transport_names_select_their_backend() {
        for v in [None, Some(""), Some("inproc"), Some("INPROC")] {
            assert!(matches!(parse(v), Ok(TransportConfig::InProcess)), "{v:?}");
        }
        for v in ["tcp-event", "tcp_event", "TCP-EVENT", " tcp-event "] {
            assert!(
                matches!(parse(Some(v)), Ok(TransportConfig::TcpEvent(_))),
                "{v}"
            );
        }
        let socket = TcpOptions {
            rank: Some(2),
            ..TcpOptions::default()
        };
        let Ok(TransportConfig::TcpEvent(o)) = TransportConfig::parse(Some("tcp-event"), socket)
        else {
            panic!("tcp-event must select the socket backend");
        };
        assert_eq!(o.rank, Some(2), "socket options must pass through");
    }

    #[test]
    fn removed_and_unknown_transport_names_are_rejected() {
        let err = parse(Some("tcp")).expect_err("the removed backend must not fall back");
        assert!(err.contains("tcp-event"), "{err}");
        for v in ["tpc-event", "mpi", "udp"] {
            let err = parse(Some(v)).expect_err(v);
            assert!(err.contains(v) && err.contains("tcp-event"), "{err}");
        }
    }
}
