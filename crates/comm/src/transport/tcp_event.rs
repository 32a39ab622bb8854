//! The TCP backend: length-prefixed frames between OS processes, every
//! connection on one poller thread.
//!
//! Topology: one listener per OS process. In **loopback** mode (no
//! rank, no peer list) the world binds an ephemeral `127.0.0.1` port
//! and every PE's traffic loops through it — all endpoints stay local,
//! but each message makes a real kernel round trip through the frame
//! codec. In **multi-process** mode (`rank` + `peers`) each process
//! hosts one PE's endpoints, binds its own entry from the peer list,
//! and reaches every other PE lazily through `peers[pe]`.
//!
//! This is the LCI-style shape: a single poller thread drives *all*
//! sockets through an epoll readiness loop ([`super::sys`]), senders
//! never block, and same-peer frames coalesce into one vectored write.
//!
//! Structure:
//!
//! * **One reactor, any driver.** The listener, the wakeup eventfd, and
//!   every connection (inbound and outbound) are registered with one
//!   epoll instance, and the dispatch state (inbound staging buffers,
//!   the listener) lives behind a single try-lock. The dedicated poller
//!   thread is merely the driver of last resort: any thread may take
//!   the lock and run one nonblocking reactor turn.
//! * **Sender-driven progress.** After its inline write, a sender
//!   opportunistically drives the reactor once (`try_lock` + zero
//!   -timeout `epoll_wait`). On loopback — and whenever traffic is
//!   bidirectional — inbound frames are therefore read and delivered on
//!   the *sending* thread, without waiting for the poller to be
//!   scheduled. This is the LCI shape: communication progresses inside
//!   the communicating threads' calls, not on a background thread's
//!   schedule. Ping-pong latency drops to the inline write + read cost.
//! * **Inline-send fast path.** A sender encodes its frame into a
//!   pooled buffer, appends it to the destination peer's queue, and —
//!   when the queue was idle — flushes it right there with a
//!   nonblocking vectored write. In the common case a message costs the
//!   sender one `writev` and the poller nothing. Only when the socket
//!   pushes back does the sender arm `EPOLLOUT` and hand the backlog to
//!   the poller (partial-write offset included), which resumes exactly
//!   where the kernel stopped.
//! * **Send coalescing.** Whoever flushes (sender or poller) drains the
//!   whole queue through one `write_vectored` call per kernel
//!   round-trip — under load, many frames per syscall; the
//!   `coalesced_*` counters record the achieved batch depth.
//! * **Adaptive spin-then-park.** After any activity the poller polls
//!   epoll with a zero timeout for a short window (yielding the core
//!   between polls, so single-CPU hosts keep making progress), then
//!   parks in a blocking `epoll_wait` held *outside* the reactor lock —
//!   a parked poller never blocks a sender from driving. Level
//!   -triggered epoll makes this safe: whatever the parked poller is
//!   woken for but a sender consumed first simply isn't there on the
//!   next turn.
//! * **No blocking handoff for wakeups.** Senders arm interest with
//!   `epoll_ctl` directly (epoll is thread-safe); the eventfd exists
//!   only to interrupt a parked poller at shutdown.
//!
//! Delivery semantics — per-link FIFO (one connection per destination
//! PE, queue order preserved, single flusher under the peer lock),
//! counted-never-panicking malformed frames, lazy patient bootstrap
//! dial, fail-fast redial — match the in-process oracle, and
//! `tests/transport_conformance.rs` holds it to that.
//!
//! **No backpressure.** Senders never block, so frames toward a peer
//! that stopped reading queue in user space without bound. Whatever is
//! still queued when the transport shuts down is dropped and counted as
//! `send_failures`.

#![cfg(target_os = "linux")]

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use super::frame::{decode_frame, encode_frame_into, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use super::pool::BufferPool;
use super::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use super::{
    emit_counter, DeliverError, DeliverySink, TcpOptions, Transport, TransportStats,
    TransportStatsSnapshot,
};
use crate::header::Header;

/// Dial attempts for a peer we had reached before (it answered once, so
/// a long outage means it is gone — fail fast and let retries upstairs
/// pace themselves).
const RECONNECT_ATTEMPTS: u32 = 2;

/// Most frames one `write_vectored` call will carry.
const MAX_IOV: usize = 64;

/// Initial per-connection receive staging buffer.
const READ_BUF_INIT: usize = 64 * 1024;

/// Epoll tokens 0 and 1 are the wakeup eventfd and the listener;
/// connections start here.
/// Backstop-mode park tick: the longest an inbound frame can sit
/// unread when every application thread is too busy to run its idle
/// progress hook.
const STANDBY_TICK_MS: i32 = 1;

const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// Outbound state for one destination PE. The mutex serializes queue
/// access *and* flushing — there is exactly one flusher at a time, and
/// frames leave in queue order, so per-link FIFO holds by construction.
/// Every write under this lock is nonblocking; nothing holds it across
/// a kernel wait.
struct PeerOut {
    s: Mutex<PeerOutState>,
}

struct PeerOutState {
    /// The connection, shared with the poller (which watches its fd for
    /// writability and EOF). `None` until the first send dials.
    conn: Option<Arc<TcpStream>>,
    /// Epoll token of `conn` (valid while `conn` is `Some`).
    token: u64,
    /// Encoded frames not yet fully handed to the kernel.
    q: VecDeque<Vec<u8>>,
    /// Bytes of `q[0]` already written (partial-write resume point).
    woff: usize,
    /// Is `EPOLLOUT` armed (backlog handed to the poller)?
    want_write: bool,
    /// Is some sender currently inside the blocking dial?
    dialing: bool,
    /// Has a full dial cycle happened (patient budget spent)?
    tried: bool,
}

impl PeerOutState {
    fn new() -> PeerOutState {
        PeerOutState {
            conn: None,
            token: 0,
            q: VecDeque::new(),
            woff: 0,
            want_write: false,
            dialing: false,
            tried: false,
        }
    }
}

/// One accepted (inbound) connection, owned by the reactor.
struct InboundConn {
    stream: TcpStream,
    /// Staging buffer; valid bytes are `buf[start..end]`. Kept at full
    /// length (zero-filled once per growth) so reads land in `[end..]`
    /// without per-read zeroing.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// The dispatch state a reactor turn needs: whoever holds this lock is
/// the driver. The poller thread holds it only for nonblocking turns —
/// parking happens outside it — so a sender's opportunistic
/// [`TcpEventTransport::try_progress`] is never blocked for long.
struct Reactor {
    inbound: HashMap<u64, InboundConn>,
    /// `None` after teardown (dropping it closes the listening socket).
    listener: Option<TcpListener>,
    /// Scratch for `epoll_wait`.
    events: Vec<EpollEvent>,
    /// Scratch copy of one turn's `(token, bits)` pairs, so dispatch can
    /// mutate `inbound` while iterating.
    ready: Vec<(u64, u32)>,
}

pub(crate) struct TcpEventTransport {
    opts: TcpOptions,
    /// Resolved listen address of every PE's process, by PE index.
    peers: Vec<SocketAddr>,
    local_addr: SocketAddr,
    sink: DeliverySink,
    stats: Arc<TransportStats>,
    pool: BufferPool,
    epoll: Epoll,
    wake: EventFd,
    /// Second epoll set holding only the wake eventfd: the poller parks
    /// here (with a coarse tick) once application threads have taken
    /// over progress, so inbound traffic no longer wakes it per frame.
    standby: Epoll,
    /// Set once a scheduler registers [`TcpEventTransport::try_progress`]
    /// as an idle driver; flips the poller from first responder (park on
    /// the data epoll, wake per event) to backstop (park on `standby`).
    external_driver: AtomicBool,
    /// The dispatch state; see [`Reactor`]. Lock order: `reactor` before
    /// any peer lock before `out_tokens` — and `try_progress` is never
    /// called with a peer lock held.
    reactor: Mutex<Reactor>,
    /// Per-destination-PE outbound state, created lazily.
    out: Mutex<HashMap<u32, Arc<PeerOut>>>,
    /// Epoll token -> destination PE, for outbound connections (inbound
    /// connections live in the reactor's map).
    out_tokens: Mutex<HashMap<u64, u32>>,
    next_token: AtomicU64,
    poller: Mutex<Option<JoinHandle<()>>>,
    stop: AtomicBool,
}

impl TcpEventTransport {
    /// Bind the listener, start the poller thread, and return the
    /// transport. Errors are configuration/bind problems; runtime I/O
    /// failures are handled per connection.
    pub fn start(
        opts: TcpOptions,
        pes: u32,
        sink: DeliverySink,
    ) -> std::io::Result<Arc<TcpEventTransport>> {
        let (listener, peers) = if opts.peers.is_empty() {
            assert!(
                opts.rank.is_none(),
                "a TCP rank needs a peer list (set CHANT_PEERS)"
            );
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let local = listener.local_addr()?;
            (listener, vec![local; pes as usize])
        } else {
            assert_eq!(
                opts.peers.len(),
                pes as usize,
                "CHANT_PEERS must list one address per PE ({} PEs, {} peers)",
                pes,
                opts.peers.len()
            );
            let rank = opts
                .rank
                .expect("a TCP peer list needs a rank (set CHANT_RANK)");
            let mut peers = Vec::with_capacity(opts.peers.len());
            for p in &opts.peers {
                let addr = p.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("peer address '{p}' did not resolve"),
                    )
                })?;
                peers.push(addr);
            }
            let listener = TcpListener::bind(peers[rank as usize])?;
            (listener, peers)
        };
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let wake = EventFd::new()?;
        epoll.add(wake.fd(), EPOLLIN, TOKEN_WAKE)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        let standby = Epoll::new()?;
        standby.add(wake.fd(), EPOLLIN, TOKEN_WAKE)?;
        let transport = Arc::new(TcpEventTransport {
            opts,
            peers,
            local_addr,
            sink,
            stats: Arc::new(TransportStats::default()),
            pool: BufferPool::new(256),
            epoll,
            wake,
            standby,
            external_driver: AtomicBool::new(false),
            reactor: Mutex::new(Reactor {
                inbound: HashMap::new(),
                listener: Some(listener),
                events: vec![EpollEvent { events: 0, data: 0 }; 128],
                ready: Vec::with_capacity(128),
            }),
            out: Mutex::new(HashMap::new()),
            out_tokens: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(TOKEN_FIRST_CONN),
            poller: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let me = Arc::clone(&transport);
        let handle = std::thread::Builder::new()
            .name("chant-tcp-poll".into())
            .spawn(move || me.poll_loop())
            .expect("spawn TCP event poller");
        *transport.poller.lock() = Some(handle);
        Ok(transport)
    }

    /// The address this process listens on (for tests and reports).
    #[allow(dead_code)]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    // -- sender side ---------------------------------------------------

    fn out_slot(&self, pe: u32) -> Arc<PeerOut> {
        let mut out = self.out.lock();
        Arc::clone(
            out.entry(pe)
                .or_insert_with(|| Arc::new(PeerOut { s: Mutex::new(PeerOutState::new()) })),
        )
    }

    /// Dial a peer, with the bootstrap budget on the first cycle and
    /// the fail-fast budget afterwards. Called without any peer lock
    /// held (the `dialing` flag keeps it single-flight).
    fn dial(&self, pe: u32, attempts: u32) -> Option<TcpStream> {
        let addr = self.peers[pe as usize];
        let mut backoff = Duration::from_millis(self.opts.connect_backoff_ms.max(1));
        for attempt in 0..attempts {
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    TransportStats::bump(&self.stats.connects);
                    emit_counter("comm.tcp_event.connects");
                    return Some(s);
                }
                Err(_) if attempt + 1 < attempts => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
                Err(_) => {}
            }
        }
        None
    }

    /// Register a freshly dialed stream with the poller's epoll set and
    /// install it as the peer's connection. Returns false (queue
    /// dropped and counted) if registration fails.
    fn install_conn(&self, pe: u32, s: &mut PeerOutState, stream: TcpStream) -> bool {
        if stream.set_nonblocking(true).is_err() {
            self.fail_queue(s);
            return false;
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        self.out_tokens.lock().insert(token, pe);
        // Read interest only: the remote never sends on our outbound
        // link, so EPOLLIN here means EOF.
        if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, token).is_err() {
            self.out_tokens.lock().remove(&token);
            self.fail_queue(s);
            return false;
        }
        s.conn = Some(Arc::new(stream));
        s.token = token;
        s.woff = 0;
        s.want_write = false;
        true
    }

    /// Drop everything queued for an unreachable peer, counting each
    /// frame as a send failure (upstream retry/liveness takes over).
    fn fail_queue(&self, s: &mut PeerOutState) {
        while let Some(f) = s.q.pop_front() {
            TransportStats::bump(&self.stats.send_failures);
            emit_counter("comm.tcp_event.send_failures");
            self.pool.put(f);
        }
        s.woff = 0;
    }

    /// Tear down a peer's connection after an I/O error or remote EOF:
    /// close the socket, deregister, drop the backlog (counted), and
    /// leave the slot ready for a fail-fast redial on the next send.
    fn teardown_locked(&self, s: &mut PeerOutState) {
        if let Some(conn) = s.conn.take() {
            self.out_tokens.lock().remove(&s.token);
            self.epoll.delete(conn.as_raw_fd());
            let _ = conn.shutdown(Shutdown::Both);
        }
        s.want_write = false;
        self.fail_queue(s);
    }

    /// Flush as much of the peer's queue as the socket will take, in as
    /// few vectored writes as possible. Caller holds the peer lock; all
    /// writes are nonblocking.
    fn flush_locked(&self, s: &mut PeerOutState) {
        let Some(conn) = s.conn.clone() else { return };
        let mut w = &*conn;
        while !s.q.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(s.q.len().min(MAX_IOV));
            let mut it = s.q.iter();
            let first = it.next().expect("queue non-empty");
            slices.push(IoSlice::new(&first[s.woff..]));
            for f in it.take(MAX_IOV - 1) {
                slices.push(IoSlice::new(f));
            }
            let batched = slices.len();
            match w.write_vectored(&slices) {
                Ok(0) => {
                    TransportStats::bump(&self.stats.reconnects);
                    self.teardown_locked(s);
                    return;
                }
                Ok(mut n) => {
                    TransportStats::add(&self.stats.frame_bytes_sent, n as u64);
                    if batched > 1 {
                        TransportStats::bump(&self.stats.coalesced_writes);
                        TransportStats::add(&self.stats.coalesced_frames, batched as u64);
                        emit_counter("comm.tcp_event.coalesced_writes");
                    }
                    // Advance the queue by n bytes, recycling every
                    // fully written frame.
                    while n > 0 {
                        let remaining = s.q[0].len() - s.woff;
                        if n >= remaining {
                            n -= remaining;
                            s.woff = 0;
                            let done = s.q.pop_front().expect("frame while advancing");
                            self.pool.put(done);
                            TransportStats::bump(&self.stats.frames_sent);
                        } else {
                            s.woff += n;
                            n = 0;
                            TransportStats::bump(&self.stats.partial_writes);
                            emit_counter("comm.tcp_event.partial_writes");
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Kernel buffer full: hand the backlog to the poller.
                    if !s.want_write {
                        s.want_write = true;
                        let _ = self.epoll.modify(
                            conn.as_raw_fd(),
                            EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                            s.token,
                        );
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    TransportStats::bump(&self.stats.reconnects);
                    emit_counter("comm.tcp_event.reconnects");
                    self.teardown_locked(s);
                    return;
                }
            }
        }
        // Drained: quiesce write interest so the poller stays parked.
        if s.want_write {
            s.want_write = false;
            if let Some(conn) = &s.conn {
                let _ = self
                    .epoll
                    .modify(conn.as_raw_fd(), EPOLLIN | EPOLLRDHUP, s.token);
            }
        }
    }

    // -- reactor side --------------------------------------------------

    /// One opportunistic reactor turn from a non-poller thread: if no
    /// other thread is driving, wait zero time for readiness and
    /// dispatch it. Called by `send` after its inline write, so inbound
    /// traffic (the loopback echo, the RSR reply already on the wire)
    /// is delivered on the calling thread instead of waiting for the
    /// poller to be scheduled. Returns whether any event was handled.
    fn try_progress(&self) -> bool {
        if self.stop.load(Ordering::Acquire) {
            return false;
        }
        match self.reactor.try_lock() {
            Some(mut r) => self.drive(&mut r, 0) > 0,
            None => false, // someone else is driving; that's progress too
        }
    }

    /// One reactor turn: wait up to `timeout_ms` for readiness and
    /// dispatch every reported event. Caller holds the reactor lock.
    /// Returns the number of events handled.
    fn drive(&self, r: &mut Reactor, timeout_ms: i32) -> usize {
        r.ready.clear();
        for ev in self.epoll.wait(&mut r.events, timeout_ms) {
            r.ready.push((ev.data, ev.events));
        }
        let handled = r.ready.len();
        for i in 0..handled {
            let (token, bits) = r.ready[i];
            match token {
                TOKEN_WAKE => {
                    TransportStats::bump(&self.stats.wakeups);
                    // Leave the signal in place during shutdown so a
                    // sender's turn can't eat the poller's unpark.
                    if !self.stop.load(Ordering::Acquire) {
                        self.wake.drain();
                    }
                }
                TOKEN_LISTENER => self.accept_ready(r),
                _ => {
                    let out_pe = self.out_tokens.lock().get(&token).copied();
                    if let Some(pe) = out_pe {
                        self.outbound_event(pe, token, bits);
                    } else if let Some(conn) = r.inbound.get_mut(&token) {
                        if !self.inbound_ready(conn) {
                            let dead = r.inbound.remove(&token).expect("conn present");
                            self.epoll.delete(dead.stream.as_raw_fd());
                            self.pool.put(dead.buf);
                        }
                    }
                }
            }
        }
        handled
    }

    fn poll_loop(self: Arc<Self>) {
        let spin = Duration::from_micros(self.opts.spin_us);
        let mut last_activity = Instant::now();
        // Parking scratch, separate from the reactor's: park-phase
        // events are only a wake signal — the next locked turn
        // re-collects them (level-triggered).
        let mut park = [EpollEvent { events: 0, data: 0 }; 8];
        loop {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let worked = match self.reactor.try_lock() {
                Some(mut r) => self.drive(&mut r, 0),
                None => {
                    // A sender is driving; stay out of its way. Its
                    // turn does NOT count as poller activity — if
                    // senders keep the reactor drained we should fall
                    // through to the park below, not burn the core.
                    std::thread::yield_now();
                    continue;
                }
            };
            if worked > 0 {
                last_activity = Instant::now();
                continue;
            }
            if self.external_driver.load(Ordering::Acquire) {
                // Backstop mode: application threads drive the reactor
                // from their idle loops, so this thread must NOT park on
                // the data epoll (every inbound frame would wake it for
                // nothing). Park on the wake-only set with a coarse tick
                // — worst case an arrival waits one tick if every
                // application thread stays busy; shutdown still wakes it
                // immediately through the eventfd.
                let _ = self.standby.wait(&mut park, STANDBY_TICK_MS);
                continue;
            }
            // Adaptive spin-then-park: poll hot for a short window after
            // the poller itself last found work (yielding between polls
            // so co-scheduled runtime threads keep the core), then park
            // in the kernel — outside the reactor lock, so senders can
            // still drive. A park wake-up alone doesn't re-arm the spin
            // window: if the racing sender consumed the readiness first,
            // the next turn handles nothing and we park right back.
            if last_activity.elapsed() <= spin {
                std::hint::spin_loop();
                std::thread::yield_now();
                continue;
            }
            let _ = self.epoll.wait(&mut park, -1);
        }
        // Teardown: the reactor owns the inbound side and the listener.
        let mut r = self.reactor.lock();
        for (_, conn) in r.inbound.drain() {
            self.epoll.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        r.listener = None;
    }

    fn accept_ready(&self, r: &mut Reactor) {
        let Reactor {
            inbound, listener, ..
        } = r;
        let Some(listener) = listener.as_ref() else {
            return;
        };
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            TransportStats::bump(&self.stats.accepts);
            emit_counter("comm.tcp_event.accepts");
            let token = self.next_token.fetch_add(1, Ordering::Relaxed);
            if self.epoll.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token).is_err() {
                continue;
            }
            let mut buf = self.pool.get();
            let target = buf.capacity().max(READ_BUF_INIT);
            buf.resize(target, 0);
            inbound.insert(
                token,
                InboundConn {
                    stream,
                    buf,
                    start: 0,
                    end: 0,
                },
            );
        }
    }

    /// Writability / EOF on an outbound connection.
    fn outbound_event(&self, pe: u32, token: u64, bits: u32) {
        let slot = self.out_slot(pe);
        let mut s = slot.s.lock();
        if s.conn.is_none() || s.token != token {
            return; // stale event for a connection already torn down
        }
        if bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP | EPOLLIN) != 0 {
            // The remote never sends on our outbound link: readability
            // or a hangup flag means the connection is gone.
            TransportStats::bump(&self.stats.reconnects);
            emit_counter("comm.tcp_event.reconnects");
            self.teardown_locked(&mut s);
            return;
        }
        if bits & EPOLLOUT != 0 {
            self.flush_locked(&mut s);
        }
    }

    /// Drain one inbound connection: read everything available, parse
    /// and deliver complete frames. Returns false when the connection
    /// is finished (EOF, error, or lost framing).
    fn inbound_ready(&self, conn: &mut InboundConn) -> bool {
        let max = self.opts.max_frame_len.min(MAX_FRAME_LEN);
        loop {
            // Make room: compact consumed bytes, grow for jumbo frames.
            if conn.end == conn.buf.len() {
                if conn.start > 0 {
                    conn.buf.copy_within(conn.start..conn.end, 0);
                    conn.end -= conn.start;
                    conn.start = 0;
                } else {
                    let grown = (conn.buf.len() * 2).max(READ_BUF_INIT);
                    conn.buf.resize(grown, 0);
                }
            }
            match conn.stream.read(&mut conn.buf[conn.end..]) {
                Ok(0) => return false, // EOF
                Ok(n) => {
                    conn.end += n;
                    if !self.parse_frames(conn, max) {
                        return false;
                    }
                    // Level-triggered epoll re-reports anything left; a
                    // short read means the socket is drained.
                    if conn.end < conn.buf.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Parse every complete frame in `buf[start..end]` and deliver it.
    /// Returns false on lost framing (connection must drop).
    fn parse_frames(&self, conn: &mut InboundConn, max: u32) -> bool {
        loop {
            let avail = conn.end - conn.start;
            if avail < 4 {
                break;
            }
            let n = u32::from_le_bytes(
                conn.buf[conn.start..conn.start + 4]
                    .try_into()
                    .expect("4 bytes"),
            );
            if (n as usize) < FRAME_HEADER_LEN || n > max {
                TransportStats::bump(&self.stats.malformed_frames);
                emit_counter("comm.tcp_event.malformed_frames");
                return false;
            }
            let total = 4 + n as usize;
            if avail < total {
                // Partial frame: ensure the buffer can ever hold it.
                if conn.buf.len() < total {
                    conn.buf.copy_within(conn.start..conn.end, 0);
                    conn.end -= conn.start;
                    conn.start = 0;
                    conn.buf.resize(total.next_power_of_two(), 0);
                }
                break;
            }
            let payload = &conn.buf[conn.start + 4..conn.start + total];
            match decode_frame(payload) {
                Ok((header, body)) => {
                    TransportStats::bump(&self.stats.frames_received);
                    TransportStats::add(&self.stats.frame_bytes_received, total as u64);
                    match self.sink.deliver(header, body) {
                        Ok(()) => {}
                        Err(DeliverError::NotHosted) => {
                            TransportStats::bump(&self.stats.misrouted);
                            emit_counter("comm.tcp_event.misrouted");
                        }
                        // World teardown is in progress; the stop flag
                        // arrives with the transport's shutdown call.
                        Err(DeliverError::WorldGone) => {}
                    }
                }
                Err(_) => {
                    TransportStats::bump(&self.stats.malformed_frames);
                    emit_counter("comm.tcp_event.malformed_frames");
                    return false;
                }
            }
            conn.start += total;
        }
        if conn.start == conn.end {
            conn.start = 0;
            conn.end = 0;
        }
        true
    }
}

impl Transport for TcpEventTransport {
    fn name(&self) -> &'static str {
        "tcp-event"
    }

    fn send(&self, header: Header, body: Bytes) {
        if self.stop.load(Ordering::Acquire) {
            return;
        }
        let pe = header.dst.pe;
        let mut frame = self.pool.get();
        encode_frame_into(&header, &body, &mut frame);
        let slot = self.out_slot(pe);
        let mut s = slot.s.lock();
        s.q.push_back(frame);
        while s.conn.is_none() {
            if s.dialing {
                // Another sender is mid-dial; our frame rides its
                // queue and flushes when the dial lands.
                return;
            }
            let budget = if s.tried {
                RECONNECT_ATTEMPTS
            } else {
                self.opts.connect_attempts
            };
            s.tried = true;
            s.dialing = true;
            // The dial blocks (bootstrap patience is correctness);
            // release the queue so other senders keep enqueueing.
            drop(s);
            let dialed = self.dial(pe, budget);
            s = slot.s.lock();
            s.dialing = false;
            match dialed {
                Some(stream) => {
                    if !self.install_conn(pe, &mut s, stream) {
                        return;
                    }
                }
                None => {
                    self.fail_queue(&mut s);
                    return;
                }
            }
        }
        // Inline fast path: flush here and now unless a backlog is
        // already armed with the poller (order demands we queue behind
        // it and let EPOLLOUT drive).
        if !s.want_write {
            self.flush_locked(&mut s);
        }
        // Opportunistic receive on the sending thread: if the reactor
        // is free, run one zero-timeout turn so a reply already on the
        // wire (loopback, fast peer) is delivered without waiting for
        // the poller thread to be scheduled.
        drop(s);
        self.try_progress();
    }

    fn stats(&self) -> TransportStatsSnapshot {
        let mut snap = self.stats.snapshot();
        let (hits, misses) = self.pool.counters();
        snap.pool_hits = hits;
        snap.pool_misses = misses;
        snap
    }

    fn try_progress(&self) -> bool {
        TcpEventTransport::try_progress(self)
    }

    fn wants_progress_driver(&self) -> bool {
        true
    }

    fn attach_progress_driver(&self) {
        if !self.external_driver.swap(true, Ordering::AcqRel) {
            // Unpark the poller so it re-reads the flag and moves to the
            // standby set.
            self.wake.signal();
        }
    }

    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.wake.signal();
        // Join the poller — unless the last world reference happened to
        // be dropped on the poller thread itself.
        let handle = self.poller.lock().take();
        if let Some(h) = handle {
            if h.thread().id() == std::thread::current().id() {
                drop(h);
            } else {
                let _ = h.join();
            }
        }
        // Close outbound connections: remote ends see EOF. Anything
        // still queued counts as a failure (clean teardown drains first).
        let out: Vec<Arc<PeerOut>> = self.out.lock().drain().map(|(_, p)| p).collect();
        for peer in out {
            let mut s = peer.s.lock();
            if let Some(conn) = s.conn.take() {
                self.out_tokens.lock().remove(&s.token);
                let _ = conn.shutdown(Shutdown::Both);
            }
            self.fail_queue(&mut s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Address;
    use std::sync::Weak;

    /// The fd-leak test counts every fd in the process, so the tests
    /// here that open sockets run one at a time.
    static SOCKETS: Mutex<()> = Mutex::new(());

    fn dangling_sink() -> DeliverySink {
        DeliverySink::new(Weak::new())
    }

    fn header(dst_pe: u32, len: u32) -> Header {
        Header {
            src: Address::new(0, 0),
            dst: Address::new(dst_pe, 0),
            tag: 1,
            ctx: 0,
            kind: 0,
            len,
            #[cfg(feature = "trace")]
            trace: 0,
        }
    }

    /// All fds this process holds, for leak accounting (sockets, epoll
    /// and eventfd instances all show up here).
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd")
            .map(|d| d.count())
            .unwrap_or(0)
    }

    #[test]
    fn shutdown_is_idempotent_and_leaks_no_fds() {
        let _serial = SOCKETS.lock();
        let before = open_fds();
        {
            let t = TcpEventTransport::start(TcpOptions::default(), 2, dangling_sink())
                .expect("start event transport");
            // Generate real traffic to itself (loopback peers): frames
            // go out, the poller accepts and reads them, delivery hits
            // the dangling sink (world gone) and is dropped.
            for i in 0..20u32 {
                t.send(header(1, 4), Bytes::copy_from_slice(&i.to_le_bytes()));
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while t.stats().frames_received < 20 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(t.stats().frames_sent, 20, "{:?}", t.stats());
            assert_eq!(t.stats().frames_received, 20, "{:?}", t.stats());
            t.shutdown();
            t.shutdown(); // idempotent: second call is a no-op
        }
        // Poller joined, sockets + epoll + eventfd all closed.
        let deadline = Instant::now() + Duration::from_secs(2);
        while open_fds() != before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(open_fds(), before, "event transport leaked fds");
    }

    #[test]
    fn unreachable_peer_counts_failures_without_blocking_forever() {
        let _serial = SOCKETS.lock();
        // Reserve a port nobody listens on.
        let dead = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let opts = TcpOptions {
            rank: Some(0),
            peers: vec!["127.0.0.1:0".into(), dead.to_string()],
            connect_attempts: 2,
            connect_backoff_ms: 1,
            ..TcpOptions::default()
        };
        // rank 0 binds peers[0]; port 0 means an ephemeral bind.
        let t = TcpEventTransport::start(opts, 2, dangling_sink()).expect("start");
        let t0 = Instant::now();
        t.send(header(1, 1), Bytes::copy_from_slice(b"x"));
        assert!(t0.elapsed() < Duration::from_secs(10), "dial never failed fast");
        assert!(t.stats().send_failures >= 1, "{:?}", t.stats());
        t.shutdown();
    }

    /// A peer that accepts and never reads: senders must still return
    /// promptly (frames queue in user space — there is no kernel
    /// backpressure on this backend), `shutdown` must finish, and every
    /// frame still queued must surface as a counted send failure.
    #[test]
    fn shutdown_fails_frames_queued_toward_a_stalled_peer() {
        let _serial = SOCKETS.lock();
        let stall = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stall_addr = stall.local_addr().unwrap();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let held = stall.accept().map(|(s, _)| s);
            let _ = released.recv();
            drop(held);
        });
        let opts = TcpOptions {
            rank: Some(0),
            peers: vec!["127.0.0.1:0".into(), stall_addr.to_string()],
            connect_attempts: 2,
            ..TcpOptions::default()
        };
        let t = TcpEventTransport::start(opts, 2, dangling_sink()).expect("start");

        // Pump megabyte frames until the kernel buffers are full and the
        // user-space queue holds the rest: frames_sent stops short of
        // what was sent.
        const MAX_FRAMES: u64 = 64;
        let body = Bytes::from(vec![0u8; 1 << 20]);
        let mut sent = 0u64;
        while sent < MAX_FRAMES && t.stats().frames_sent == sent {
            for _ in 0..8 {
                let t0 = Instant::now();
                t.send(header(1, body.len() as u32), body.clone());
                sent += 1;
                assert!(
                    t0.elapsed() < Duration::from_secs(1),
                    "send blocked on a full peer"
                );
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let snap = t.stats();
        assert!(snap.frames_sent < sent, "peer never stalled: {snap:?}");

        let start = Instant::now();
        t.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown wedged behind a stalled peer"
        );
        let snap = t.stats();
        assert!(snap.send_failures >= 1, "{snap:?}");
        assert_eq!(
            snap.frames_sent + snap.send_failures,
            sent,
            "every frame is either on the wire or a counted failure: {snap:?}"
        );
        release.send(()).unwrap();
        peer.join().unwrap();
    }
}
