//! The virtual processor: a strict cooperative scheduler multiplexing
//! user-level threads, with the hook points Chant's polling policies need.
//!
//! A [`Vp`] corresponds to the paper's *(processing element, process)*
//! context: one address space's worth of lightweight threads. In the
//! paper's model exactly one thread of a VP executes at a time; the
//! executing thread holds the VP's *scheduling baton* and passes it on at
//! explicit points (`yield_now`, `block`, exit). Whoever holds the baton
//! also runs the scheduler — and therefore the installed
//! [`SchedulerHook`]s — which is how "the scheduler polls for outstanding
//! messages on each context switch" (paper §3.1) without any dedicated
//! scheduler thread.
//!
//! # Multi-VP mode
//!
//! With [`VpConfig::n_vps`] > 1 the VP multiplexes its threads over N
//! *worker lanes*, one scheduling baton each, so a multicore PE can run N
//! user-level threads truly in parallel. Each lane owns a run queue;
//! threads have a *home* lane (round-robin at spawn, or pinned with
//! [`SpawnAttr::affinity`](crate::SpawnAttr::affinity)) that they requeue
//! on at every yield/unblock. An idle lane steals single dispatches from
//! the back of other lanes' queues — a steal moves one quantum of
//! computation, never the home, and never any endpoint or matching-table
//! ownership. Scheduler hooks stay effectively single-threaded: the
//! schedule-point and idle sweeps are serialized by a try-lock gate
//! (contending lanes skip, they do not wait), and the idle sweep fires
//! only when *every* lane is simultaneously out of work. At `n_vps == 1`
//! all of this degenerates to the paper's single-baton scheduler: the
//! gate is never contended, the one lane is "all lanes", and no candidate
//! is ever deferred by the steal-safety check, so counter streams are
//! bit-identical to the pre-multi-VP scheduler.
//!
//! # Timed blocking
//!
//! [`Vp::block_until`] parks a thread off the run path with a deadline.
//! Each VP keeps one deadline set; whichever lane reaches a schedule
//! point (including an idle spin) after a deadline passes fires it. A
//! timed wait therefore costs no switches while it waits, and a VP whose
//! only threads are in timed waits is *idle* — its idle hooks run.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock};

use crate::attr::{Priority, SpawnAttr};
use crate::config::VpConfig;
use crate::current::{self, UltContext};
use crate::error::{JoinError, UltError};
use crate::hooks::{DispatchDecision, HookRef, PendingPoll};
use crate::stats::VpStats;
use crate::tcb::{Lifecycle, Outcome, Phase, Tcb, Tid, MAIN_TID};

/// Panic payload used to unwind a cancelled thread (cf.
/// `pthread_chanter_cancel`). Recognized and silenced by our panic hook.
struct CancelPayload;

/// Install a process-wide panic hook that silences cancellation unwinds
/// while delegating every other panic to the previously installed hook.
fn install_cancel_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CancelPayload>() {
                return; // orderly cancellation, not an error
            }
            prev(info);
        }));
    });
}

/// How the baton holder is departing when it invokes the dispatcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Departure {
    /// Voluntary yield: requeue me, run someone (possibly me again).
    Yield,
    /// I am blocked: do not requeue me; park me after handing off.
    Block,
    /// I am exiting: hand off and let my OS thread die.
    Exit,
    /// Initial dispatch from [`Vp::start`]'s calling thread (or one of
    /// its worker-lane host threads).
    Bootstrap,
}

/// Externally visible lifecycle state of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// On the ready queue awaiting dispatch.
    Ready,
    /// Currently executing.
    Running,
    /// Waiting for an explicit unblock.
    Blocked,
    /// Finished (exit value possibly unclaimed).
    Done,
}

/// Introspection data about one thread (cf. the paper's Figure 2
/// "Information: thread id, attribute info, scheduling info").
#[derive(Clone, Debug)]
pub struct ThreadInfo {
    /// Local thread id.
    pub id: Tid,
    /// Thread name (from [`SpawnAttr::name`] or generated).
    pub name: String,
    /// Current priority class.
    pub priority: Priority,
    /// Lifecycle state at the time of the query.
    pub state: ThreadState,
    /// Whether the thread is detached.
    pub detached: bool,
}

/// Thread directory and lifecycle bookkeeping, shared by all worker
/// lanes. Deliberately holds no run queue: the queues live per-lane in
/// [`Worker`] so ready-queue traffic never contends on this lock.
struct Shared {
    tcbs: HashMap<Tid, Arc<Tcb>>,
    next_tid: Tid,
    /// Threads not yet Done.
    live: usize,
    shutdown: bool,
    /// Round-robin cursor for spawn placement across worker lanes.
    next_place: usize,
}

/// One worker lane: a run queue plus the lane's scheduling baton state.
struct Worker {
    /// This lane's ready queue, one FIFO per priority class. Owners pop
    /// from the front; thieves pop from the back (oldest entry of the
    /// highest non-empty class), keeping owner traffic cache-friendly.
    ///
    /// A plain mutexed deque, not a Chase–Lev deque: measured under
    /// `ult_scale`, queue-lock hold times are tens of nanoseconds against
    /// microsecond-scale dispatch costs (permit grant + OS wakeup), so an
    /// uncontended parking_lot lock is nowhere near the bottleneck. The
    /// lock-free deque stays an upgrade path behind this same interface.
    ready: Mutex<[VecDeque<Tid>; Priority::LEVELS]>,
    /// Tid last dispatched on this lane (0 = none yet), for introspection.
    current: AtomicU32,
}

/// A virtual processor hosting cooperative user-level threads.
///
/// See the [crate documentation](crate) for the execution model.
pub struct Vp {
    cfg: VpConfig,
    /// Worker-lane count; `cfg.n_vps` clamped to ≥ 1.
    n: usize,
    shared: Mutex<Shared>,
    workers: Box<[Worker]>,
    done_cv: Condvar,
    /// Installed scheduler hooks. Kept as a shared slice so the hot
    /// scheduling loop snapshots with one refcount bump and iterates
    /// with no extra indirection or allocation.
    hooks: RwLock<Arc<[HookRef]>>,
    /// Serializes the `at_schedule_point` and `on_idle` hook sweeps
    /// across worker lanes (try-lock: a contending lane skips its sweep
    /// rather than waiting — the holder's sweep is doing the work).
    hook_gate: Mutex<()>,
    /// Number of lanes currently in their idle loop; `on_idle` fires only
    /// when this reaches `n` (the whole VP set is out of work).
    idle_workers: AtomicUsize,
    /// Ensures exactly one lane reports a detected deadlock.
    deadlock_reported: AtomicBool,
    /// Deadlines of threads parked in [`Vp::block_until`], earliest
    /// first. Lock order: a TCB's `life` before `timers`.
    timers: Mutex<BTreeMap<(Instant, Tid), Arc<Tcb>>>,
    /// `timers.len()`, readable without the lock: the schedule-point
    /// check when no timer is armed is this one relaxed load.
    armed: AtomicUsize,
    stats: VpStats,
    /// Trace lane + cached histogram handles; `None` when no tracer was
    /// installed at construction time.
    #[cfg(feature = "trace")]
    obs: Option<crate::obs::VpObs>,
}

impl std::fmt::Debug for Vp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vp")
            .field("name", &self.cfg.name)
            .field("n_vps", &self.n)
            .finish()
    }
}

/// Handle to a spawned thread's eventual result (cf. `pthread_chanter_join`).
pub struct JoinHandle<T> {
    vp: Arc<Vp>,
    tid: Tid,
    detached: bool,
    _marker: PhantomData<fn() -> T>,
}

impl Vp {
    /// Create a new, empty virtual processor.
    pub fn new(cfg: VpConfig) -> Arc<Vp> {
        install_cancel_hook();
        #[cfg(feature = "trace")]
        let obs = crate::obs::VpObs::register(&cfg.name);
        let n = cfg.n_vps.max(1);
        let workers: Box<[Worker]> = (0..n)
            .map(|_| Worker {
                ready: Mutex::new(Default::default()),
                current: AtomicU32::new(0),
            })
            .collect();
        Arc::new(Vp {
            cfg,
            n,
            shared: Mutex::new(Shared {
                tcbs: HashMap::new(),
                next_tid: MAIN_TID,
                live: 0,
                shutdown: false,
                next_place: 0,
            }),
            workers,
            done_cv: Condvar::new(),
            hooks: RwLock::new(Arc::from(Vec::new())),
            hook_gate: Mutex::new(()),
            idle_workers: AtomicUsize::new(0),
            deadlock_reported: AtomicBool::new(false),
            timers: Mutex::new(BTreeMap::new()),
            armed: AtomicUsize::new(0),
            stats: VpStats::default(),
            #[cfg(feature = "trace")]
            obs,
        })
    }

    /// The VP's trace lane, when a tracer was active at construction.
    /// Layers above (e.g. the RSR server) emit their own events here so
    /// they land on the VP's timeline track.
    #[cfg(feature = "trace")]
    pub fn obs_lane(&self) -> Option<&chant_obs::LaneHandle> {
        self.obs.as_ref().map(|o| &o.lane)
    }

    /// The VP's configured name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Number of worker lanes this VP schedules across (≥ 1).
    pub fn n_vps(&self) -> usize {
        self.n
    }

    /// Scheduling statistics for this VP.
    pub fn stats(&self) -> &VpStats {
        &self.stats
    }

    /// Install a scheduler hook. Hooks run at every schedule point in
    /// installation order; see [`crate::SchedulerHook`].
    pub fn install_hook(&self, hook: Arc<dyn crate::SchedulerHook>) {
        let mut guard = self.hooks.write();
        let mut v: Vec<HookRef> = guard.to_vec();
        v.push(hook);
        *guard = Arc::from(v);
    }

    /// Remove all scheduler hooks.
    pub fn clear_hooks(&self) {
        *self.hooks.write() = Arc::from(Vec::new());
    }

    fn hooks_snapshot(&self) -> Arc<[HookRef]> {
        Arc::clone(&self.hooks.read())
    }

    // ------------------------------------------------------------------
    // Run-queue plumbing. Lock discipline: never hold the `shared` lock
    // and a worker queue lock at the same time, and never hold either
    // while taking a TCB's `life` lock — each helper takes exactly one.
    // ------------------------------------------------------------------

    /// Queue a ready thread on its home lane.
    fn push_home(&self, tcb: &Tcb) {
        let w = tcb.home.load(Ordering::Relaxed) % self.n;
        self.workers[w].ready.lock()[tcb.priority().index()].push_back(tcb.id);
    }

    /// Pop the frontmost thread of the highest non-empty priority class
    /// of this lane's own queue.
    fn pop_local(&self, worker: usize) -> Option<Tid> {
        let mut q = self.workers[worker].ready.lock();
        for lane in q.iter_mut().rev() {
            if let Some(t) = lane.pop_front() {
                return Some(t);
            }
        }
        None
    }

    fn local_len(&self, worker: usize) -> usize {
        self.workers[worker].ready.lock().iter().map(VecDeque::len).sum()
    }

    /// Steal one dispatch from another lane: scan victims round-robin
    /// from this lane and take the *back* of the highest non-empty
    /// priority class — the entry its owner would reach last.
    fn try_steal(&self, worker: usize) -> Option<Tid> {
        for d in 1..self.n {
            let victim = (worker + d) % self.n;
            let mut q = self.workers[victim].ready.lock();
            for lane in q.iter_mut().rev() {
                if let Some(t) = lane.pop_back() {
                    return Some(t);
                }
            }
        }
        None
    }

    /// Spawn a user-level thread on this VP. May be called from outside
    /// the VP (before or after [`Vp::start`]) or from one of its threads
    /// (cf. `pthread_chanter_create` with `pe == LOCAL`).
    ///
    /// The thread does not run until the scheduler dispatches it. On a
    /// multi-lane VP its home lane is the spawn attr's affinity (modulo
    /// the lane count) or the next round-robin slot.
    pub fn spawn<T, F>(self: &Arc<Vp>, attr: SpawnAttr, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&Arc<Vp>) -> T + Send + 'static,
    {
        let (tcb, detached) = {
            let mut shared = self.shared.lock();
            assert!(!shared.shutdown, "spawn on a shut-down VP");
            let tid = shared.next_tid;
            shared.next_tid += 1;
            let name = attr
                .name
                .clone()
                .unwrap_or_else(|| format!("{}-t{}", self.cfg.name, tid));
            let tcb = Tcb::new(tid, name, attr.priority, attr.detached);
            let home = match attr.affinity {
                Some(a) => a % self.n,
                None => {
                    let p = shared.next_place % self.n;
                    shared.next_place += 1;
                    p
                }
            };
            tcb.home.store(home, Ordering::Relaxed);
            shared.tcbs.insert(tid, Arc::clone(&tcb));
            shared.live += 1;
            (tcb, attr.detached)
        };
        self.push_home(&tcb);
        VpStats::bump(&self.stats.spawned);

        let vp = Arc::clone(self);
        let tcb_for_thread = Arc::clone(&tcb);
        let mut builder =
            std::thread::Builder::new().name(format!("{}:{}", self.cfg.name, tcb.name));
        if let Some(sz) = attr.stack_size {
            builder = builder.stack_size(sz);
        }
        builder
            .spawn(move || {
                let me = tcb_for_thread;
                current::set_current(Some(UltContext {
                    vp: Arc::clone(&vp),
                    tcb: Arc::clone(&me),
                }));
                // Wait for the first dispatch before touching user code.
                me.permit.wait();
                me.parked.store(false, Ordering::Relaxed);
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(&vp)));
                let outcome = match result {
                    Ok(v) => Outcome::Value(Box::new(v) as Box<dyn Any + Send>),
                    Err(payload) if payload.is::<CancelPayload>() => Outcome::Cancelled,
                    Err(payload) => Outcome::Panicked(payload),
                };
                vp.finish(&me, outcome);
                current::set_current(None);
            })
            .expect("failed to spawn backing OS thread for a user-level thread");

        JoinHandle {
            vp: Arc::clone(self),
            tid: tcb.id,
            detached,
            _marker: PhantomData,
        }
    }

    /// Run the scheduler from the calling (non-ULT) thread until every
    /// thread of the VP has finished. Typically called once after the
    /// initial spawns; threads spawned later by running threads are
    /// awaited too.
    ///
    /// On a multi-lane VP this additionally spawns one host OS thread per
    /// extra lane to bootstrap that lane's baton; they are joined before
    /// returning.
    pub fn start(self: &Arc<Vp>) {
        assert!(
            !current::is_ult_context(),
            "Vp::start must not be called from a user-level thread"
        );
        let mut hosts = Vec::with_capacity(self.n.saturating_sub(1));
        for w in 1..self.n {
            let vp = Arc::clone(self);
            hosts.push(
                std::thread::Builder::new()
                    .name(format!("{}-w{}", self.cfg.name, w))
                    .spawn(move || vp.reschedule(w, None, Departure::Bootstrap))
                    .expect("failed to spawn VP worker-lane host thread"),
            );
        }
        self.reschedule(0, None, Departure::Bootstrap);
        {
            let mut shared = self.shared.lock();
            while shared.live > 0 {
                self.done_cv.wait(&mut shared);
            }
        }
        for h in hosts {
            let _ = h.join();
        }
    }

    /// Convenience: spawn `f` as the main thread, run the VP to
    /// completion, and return `f`'s value.
    pub fn run<T, F>(self: &Arc<Vp>, f: F) -> Result<T, JoinError>
    where
        T: Send + 'static,
        F: FnOnce(&Arc<Vp>) -> T + Send + 'static,
    {
        let h = self.spawn(SpawnAttr::new().name("main"), f);
        self.start();
        h.join()
    }

    // ------------------------------------------------------------------
    // Operations invoked by the currently running thread.
    // ------------------------------------------------------------------

    fn current_tcb(self: &Arc<Vp>) -> Arc<Tcb> {
        current::with_current(|c| {
            let ctx = c.expect("not inside a user-level thread");
            assert!(
                Arc::ptr_eq(&ctx.vp, self),
                "thread belongs to a different VP"
            );
            Arc::clone(&ctx.tcb)
        })
    }

    /// Yield the processor to the next ready thread, as determined by the
    /// scheduler (cf. `pthread_chanter_yield`). Cancellation point.
    pub fn yield_now(self: &Arc<Vp>) {
        let me = self.current_tcb();
        self.testcancel_tcb(&me);
        VpStats::bump(&self.stats.yields);
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Yield { thread: me.id });
        }
        me.life.lock().phase = Phase::Ready;
        self.push_home(&me);
        self.reschedule(
            me.running_on.load(Ordering::Relaxed),
            Some(&me),
            Departure::Yield,
        );
        self.testcancel_tcb(&me);
    }

    /// Block the calling thread until some other agent calls
    /// [`Vp::unblock`] for it. A wakeup that raced ahead of the block (the
    /// "token" case) is consumed instead of blocking. Cancellation point.
    pub fn block(self: &Arc<Vp>) {
        self.park(None);
    }

    /// [`Vp::block`] with a deadline: additionally returns once
    /// `deadline` has passed (immediately if it already has). The thread
    /// is off the run path while it waits — the VP's timer, fired at
    /// schedule points, makes it ready — so a timed wait costs no
    /// context switches and leaves the VP idle. Like `block`, it may
    /// return spuriously: callers re-check their condition and the
    /// clock. The timer wakes only the block it was armed by and never
    /// leaves a wakeup token. Cancellation point.
    pub fn block_until(self: &Arc<Vp>, deadline: Instant) {
        self.park(Some(deadline));
    }

    fn park(self: &Arc<Vp>, deadline: Option<Instant>) {
        let me = self.current_tcb();
        self.testcancel_tcb(&me);
        {
            // The `life` lock orders this decision against `unblock`: an
            // unblocker either sets the token while we hold `life` here
            // (we consume it and return), or observes phase == Blocked
            // and requeues us. The timer is armed in the same critical
            // section that publishes Blocked, so it can only ever find
            // this thread parked, never about to park.
            let mut life = me.life.lock();
            if me.cancel_requested.load(Ordering::Relaxed) {
                return; // re-checked below; don't sleep through a cancel
            }
            if std::mem::take(&mut *me.wake_token.lock()) {
                return; // consume a pending wakeup token
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return;
                }
                life.timer = Some(d);
                let mut timers = self.timers.lock();
                timers.insert((d, me.id), Arc::clone(&me));
                self.armed.store(timers.len(), Ordering::Relaxed);
            }
            // Stamp before publishing Blocked so an unblocker racing in
            // right after the lock drops reads a fresh timestamp.
            #[cfg(feature = "trace")]
            if let Some(o) = &self.obs {
                me.blocked_at_ns.store(o.lane.now_ns(), Ordering::Relaxed);
            }
            life.phase = Phase::Blocked;
        }
        VpStats::bump(&self.stats.blocks);
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Block { thread: me.id });
        }
        self.reschedule(
            me.running_on.load(Ordering::Relaxed),
            Some(&me),
            Departure::Block,
        );
        if let Some(d) = deadline {
            // Disarm before any cancel unwind below. Clearing `timer`
            // first turns a fire already in flight into a no-op.
            me.life.lock().timer = None;
            let mut timers = self.timers.lock();
            timers.remove(&(d, me.id));
            self.armed.store(timers.len(), Ordering::Relaxed);
        }
        self.testcancel_tcb(&me);
    }

    /// Fire every expired timer: make its thread ready if it is still
    /// parked in the `block_until` that armed it. One relaxed load when
    /// nothing is armed.
    fn fire_timers(&self) {
        if self.armed.load(Ordering::Relaxed) == 0 {
            return;
        }
        let now = Instant::now();
        let due = {
            let mut timers = self.timers.lock();
            if timers.first_key_value().is_none_or(|(&(d, _), _)| d > now) {
                return;
            }
            let later = timers.split_off(&(now, Tid::MAX));
            self.armed.store(later.len(), Ordering::Relaxed);
            std::mem::replace(&mut *timers, later)
        };
        for ((deadline, _), tcb) in due {
            let mut life = tcb.life.lock();
            if life.phase == Phase::Blocked && life.timer == Some(deadline) {
                life.timer = None;
                self.make_ready(&tcb, life);
            }
        }
    }

    /// Number of timers currently armed by threads in
    /// [`Vp::block_until`].
    pub fn armed_timers(&self) -> usize {
        self.armed.load(Ordering::Relaxed)
    }

    /// Drop the calling thread's pending wakeup token, if any. For sync
    /// primitives that have just seen, under their own lock, that the
    /// waker which removed them from a wait queue has already run: its
    /// `unblock` is accounted for, and a token it left would only wake
    /// the thread's next, unrelated block.
    pub(crate) fn discard_wake_token(self: &Arc<Vp>) {
        *self.current_tcb().wake_token.lock() = false;
    }

    /// Make a blocked thread ready again. If the target is not currently
    /// blocked, a wakeup token is left for its next [`Vp::block`]. May be
    /// called from any OS thread, including scheduler hooks.
    pub fn unblock(&self, tid: Tid) -> Result<(), UltError> {
        let tcb = self
            .shared
            .lock()
            .tcbs
            .get(&tid)
            .cloned()
            .ok_or(UltError::NoSuchThread(tid))?;
        let life = tcb.life.lock();
        match life.phase {
            Phase::Blocked => self.make_ready(&tcb, life),
            Phase::Done => {}
            _ => {
                // Token set under `life`, pairing with `block`'s
                // check-under-`life`: the wakeup cannot fall between its
                // token test and its Blocked store.
                *tcb.wake_token.lock() = true;
            }
        }
        Ok(())
    }

    /// Move a Blocked thread (whose `life` lock the caller holds) back
    /// to its home lane's ready queue.
    fn make_ready(&self, tcb: &Tcb, mut life: parking_lot::MutexGuard<'_, Lifecycle>) {
        life.phase = Phase::Ready;
        drop(life);
        self.push_home(tcb);
        VpStats::bump(&self.stats.unblocks);
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            let now = o.lane.now_ns();
            o.blocked_ns
                .record(now.saturating_sub(tcb.blocked_at_ns.load(Ordering::Relaxed)));
            o.lane
                .emit_at(now, chant_obs::Event::Unblock { thread: tcb.id });
        }
    }

    /// Store a pending poll request in the calling thread's TCB (the PS
    /// algorithm's per-TCB request slot, paper §4.2).
    pub fn set_current_pending(self: &Arc<Vp>, poll: Box<dyn PendingPoll>) {
        let me = self.current_tcb();
        me.set_pending(poll);
    }

    /// Clear and return the calling thread's pending poll request.
    pub fn take_current_pending(self: &Arc<Vp>) -> Option<Box<dyn PendingPoll>> {
        let me = self.current_tcb();
        me.take_pending()
    }

    /// Request cancellation of a thread (cf. `pthread_chanter_cancel`).
    /// Delivery is cooperative: the target exits at its next cancellation
    /// point (`yield_now`, `block`, or an explicit [`Vp::testcancel`]).
    pub fn cancel(&self, tid: Tid) -> Result<(), UltError> {
        let tcb = self
            .shared
            .lock()
            .tcbs
            .get(&tid)
            .cloned()
            .ok_or(UltError::NoSuchThread(tid))?;
        tcb.cancel_requested.store(true, Ordering::Relaxed);
        // If it is blocked, wake it so it can observe the request.
        let _ = self.unblock(tid);
        Ok(())
    }

    /// Whether a thread has a pending (or already-honoured) cancellation
    /// request. Sync primitives use this to skip doomed waiters: handing
    /// a wakeup to a thread that will only unwind would strand the live
    /// waiters queued behind it. `false` for unknown/reaped tids.
    pub fn is_cancel_requested(&self, tid: Tid) -> bool {
        let shared = self.shared.lock();
        shared
            .tcbs
            .get(&tid)
            .is_some_and(|tcb| tcb.cancel_requested.load(Ordering::Relaxed))
    }

    /// Explicit cancellation point for long computations.
    pub fn testcancel(self: &Arc<Vp>) {
        let me = self.current_tcb();
        self.testcancel_tcb(&me);
    }

    fn testcancel_tcb(&self, me: &Tcb) {
        if me.cancel_requested.load(Ordering::Relaxed) {
            panic::panic_any(CancelPayload);
        }
    }

    /// Change a thread's priority class.
    pub fn set_priority(&self, tid: Tid, priority: Priority) -> Result<(), UltError> {
        let shared = self.shared.lock();
        let tcb = shared.tcbs.get(&tid).ok_or(UltError::NoSuchThread(tid))?;
        tcb.set_priority(priority);
        // Note: if the thread is already queued, it stays in its old class
        // until next requeue — matching typical pthread implementations.
        Ok(())
    }

    /// Mark a thread detached so its resources are reclaimed on exit
    /// (cf. `pthread_chanter_detach`).
    pub fn detach(&self, tid: Tid) -> Result<(), UltError> {
        let mut shared = self.shared.lock();
        let tcb = shared
            .tcbs
            .get(&tid)
            .cloned()
            .ok_or(UltError::NoSuchThread(tid))?;
        tcb.detached.store(true, Ordering::Relaxed);
        let done = tcb.life.lock().phase == Phase::Done;
        if done {
            shared.tcbs.remove(&tid);
        }
        Ok(())
    }

    /// Introspect a thread.
    pub fn thread_info(&self, tid: Tid) -> Option<ThreadInfo> {
        let shared = self.shared.lock();
        let tcb = shared.tcbs.get(&tid)?;
        let state = match tcb.life.lock().phase {
            Phase::Ready => ThreadState::Ready,
            Phase::Running => ThreadState::Running,
            Phase::Blocked => ThreadState::Blocked,
            Phase::Done => ThreadState::Done,
        };
        Some(ThreadInfo {
            id: tcb.id,
            name: tcb.name.clone(),
            priority: tcb.priority(),
            state,
            detached: tcb.detached.load(Ordering::Relaxed),
        })
    }

    /// Number of threads that have not yet finished.
    pub fn live_threads(&self) -> usize {
        self.shared.lock().live
    }

    // ------------------------------------------------------------------
    // The dispatcher.
    // ------------------------------------------------------------------

    /// Thread exit: record the outcome, wake joiners, hand off the baton.
    fn finish(self: &Arc<Vp>, me: &Arc<Tcb>, outcome: Outcome) {
        let worker = me.running_on.load(Ordering::Relaxed);
        let joiners: Vec<Tid> = {
            let mut life = me.life.lock();
            life.phase = Phase::Done;
            life.outcome = Some(outcome);
            std::mem::take(&mut life.joiners)
        };
        me.ext_cv_notify();
        for j in joiners {
            let _ = self.unblock(j);
        }
        {
            let mut shared = self.shared.lock();
            if me.detached.load(Ordering::Relaxed) {
                shared.tcbs.remove(&me.id);
            }
            shared.live -= 1;
            VpStats::bump(&self.stats.exited);
            if shared.live == 0 {
                self.done_cv.notify_all();
            }
        }
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::ThreadDone { thread: me.id });
        }
        self.reschedule(worker, Some(me), Departure::Exit);
    }

    /// Fetch a popped candidate's TCB, filtering garbage queue entries.
    /// `None` means "skip this tid and keep looking".
    fn candidate(&self, tid: Tid) -> Option<Arc<Tcb>> {
        let tcb = self.shared.lock().tcbs.get(&tid).cloned()?; // reaped
        if tcb.life.lock().phase == Phase::Done {
            return None; // stale queue entry for an exited thread
        }
        Some(tcb)
    }

    /// Whether it is safe for lane `worker`'s baton holder to dispatch
    /// this candidate. A thread that is not `me` and not parked is still
    /// winding down through *another* lane's scheduler (it was requeued
    /// before reaching its park point); granting it now would strand that
    /// lane's baton. Single-lane VPs never defer: the only unparked
    /// candidate possible is `me`.
    fn steal_safe(&self, tcb: &Tcb, me: Option<&Arc<Tcb>>) -> bool {
        self.n == 1
            || me.is_some_and(|m| m.id == tcb.id)
            || tcb.parked.load(Ordering::Acquire)
    }

    /// Run the pre-dispatch hooks for a candidate (the PS partial-switch
    /// test). Not gate-serialized: concurrent lanes evaluate *different*
    /// candidates, each under its own TCB's `pending` lock, and every
    /// candidate must be tested no matter which lane examines it.
    fn dispatch_decision(
        &self,
        hooks: &[HookRef],
        wants_check: bool,
        tcb: &Tcb,
    ) -> DispatchDecision {
        // A cancel-requested thread must run so it can observe the
        // request at its next cancellation point, even if a polling
        // hook would otherwise keep requeueing it.
        if tcb.cancel_requested.load(Ordering::Relaxed) {
            return DispatchDecision::Run;
        }
        if !wants_check {
            return DispatchDecision::Run;
        }
        let pending = tcb.pending.lock();
        let mut d = DispatchDecision::Run;
        for h in hooks.iter().filter(|h| h.wants_dispatch_check()) {
            d = h.before_dispatch(tcb.id, pending.as_deref());
            if d == DispatchDecision::Requeue {
                break;
            }
        }
        d
    }

    /// Core scheduling loop for one worker lane. Runs on the departing
    /// thread's OS thread (or a bootstrap host); returns once the lane's
    /// baton has been handed off — for `Yield`/`Block` departures, only
    /// after *this* thread has been granted a baton again.
    fn reschedule(self: &Arc<Vp>, worker: usize, me: Option<&Arc<Tcb>>, dep: Departure) {
        let mut empty_rounds: u64 = 0;
        // Whether this lane is currently counted in `idle_workers`.
        let mut marked_idle = false;
        loop {
            VpStats::bump(&self.stats.schedule_points);
            #[cfg(feature = "trace")]
            let sched_start_ns = self.obs.as_ref().map(|o| o.lane.now_ns());
            self.fire_timers();
            let hooks = self.hooks_snapshot();
            if !hooks.is_empty() {
                // Gate-serialized across lanes; skip if another lane's
                // sweep is in flight (its scan unblocks our threads too).
                if let Some(_g) = self.hook_gate.try_lock() {
                    for h in hooks.iter() {
                        h.at_schedule_point();
                    }
                }
            }
            let wants_check = hooks.iter().any(|h| h.wants_dispatch_check());

            // Examine at most one full round of the lane's own queue;
            // requeued (partially switched) candidates are held aside
            // until the round ends so a high-priority thread with an
            // unready pending request cannot monopolize the round, then
            // retried next round after the schedule-point hooks have run
            // again.
            let round_len = self.local_len(worker);
            let mut deferred: Vec<Arc<Tcb>> = Vec::new();
            let mut dispatched = false;
            let mut examined = 0usize;
            while examined < round_len.max(1) {
                let Some(tid) = self.pop_local(worker) else { break };
                examined += 1;
                let Some(tcb) = self.candidate(tid) else {
                    continue;
                };
                if !self.steal_safe(&tcb, me) {
                    // Not a partial switch: the candidate was not examined
                    // by any hook, it is merely not yet grantable.
                    deferred.push(tcb);
                    continue;
                }
                match self.dispatch_decision(&hooks, wants_check, &tcb) {
                    DispatchDecision::Requeue => {
                        VpStats::bump(&self.stats.partial_switches);
                        #[cfg(feature = "trace")]
                        if let Some(o) = &self.obs {
                            o.emit(chant_obs::Event::PartialSwitch { thread: tid });
                        }
                        deferred.push(tcb);
                    }
                    DispatchDecision::Run => {
                        // Requeue the partially-switched candidates before
                        // handing off, or they would be lost.
                        for t in deferred.drain(..) {
                            self.push_home(&t);
                        }
                        if marked_idle {
                            self.idle_workers.fetch_sub(1, Ordering::AcqRel);
                            marked_idle = false;
                        }
                        self.dispatch_to(worker, &tcb, me, dep);
                        dispatched = true;
                        break;
                    }
                }
            }
            if !dispatched && !deferred.is_empty() {
                for t in deferred.drain(..) {
                    self.push_home(&t);
                }
            }

            // Own queue came up dry: try to steal one dispatch from
            // another lane. Garbage entries (reaped/Done) are consumed
            // and the scan continues; a live candidate that fails its
            // gate or hook test is returned home and the attempt ends —
            // re-stealing it in a tight loop would spin on the same head.
            if !dispatched && self.n > 1 {
                while let Some(tid) = self.try_steal(worker) {
                    let Some(tcb) = self.candidate(tid) else {
                        continue;
                    };
                    if !self.steal_safe(&tcb, me) {
                        self.push_home(&tcb);
                        break;
                    }
                    match self.dispatch_decision(&hooks, wants_check, &tcb) {
                        DispatchDecision::Requeue => {
                            VpStats::bump(&self.stats.partial_switches);
                            #[cfg(feature = "trace")]
                            if let Some(o) = &self.obs {
                                o.emit(chant_obs::Event::PartialSwitch { thread: tid });
                            }
                            self.push_home(&tcb);
                        }
                        DispatchDecision::Run => {
                            if me.is_none_or(|m| m.id != tcb.id) {
                                VpStats::bump(&self.stats.steals);
                            }
                            if marked_idle {
                                self.idle_workers.fetch_sub(1, Ordering::AcqRel);
                                marked_idle = false;
                            }
                            self.dispatch_to(worker, &tcb, me, dep);
                            dispatched = true;
                        }
                    }
                    break;
                }
            }

            if dispatched {
                // Attribute the search cost only for rounds that found a
                // thread; idle spinning is accounted by `idle_spins`.
                #[cfg(feature = "trace")]
                if let Some(o) = &self.obs {
                    if let Some(start) = sched_start_ns {
                        o.sched_point_ns
                            .record(o.lane.now_ns().saturating_sub(start));
                    }
                }
                return;
            }

            // Nothing runnable this round.
            if self.shared.lock().live == 0 {
                self.done_cv.notify_all();
                debug_assert!(
                    matches!(dep, Departure::Exit | Departure::Bootstrap),
                    "a live thread found the VP empty"
                );
                if marked_idle {
                    self.idle_workers.fetch_sub(1, Ordering::AcqRel);
                }
                return;
            }
            empty_rounds += 1;
            VpStats::bump(&self.stats.idle_spins);
            if !marked_idle {
                marked_idle = true;
                self.idle_workers.fetch_add(1, Ordering::AcqRel);
            }
            // Idle hook: let installed hooks use the otherwise-wasted
            // spin to make external progress (e.g. drive a transport's
            // event loop). Fires only when the *whole* lane set is idle —
            // a busy sibling lane is already making progress, and its
            // dispatches may be about to feed this queue — and only on
            // the lane that wins the gate.
            if self.idle_workers.load(Ordering::Acquire) == self.n {
                if let Some(_g) = self.hook_gate.try_lock() {
                    for h in hooks.iter() {
                        h.on_idle();
                    }
                }
            }
            // One Idle event per idle *period*, not per spin: the spin
            // loop would otherwise flood the ring while waiting.
            #[cfg(feature = "trace")]
            if empty_rounds == 1 {
                if let Some(o) = &self.obs {
                    o.emit(chant_obs::Event::Idle);
                }
            }
            // An armed timer is an event that will make a thread ready,
            // just as a hook might: not a deadlock.
            if hooks.is_empty()
                && self.armed.load(Ordering::Relaxed) == 0
                && empty_rounds > self.cfg.deadlock_spin_limit
            {
                // Before declaring deadlock, confirm the whole VP is
                // wedged: with several lanes, *this* lane's queue running
                // dry for a long time only means the work lives elsewhere.
                let (all_blocked, blocked) = {
                    let shared = self.shared.lock();
                    let mut all = true;
                    let mut blocked = Vec::new();
                    for t in shared.tcbs.values() {
                        match t.life.lock().phase {
                            Phase::Blocked => blocked.push(t.id),
                            Phase::Done => {}
                            _ => {
                                all = false;
                                break;
                            }
                        }
                    }
                    (all, blocked)
                };
                if all_blocked
                    && self
                        .deadlock_reported
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    // Unwedge the VP: cancel every blocked thread so they
                    // all unwind in an orderly fashion, then report the
                    // deadlock by panicking the detecting thread (whose
                    // joiner sees it).
                    for t in &blocked {
                        let _ = self.cancel(*t);
                    }
                    panic!(
                        "ULT deadlock on VP '{}': {} thread(s) blocked with none ready and \
                         no scheduler hooks that could make progress (cancelled: {blocked:?})",
                        self.cfg.name,
                        blocked.len()
                    );
                }
                // Some thread is still Ready/Running (or another lane is
                // already reporting): not our deadlock to declare.
                empty_rounds = 0;
            }
            if empty_rounds > u64::from(self.cfg.idle_spins_before_os_yield) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Complete a context switch to `next` on lane `worker`.
    fn dispatch_to(self: &Arc<Vp>, worker: usize, next: &Arc<Tcb>, me: Option<&Arc<Tcb>>, dep: Departure) {
        self.workers[worker].current.store(next.id, Ordering::Relaxed);
        next.life.lock().phase = Phase::Running;
        if let Some(me) = me {
            if me.id == next.id {
                // "The scheduler simply returns without having to perform a
                // context switch" (paper §4.1). Give the OS scheduler a
                // chance first: a lone thread self-redispatching is almost
                // always polling for another VP's progress, and on a
                // single-CPU host that VP needs the core to make any.
                VpStats::bump(&self.stats.self_redispatches);
                #[cfg(feature = "trace")]
                if let Some(o) = &self.obs {
                    o.emit(chant_obs::Event::Dispatch {
                        thread: next.id,
                        full_switch: false,
                    });
                }
                debug_assert!(dep != Departure::Exit, "exiting thread re-dispatched");
                std::thread::yield_now();
                return;
            }
        }
        // Publish the lane before the grant: the permit's internal lock
        // makes the store visible to the woken thread, which reads it to
        // reschedule on this lane's behalf at its next departure.
        next.running_on.store(worker, Ordering::Relaxed);
        VpStats::bump(&self.stats.full_switches);
        // Emit before granting the permit: the incoming thread may start
        // emitting the moment it wakes, and its events must follow its
        // Dispatch in the lane.
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Dispatch {
                thread: next.id,
                full_switch: true,
            });
        }
        next.permit.grant();
        match dep {
            Departure::Yield | Departure::Block => {
                let me = me.expect("yield/block without a current thread");
                // From here on any lane may grant us; until here only the
                // queues knew about us and `parked == false` deferred them.
                me.parked.store(true, Ordering::Release);
                me.permit.wait();
                me.parked.store(false, Ordering::Relaxed);
            }
            Departure::Exit | Departure::Bootstrap => {}
        }
    }
}

impl<T: 'static> JoinHandle<T> {
    /// The local thread id this handle refers to.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Wait for the thread to finish and return its value. Callable from a
    /// user-level thread of the same VP (blocks cooperatively) or from an
    /// ordinary OS thread (blocks the OS thread).
    pub fn join(self) -> Result<T, JoinError> {
        if self.detached {
            return Err(UltError::Detached(self.tid).into());
        }
        let tcb = self
            .vp
            .shared
            .lock()
            .tcbs
            .get(&self.tid)
            .cloned()
            .ok_or(UltError::NoSuchThread(self.tid))?;

        let from_ult = current::with_current(|c| {
            c.map(|ctx| (Arc::ptr_eq(&ctx.vp, &self.vp), ctx.tcb.id))
        });

        match from_ult {
            Some((true, my_tid)) => {
                if my_tid == self.tid {
                    return Err(UltError::JoinSelf(self.tid).into());
                }
                loop {
                    {
                        let mut life = tcb.life.lock();
                        if life.phase == Phase::Done {
                            break;
                        }
                        if !life.joiners.contains(&my_tid) {
                            life.joiners.push(my_tid);
                        }
                    }
                    self.vp.block();
                }
            }
            _ => {
                // External OS thread (or a ULT of another VP, which we
                // treat the same way: park its OS thread).
                let mut life = tcb.life.lock();
                while life.phase != Phase::Done {
                    tcb.ext_cv.wait(&mut life);
                }
            }
        }

        let outcome = {
            let mut life = tcb.life.lock();
            if life.joined {
                return Err(UltError::AlreadyJoined(self.tid).into());
            }
            life.joined = true;
            life.outcome.take()
        };
        // Reap the zombie now that its value is claimed.
        self.vp.shared.lock().tcbs.remove(&self.tid);

        match outcome {
            Some(Outcome::Value(v)) => Ok(*v
                .downcast::<T>()
                .expect("join handle type mismatch (internal error)")),
            Some(Outcome::Panicked(p)) => Err(JoinError::Panicked(p)),
            Some(Outcome::Cancelled) => Err(JoinError::Cancelled),
            None => Err(UltError::AlreadyJoined(self.tid).into()),
        }
    }

    /// True once the thread has finished (join would not block).
    pub fn is_finished(&self) -> bool {
        let shared = self.vp.shared.lock();
        match shared.tcbs.get(&self.tid) {
            Some(tcb) => tcb.life.lock().phase == Phase::Done,
            None => true,
        }
    }
}

/// Yield the current user-level thread (free-function convenience).
///
/// From an ordinary OS thread this is a no-op: there is no ULT scheduler
/// to yield to, and aborting would make every library that politely
/// yields unusable off-VP (likelier than ever now that a VP's threads
/// span several OS threads).
pub fn yield_now() {
    if let Some(vp) = current::current_vp() {
        vp.yield_now();
    }
}

/// Whether a caught panic payload is this crate's cancellation unwind.
///
/// Runtimes layered above (like Chant) that wrap user code in their own
/// `catch_unwind` must re-raise such payloads with
/// `std::panic::resume_unwind` so the thread's outcome is recorded as
/// `Cancelled` rather than a value.
pub fn is_cancel_payload(payload: &(dyn Any + Send)) -> bool {
    payload.is::<CancelPayload>()
}
