//! The link stage: everything that keeps a message off the wire for a
//! while, on one deadline heap.
//!
//! The default in-memory transport delivers synchronously, which is
//! right for semantic tests but hides the phenomenon Chant exists for:
//! message *flight time* that threads can hide behind computation. Two
//! optional per-world features therefore hold messages back before the
//! transport sees them, and this module serves both with one entry type
//! `(due, seq, header, body)`, one heap, and one deliverer thread:
//!
//! * the **latency model** — `α + β·n` wall nanoseconds per message,
//!   like a real interconnect — with a per-(src, dst) FIFO floor, so
//!   messages on one link never overtake each other (as on a
//!   wormhole-routed network);
//! * the **fault shim's held copies** (duplicates, delayed and reordered
//!   messages; see [`crate::FaultConfig`]), which skip both the floor and
//!   the model — that skip is what lets later traffic overtake them.
//!
//! Due entries leave through the world's transport, so on a TCP world a
//! delayed message still crosses the socket like every other message.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::fault::{FaultAction, FaultConfig, FaultShim};
use crate::header::{Address, Header};
use crate::transport::Transport;
use crate::world::WorldInner;

/// Affine wall-clock latency model: a message of `n` bytes spends
/// `fixed_ns + n × per_byte_ns` nanoseconds in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-message flight time (ns).
    pub fixed_ns: u64,
    /// Additional flight time per payload byte (ns).
    pub per_byte_ns: u64,
}

impl LatencyModel {
    /// Flight time for an `n`-byte body.
    pub fn flight(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.fixed_ns + bytes as u64 * self.per_byte_ns)
    }
}

struct Entry {
    due: Instant,
    seq: u64,
    header: Header,
    body: Bytes,
}

// Heap ordering: earliest due first, FIFO within a tie.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

struct LinkState {
    queue: BinaryHeap<Reverse<Entry>>,
    /// Last scheduled latency-model delivery per (src, dst): the per-link
    /// FIFO floor. Fault-held copies neither read nor move it.
    link_floor: HashMap<(Address, Address), Instant>,
    seq: u64,
    shutdown: bool,
}

/// The stage between a world's router and its transport: the fault
/// shim's decisions, the latency model, and the deliverer that drains
/// whatever they held back.
pub(crate) struct LinkStage {
    model: Option<LatencyModel>,
    faults: Option<FaultShim>,
    state: Mutex<LinkState>,
    cv: Condvar,
}

impl LinkStage {
    /// Start the stage and its deliverer thread, or `None` when the world
    /// has neither a latency model nor a fault shim (routing then goes
    /// straight to the transport).
    pub fn start(
        model: Option<LatencyModel>,
        faults: Option<FaultConfig>,
        world: Weak<WorldInner>,
    ) -> Option<Arc<LinkStage>> {
        if model.is_none() && faults.is_none() {
            return None;
        }
        let stage = Arc::new(LinkStage {
            model,
            faults: faults.map(FaultShim::new),
            state: Mutex::new(LinkState {
                queue: BinaryHeap::new(),
                link_floor: HashMap::new(),
                seq: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let stage2 = Arc::clone(&stage);
        std::thread::Builder::new()
            .name("chant-comm-link".into())
            .spawn(move || stage2.run(world))
            .expect("spawn link-stage deliverer");
        Some(stage)
    }

    pub fn has_latency(&self) -> bool {
        self.model.is_some()
    }

    pub fn faults(&self) -> Option<&FaultShim> {
        self.faults.as_ref()
    }

    /// Route one message: the shim (if any) decides its fate and hands
    /// back a hold time for any held copy; a surviving original then
    /// takes the model's flight time, or goes straight to `transport`.
    pub fn route(&self, header: Header, body: Bytes, transport: &dyn Transport) {
        if let Some(shim) = &self.faults {
            match shim.apply(&header) {
                FaultAction::Deliver => {}
                FaultAction::Drop => return,
                FaultAction::DeliverAndHold(hold) => {
                    self.push(Instant::now() + hold, header, body.clone(), false);
                }
                FaultAction::HoldOnly(hold) => {
                    self.push(Instant::now() + hold, header, body, false);
                    return;
                }
            }
        }
        match self.model {
            Some(m) => self.push(Instant::now() + m.flight(body.len()), header, body, true),
            None => transport.send(header, body),
        }
    }

    /// Enqueue one entry; `fifo` entries respect (and advance) their
    /// link's floor so they never overtake an earlier one.
    fn push(&self, mut due: Instant, header: Header, body: Bytes, fifo: bool) {
        let mut st = self.state.lock();
        if fifo {
            let floor = st.link_floor.entry((header.src, header.dst)).or_insert(due);
            due = due.max(*floor);
            *floor = due;
        }
        st.seq += 1;
        let seq = st.seq;
        st.queue.push(Reverse(Entry {
            due,
            seq,
            header,
            body,
        }));
        self.cv.notify_one();
    }

    /// Stop the deliverer (flushes nothing; pending messages are lost —
    /// only used on world teardown).
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_one();
    }

    /// Deliver entries at their due times until shutdown or world drop,
    /// guaranteeing eventual delivery of everything not dropped.
    fn run(&self, world: Weak<WorldInner>) {
        loop {
            let entry = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    let now = Instant::now();
                    match st.queue.peek() {
                        Some(Reverse(e)) if e.due <= now => {
                            break st.queue.pop().expect("peeked entry").0;
                        }
                        Some(Reverse(e)) => {
                            let wait = e.due - now;
                            self.cv.wait_for(&mut st, wait);
                        }
                        None => self.cv.wait(&mut st),
                    }
                }
            };
            match world.upgrade() {
                Some(w) => w.transport().send(entry.header, entry.body),
                None => return, // world is gone; stop delivering
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_time_is_affine() {
        let m = LatencyModel {
            fixed_ns: 1_000_000,
            per_byte_ns: 10,
        };
        assert_eq!(m.flight(0), Duration::from_nanos(1_000_000));
        assert_eq!(m.flight(100), Duration::from_nanos(1_001_000));
    }

    #[test]
    fn queue_orders_by_due_then_seq() {
        let t0 = Instant::now();
        let mk = |due: Instant, seq: u64| {
            Reverse(Entry {
                due,
                seq,
                header: Header {
                    src: Address::new(0, 0),
                    dst: Address::new(0, 0),
                    tag: 0,
                    ctx: 0,
                    kind: 0,
                    len: 0,
                    #[cfg(feature = "trace")]
                    trace: 0,
                },
                body: Bytes::new(),
            })
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(t0 + Duration::from_millis(5), 2));
        heap.push(mk(t0 + Duration::from_millis(1), 3));
        heap.push(mk(t0 + Duration::from_millis(5), 1));
        assert_eq!(heap.pop().unwrap().0.seq, 3);
        assert_eq!(heap.pop().unwrap().0.seq, 1);
        assert_eq!(heap.pop().unwrap().0.seq, 2);
    }
}
