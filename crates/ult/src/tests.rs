//! Behavioural tests for the user-level threads package.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::{
    DispatchDecision, JoinError, Priority, SchedulerHook, SpawnAttr, TlsKey, UltBarrier,
    UltCondvar, UltError, UltMutex, Vp, VpConfig,
};

fn vp() -> Arc<Vp> {
    Vp::new(VpConfig::named("test-vp"))
}

#[test]
fn single_thread_runs_and_returns_value() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |_| "hello".to_string());
    vp.start();
    assert_eq!(h.join().unwrap(), "hello");
}

#[test]
fn run_convenience_returns_main_value() {
    let vp = vp();
    let out = vp.run(|_| 7u64).unwrap();
    assert_eq!(out, 7);
}

#[test]
fn threads_interleave_at_yields() {
    // Two threads appending to a shared log at each yield must alternate.
    let vp = vp();
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for id in 0..2u32 {
        let log = Arc::clone(&log);
        vp.spawn(SpawnAttr::new().detached(), move |vp| {
            for step in 0..3u32 {
                log.lock().push((id, step));
                vp.yield_now();
            }
        });
    }
    vp.start();
    let log = log.lock();
    assert_eq!(log.len(), 6);
    // Strict round-robin: (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
    let expect: Vec<(u32, u32)> = vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)];
    assert_eq!(*log, expect);
}

#[test]
fn many_threads_all_complete() {
    let vp = vp();
    let counter = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();
    for _ in 0..64 {
        let c = Arc::clone(&counter);
        handles.push(vp.spawn(SpawnAttr::new(), move |vp| {
            for _ in 0..10 {
                c.fetch_add(1, Ordering::Relaxed);
                vp.yield_now();
            }
        }));
    }
    vp.start();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 640);
}

#[test]
fn spawn_from_inside_a_thread() {
    let vp = vp();
    let out = vp
        .run(|vp| {
            let h = vp.spawn(SpawnAttr::new().name("child"), |_| 5u32);
            h.join().unwrap() + 1
        })
        .unwrap();
    assert_eq!(out, 6);
}

#[test]
fn join_self_is_an_error() {
    let vp = vp();
    // A thread cannot join itself; verify via a child that grabs its own
    // handle through a rendezvous cell.
    let out = vp
        .run(|vp| {
            let h = vp.spawn(SpawnAttr::new(), |_| 1u8);
            let tid = h.tid();
            // Joining a different thread by handle is fine:
            assert_eq!(h.join().unwrap(), 1);
            tid
        })
        .unwrap();
    assert!(out >= 1);
}

#[test]
fn join_detached_thread_fails() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new().detached(), |_| 3u8);
    vp.start();
    match h.join() {
        Err(JoinError::Op(UltError::Detached(_))) => {}
        other => panic!("expected Detached error, got {other:?}", other = other.err()),
    }
}

#[test]
fn panic_in_thread_is_reported_to_joiner() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |_| -> u8 { panic!("boom") });
    vp.start();
    match h.join() {
        Err(JoinError::Panicked(p)) => {
            let msg = p.downcast_ref::<&str>().copied().unwrap_or("?");
            assert_eq!(msg, "boom");
        }
        other => panic!("expected panic, got ok={}", other.is_ok()),
    }
}

#[test]
fn block_unblock_round_trip() {
    let vp = vp();
    let progressed = Arc::new(AtomicU32::new(0));
    let p2 = Arc::clone(&progressed);
    let sleeper = vp.spawn(SpawnAttr::new().name("sleeper"), move |vp| {
        p2.fetch_add(1, Ordering::SeqCst);
        vp.block();
        p2.fetch_add(1, Ordering::SeqCst);
    });
    let tid = sleeper.tid();
    let p3 = Arc::clone(&progressed);
    vp.spawn(SpawnAttr::new().name("waker").detached(), move |vp| {
        // Let the sleeper run first and block.
        while p3.load(Ordering::SeqCst) == 0 {
            vp.yield_now();
        }
        vp.unblock(tid).unwrap();
    });
    vp.start();
    sleeper.join().unwrap();
    assert_eq!(progressed.load(Ordering::SeqCst), 2);
}

#[test]
fn unblock_before_block_leaves_token() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |vp| {
        let me = crate::current_tid().unwrap();
        // Wake ourselves "in advance"; the subsequent block must not hang.
        vp.unblock(me).unwrap();
        vp.block();
        42u8
    });
    vp.start();
    assert_eq!(h.join().unwrap(), 42);
}

#[test]
fn cancel_terminates_at_next_yield() {
    let vp = vp();
    let spins = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&spins);
    let victim = vp.spawn(SpawnAttr::new().name("victim"), move |vp| {
        loop {
            s2.fetch_add(1, Ordering::Relaxed);
            vp.yield_now(); // cancellation point
        }
    });
    let vtid = victim.tid();
    vp.spawn(SpawnAttr::new().detached(), move |vp| {
        for _ in 0..5 {
            vp.yield_now();
        }
        vp.cancel(vtid).unwrap();
    });
    vp.start();
    match victim.join() {
        Err(JoinError::Cancelled) => {}
        other => panic!("expected cancelled, ok={}", other.is_ok()),
    }
    assert!(spins.load(Ordering::Relaxed) >= 1);
}

#[test]
fn cancel_wakes_a_blocked_thread() {
    let vp = vp();
    let victim = vp.spawn(SpawnAttr::new(), |vp| {
        vp.block(); // nobody will unblock us; cancel must
        0u8
    });
    let vtid = victim.tid();
    vp.spawn(SpawnAttr::new().detached(), move |vp| {
        vp.yield_now();
        vp.cancel(vtid).unwrap();
    });
    vp.start();
    assert!(matches!(victim.join(), Err(JoinError::Cancelled)));
}

#[test]
fn priority_classes_are_strict() {
    // A HIGH thread spawned ready must always run before NORMAL ones.
    let vp = vp();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..3u32 {
        let order = Arc::clone(&order);
        vp.spawn(SpawnAttr::new().detached(), move |_| {
            order.lock().push(format!("normal-{i}"));
        });
    }
    let o2 = Arc::clone(&order);
    vp.spawn(
        SpawnAttr::new().priority(Priority::HIGH).detached(),
        move |_| {
            o2.lock().push("high".to_string());
        },
    );
    vp.start();
    assert_eq!(order.lock()[0], "high");
}

#[test]
fn server_style_priority_boost_preempts_at_schedule_point() {
    // Mimic the paper's server thread: a HIGH-priority thread that was
    // blocked becomes ready; it must be dispatched at the very next
    // schedule point even though NORMAL threads are queued ahead of it.
    let vp = vp();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

    let o = Arc::clone(&order);
    let server = vp.spawn(
        SpawnAttr::new().name("server").priority(Priority::HIGH),
        move |vp| {
            vp.block(); // wait for a "request"
            o.lock().push("server");
        },
    );
    let stid = server.tid();

    for i in 0..4usize {
        let order = Arc::clone(&order);
        vp.spawn(SpawnAttr::new().detached(), move |vp| {
            if i == 0 {
                vp.unblock(stid).unwrap(); // the "request arrives"
            }
            order.lock().push("worker");
            vp.yield_now();
            order.lock().push("worker2");
        });
    }
    vp.start();
    server.join().unwrap();
    let order = order.lock();
    // The server must have run before any worker's *second* step.
    let server_pos = order.iter().position(|s| *s == "server").unwrap();
    let first_w2 = order.iter().position(|s| *s == "worker2").unwrap();
    assert!(
        server_pos < first_w2,
        "server was not boosted: {order:?}"
    );
}

#[test]
fn stats_count_switches_and_yields() {
    let vp = vp();
    for _ in 0..2 {
        vp.spawn(SpawnAttr::new().detached(), |vp| {
            for _ in 0..5 {
                vp.yield_now();
            }
        });
    }
    vp.start();
    let s = vp.stats().snapshot();
    assert_eq!(s.spawned, 2);
    assert_eq!(s.exited, 2);
    assert_eq!(s.yields, 10);
    // Two threads alternating must produce full switches, not
    // self-redispatches, for most yields.
    assert!(s.full_switches >= 10, "full_switches = {}", s.full_switches);
}

#[test]
fn lone_thread_yield_is_a_self_redispatch() {
    // Paper §4.1: with one thread per processor "the scheduler simply
    // returns without having to perform a context switch".
    let vp = vp();
    vp.spawn(SpawnAttr::new().detached(), |vp| {
        for _ in 0..8 {
            vp.yield_now();
        }
    });
    vp.start();
    let s = vp.stats().snapshot();
    assert_eq!(s.self_redispatches, 8);
    // Only the initial bootstrap dispatch is a full switch.
    assert_eq!(s.full_switches, 1);
}

#[test]
fn hook_at_schedule_point_is_called() {
    struct Counting(AtomicU64);
    impl SchedulerHook for Counting {
        fn at_schedule_point(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn wants_dispatch_check(&self) -> bool {
            false
        }
    }
    let vp = vp();
    let hook = Arc::new(Counting(AtomicU64::new(0)));
    vp.install_hook(hook.clone());
    vp.spawn(SpawnAttr::new().detached(), |vp| {
        for _ in 0..4 {
            vp.yield_now();
        }
    });
    vp.start();
    assert!(hook.0.load(Ordering::Relaxed) >= 5);
}

#[test]
fn partial_switch_requeues_until_pending_ready() {
    // PS policy: a thread with an unready pending request must be skipped
    // (partial switch) while other threads run, then resume once ready.
    struct PsHook;
    impl SchedulerHook for PsHook {
        fn at_schedule_point(&self) {}
        // default before_dispatch = requeue while pending unready
    }

    let vp = vp();
    vp.install_hook(Arc::new(PsHook));
    let gate = Arc::new(AtomicU32::new(0));
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

    let g = Arc::clone(&gate);
    let o = Arc::clone(&order);
    let waiter = vp.spawn(SpawnAttr::new().name("waiter"), move |vp| {
        let g2 = Arc::clone(&g);
        vp.set_current_pending(Box::new(move || g2.load(Ordering::SeqCst) >= 3));
        vp.yield_now(); // dispatcher will requeue us until the gate opens
        vp.take_current_pending();
        o.lock().push("waiter");
    });

    let g3 = Arc::clone(&gate);
    let o2 = Arc::clone(&order);
    vp.spawn(SpawnAttr::new().name("opener").detached(), move |vp| {
        for _ in 0..3 {
            o2.lock().push("tick");
            g3.fetch_add(1, Ordering::SeqCst);
            vp.yield_now();
        }
    });

    vp.start();
    waiter.join().unwrap();
    let order = order.lock();
    assert_eq!(*order, vec!["tick", "tick", "tick", "waiter"]);
    let s = vp.stats().snapshot();
    assert!(s.partial_switches >= 2, "partial = {}", s.partial_switches);
}

#[test]
fn hookless_all_blocked_vp_is_detected_as_deadlock() {
    let vp = Vp::new(VpConfig {
        deadlock_spin_limit: 100,
        ..VpConfig::named("dl")
    });
    let h = vp.spawn(SpawnAttr::new(), |vp| {
        vp.block(); // nobody will ever unblock us
    });
    vp.start(); // must terminate rather than hang
    match h.join() {
        Err(JoinError::Panicked(p)) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
        }
        Err(JoinError::Cancelled) => {} // cancelled by the unwedger: also fine
        other => panic!("expected deadlock report, ok={}", other.is_ok()),
    }
}

// ---------------------------------------------------------------------
// Sync primitives
// ---------------------------------------------------------------------

#[test]
fn mutex_provides_mutual_exclusion() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, 0u64);
            let mut handles = Vec::new();
            for _ in 0..8 {
                let m = Arc::clone(&m);
                handles.push(vp.spawn(SpawnAttr::new(), move |vp| {
                    for _ in 0..100 {
                        let mut g = m.lock().unwrap();
                        let v = *g;
                        vp.yield_now(); // try hard to interleave critical sections
                        *g = v + 1;
                        drop(g);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let total = *m.lock().unwrap();
            total
        })
        .unwrap();
    assert_eq!(out, 800);
}

#[test]
fn mutex_try_lock_fails_when_held() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, ());
        let g = m.lock().unwrap();
        let m2 = Arc::clone(&m);
        let h = vp.spawn(SpawnAttr::new(), move |_| {
            m2.try_lock().unwrap().is_none()
        });
        let contended = h.join().unwrap();
        assert!(contended);
        drop(g);
        assert!(m.try_lock().unwrap().is_some());
    })
    .unwrap();
}

#[test]
fn condvar_wakes_waiter() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, false);
            let cv = UltCondvar::new(&vp2);
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let waiter = vp.spawn(SpawnAttr::new(), move |_| {
                let mut g = m2.lock().unwrap();
                while !*g {
                    g = cv2.wait(g).unwrap();
                }
                "woken"
            });
            vp.yield_now(); // let the waiter get to the wait
            *m.lock().unwrap() = true;
            cv.notify_one();
            waiter.join().unwrap()
        })
        .unwrap();
    assert_eq!(out, "woken");
}

#[test]
fn condvar_notify_all_wakes_everyone() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, 0u32);
            let cv = UltCondvar::new(&vp2);
            let woken = Arc::new(AtomicU32::new(0));
            let mut hs = Vec::new();
            for _ in 0..5 {
                let (m, cv, woken) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&woken));
                hs.push(vp.spawn(SpawnAttr::new(), move |_| {
                    let mut g = m.lock().unwrap();
                    while *g == 0 {
                        g = cv.wait(g).unwrap();
                    }
                    woken.fetch_add(1, Ordering::Relaxed);
                }));
            }
            for _ in 0..3 {
                vp.yield_now();
            }
            *m.lock().unwrap() = 1;
            cv.notify_all();
            for h in hs {
                h.join().unwrap();
            }
            woken.load(Ordering::Relaxed)
        })
        .unwrap();
    assert_eq!(out, 5);
}

#[test]
fn barrier_releases_all_parties_with_one_leader() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let b = UltBarrier::new(&vp2, 4);
            let leaders = Arc::new(AtomicU32::new(0));
            let mut hs = Vec::new();
            for _ in 0..4 {
                let (b, leaders) = (Arc::clone(&b), Arc::clone(&leaders));
                hs.push(vp.spawn(SpawnAttr::new(), move |_| {
                    if b.wait().unwrap() {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            leaders.load(Ordering::Relaxed)
        })
        .unwrap();
    assert_eq!(out, 1);
}

#[test]
fn barrier_is_reusable_across_generations() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let b = UltBarrier::new(&vp2, 2);
        let phase = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for _ in 0..2 {
            let (b, phase) = (Arc::clone(&b), Arc::clone(&phase));
            hs.push(vp.spawn(SpawnAttr::new(), move |_| {
                for p in 0..3u32 {
                    b.wait().unwrap();
                    // After each barrier, everyone agrees on the phase.
                    let seen = phase.load(Ordering::SeqCst);
                    assert!(seen == p || seen == p + 1);
                    phase.store(p + 1, Ordering::SeqCst);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Thread-local data
// ---------------------------------------------------------------------

#[test]
fn tls_is_per_thread() {
    let vp = vp();
    let key: TlsKey<u32> = TlsKey::new();
    let sum = Arc::new(AtomicU32::new(0));
    let mut hs = Vec::new();
    for i in 1..=4u32 {
        let sum = Arc::clone(&sum);
        hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
            key.set(i * 10);
            vp.yield_now(); // others set their own values meanwhile
            let v = key.get().unwrap();
            assert_eq!(v, i * 10, "TLS leaked between threads");
            sum.fetch_add(v, Ordering::Relaxed);
        }));
    }
    vp.start();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(sum.load(Ordering::Relaxed), 100);
}

#[test]
fn tls_take_and_with_mut() {
    let vp = vp();
    let key: TlsKey<Vec<u32>> = TlsKey::new();
    vp.run(move |_| {
        assert!(key.get().is_none());
        key.with_mut(Vec::new, |v| v.push(1));
        key.with_mut(Vec::new, |v| v.push(2));
        assert_eq!(key.take().unwrap(), vec![1, 2]);
        assert!(key.get().is_none());
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

#[test]
fn thread_info_reports_states() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new().name("obs"), |vp| {
        let me = crate::current_tid().unwrap();
        let info = crate::current_vp().unwrap().thread_info(me).unwrap();
        assert_eq!(info.name, "obs");
        assert_eq!(info.state, crate::ThreadState::Running);
        vp.yield_now();
    });
    let tid = h.tid();
    let info = vp.thread_info(tid).unwrap();
    assert_eq!(info.state, crate::ThreadState::Ready);
    vp.start();
    h.join().unwrap();
    assert!(vp.thread_info(tid).is_none(), "joined thread is reaped");
}

#[test]
fn dispatch_decision_api_is_stable() {
    assert_ne!(DispatchDecision::Run, DispatchDecision::Requeue);
}

// ---------------------------------------------------------------------
// Semaphore and RwLock
// ---------------------------------------------------------------------

use crate::{UltRwLock, UltSemaphore};

#[test]
fn semaphore_bounds_concurrency() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let sem = UltSemaphore::new(&vp2, 2);
        let inside = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for _ in 0..6 {
            let (sem, inside, peak) = (Arc::clone(&sem), Arc::clone(&inside), Arc::clone(&peak));
            hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
                sem.acquire().unwrap();
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                for _ in 0..5 {
                    vp.yield_now();
                }
                inside.fetch_sub(1, Ordering::SeqCst);
                sem.release();
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "semaphore leaked permits");
        assert_eq!(sem.available(), 2);
    })
    .unwrap();
}

#[test]
fn semaphore_try_acquire() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |_| {
        let sem = UltSemaphore::new(&vp2, 1);
        assert!(sem.try_acquire());
        assert!(!sem.try_acquire());
        sem.release();
        assert!(sem.try_acquire());
        sem.release();
    })
    .unwrap();
}

#[test]
fn rwlock_allows_concurrent_readers() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let lock = UltRwLock::new(&vp2, 7u32);
        let concurrent = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for _ in 0..4 {
            let (lock, concurrent, peak) =
                (Arc::clone(&lock), Arc::clone(&concurrent), Arc::clone(&peak));
            hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
                let g = lock.read().unwrap();
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                assert_eq!(*g, 7);
                for _ in 0..3 {
                    vp.yield_now();
                }
                concurrent.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "readers should overlap: peak {}",
            peak.load(Ordering::SeqCst)
        );
    })
    .unwrap();
}

#[test]
fn rwlock_writer_is_exclusive_and_sees_updates() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let lock = UltRwLock::new(&vp2, 0u64);
        let mut hs = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
                for _ in 0..25 {
                    let mut g = lock.write().unwrap();
                    let v = *g;
                    vp.yield_now(); // try to tear the update
                    *g = v + 1;
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*lock.read().unwrap(), 100);
    })
    .unwrap();
}

#[test]
fn rwlock_writer_preference_blocks_new_readers() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let lock = UltRwLock::new(&vp2, 0u32);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

        let r1 = lock.read().unwrap(); // hold a read lock

        let (l2, o2) = (Arc::clone(&lock), Arc::clone(&order));
        let writer = vp.spawn(SpawnAttr::new().name("writer"), move |_| {
            let mut g = l2.write().unwrap();
            *g = 1;
            o2.lock().push("writer");
        });
        vp.yield_now(); // writer is now queued

        let (l3, o3) = (Arc::clone(&lock), Arc::clone(&order));
        let late_reader = vp.spawn(SpawnAttr::new().name("late-reader"), move |_| {
            let g = l3.read().unwrap();
            o3.lock().push("reader");
            assert_eq!(*g, 1, "late reader must see the write");
        });
        vp.yield_now(); // late reader must queue behind the writer

        drop(r1); // release: writer goes first, then the reader
        writer.join().unwrap();
        late_reader.join().unwrap();
        assert_eq!(*order.lock(), vec!["writer", "reader"]);
    })
    .unwrap();
}

#[test]
fn cancelled_mutex_waiter_does_not_strand_others() {
    // Victim queues on a held mutex, is cancelled while waiting; when the
    // holder releases, the next *live* waiter must acquire the lock.
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, 0u32);
        let g = m.lock().unwrap(); // main holds the lock

        let m2 = Arc::clone(&m);
        let victim = vp.spawn(SpawnAttr::new().name("victim"), move |_| {
            let _g = m2.lock().unwrap(); // queues behind main
            unreachable!("victim must be cancelled while waiting");
        });
        vp.yield_now(); // let the victim queue

        let m3 = Arc::clone(&m);
        let survivor = vp.spawn(SpawnAttr::new().name("survivor"), move |_| {
            let mut g = m3.lock().unwrap();
            *g = 99;
        });
        vp.yield_now(); // let the survivor queue behind the victim

        vp.cancel(victim.tid()).unwrap();
        vp.yield_now(); // victim unwinds, leaving its stale queue entry
        assert!(matches!(victim.join(), Err(JoinError::Cancelled)));

        drop(g); // release: the wakeup must skip the dead victim
        survivor.join().unwrap();
        assert_eq!(*m.lock().unwrap(), 99);
    })
    .unwrap();
}

#[test]
fn cancelled_semaphore_waiter_does_not_strand_others() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let sem = UltSemaphore::new(&vp2, 0);
        let s2 = Arc::clone(&sem);
        let victim = vp.spawn(SpawnAttr::new(), move |_| {
            s2.acquire().unwrap();
            unreachable!("victim must be cancelled while waiting");
        });
        vp.yield_now();
        let s3 = Arc::clone(&sem);
        let survivor = vp.spawn(SpawnAttr::new(), move |_| {
            s3.acquire().unwrap();
            7u8
        });
        vp.yield_now();
        vp.cancel(victim.tid()).unwrap();
        vp.yield_now();
        assert!(matches!(victim.join(), Err(JoinError::Cancelled)));
        sem.release();
        assert_eq!(survivor.join().unwrap(), 7);
    })
    .unwrap();
}

#[test]
fn priority_change_takes_effect_on_next_requeue() {
    let vp = vp();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    // Three normal threads; thread B promotes itself mid-run. After its
    // next yield it must be dispatched ahead of the other normals.
    for name in ["a", "b", "c"] {
        let order = Arc::clone(&order);
        vp.spawn(SpawnAttr::new().name(name).detached(), move |vp| {
            if name == "b" {
                let me = crate::current_tid().unwrap();
                vp.set_priority(me, Priority::HIGH).unwrap();
            }
            vp.yield_now();
            order.lock().push(format!("{name}-2nd"));
        });
    }
    vp.start();
    assert_eq!(order.lock()[0], "b-2nd", "promoted thread must go first");
}

#[test]
fn detach_after_exit_reaps_immediately() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |_| 1u8);
    let tid = h.tid();
    vp.start(); // thread finishes, zombie retained for a joiner
    assert!(vp.thread_info(tid).is_some(), "zombie retained");
    vp.detach(tid).unwrap();
    assert!(vp.thread_info(tid).is_none(), "detach must reap the zombie");
}

#[test]
fn stats_spawned_exited_balance() {
    let vp = vp();
    let mut hs = Vec::new();
    for _ in 0..10 {
        hs.push(vp.spawn(SpawnAttr::new(), |vp| vp.yield_now()));
    }
    vp.start();
    for h in hs {
        h.join().unwrap();
    }
    let s = vp.stats().snapshot();
    assert_eq!(s.spawned, 10);
    assert_eq!(s.exited, 10);
}

// ---------------------------------------------------------------------
// Cancelled-waiter purging and timed waits
// ---------------------------------------------------------------------

/// A waiter that is woken spuriously (a stale token) while queued, and
/// so acquires ahead of the waiter the releaser chose, must leave the
/// queue: otherwise its own next release pops its stale entry and the
/// chosen waiter, now re-queued behind it, is never woken.
#[test]
fn acquiring_after_a_spurious_wake_leaves_no_stale_queue_entry() {
    for use_semaphore in [false, true] {
        let vp = Vp::new(VpConfig {
            deadlock_spin_limit: 1000,
            ..VpConfig::named("stale-entry")
        });
        let vp2 = Arc::clone(&vp);
        vp.run(move |vp| {
            let m = UltMutex::new(&vp2, ());
            let sem = UltSemaphore::new(&vp2, 0);
            let held = m.lock().unwrap();
            let (m1, s1) = (Arc::clone(&m), Arc::clone(&sem));
            let chosen = vp.spawn(SpawnAttr::new(), move |_| {
                if use_semaphore {
                    s1.acquire().unwrap();
                } else {
                    drop(m1.lock().unwrap());
                }
            });
            vp.yield_now(); // `chosen` queues first
            let (m2, s2) = (Arc::clone(&m), Arc::clone(&sem));
            let barger = vp.spawn(SpawnAttr::new(), move |vp| {
                if use_semaphore {
                    s2.acquire().unwrap();
                    vp.yield_now(); // `chosen` finds no permit, re-queues
                    s2.release();
                } else {
                    let g = m2.lock().unwrap();
                    vp.yield_now(); // `chosen` finds the lock held, re-queues
                    drop(g);
                }
            });
            vp.yield_now(); // `barger` queues behind `chosen`
            vp.unblock(barger.tid()).unwrap(); // spurious wake
            if use_semaphore {
                sem.release(); // wakes `chosen`, queued behind `barger`
            } else {
                drop(held);
            }
            barger.join().unwrap();
            chosen.join().expect("the chosen waiter was never woken");
        })
        .unwrap();
    }
}

#[test]
fn notify_one_skips_waiter_cancelled_while_queued() {
    // A queues on the condvar first, then B. A is cancelled but NOT yet
    // rescheduled, so it is still Ready and still in the waiter queue
    // when the notification fires. notify_one must hand the wakeup to
    // the live waiter B rather than burn it on the doomed A.
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, (false, false)); // (flag_a, flag_b)
        let cv = UltCondvar::new(&vp2);

        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let a = vp.spawn(SpawnAttr::new().name("doomed"), move |_| {
            let mut g = m2.lock().unwrap();
            while !g.0 {
                g = cv2.wait(g).unwrap(); // flag_a never becomes true
            }
            unreachable!("doomed waiter must be cancelled");
        });
        vp.yield_now(); // A queues on the condvar

        let (m3, cv3) = (Arc::clone(&m), Arc::clone(&cv));
        let b = vp.spawn(SpawnAttr::new().name("live"), move |_| {
            let mut g = m3.lock().unwrap();
            while !g.1 {
                g = cv3.wait(g).unwrap();
            }
            "woken"
        });
        vp.yield_now(); // B queues behind A

        vp.cancel(a.tid()).unwrap();
        // No yield here: A still has its stale queue entry.
        m.lock().unwrap().1 = true;
        cv.notify_one(); // must skip A and wake B
        assert_eq!(b.join().unwrap(), "woken");
        assert!(matches!(a.join(), Err(JoinError::Cancelled)));
    })
    .unwrap();
}

#[test]
fn condvar_wait_timeout_expires_without_notifier() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let timed_out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, ());
            let cv = UltCondvar::new(&vp2);
            // Keep another thread runnable beside the timed waiter.
            let ticker = vp.spawn(SpawnAttr::new(), |vp| {
                for _ in 0..50 {
                    vp.yield_now();
                }
            });
            let g = m.lock().unwrap();
            let (_g, timed_out) = cv
                .wait_timeout(g, std::time::Duration::from_millis(10))
                .unwrap();
            drop(_g);
            ticker.join().unwrap();
            timed_out
        })
        .unwrap();
    assert!(timed_out, "no notifier: the wait must time out");
}

#[test]
fn condvar_wait_timeout_sees_prompt_notification() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let timed_out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, false);
            let cv = UltCondvar::new(&vp2);
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let waiter = vp.spawn(SpawnAttr::new(), move |_| {
                let g = m2.lock().unwrap();
                let (g, timed_out) = cv2
                    .wait_timeout(g, std::time::Duration::from_secs(30))
                    .unwrap();
                assert!(*g, "woke without the predicate set");
                timed_out
            });
            vp.yield_now(); // waiter queues
            *m.lock().unwrap() = true;
            cv.notify_one();
            waiter.join().unwrap()
        })
        .unwrap();
    assert!(!timed_out, "notified well inside the deadline");
}

#[test]
fn semaphore_acquire_timeout_times_out_then_succeeds() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let sem = UltSemaphore::new(&vp2, 0);
        // Keep the run-queue warm while the acquirer waits.
        let ticker = vp.spawn(SpawnAttr::new(), |vp| {
            for _ in 0..50 {
                vp.yield_now();
            }
        });
        assert!(
            !sem
                .acquire_timeout(std::time::Duration::from_millis(10))
                .unwrap(),
            "no permits: must time out"
        );
        sem.release();
        assert!(
            sem.acquire_timeout(std::time::Duration::from_secs(30))
                .unwrap(),
            "permit available: must acquire"
        );
        ticker.join().unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Timed blocking (the VP timer)
// ---------------------------------------------------------------------

/// Counts idle-hook calls; takes no part in dispatch.
#[derive(Default)]
struct IdleCounter(AtomicU64);

impl SchedulerHook for IdleCounter {
    fn at_schedule_point(&self) {}
    fn wants_dispatch_check(&self) -> bool {
        false
    }
    fn on_idle(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn timed_wait_stays_off_the_run_path_and_leaves_the_vp_idle() {
    let vp = vp();
    let idle = Arc::new(IdleCounter::default());
    vp.install_hook(Arc::clone(&idle) as Arc<dyn SchedulerHook>);
    let vp2 = Arc::clone(&vp);
    let (before, after, timed_out) = vp
        .run(move |_| {
            let m = UltMutex::new(&vp2, ());
            let cv = UltCondvar::new(&vp2);
            let g = m.lock().unwrap();
            let before = vp2.stats().snapshot();
            let (g, timed_out) = cv
                .wait_timeout(g, std::time::Duration::from_millis(50))
                .unwrap();
            let after = vp2.stats().snapshot();
            drop(g);
            (before, after, timed_out)
        })
        .unwrap();
    assert!(timed_out);
    assert_eq!(
        after.yields - before.yields,
        0,
        "a timed wait must not yield-poll"
    );
    // Waking from the timer is at most one re-dispatch of the waiter.
    assert!(
        after.full_switches - before.full_switches <= 1,
        "{before:?} -> {after:?}"
    );
    assert!(
        after.self_redispatches - before.self_redispatches <= 1,
        "{before:?} -> {after:?}"
    );
    assert!(after.idle_spins > before.idle_spins);
    assert!(
        idle.0.load(Ordering::Relaxed) > 0,
        "the idle hook never ran"
    );
    assert_eq!(vp.armed_timers(), 0);
}

#[test]
fn hookless_timed_wait_times_out_instead_of_reporting_deadlock() {
    let vp = Vp::new(VpConfig {
        deadlock_spin_limit: 50,
        ..VpConfig::named("timed-dl")
    });
    let vp2 = Arc::clone(&vp);
    let (cv_timed_out, sem_acquired) = vp
        .run(move |_| {
            let m = UltMutex::new(&vp2, ());
            let cv = UltCondvar::new(&vp2);
            let g = m.lock().unwrap();
            let (g, timed_out) = cv
                .wait_timeout(g, std::time::Duration::from_millis(20))
                .unwrap();
            drop(g);
            let sem = UltSemaphore::new(&vp2, 0);
            let acquired = sem
                .acquire_timeout(std::time::Duration::from_millis(20))
                .unwrap();
            (timed_out, acquired)
        })
        .expect("a thread in a timed wait is not deadlocked");
    assert!(cv_timed_out);
    assert!(!sem_acquired);
}

/// One waiter and one waker race a wake against the waiter's deadline,
/// `rounds` times, the wake landing at a different offset around the
/// deadline each round. Every round checks that the wait reports exactly
/// the wake it got (condvar: notified iff `notify_one` woke it;
/// semaphore: acquired iff the released permit is gone, so none is
/// lost), then probes for a stale wakeup token with a plain `block()`
/// that only the waker may end.
fn timed_wake_race(vp: Arc<Vp>, rounds: u32, use_semaphore: bool) {
    use std::time::{Duration, Instant};
    const WAIT: Duration = Duration::from_micros(400);
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, ());
        let cv = UltCondvar::new(&vp2);
        let sem = UltSemaphore::new(&vp2, 0);
        // (round, when the waiter started waiting), published by the waiter.
        let started = Arc::new(parking_lot::Mutex::new((0u32, Instant::now())));
        let probe = Arc::new(AtomicU32::new(0));
        let released = Arc::new(AtomicU32::new(0));
        let (m2, cv2, sem2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&sem));
        let (st2, probe2, rel2) = (
            Arc::clone(&started),
            Arc::clone(&probe),
            Arc::clone(&released),
        );
        let waiter = vp.spawn(SpawnAttr::new().name("waiter"), move |vp| {
            let mut woken = Vec::new();
            for r in 1..=rounds {
                *st2.lock() = (r, Instant::now());
                woken.push(if use_semaphore {
                    sem2.acquire_timeout(WAIT).unwrap()
                } else {
                    let g = m2.lock().unwrap();
                    !cv2.wait_timeout(g, WAIT).unwrap().1
                });
                probe2.store(r, Ordering::SeqCst);
                vp.block();
                assert_eq!(
                    rel2.load(Ordering::SeqCst),
                    r,
                    "round {r}: a stale wakeup token ended the next plain block()"
                );
            }
            woken
        });
        let waiter_tid = waiter.tid();
        // A failed waiter stops publishing rounds; stop waking it and
        // let its join below report the failure.
        let state = |vp: &Arc<Vp>| vp.thread_info(waiter_tid).map(|i| i.state);
        let failed = |vp: &Arc<Vp>| state(vp) == Some(crate::ThreadState::Done);
        let mut delivered = Vec::new();
        'rounds: for r in 1..=rounds {
            let start = loop {
                let (sr, at) = *started.lock();
                if sr == r {
                    break at;
                }
                if failed(vp) {
                    break 'rounds;
                }
                vp.yield_now();
            };
            // Offsets sweep -150..+150 µs around the deadline.
            let offset = (i64::from(r % 31) - 15) * 10;
            let fire_at = if offset < 0 {
                start + WAIT - Duration::from_micros(offset.unsigned_abs())
            } else {
                start + WAIT + Duration::from_micros(offset as u64)
            };
            while Instant::now() < fire_at {
                vp.yield_now();
            }
            let notified = if use_semaphore {
                sem.release();
                false
            } else {
                cv.notify_one()
            };
            // Wait for the probe to park.
            while !(probe.load(Ordering::SeqCst) == r
                && state(vp) == Some(crate::ThreadState::Blocked))
            {
                if failed(vp) {
                    break 'rounds;
                }
                vp.yield_now();
            }
            // Semaphore: the permit went to the waiter or is still
            // here (take it back for the next round). Condvar: whether
            // `notify_one` woke the waiter.
            delivered.push(if use_semaphore {
                !sem.try_acquire()
            } else {
                notified
            });
            released.store(r, Ordering::SeqCst);
            let _ = vp.unblock(waiter_tid);
        }
        let woken = waiter.join().expect("waiter failed");
        assert_eq!(woken.len(), delivered.len());
        for (r, (w, d)) in woken.iter().zip(&delivered).enumerate() {
            assert_eq!(
                w,
                d,
                "round {}: the wait reported woken={w}, the waker delivered={d}",
                r + 1
            );
        }
        assert_eq!(sem.available(), 0);
        assert_eq!(vp2.armed_timers(), 0);
    })
    .unwrap();
}

#[test]
fn condvar_notify_at_deadline_races_are_exact() {
    timed_wake_race(vp(), 200, false);
    timed_wake_race(mvp(4), 200, false);
}

#[test]
fn semaphore_release_at_deadline_races_are_exact() {
    timed_wake_race(vp(), 200, true);
    timed_wake_race(mvp(4), 200, true);
}

#[test]
fn cancelling_a_timed_waiter_disarms_its_timer() {
    use std::time::{Duration, Instant};
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, ());
        let cv = UltCondvar::new(&vp2);
        let sem = UltSemaphore::new(&vp2, 0);
        let (m2, cv2, sem2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&sem));
        let waiters = [
            vp.spawn(SpawnAttr::new(), move |_| {
                let g = m2.lock().unwrap();
                let _ = cv2.wait_timeout(g, Duration::from_secs(30));
            }),
            vp.spawn(SpawnAttr::new(), move |_| {
                let _ = sem2.acquire_timeout(Duration::from_secs(30));
            }),
            vp.spawn(SpawnAttr::new(), |vp| {
                vp.block_until(Instant::now() + Duration::from_secs(30));
            }),
        ];
        while waiters
            .iter()
            .any(|w| vp.thread_info(w.tid()).unwrap().state != crate::ThreadState::Blocked)
        {
            vp.yield_now();
        }
        assert_eq!(vp.armed_timers(), 3);
        for w in waiters {
            vp.cancel(w.tid()).unwrap();
            assert!(matches!(w.join(), Err(JoinError::Cancelled)));
        }
        assert_eq!(
            vp.armed_timers(),
            0,
            "a cancelled timed waiter left its timer armed"
        );
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Foreign (non-ULT) OS threads
// ---------------------------------------------------------------------

#[test]
fn sync_primitives_error_off_ult_instead_of_aborting() {
    // Regression: these used to `expect` (and so abort the process) when
    // touched from an ordinary OS thread — e.g. a transport poller thread.
    let vp = vp();
    let m = UltMutex::new(&vp, 0u32);
    assert!(matches!(m.lock(), Err(UltError::NotUltContext)));
    assert!(matches!(m.try_lock(), Err(UltError::NotUltContext)));
    let sem = UltSemaphore::new(&vp, 1);
    assert!(matches!(sem.acquire(), Err(UltError::NotUltContext)));
    assert!(matches!(
        sem.acquire_timeout(std::time::Duration::from_millis(1)),
        Err(UltError::NotUltContext)
    ));
    let b = UltBarrier::new(&vp, 1);
    assert!(matches!(b.wait(), Err(UltError::NotUltContext)));
    let rw = UltRwLock::new(&vp, ());
    assert!(matches!(rw.read(), Err(UltError::NotUltContext)));
    assert!(matches!(rw.write(), Err(UltError::NotUltContext)));
}

#[test]
fn free_yield_now_off_ult_is_a_noop() {
    // Regression: panicked with "yield_now outside a user-level thread".
    crate::yield_now();
}

// ---------------------------------------------------------------------
// Multi-VP (worker-lane) scheduling
// ---------------------------------------------------------------------

fn mvp(n: usize) -> Arc<Vp> {
    Vp::new(VpConfig::named("mvp").with_vps(n))
}

#[test]
fn multivp_threads_all_complete_and_counters_balance() {
    let vp = mvp(4);
    assert_eq!(vp.n_vps(), 4);
    let counter = Arc::new(AtomicU32::new(0));
    let mut hs = Vec::new();
    for _ in 0..32 {
        let c = Arc::clone(&counter);
        hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
            for _ in 0..20 {
                c.fetch_add(1, Ordering::Relaxed);
                vp.yield_now();
            }
        }));
    }
    vp.start();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 640);
    let s = vp.stats().snapshot();
    assert_eq!(s.spawned, 32);
    assert_eq!(s.exited, 32);
    assert_eq!(s.yields, 640);
}

#[test]
fn idle_lane_steals_from_a_busy_one() {
    // Two threads pinned to lane 0. The first holds lane 0's baton in a
    // pure spin (no scheduling point), so the second can only ever run if
    // lane 1 steals it. Deterministic: no steal -> no flag -> test fails.
    let vp = mvp(2);
    let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let f1 = Arc::clone(&flag);
    let spinner = vp.spawn(SpawnAttr::new().affinity(0).name("spinner"), move |_| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !f1.load(Ordering::Acquire) {
            assert!(
                std::time::Instant::now() < deadline,
                "lane 1 never stole the setter from lane 0"
            );
            std::thread::yield_now();
        }
    });
    let f2 = Arc::clone(&flag);
    let setter = vp.spawn(SpawnAttr::new().affinity(0).name("setter"), move |_| {
        f2.store(true, Ordering::Release);
    });
    vp.start();
    spinner.join().unwrap();
    setter.join().unwrap();
    assert!(
        vp.stats().snapshot().steals >= 1,
        "the setter can only have run via a steal"
    );
}

#[test]
fn single_vp_never_steals() {
    let vp = vp();
    for _ in 0..8 {
        vp.spawn(SpawnAttr::new().detached(), |vp| {
            for _ in 0..10 {
                vp.yield_now();
            }
        });
    }
    vp.start();
    assert_eq!(vp.stats().snapshot().steals, 0);
}

#[test]
fn affinity_pins_home_lane_round_robin_spreads() {
    // All-pinned spawn: every thread requeues on lane 3's queue, so with
    // yields the scheduler still completes everything.
    let vp = mvp(4);
    let counter = Arc::new(AtomicU32::new(0));
    for _ in 0..8 {
        let c = Arc::clone(&counter);
        vp.spawn(SpawnAttr::new().affinity(3).detached(), move |vp| {
            c.fetch_add(1, Ordering::Relaxed);
            vp.yield_now();
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    vp.start();
    assert_eq!(counter.load(Ordering::Relaxed), 16);
}

#[test]
fn multivp_sync_primitives_stay_correct() {
    let vp = mvp(4);
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, 0u64);
            let mut hs = Vec::new();
            for _ in 0..8 {
                let m = Arc::clone(&m);
                hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
                    for _ in 0..50 {
                        let mut g = m.lock().unwrap();
                        let v = *g;
                        vp.yield_now(); // invite every interleaving
                        *g = v + 1;
                        drop(g);
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            let total = *m.lock().unwrap();
            total
        })
        .unwrap();
    assert_eq!(out, 400);
}

#[test]
fn multivp_cancelled_condvar_waiter_does_not_strand_others() {
    // The PR 3 cancelled-waiter fix, now with four lanes racing: the
    // doomed waiter's stale queue entry must be skipped no matter which
    // lane delivers the notification.
    let vp = mvp(4);
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, (false, false));
        let cv = UltCondvar::new(&vp2);

        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let doomed = vp.spawn(SpawnAttr::new().name("doomed"), move |_| {
            let mut g = m2.lock().unwrap();
            while !g.0 {
                g = cv2.wait(g).unwrap();
            }
            unreachable!("doomed waiter must be cancelled");
        });
        let (m3, cv3) = (Arc::clone(&m), Arc::clone(&cv));
        let live = vp.spawn(SpawnAttr::new().name("live"), move |_| {
            let mut g = m3.lock().unwrap();
            while !g.1 {
                g = cv3.wait(g).unwrap();
            }
            "woken"
        });
        // Let both park on the condvar (real queue entries, not tokens).
        while vp.thread_info(doomed.tid()).unwrap().state != crate::ThreadState::Blocked
            || vp.thread_info(live.tid()).unwrap().state != crate::ThreadState::Blocked
        {
            vp.yield_now();
        }
        vp.cancel(doomed.tid()).unwrap();
        m.lock().unwrap().1 = true;
        cv.notify_one(); // must skip the doomed entry and wake `live`
        assert_eq!(live.join().unwrap(), "woken");
        assert!(matches!(doomed.join(), Err(JoinError::Cancelled)));
    })
    .unwrap();
}

#[test]
fn multivp_cancelled_semaphore_waiter_does_not_strand_others() {
    let vp = mvp(4);
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let sem = UltSemaphore::new(&vp2, 0);
        let s2 = Arc::clone(&sem);
        let victim = vp.spawn(SpawnAttr::new(), move |_| {
            s2.acquire().unwrap();
            unreachable!("victim must be cancelled while waiting");
        });
        let s3 = Arc::clone(&sem);
        let survivor = vp.spawn(SpawnAttr::new(), move |_| {
            s3.acquire().unwrap();
            7u8
        });
        while vp.thread_info(victim.tid()).unwrap().state != crate::ThreadState::Blocked
            || vp.thread_info(survivor.tid()).unwrap().state != crate::ThreadState::Blocked
        {
            vp.yield_now();
        }
        vp.cancel(victim.tid()).unwrap();
        assert!(matches!(victim.join(), Err(JoinError::Cancelled)));
        sem.release();
        assert_eq!(survivor.join().unwrap(), 7);
    })
    .unwrap();
}

#[test]
fn multivp_hookless_deadlock_still_detected() {
    let vp = Vp::new(VpConfig {
        deadlock_spin_limit: 200,
        ..VpConfig::named("mdl").with_vps(3)
    });
    let h = vp.spawn(SpawnAttr::new(), |vp| {
        vp.block(); // nobody will ever unblock us
    });
    vp.start(); // must terminate (exactly one lane reports), not hang
    match h.join() {
        Err(JoinError::Panicked(p)) => {
            let msg = p.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
        }
        Err(JoinError::Cancelled) => {}
        other => panic!("expected deadlock report, ok={}", other.is_ok()),
    }
}
