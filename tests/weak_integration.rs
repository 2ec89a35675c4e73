//! Weak-pointer semantics across schemes: upgrade/expiry races, weak
//! snapshot linearizability corners (§4.5), and the queue of Fig. 10 —
//! including that dead nodes held only through weak back edges are
//! reclaimed during operations, not left for `process_deferred`.

use smr::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cdrc::{
    AtomicSharedPtr, AtomicWeakPtr, DomainRef, EbrScheme, EdgeCollector, GraphNode, HpScheme,
    HyalineScheme, IbrScheme, Scheme, SharedPtr,
};
use lockfree::rc::RcDoubleLinkQueue;
use lockfree::ConcurrentQueue;

fn settle<S: Scheme>() {
    S::global_domain().process_deferred(smr::current_tid());
}

fn upgrade_expiry_race<S: Scheme>() {
    for round in 0..40u64 {
        let strong: SharedPtr<u64, S> = SharedPtr::new(round);
        let weak = strong.downgrade();
        let seen_value = Arc::new(AtomicU64::new(0));
        let dropper = std::thread::spawn(move || drop(strong));
        let upgrader = {
            let weak = weak.clone();
            let seen = Arc::clone(&seen_value);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    match weak.upgrade() {
                        Some(p) => {
                            // An upgrade that succeeds must yield a fully
                            // alive object.
                            seen.store(*p.as_ref().unwrap() + 1, Ordering::SeqCst);
                        }
                        None => break, // once dead, always dead
                    }
                }
            })
        };
        dropper.join().unwrap();
        upgrader.join().unwrap();
        let seen = seen_value.load(Ordering::SeqCst);
        assert!(seen == 0 || seen == round + 1);
        settle::<S>();
        assert!(weak.upgrade().is_none());
    }
}

#[test]
fn upgrade_vs_drop_all_schemes() {
    upgrade_expiry_race::<EbrScheme>();
    upgrade_expiry_race::<IbrScheme>();
    upgrade_expiry_race::<HpScheme>();
    upgrade_expiry_race::<HyalineScheme>();
}

fn weak_snapshot_reads_stay_valid<S: Scheme>() {
    // A reader holds weak snapshots while a writer destroys the last strong
    // reference; every non-null snapshot must remain readable for its whole
    // lifetime.
    for _ in 0..30 {
        let slot: Arc<AtomicWeakPtr<String, S>> = Arc::new(AtomicWeakPtr::null());
        let strong: SharedPtr<String, S> = SharedPtr::new("payload".to_string());
        slot.store(&strong.downgrade());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let d = S::global_domain();
                let mut reads = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let cs = d.weak_cs();
                    let snap = slot.get_snapshot(&cs);
                    if let Some(s) = snap.as_ref() {
                        assert_eq!(s, "payload");
                        reads += 1;
                    }
                }
                reads
            })
        };
        drop(strong);
        stop.store(true, Ordering::Relaxed);
        let _ = reader.join().unwrap();
        settle::<S>();
        let cs = S::global_domain().weak_cs();
        assert!(slot.get_snapshot(&cs).is_null());
    }
}

#[test]
fn weak_snapshot_expiry_all_schemes() {
    weak_snapshot_reads_stay_valid::<EbrScheme>();
    weak_snapshot_reads_stay_valid::<IbrScheme>();
    weak_snapshot_reads_stay_valid::<HpScheme>();
    weak_snapshot_reads_stay_valid::<HyalineScheme>();
}

#[test]
fn weak_snapshot_null_only_if_location_unchanged() {
    // §4.5: if the observed object expired but the location has been
    // replaced, get_snapshot must retry rather than report null. Driven
    // here by racing replacements of expiring objects.
    let slot: Arc<AtomicWeakPtr<u64, EbrScheme>> = Arc::new(AtomicWeakPtr::null());
    let keeper: Arc<AtomicSharedPtr<u64, EbrScheme>> = Arc::new(AtomicSharedPtr::null());
    let strong: SharedPtr<u64, EbrScheme> = SharedPtr::new(0);
    keeper.store(strong.clone());
    slot.store(&strong.downgrade());
    drop(strong);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let slot = Arc::clone(&slot);
        let keeper = Arc::clone(&keeper);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let fresh: SharedPtr<u64, EbrScheme> = SharedPtr::new(i);
                slot.store(&fresh.downgrade());
                keeper.store(fresh); // keeps the newest alive
                i += 1;
            }
        })
    };
    let d = EbrScheme::global_domain();
    for _ in 0..20_000 {
        let cs = d.weak_cs();
        let snap = slot.get_snapshot(&cs);
        // The slot always references the keeper-alive object (modulo the
        // instant between the two stores), so null snapshots must be rare
        // and — crucially — reads of non-null snapshots always valid.
        if let Some(v) = snap.as_ref() {
            std::hint::black_box(*v);
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    settle::<EbrScheme>();
}

#[test]
fn downgrade_upgrade_identity() {
    fn run<S: Scheme>() {
        let p: SharedPtr<Vec<u32>, S> = SharedPtr::new(vec![1, 2, 3]);
        let w = p.downgrade();
        let q = w.upgrade().unwrap();
        assert!(p.ptr_eq(&q));
        assert_eq!(q.as_ref().unwrap(), &vec![1, 2, 3]);
        drop((p, q, w));
        settle::<S>();
    }
    run::<EbrScheme>();
    run::<HpScheme>();
}

#[test]
fn atomic_weak_cas_chain() {
    let a: SharedPtr<u8, IbrScheme> = SharedPtr::new(1);
    let b: SharedPtr<u8, IbrScheme> = SharedPtr::new(2);
    let slot: AtomicWeakPtr<u8, IbrScheme> = AtomicWeakPtr::null();
    let wa = a.downgrade();
    let wb = b.downgrade();
    // null -> a -> b chain of CASes.
    assert!(slot
        .compare_exchange(cdrc::TaggedPtr::null(), &wa)
        .expect("install into empty slot")
        .is_null());
    let cur = slot.load_tagged();
    let displaced = slot.compare_exchange(cur, &wb).expect("a -> b");
    assert!(displaced.ptr_eq(&wa), "displaced weak is the old occupant");
    drop(displaced);
    let w = slot
        .compare_exchange(cur, &wa)
        .expect_err("stale expected must fail");
    assert_eq!(w, slot.load_tagged(), "witness names the current occupant");
    assert_eq!(slot.load().upgrade().map(|p| *p.as_ref().unwrap()), Some(2));
    drop((a, b, wa, wb, slot));
    settle::<IbrScheme>();
}

/// A node with the Fig. 10 queue's edge shape: strong `next`, weak `prev`.
struct ChainNode<S: Scheme> {
    next: AtomicSharedPtr<ChainNode<S>, S>,
    prev: AtomicWeakPtr<ChainNode<S>, S>,
}

impl<S: Scheme> GraphNode<S> for ChainNode<S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.next);
        out.take_atomic_weak(&mut self.prev);
    }
}

fn weak_back_edge_chain_freed_at_section_exit<S: Scheme>() {
    // Every node but the last has a weak observer (its successor's
    // `prev`), so each one's strong count reaches zero inside its
    // predecessor's destruct and its disposal goes through the dispose
    // instance: a chain of 1,000 single retires, none of which reaches the
    // instance's retire threshold on its own.
    const LEN: u64 = 1_000;
    let d: DomainRef<S> = DomainRef::new();
    let node = || {
        SharedPtr::new_graph_in(
            ChainNode {
                next: AtomicSharedPtr::null_in(&d),
                prev: AtomicWeakPtr::null_in(&d),
            },
            &d,
        )
    };
    let head: SharedPtr<ChainNode<S>, S> = node();
    let mut tail = head.clone();
    for _ in 1..LEN {
        let n = node();
        n.as_ref().unwrap().prev.store_strong(&tail);
        tail.as_ref().unwrap().next.store(n.clone());
        tail = n;
    }
    drop(tail);
    assert_eq!(d.allocated(), LEN);
    let guard = d.weak_cs();
    drop(head);
    drop(guard);
    // No `process_deferred`: closing the section must reclaim the chain.
    assert_eq!(
        d.freed(),
        LEN,
        "{}: {} of {LEN} chain nodes still unreclaimed after the section closed",
        S::scheme_name(),
        d.in_flight()
    );
}

#[test]
fn weak_back_edge_chain_freed_without_process_deferred() {
    weak_back_edge_chain_freed_at_section_exit::<EbrScheme>();
    weak_back_edge_chain_freed_at_section_exit::<IbrScheme>();
    weak_back_edge_chain_freed_at_section_exit::<HpScheme>();
    weak_back_edge_chain_freed_at_section_exit::<HyalineScheme>();
}

/// Pop-and-re-push on the Fig. 10 queue over RC(HP): every dequeued node is
/// held by a weak back edge when it dies, so its reclamation rides the
/// dispose chain. The domain must keep up during the run — garbage stays
/// bounded with no `process_deferred` until the end.
#[test]
fn weak_queue_garbage_bounded_during_operations() {
    const THREADS: u64 = 2;
    const GUARDS: u64 = 1_600; // per thread, at least
    const OPS_PER_GUARD: u64 = 64; // a pop and a push count as two ops
    const MAX_IN_FLIGHT: u64 = 20_000;
    let seed: u64 = std::env::var("WEAK_QUEUE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x9e37_79b9);
    eprintln!("weak_queue_garbage_bounded_during_operations: WEAK_QUEUE_SEED={seed}");

    let d: DomainRef<HpScheme> = DomainRef::new();
    let q: Arc<RcDoubleLinkQueue<u64, HpScheme>> = Arc::new(RcDoubleLinkQueue::new_in(d.clone()));
    for i in 0..THREADS {
        q.enqueue(seed.wrapping_add(i));
    }
    // Guards completed per worker. A worker stalled by the host holds back
    // every chain link whose last decrement sits in its lists, so neither
    // may run more than `MAX_LEAD` guards ahead of the other: the bound
    // then measures the domain, not the scheduler. Both run until both
    // have done `GUARDS`, so the sampled window has both active. (A worker
    // that exits strands the dispose retires it still holds, and the rest
    // of their chains, until its slot is reused or the domain is flushed.)
    const MAX_LEAD: u64 = 4;
    let progress: Arc<[AtomicU64; 2]> = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let done = Arc::new(std::sync::Barrier::new(THREADS as usize));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let d = d.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max = 0;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(d.in_flight());
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            max.max(d.in_flight())
        })
    };
    let workers: Vec<_> = (0..THREADS)
        .map(|i| {
            let q = Arc::clone(&q);
            let progress = Arc::clone(&progress);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let (me, other) = (&progress[i as usize], &progress[1 - i as usize]);
                // The seed varies where each worker yields between guards.
                let mut state = seed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                loop {
                    let (mine, theirs) =
                        (me.load(Ordering::Relaxed), other.load(Ordering::Relaxed));
                    if mine >= GUARDS && theirs >= GUARDS {
                        break;
                    }
                    if mine > theirs + MAX_LEAD {
                        std::thread::yield_now();
                        continue;
                    }
                    let guard = q.pin();
                    for _ in 0..OPS_PER_GUARD / 2 {
                        // One element per worker: the queue is never empty
                        // when a worker pops.
                        let v = q.dequeue_with(&guard).expect("queue emptied");
                        q.enqueue_with(v, &guard);
                    }
                    drop(guard);
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state.is_multiple_of(8) {
                        std::thread::yield_now();
                    }
                    me.fetch_add(1, Ordering::Relaxed);
                }
                // The end: with both workers out of their sections, each
                // flushes what its own slot still holds.
                done.wait();
                q.domain().process_deferred(smr::current_tid());
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let max_in_flight = sampler.join().unwrap();
    let ops = THREADS * GUARDS * OPS_PER_GUARD;
    eprintln!("max in_flight {max_in_flight} blocks");
    assert!(
        max_in_flight < MAX_IN_FLIGHT,
        "seed {seed}: in_flight reached {max_in_flight} blocks over at least {ops} ops \
         (bound {MAX_IN_FLIGHT}): dispose chains are not reclaimed during operations"
    );
    let q = Arc::try_unwrap(q).unwrap_or_else(|_| panic!("queue still shared"));
    let mut left: Vec<u64> = std::iter::from_fn(|| q.dequeue()).collect();
    left.sort_unstable();
    let mut seeded: Vec<u64> = (0..THREADS).map(|i| seed.wrapping_add(i)).collect();
    seeded.sort_unstable();
    assert_eq!(left, seeded, "seed {seed}: elements lost");
    drop(q);
    assert_eq!(
        d.allocated(),
        d.freed(),
        "seed {seed}: queue teardown left blocks behind"
    );
}
