//! A miniature concurrent key-value store on the *resizable*
//! (split-ordered) hash table, with the same code running over all four
//! reclamation engines.
//!
//! Run with: `cargo run --release --example kv_store`
//!
//! Demonstrates the paper's central claim from the user's chair: the
//! *automatic* table is a drop-in replacement for the *manual* one — same
//! algorithm, same interface — with the manual version's retire/eject
//! chores gone. The final section shows **reclamation domains**: two
//! stores on one scheme with private domains run concurrently with exact
//! per-store "in flight" metrics, while a third pair deliberately shares
//! one domain and meters jointly.

use cdrc::{DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme};
use lockfree::manual::ResizableHashMap;
use lockfree::rc::RcResizableHashMap;
use lockfree::ConcurrentMap;
use std::time::Instant;

fn drive<M: ConcurrentMap<u64, u64>>(store: &M, label: &str) {
    const OPS: u64 = 60_000;
    const BATCH: u64 = 64;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..4u64 {
            let store = &store;
            workers.push(scope.spawn(move || {
                let mut state = t.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
                let mut i = 0u64;
                // Guard-batched loop: one `pin` per 64 operations amortizes
                // the scheme's per-critical-section fence (paper §3.4) —
                // the guard-free calls would open a section per operation.
                while i < OPS {
                    let guard = store.pin();
                    for _ in 0..BATCH.min(OPS - i) {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % 4096;
                        match i % 10 {
                            0 => {
                                store.insert_with(k, k * 3, &guard);
                            }
                            1 => {
                                store.remove_with(&k, &guard);
                            }
                            _ => {
                                if let Some(v) = store.get_with(&k, &guard) {
                                    assert_eq!(v, k * 3);
                                }
                            }
                        }
                        i += 1;
                    }
                    drop(guard); // reclamation catches up between batches
                }
            }));
        }
        // Join through the handles: unlike the scope's own wait, `join`
        // also waits for the thread-exit callbacks that flush each worker's
        // deferred work into the domain, which `main` later drains.
        for w in workers {
            w.join().unwrap();
        }
    });
    println!(
        "{label:<22} {:>8.1} kops/s",
        (4 * OPS) as f64 / started.elapsed().as_secs_f64() / 1e3
    );
}

fn main() {
    // Every store below starts at a single bucket and grows itself to fit
    // the working set — no capacity guess at construction.
    println!("-- automatic (reference counted), one engine per run --");
    drive(
        &RcResizableHashMap::<u64, u64, EbrScheme>::new(),
        "RC (EBR)",
    );
    drive(
        &RcResizableHashMap::<u64, u64, IbrScheme>::new(),
        "RC (IBR)",
    );
    drive(&RcResizableHashMap::<u64, u64, HpScheme>::new(), "RC (HP)");
    drive(
        &RcResizableHashMap::<u64, u64, HyalineScheme>::new(),
        "RC (Hyaline)",
    );

    println!("-- manual (retire/eject by hand inside the structure) --");
    drive(&ResizableHashMap::<u64, u64, smr::Ebr>::new(), "manual EBR");
    drive(&ResizableHashMap::<u64, u64, smr::Hp>::new(), "manual HP");

    // ------------------------------------------------------------------
    // Reclamation domains: isolate or share, per structure.
    // ------------------------------------------------------------------
    println!("-- instance domains: two EBR stores, private vs shared --");
    let t = smr::current_tid();

    // Private domains: each store meters exactly its own nodes, and one
    // store's open guards never pin the other's garbage — even though both
    // run on the same scheme in the same process.
    let users_domain: DomainRef<EbrScheme> = DomainRef::new();
    let sessions_domain: DomainRef<EbrScheme> = DomainRef::new();
    let users = RcResizableHashMap::<u64, u64, EbrScheme>::new_in(users_domain.clone());
    let sessions = RcResizableHashMap::<u64, u64, EbrScheme>::new_in(sessions_domain.clone());
    std::thread::scope(|scope| {
        let users_worker = scope.spawn(|| drive(&users, "users (own domain)"));
        let sessions_worker = scope.spawn(|| drive(&sessions, "sessions (own domain)"));
        // As in `drive`: join so that the exit callbacks have run.
        users_worker.join().unwrap();
        sessions_worker.join().unwrap();
    });
    // Worker threads are joined: drain their slots' deferred work too.
    // Safety: each domain is private to this example and nobody else is
    // using it anymore.
    unsafe {
        users_domain.drain_and_apply_all(t);
        sessions_domain.drain_and_apply_all(t);
    }
    println!(
        "users in flight: {}   sessions in flight: {}   (exact, no cross-pollution)",
        users.in_flight_nodes(),
        sessions.in_flight_nodes()
    );

    // Shared domain: a cache and its index reclaim — and are metered —
    // together; one guard covers operations on both.
    let shared: DomainRef<EbrScheme> = DomainRef::new();
    let cache = RcResizableHashMap::<u64, u64, EbrScheme>::new_in(shared.clone());
    let index = RcResizableHashMap::<u64, u64, EbrScheme>::new_in(shared.clone());
    let guard = cache.pin(); // same domain: also covers `index`
    for k in 0..1000u64 {
        cache.insert_with(k, k * 3, &guard);
        index.insert_with(k * 3, k, &guard);
    }
    drop(guard);
    shared.process_deferred(t);
    println!(
        "cache+index shared domain in flight: {} (joint metric by choice)",
        shared.in_flight()
    );

    drop((users, sessions, cache, index));
    // Structures flush their domains on drop; with the worker slots drained
    // above, every private domain balances exactly.
    assert_eq!(users_domain.allocated(), users_domain.freed());
    assert_eq!(sessions_domain.allocated(), sessions_domain.freed());
    assert_eq!(shared.allocated(), shared.freed());
    println!("all instance domains balanced (allocated == freed) — no leaks");
}
