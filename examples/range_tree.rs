//! The paper's motivating workload (Fig. 11): a concurrent ordered map with
//! point updates and range scans, on the Natarajan-Mittal tree.
//!
//! Run with: `cargo run --release --example range_tree`
//!
//! Every pointer in the tree is a `cdrc` reference-counted pointer — there
//! is not a single `retire` call in the data structure, yet memory is
//! reclaimed promptly (watch the in-flight counter at the end).

use cdrc::{EbrScheme, Scheme};
use lockfree::rc::RcNatarajanMittalTree;
use lockfree::ConcurrentMap;

type S = EbrScheme;

fn main() {
    let tree: RcNatarajanMittalTree<u64, u64, S> = RcNatarajanMittalTree::new();
    const KEYS: u64 = 20_000;

    // Prefill half the key range.
    for k in (0..KEYS).step_by(2) {
        tree.insert(k, k * 10);
    }
    println!("prefilled {} keys", KEYS / 2);

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        // Updaters: insert/delete random keys.
        for t in 0..3u64 {
            let tree = &tree;
            workers.push(scope.spawn(move || {
                let mut state = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                let mut inserted = 0u32;
                let mut removed = 0u32;
                for _ in 0..50_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % KEYS;
                    if state.is_multiple_of(2) {
                        inserted += tree.insert(k, k * 10) as u32;
                    } else {
                        removed += tree.remove(&k) as u32;
                    }
                }
                println!("updater {t}: {inserted} inserts, {removed} removes");
            }));
        }
        // Scanners: range queries of size 64, as in Fig. 11 — batched 16
        // scans per guard so the section fence is paid once per batch, not
        // once per scan.
        for t in 0..3u64 {
            let tree = &tree;
            workers.push(scope.spawn(move || {
                let mut state = 0xD1B54A32D192ED03u64.wrapping_mul(t + 1);
                let mut total = 0usize;
                for _ in 0..125 {
                    let guard = tree.pin();
                    for _ in 0..16 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % KEYS;
                        total += tree.range_with(&k, &(k + 64), 64, &guard).unwrap();
                    }
                    drop(guard);
                }
                println!("scanner {t}: saw {total} keys across 2000 scans");
            }));
        }
        // Join through the handles: unlike the scope's own wait, `join`
        // also waits for the thread-exit callbacks that flush each worker's
        // deferred work, which the drain below must not race.
        for w in workers {
            w.join().unwrap();
        }
    });

    // Spot-check consistency: every value is key*10.
    for k in 0..KEYS {
        if let Some(v) = tree.get(&k) {
            assert_eq!(v, k * 10);
        }
    }
    drop(tree);
    // Orderly shutdown: all worker threads are joined, so we may drain the
    // deferred work parked in their (now recycled) thread slots too.
    // Safety: no other thread is using this domain anymore.
    unsafe { S::global_domain().drain_and_apply_all(smr::current_tid()) };
    println!(
        "tree dropped; control blocks still in flight: {}",
        S::global_domain().in_flight()
    );
}
