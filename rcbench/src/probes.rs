//! Unit probes: each layer's public operations called in a tight loop by
//! [`CLIENTS`] threads, on the scheme of the workload they explain and on a
//! private domain or instance. A probe reports the median over timed
//! batches of the mean time per call.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use cdrc::{AtomicSharedPtr, AtomicWeakPtr, DomainRef, Scheme, SharedPtr, WeakPtr};
use smr::sync::atomic::AtomicUsize;
use smr::{AcquireRetire, GlobalEpoch, Retired};
use sticky::{Counter, StickyCounter};

use crate::check::{teardown_rc, Verdict};
use crate::drive::{BATCH, CLIENTS};
use crate::stats::median;

/// Timed batches per probe thread.
const ROUNDS: usize = 2000;

/// Per-batch mean times of one probe thread.
#[derive(Default)]
struct Laps(Vec<f64>);

impl Laps {
    /// Times `f`, which makes [`BATCH`] calls.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = black_box(f());
        self.0.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        r
    }
}

/// Runs `body(thread, laps)` on [`CLIENTS`] threads started together.
/// Returns the median per-call time and the sum of what the bodies return.
fn probe(body: impl Fn(usize, &mut Laps) -> u64 + Sync) -> (f64, u64) {
    let barrier = Barrier::new(CLIENTS);
    let outs: Vec<(Laps, u64)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CLIENTS)
            .map(|w| {
                let (barrier, body) = (&barrier, &body);
                s.spawn(move || {
                    let mut laps = Laps::default();
                    barrier.wait();
                    let n = body(w, &mut laps);
                    (laps, n)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let all: Vec<f64> = outs.iter().flat_map(|(l, _)| l.0.iter().copied()).collect();
    (median(&all), outs.iter().map(|(_, n)| n).sum())
}

/// `cdrc` pointer operations on scheme `S`: `(metric, value)` pairs.
pub fn cdrc<S: Scheme>(v: &mut Verdict) -> Vec<(&'static str, f64)> {
    let d: DomainRef<S> = DomainRef::new();
    let vals: Vec<SharedPtr<u64, S>> = (0..2).map(|i| SharedPtr::new_in(i, &d)).collect();
    let weak: Vec<WeakPtr<u64, S>> = vals.iter().map(SharedPtr::downgrade).collect();
    let slots: Vec<AtomicSharedPtr<u64, S>> = (0..64)
        .map(|i| AtomicSharedPtr::new_in(vals[i % 2].clone(), &d))
        .collect();
    let wslots: Vec<AtomicWeakPtr<u64, S>> = (0..64)
        .map(|i| {
            let w = AtomicWeakPtr::null_in(&d);
            w.store(&weak[i % 2]);
            w
        })
        .collect();
    // Threads read all slots but write only their own half, except the CAS
    // probe, which contends on four shared slots.
    let own = |w: usize, i: usize| w * 32 + i % 32;
    let strong = |f: &(dyn Fn(usize, usize) + Sync)| {
        probe(|w, l| {
            for _ in 0..ROUNDS {
                let cs = d.cs();
                l.time(|| (0..BATCH as usize).for_each(|i| f(w, i)));
                drop(cs);
            }
            0
        })
        .0
    };
    let load = strong(&|_, i| drop(black_box(slots[i].load())));
    let snapshot = {
        probe(|_, l| {
            for _ in 0..ROUNDS {
                let cs = d.cs();
                l.time(|| {
                    for s in &slots {
                        black_box(s.get_snapshot(&cs).is_null());
                    }
                });
                drop(cs);
            }
            0
        })
        .0
    };
    let store = strong(&|w, i| slots[own(w, i)].store(vals[i % 2].clone()));
    let (cas, won) = probe(|_, l| {
        let mut won = 0;
        for r in 0..ROUNDS {
            let cs = d.cs();
            won += l.time(|| {
                let mut n = 0;
                for i in 0..BATCH as usize {
                    let s = &slots[i % 4];
                    n += s
                        .compare_exchange(s.load_tagged(), &vals[(r + i) % 2])
                        .is_ok() as u64;
                }
                n
            });
            drop(cs);
        }
        won
    });
    let weakly = |f: &(dyn Fn(usize, usize, &cdrc::WeakCsGuard<S>) + Sync)| {
        probe(|w, l| {
            for _ in 0..ROUNDS {
                let cs = d.weak_cs();
                l.time(|| (0..BATCH as usize).for_each(|i| f(w, i, &cs)));
                drop(cs);
            }
            0
        })
        .0
    };
    let weak_snapshot = weakly(&|_, i, cs| {
        black_box(wslots[i].get_snapshot(cs).is_null());
    });
    let weak_store = weakly(&|w, i, _| wslots[own(w, i)].store(&weak[i % 2]));
    let upgrade = weakly(&|_, i, _| drop(black_box(weak[i % 2].upgrade())));
    drop((slots, wslots, vals, weak));
    teardown_rc(v, "cdrc probes", (), &d);
    vec![
        ("cdrc.load_ns", load),
        ("cdrc.snapshot_ns", snapshot),
        ("cdrc.store_ns", store),
        ("cdrc.cas_ns", cas),
        (
            "cdrc.cas_success_ratio",
            won as f64 / (CLIENTS * ROUNDS * BATCH as usize) as f64,
        ),
        ("cdrc.weak_snapshot_ns", weak_snapshot),
        ("cdrc.weak_store_ns", weak_store),
        ("cdrc.upgrade_ns", upgrade),
    ]
}

fn instance<S: AcquireRetire>() -> S {
    S::new(Arc::new(GlobalEpoch::new()), S::default_config())
}

/// `AcquireRetire` calls: sections, retire and eject on the manual
/// variant's scheme `M`; acquire and the quiescence check on the RC
/// variant's engine `R`.
pub fn smr<R: AcquireRetire, M: AcquireRetire>() -> Vec<(&'static str, f64)> {
    let m: M = instance();
    let section = probe(|_, l| {
        let t = smr::current_tid();
        for _ in 0..ROUNDS {
            l.time(|| {
                for _ in 0..BATCH {
                    m.begin_critical_section(t);
                    m.end_critical_section(t);
                }
            });
        }
        0
    })
    .0;
    // Retired records carry fake, never-dereferenced addresses: an engine
    // only hands records back, it does not touch what they name.
    let (retire, ejected) = probe(|w, l| {
        let t = smr::current_tid();
        let mut addr = (w + 1) << 40;
        let mut ejected = 0;
        for _ in 0..ROUNDS {
            m.begin_critical_section(t);
            ejected += l.time(|| {
                let mut n = 0;
                for _ in 0..BATCH {
                    addr += 8;
                    m.retire(t, Retired::new(addr, m.birth_epoch(t)));
                    while m.eject(t).is_some() {
                        n += 1;
                    }
                }
                n
            });
            m.end_critical_section(t);
            while m.eject(t).is_some() {
                ejected += 1;
            }
        }
        ejected
    });
    let r: R = instance();
    let src = AtomicUsize::new(1 << 20);
    let acquire = probe(|_, l| {
        let t = smr::current_tid();
        for _ in 0..ROUNDS {
            r.begin_critical_section(t);
            l.time(|| {
                for _ in 0..BATCH {
                    let (word, g) = r.acquire(t, &src);
                    black_box(word);
                    r.release(t, g);
                }
            });
            r.end_critical_section(t);
        }
        0
    })
    .0;
    let quiescent = probe(|_, l| {
        for _ in 0..ROUNDS {
            l.time(|| (0..BATCH).filter(|_| black_box(r.quiescent())).count());
        }
        0
    })
    .0;
    vec![
        ("smr.section_ns", section),
        ("smr.acquire_ns", acquire),
        ("smr.retire_ns", retire),
        (
            "smr.eject_ratio",
            ejected as f64 / (CLIENTS * ROUNDS * BATCH as usize) as f64,
        ),
        ("smr.quiescent_ns", quiescent),
    ]
}

/// The sticky counter: an increment/decrement pair on a thread's own
/// counter and on one shared by both threads, and a load.
pub fn sticky() -> Vec<(&'static str, f64)> {
    let shared = StickyCounter::new(1);
    let pair = |c: &StickyCounter| {
        assert!(
            c.increment_if_not_zero(),
            "a live counter refused an increment"
        );
        assert!(!c.decrement(), "a counter holding two references hit zero");
    };
    let inc_dec = probe(|_, l| {
        let own = StickyCounter::new(1);
        for _ in 0..ROUNDS {
            l.time(|| (0..BATCH).for_each(|_| pair(&own)));
        }
        0
    })
    .0;
    let contended = probe(|_, l| {
        for _ in 0..ROUNDS {
            l.time(|| (0..BATCH).for_each(|_| pair(&shared)));
        }
        0
    })
    .0;
    let load = probe(|_, l| {
        for _ in 0..ROUNDS {
            l.time(|| (0..BATCH).map(|_| black_box(shared.load())).sum::<u64>());
        }
        0
    })
    .0;
    vec![
        ("sticky.inc_dec_ns", inc_dec),
        ("sticky.inc_dec_contended_ns", contended),
        ("sticky.load_ns", load),
    ]
}
