//! The witness-returning CAS contract, across all four schemes:
//!
//! * a successful compare-exchange returns the *exact* displaced pointer;
//! * a failure witness names a concurrent writer's install;
//! * tag-only transitions (`try_set_tag` / `fetch_or_tag`) interoperate
//!   with pointer witnesses in one loop;
//! * `swap` / `take` ownership transfer tears down to
//!   `allocated() == freed()`;
//! * a proptest model checks that witness-seeded retry loops and
//!   reload-seeded retry loops produce identical executions.

use proptest::prelude::*;

use cdrc::{
    AtomicSharedPtr, DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme, SharedPtr,
    TaggedPtr,
};

/// Drains a domain after multi-threaded use (worker threads joined): their
/// retired lists live in per-slot state only `drain_and_apply_all` reaches.
///
/// Workers must be joined through their handles. A scope returns once its
/// threads' closures have returned, which can be before their thread-exit
/// callbacks (which flush into the domain) have run; a drain racing those
/// breaks its exclusive-access contract.
fn drain<S: Scheme>(d: &DomainRef<S>) {
    // Safety: callers join every worker thread first, and each test owns
    // its private domains, so nobody else is using them.
    unsafe { d.drain_and_apply_all(smr::current_tid()) };
}

/// Success returns the exact displaced pointer; failure returns a witness
/// usable as the next `expected`.
fn displaced_and_witness<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    {
        let first: SharedPtr<u64, S> = SharedPtr::new_in(1, &d);
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(first.clone(), &d);
        let second: SharedPtr<u64, S> = SharedPtr::new_in(2, &d);
        let cur = slot.load_tagged();
        let displaced = slot.compare_exchange(cur, &second).expect("CAS succeeds");
        assert!(
            displaced.ptr_eq(&first),
            "displaced pointer is the exact old occupant"
        );
        assert_eq!(displaced.as_ref(), Some(&1));
        drop(displaced);
        // Stale retry: the witness is the installed `second`, and feeding
        // it back as `expected` succeeds without any re-load.
        let w = slot.compare_exchange(cur, &first).expect_err("stale");
        assert_eq!(w.addr(), TaggedPtr::from_strong(&second).addr());
        let displaced = slot
            .compare_exchange(w, &first)
            .expect("witness-seeded retry");
        assert!(displaced.ptr_eq(&second));
        drop(displaced);
        drop((slot, first, second));
    }
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed(), "clean teardown");
}

#[test]
fn displaced_and_witness_all_schemes() {
    displaced_and_witness::<EbrScheme>();
    displaced_and_witness::<IbrScheme>();
    displaced_and_witness::<HpScheme>();
    displaced_and_witness::<HyalineScheme>();
}

/// The failure witness of a CAS that lost to a concurrent writer names the
/// writer's install.
fn witness_matches_concurrent_install<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(0, &d), &d);
        let stale = slot.load_tagged();
        // A racing writer installs a known pointer...
        let theirs: SharedPtr<u64, S> = SharedPtr::new_in(42, &d);
        let their_word = TaggedPtr::from_strong(&theirs);
        std::thread::scope(|s| {
            let slot = &slot;
            let theirs = &theirs;
            s.spawn(move || {
                slot.store_from(theirs);
            })
            .join()
            .unwrap();
        });
        // ...so our stale CAS must fail, and the witness must be exactly
        // that install.
        let mine: SharedPtr<u64, S> = SharedPtr::new_in(7, &d);
        let w = slot
            .compare_exchange(stale, &mine)
            .expect_err("the writer moved the slot");
        assert_eq!(w.addr(), their_word.addr(), "witness names the install");
        drop((slot, theirs, mine));
    }
    drain(&d);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn witness_matches_concurrent_install_all_schemes() {
    witness_matches_concurrent_install::<EbrScheme>();
    witness_matches_concurrent_install::<IbrScheme>();
    witness_matches_concurrent_install::<HpScheme>();
    witness_matches_concurrent_install::<HyalineScheme>();
}

/// Tag transitions and pointer CASes compose through witnesses: a marked
/// word witnessed by a failed pointer CAS is a valid `expected` for
/// `try_set_tag`, and vice versa.
fn tag_transitions_interop<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(5, &d), &d);
        let cur = slot.load_tagged();
        // Mark the word; the Ok value is the installed (marked) word.
        let marked = slot.try_set_tag(cur, 0b1).expect("mark lands");
        assert_eq!(marked.tag(), 0b1);
        // A pointer CAS with the unmarked expected loses; its witness is
        // the marked word, which seeds a successful tag upgrade.
        let desired: SharedPtr<u64, S> = SharedPtr::new_in(6, &d);
        let w = slot
            .compare_exchange(cur, &desired)
            .expect_err("marked word defeats unmarked expected");
        assert_eq!(w, marked, "witness carries the mark");
        let both = slot.try_set_tag(w, 0b10).expect("tag upgrade via witness");
        assert_eq!(both.tag(), 0b11);
        // fetch_or_tag's return is itself a witness: feed it to the final
        // pointer CAS that swings the marked word out.
        let prev = slot.fetch_or_tag(0b100);
        assert_eq!(prev, both);
        let displaced = slot
            .compare_exchange_tagged(prev.with_tag(0b111), &desired, 0)
            .expect("witnessed marked word swings out");
        assert_eq!(displaced.as_ref(), Some(&5));
        drop(displaced);
        assert_eq!(slot.load_tagged().tag(), 0, "fresh install is unmarked");
        drop((slot, desired));
    }
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn tag_transitions_interop_all_schemes() {
    tag_transitions_interop::<EbrScheme>();
    tag_transitions_interop::<IbrScheme>();
    tag_transitions_interop::<HpScheme>();
    tag_transitions_interop::<HyalineScheme>();
}

/// Concurrent swap storm: values are conserved through displaced-ownership
/// hand-offs, and the private domain tears down to allocated() == freed().
fn swap_take_teardown<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(99, &d), &d);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4u64)
                .map(|i| {
                    let slot = &slot;
                    let d = &d;
                    s.spawn(move || {
                        let mut mine: SharedPtr<u64, S> = SharedPtr::new_in(i, d);
                        for _ in 0..1_000 {
                            mine = slot.swap(mine);
                            assert!(!mine.is_null(), "swap storm never sees null");
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
        });
        let taken = slot.take();
        assert!(!taken.is_null());
        assert!(slot.take().is_null(), "slot is empty after take");
        drop(taken);
        drop(slot);
    }
    drain(&d);
    assert_eq!(
        d.allocated(),
        d.freed(),
        "every displaced hand-off balanced"
    );
}

#[test]
fn swap_take_teardown_all_schemes() {
    swap_take_teardown::<EbrScheme>();
    swap_take_teardown::<IbrScheme>();
    swap_take_teardown::<HpScheme>();
    swap_take_teardown::<HyalineScheme>();
}

/// `compare_exchange_weak` witness loops converge (spurious failures hand
/// back `expected` and the loop re-attempts).
fn weak_cas_converges<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(0, &d), &d);
        let desired: SharedPtr<u64, S> = SharedPtr::new_in(1, &d);
        let mut cur = slot.load_tagged();
        let displaced = loop {
            match slot.compare_exchange_weak(cur, &desired) {
                Ok(old) => break old,
                Err(w) => cur = w,
            }
        };
        assert_eq!(displaced.as_ref(), Some(&0));
        drop(displaced);
        drop((slot, desired));
    }
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn weak_cas_converges_all_schemes() {
    weak_cas_converges::<EbrScheme>();
    weak_cas_converges::<IbrScheme>();
    weak_cas_converges::<HpScheme>();
    weak_cas_converges::<HyalineScheme>();
}

/// The guard-threaded variant: the failure witness dereferences without any
/// further load, under every scheme (HP revalidates internally).
fn with_witness_dereferences<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(3, &d), &d);
        let desired: SharedPtr<u64, S> = SharedPtr::new_in(4, &d);
        let cs = d.cs();
        let w = slot
            .compare_exchange_with(&cs, TaggedPtr::null(), &desired)
            .expect_err("null expected against a full slot");
        assert_eq!(w.as_ref(), Some(&3), "witness dereferences immediately");
        let displaced = slot
            .compare_exchange_with(&cs, w.tagged(), &desired)
            .expect("witness-seeded retry");
        assert!(displaced.ptr_eq(&w.to_shared()));
        drop(displaced);
        drop(w);
        drop(cs);
        drop((slot, desired));
    }
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn with_witness_dereferences_all_schemes() {
    with_witness_dereferences::<EbrScheme>();
    with_witness_dereferences::<IbrScheme>();
    with_witness_dereferences::<HpScheme>();
    with_witness_dereferences::<HyalineScheme>();
}

/// Concurrent `_with` witness storm: CAS losers dereference their failure
/// witnesses while winners swap fresh nodes in and drop the displaced ones
/// immediately (maximum reclamation pressure). Regression surface for the
/// witness-protection rule: schemes without
/// `PROTECTS_SECTION_READS` (IBR, HP) must revalidate against the live
/// word before handing a dereferenceable witness back — under the broken
/// stack-local shortcut this test reads freed memory under IBR.
fn with_witness_under_swap_pressure<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(0, &d), &d);
        std::thread::scope(|s| {
            let mut workers = Vec::new();
            // Two swappers churn the slot, retiring displaced nodes as fast
            // as possible (each drop is a deferred decrement feeding the
            // scheme's scan).
            for w in 0..2u64 {
                let slot = &slot;
                let d = &d;
                workers.push(s.spawn(move || {
                    for i in 0..3_000u64 {
                        drop(slot.swap(SharedPtr::new_in(w * 1_000_000 + i, d)));
                    }
                }));
            }
            // Two witnesses-chasers CAS with stale expectations and read
            // every witness they are handed.
            for _ in 0..2 {
                let slot = &slot;
                let d = &d;
                workers.push(s.spawn(move || {
                    let mine: SharedPtr<u64, S> = SharedPtr::new_in(7_777_777, d);
                    let cs = d.cs();
                    let mut expected = TaggedPtr::null();
                    for _ in 0..3_000 {
                        match slot.compare_exchange_with(&cs, expected, &mine) {
                            Ok(displaced) => {
                                if let Some(v) = displaced.as_ref() {
                                    assert!(*v < 2_000_000 || *v == 7_777_777);
                                }
                                expected = TaggedPtr::from_strong(&mine);
                            }
                            Err(w) => {
                                // The whole point: dereference the witness.
                                if let Some(v) = w.as_ref() {
                                    assert!(*v < 2_000_000 || *v == 7_777_777);
                                }
                                expected = w.tagged();
                            }
                        }
                    }
                }));
            }
            for w in workers {
                w.join().unwrap();
            }
        });
        drop(slot);
    }
    drain(&d);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn with_witness_under_swap_pressure_all_schemes() {
    with_witness_under_swap_pressure::<EbrScheme>();
    with_witness_under_swap_pressure::<IbrScheme>();
    with_witness_under_swap_pressure::<HpScheme>();
    with_witness_under_swap_pressure::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// Proptest model: witness-seeded and reload-seeded loops are equivalent.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum SlotOp {
    Store(u64),
    /// CAS to `v` starting from a deliberately stale `expected`; the loop
    /// must converge via its reseeding strategy.
    CasFromStale(u64),
    Swap(u64),
    Take,
    SetTag(usize),
    FetchOr(usize),
}

fn slot_op() -> impl Strategy<Value = SlotOp> {
    prop_oneof![
        (0u64..1000).prop_map(SlotOp::Store),
        (0u64..1000).prop_map(SlotOp::CasFromStale),
        (0u64..1000).prop_map(SlotOp::Swap),
        Just(SlotOp::Take),
        (1usize..4).prop_map(SlotOp::SetTag),
        (1usize..4).prop_map(SlotOp::FetchOr),
    ]
}

/// Applies `op` to `slot`, reseeding failed CASes from the witness.
fn apply_witness<S: Scheme>(
    slot: &AtomicSharedPtr<u64, S>,
    d: &DomainRef<S>,
    op: SlotOp,
) -> (Option<u64>, usize) {
    match op {
        SlotOp::Store(v) => slot.store(SharedPtr::new_in(v, d)),
        SlotOp::CasFromStale(v) => {
            let desired = SharedPtr::new_in(v, d);
            let mut expected = TaggedPtr::null().with_tag(0b111); // never current
            loop {
                match slot.compare_exchange_tagged(expected, &desired, 0) {
                    Ok(_) => break,
                    Err(w) => expected = w, // the witness, not a re-load
                }
            }
        }
        SlotOp::Swap(v) => drop(slot.swap(SharedPtr::new_in(v, d))),
        SlotOp::Take => drop(slot.take()),
        SlotOp::SetTag(bits) => {
            let mut expected = TaggedPtr::null().with_tag(0b111);
            loop {
                match slot.try_set_tag(expected, bits) {
                    Ok(_) => break,
                    Err(w) => expected = w,
                }
            }
        }
        SlotOp::FetchOr(bits) => drop(slot.fetch_or_tag(bits)),
    }
    observe(slot)
}

/// Applies `op` to `slot`, reseeding failed CASes by re-loading — the
/// pre-witness idiom the new API replaces.
fn apply_reload<S: Scheme>(
    slot: &AtomicSharedPtr<u64, S>,
    d: &DomainRef<S>,
    op: SlotOp,
) -> (Option<u64>, usize) {
    match op {
        SlotOp::Store(v) => slot.store(SharedPtr::new_in(v, d)),
        SlotOp::CasFromStale(v) => {
            let desired = SharedPtr::new_in(v, d);
            let mut expected = TaggedPtr::null().with_tag(0b111);
            loop {
                match slot.compare_exchange_tagged(expected, &desired, 0) {
                    Ok(_) => break,
                    Err(_) => expected = slot.load_tagged(), // the old way
                }
            }
        }
        SlotOp::Swap(v) => drop(slot.swap(SharedPtr::new_in(v, d))),
        SlotOp::Take => drop(slot.take()),
        SlotOp::SetTag(bits) => {
            let mut expected = TaggedPtr::null().with_tag(0b111);
            loop {
                match slot.try_set_tag(expected, bits) {
                    Ok(_) => break,
                    Err(_) => expected = slot.load_tagged(),
                }
            }
        }
        SlotOp::FetchOr(bits) => drop(slot.fetch_or_tag(bits)),
    }
    observe(slot)
}

fn observe<S: Scheme>(slot: &AtomicSharedPtr<u64, S>) -> (Option<u64>, usize) {
    let tag = slot.load_tagged().tag();
    let val = slot.load().as_ref().copied();
    (val, tag)
}

fn run_model<S: Scheme>(ops: &[SlotOp]) {
    let t = smr::current_tid();
    let dw: DomainRef<S> = DomainRef::new();
    let dr: DomainRef<S> = DomainRef::new();
    {
        let witness_slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&dw);
        let reload_slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&dr);
        for &op in ops {
            let a = apply_witness(&witness_slot, &dw, op);
            let b = apply_reload(&reload_slot, &dr, op);
            assert_eq!(a, b, "witness and reload executions diverged at {op:?}");
        }
    }
    dw.process_deferred(t);
    dr.process_deferred(t);
    assert_eq!(dw.allocated(), dw.freed(), "witness domain balanced");
    assert_eq!(dr.allocated(), dr.freed(), "reload domain balanced");
}

fn cfg() -> ProptestConfig {
    ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(cfg())]

    #[test]
    fn witness_loop_matches_reload_loop_ebr(ops in proptest::collection::vec(slot_op(), 1..100)) {
        run_model::<EbrScheme>(&ops);
    }

    #[test]
    fn witness_loop_matches_reload_loop_hp(ops in proptest::collection::vec(slot_op(), 1..100)) {
        run_model::<HpScheme>(&ops);
    }

    #[test]
    fn witness_loop_matches_reload_loop_ibr(ops in proptest::collection::vec(slot_op(), 1..100)) {
        run_model::<IbrScheme>(&ops);
    }

    #[test]
    fn witness_loop_matches_reload_loop_hyaline(ops in proptest::collection::vec(slot_op(), 1..100)) {
        run_model::<HyalineScheme>(&ops);
    }
}
