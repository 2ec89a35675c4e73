//! Output checks. Every operation's result is checked as it returns, and
//! every structure's end state once its clients have stopped; each failure
//! counts against `error_rate` and makes the run exit nonzero.

use std::time::{Duration, Instant};

use cdrc::{DomainRef, Scheme};

use crate::gen::{Kind, Op, RQ_LEN};

/// What a structure returned for one [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A get's value.
    Value(Option<u64>),
    /// Whether a put or delete took effect.
    Done(bool),
    /// A range query's key count (`None`: the structure has no ranges).
    Count(Option<usize>),
    Pushed,
    Popped(Option<u64>),
}

/// Attempted and failed checks, with the first few failures spelled out.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note());
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn absorb(&mut self, other: &Verdict) {
        self.attempted += other.attempted;
        for n in &other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n.clone());
            }
        }
        self.failed += other.failed;
    }
}

/// One client's record of what it asked one structure and what it got.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub verdict: Verdict,
    /// Operations issued, per [`Kind`].
    pub count: [u64; 6],
    /// Useful outcomes per kind: gets that found their key, puts and
    /// deletes that took effect, pops that returned an element.
    pub hits: [u64; 6],
    pub range_keys: u64,
    /// Per key: successful puts minus successful deletes.
    pub deltas: Vec<i32>,
}

impl Tally {
    pub fn new(key_space: u64) -> Tally {
        Tally {
            deltas: vec![0; key_space as usize],
            ..Tally::default()
        }
    }

    /// Checks one result. `elements` are the values a queue was seeded
    /// with; a pop must return one of them.
    pub fn record(&mut self, op: Op, out: Outcome, elements: &[u64]) {
        let kind = op.kind() as usize;
        self.count[kind] += 1;
        let ok = match (op, out) {
            (Op::Get(k), Outcome::Value(v)) => {
                self.hits[kind] += v.is_some() as u64;
                v.is_none_or(|v| v == k)
            }
            (Op::Put(k), Outcome::Done(d)) | (Op::Del(k), Outcome::Done(d)) => {
                if d {
                    self.hits[kind] += 1;
                    self.deltas[k as usize] += if op.kind() == Kind::Put { 1 } else { -1 };
                }
                true
            }
            (Op::Range(_), Outcome::Count(Some(n))) => {
                self.range_keys += n as u64;
                n as u64 <= RQ_LEN
            }
            (Op::Enq(_), Outcome::Pushed) => true,
            (Op::Deq, Outcome::Popped(v)) => {
                self.hits[kind] += v.is_some() as u64;
                v.is_none_or(|v| elements.contains(&v))
            }
            _ => false,
        };
        self.verdict
            .check(ok, || format!("{op:?} returned {out:?}"));
    }

    pub fn merge(&mut self, other: &Tally) {
        self.verdict.absorb(&other.verdict);
        for i in 0..6 {
            self.count[i] += other.count[i];
            self.hits[i] += other.hits[i];
        }
        self.range_keys += other.range_keys;
        if self.deltas.len() < other.deltas.len() {
            self.deltas.resize(other.deltas.len(), 0);
        }
        for (d, o) in self.deltas.iter_mut().zip(&other.deltas) {
            *d += o;
        }
    }

    pub fn ops(&self) -> u64 {
        self.count.iter().sum()
    }
}

/// Checks a map's final contents against the clients' success tallies,
/// which include the prefill: each key of `[0, keys)` must be present
/// exactly when its puts minus deletes is 1, must map to itself, and that
/// difference must be 0 or 1.
pub fn check_map_contents(
    v: &mut Verdict,
    name: &str,
    keys: u64,
    tally: &Tally,
    get: impl Fn(u64) -> Option<u64>,
) {
    let mut bad = 0u64;
    let mut first = None;
    for k in 0..keys {
        let expect = tally.deltas.get(k as usize).copied().unwrap_or(0);
        let got = get(k);
        let ok = match got {
            Some(val) => expect == 1 && val == k,
            None => expect == 0,
        };
        if !ok {
            bad += 1;
            first.get_or_insert((k, expect, got));
        }
    }
    v.check(bad == 0, || {
        let (k, e, g) = first.expect("a mismatch was recorded");
        format!("{name}: {bad} keys disagree with the tallies (key {k}: puts - deletes = {e}, get returned {g:?})")
    });
}

/// Checks that draining a queue gave back exactly the elements it was
/// seeded with.
pub fn check_drained(v: &mut Verdict, name: &str, seeded: &[u64], mut drained: Vec<u64>) {
    let mut want = seeded.to_vec();
    want.sort_unstable();
    drained.sort_unstable();
    v.check(drained == want, || {
        format!("{name}: drained {drained:?}, seeded {want:?}")
    });
}

/// Drops an RC structure and reclaims everything its domain still defers,
/// then checks `allocated() == freed()`. Returns the time from the drop to
/// the balanced domain.
///
/// Callers must have joined every thread that used the domain.
pub fn teardown_rc<S: Scheme, X>(
    v: &mut Verdict,
    name: &str,
    structure: X,
    domain: &DomainRef<S>,
) -> Duration {
    let t0 = Instant::now();
    drop(structure);
    // SAFETY: the caller joined every other thread that used this domain,
    // so no pointer or critical section on it is live elsewhere.
    unsafe { domain.drain_and_apply_all(smr::current_tid()) };
    let dt = t0.elapsed();
    check_balance(v, name, domain.allocated(), domain.freed());
    dt
}

pub fn check_balance(v: &mut Verdict, name: &str, allocated: u64, freed: u64) {
    v.check(allocated == freed, || {
        format!(
            "{name}: domain leaked {} blocks ({allocated} allocated, {freed} freed)",
            allocated.saturating_sub(freed)
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrc::{EbrScheme, SharedPtr};

    #[test]
    fn planted_wrong_value_is_a_failure() {
        let mut t = Tally::new(16);
        t.record(Op::Get(3), Outcome::Value(Some(3)), &[]);
        t.record(Op::Get(4), Outcome::Value(None), &[]);
        assert_eq!(t.verdict.failed, 0);
        t.record(Op::Get(5), Outcome::Value(Some(6)), &[]);
        assert_eq!(t.verdict.failed, 1);
        assert_eq!(t.verdict.attempted, 3);
        assert!(t.verdict.notes[0].contains("Get(5)"));
    }

    #[test]
    fn oversized_range_and_foreign_pop_are_failures() {
        let mut t = Tally::new(0);
        t.record(Op::Range(0), Outcome::Count(Some(RQ_LEN as usize)), &[]);
        t.record(Op::Range(0), Outcome::Count(Some(RQ_LEN as usize + 1)), &[]);
        t.record(Op::Range(0), Outcome::Count(None), &[]);
        t.record(Op::Deq, Outcome::Popped(Some(9)), &[7, 8]);
        t.record(Op::Deq, Outcome::Popped(Some(8)), &[7, 8]);
        assert_eq!(t.verdict.failed, 3);
    }

    #[test]
    fn map_contents_must_match_tallies() {
        let mut t = Tally::new(3);
        for k in [0, 2] {
            t.record(Op::Put(k), Outcome::Done(true), &[]);
        }
        t.record(Op::Del(0), Outcome::Done(true), &[]);
        t.record(Op::Put(1), Outcome::Done(true), &[]);
        let good = |k: u64| (k != 0).then_some(k);
        let mut v = Verdict::default();
        check_map_contents(&mut v, "m", 3, &t, good);
        assert_eq!(v.failed, 0);
        // Key 2 should be present; a map that lost it fails.
        check_map_contents(&mut v, "m", 3, &t, |k| (k == 1).then_some(k));
        // A map whose value is wrong fails too.
        check_map_contents(&mut v, "m", 3, &t, |k| (k != 0).then_some(k + 1));
        assert_eq!(v.failed, 2);
    }

    #[test]
    fn drained_queue_must_hold_its_seeded_elements() {
        let mut v = Verdict::default();
        check_drained(&mut v, "q", &[4, 5], vec![5, 4]);
        check_drained(&mut v, "q", &[4, 5], vec![5]);
        check_drained(&mut v, "q", &[4, 5], vec![5, 4, 4]);
        assert_eq!((v.attempted, v.failed), (3, 2));
    }

    #[test]
    fn planted_leaked_block_is_a_failure() {
        let d: DomainRef<EbrScheme> = DomainRef::new();
        let kept = SharedPtr::new_in(1u64, &d);
        let leaked = SharedPtr::new_in(2u64, &d);
        std::mem::forget(leaked);
        let mut v = Verdict::default();
        teardown_rc(&mut v, "leaky", kept, &d);
        assert_eq!(v.failed, 1, "{:?}", v.notes);
        assert!(v.notes[0].contains("leaked 1 blocks"));

        let clean: DomainRef<EbrScheme> = DomainRef::new();
        let p = SharedPtr::new_in(3u64, &clean);
        let mut v = Verdict::default();
        teardown_rc(&mut v, "clean", p, &clean);
        assert_eq!(v.failed, 0, "{:?}", v.notes);
    }
}
