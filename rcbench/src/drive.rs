//! Closed-loop load: [`CLIENTS`] client threads, each sending its next
//! operation only after the previous one returned, [`BATCH`] operations per
//! guard (the paper's §3.4 batching). The main thread times phases and
//! samples the RC domain's garbage; clients never read a clock in a
//! throughput phase.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use cdrc::{DomainRef, Scheme};
use lockfree::{ConcurrentMap, ConcurrentQueue};

use crate::check::{Outcome, Tally};
use crate::gen::{Gen, Kind, Mix, Op, RQ_LEN};
use crate::trace::{self, Span, Spans, NO_PARENT};

pub const CLIENTS: usize = 2;
pub const BATCH: u64 = 64;
/// In a latency phase, one operation in `LAT_STRIDE` is timed.
const LAT_STRIDE: u64 = 8;
/// In a traced phase, one batch in `TRACE_EVERY` is recorded as spans.
pub const TRACE_EVERY: u64 = 256;
/// Span buffer bound per client and session (about 2 MB).
const SPAN_CAP: usize = 60_000;
/// Garbage sampling period of the main thread.
const SAMPLE_EVERY: Duration = Duration::from_millis(1);

pub const RC: usize = 0;
pub const MANUAL: usize = 1;
pub const VARIANTS: [&str; 2] = ["rc", "manual"];

/// A structure the clients drive.
pub trait Target: Sync {
    type Guard;
    fn pin(&self) -> Self::Guard;
    fn run(&self, op: Op, guard: &Self::Guard) -> Outcome;
    /// Work a client does on this structure between phases.
    fn settle(&self) {}
}

/// A map under test.
pub struct Map<M>(pub M);

impl<M: ConcurrentMap<u64, u64>> Target for Map<M> {
    type Guard = M::Guard;

    fn pin(&self) -> M::Guard {
        self.0.pin()
    }

    #[inline]
    fn run(&self, op: Op, g: &M::Guard) -> Outcome {
        match op {
            Op::Get(k) => Outcome::Value(self.0.get_with(&k, g)),
            Op::Put(k) => Outcome::Done(self.0.insert_with(k, k, g)),
            Op::Del(k) => Outcome::Done(self.0.remove_with(&k, g)),
            Op::Range(k) => {
                Outcome::Count(self.0.range_with(&k, &(k + RQ_LEN), RQ_LEN as usize, g))
            }
            Op::Enq(_) | Op::Deq => unreachable!("queue operation on a map"),
        }
    }
}

/// A queue under test.
pub struct Queue<Q>(pub Q);

impl<Q: ConcurrentQueue<u64>> Target for Queue<Q> {
    type Guard = Q::Guard;

    fn pin(&self) -> Q::Guard {
        self.0.pin()
    }

    #[inline]
    fn run(&self, op: Op, g: &Q::Guard) -> Outcome {
        match op {
            Op::Enq(v) => {
                self.0.enqueue_with(v, g);
                Outcome::Pushed
            }
            Op::Deq => Outcome::Popped(self.0.dequeue_with(g)),
            _ => unreachable!("map operation on a queue"),
        }
    }
}

/// An automatic (RC) structure with the private domain it reclaims through.
pub struct Rc<X, S: Scheme> {
    pub x: X,
    pub domain: DomainRef<S>,
}

impl<X: Target, S: Scheme> Target for Rc<X, S> {
    type Guard = X::Guard;

    fn pin(&self) -> X::Guard {
        self.x.pin()
    }

    #[inline]
    fn run(&self, op: Op, g: &X::Guard) -> Outcome {
        self.x.run(op, g)
    }

    /// Applies this client's deferred decrements, so no phase inherits
    /// another's backlog.
    fn settle(&self) {
        self.domain.process_deferred(smr::current_tid());
    }
}

/// How clients run a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Until stopped; nothing timed per operation.
    Throughput,
    /// Until stopped; one operation in [`LAT_STRIDE`] timed.
    Latency,
    /// Until stopped; one batch in [`TRACE_EVERY`] recorded as spans.
    Traced,
    /// Exactly this many batches per client, traced in full when the
    /// session records spans.
    Fixed(u64),
}

#[derive(Debug, Clone, Copy)]
enum Cmd {
    Run(usize, Mode),
    Exit,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: u64,
    /// Wall time of the phase: the operations and, in an RC phase, the
    /// clients' closing `process_deferred` calls.
    pub secs: f64,
    /// Sampled latencies (ns), ascending.
    pub lat: Vec<u32>,
    /// Garbage samples: the RC domain's in-flight blocks minus its live
    /// elements.
    pub garbage: Vec<u64>,
    /// RC domain counter deltas over the phase (meaningful in RC phases).
    pub allocated: u64,
    pub freed: u64,
    /// The part of `freed` that only the closing `process_deferred` calls
    /// freed.
    pub settle_freed: u64,
    pub epochs: u64,
}

impl Phase {
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.secs / 1e6
    }
}

/// Everything one client brings back from a session.
#[derive(Debug, Default)]
pub struct ClientOut {
    pub tally: [Tally; 2],
    pub spans: Vec<Span>,
}

/// The inputs a session's clients share.
pub struct Load<'a> {
    pub seed: u64,
    /// Distinguishes generator streams of different sessions.
    pub stream: u64,
    pub mix: &'a Mix,
    /// A queue's seeded elements (empty for maps).
    pub elements: &'a [u64],
    /// Span epoch; `None` records no spans.
    pub trace: Option<Instant>,
    /// RC domain blocks a successful put adds (and a delete removes).
    pub blocks_per_put: i64,
}

struct Shared {
    barrier: Barrier,
    cmd: Mutex<Cmd>,
    stop: AtomicBool,
    ops: [AtomicU64; CLIENTS],
    lat: [Mutex<Vec<u32>>; CLIENTS],
    net: [Lane; CLIENTS],
}

/// One client's running count of RC blocks its puts and deletes added, on
/// a cache line of its own.
#[derive(Default)]
#[repr(align(64))]
struct Lane(AtomicI64);

/// The main thread's handle on a running session.
pub struct Coordinator<'a, X, S: Scheme> {
    shared: &'a Shared,
    rc: &'a Rc<X, S>,
    live: i64,
}

impl<X, S: Scheme> Coordinator<'_, X, S> {
    /// Runs one phase of `variant` for `dur` (ignored by [`Mode::Fixed`]).
    /// The phase ends once the clients have stopped and, after an RC phase,
    /// each has applied its deferred decrements: that reclamation work is
    /// part of the RC variant's time.
    pub fn phase(&mut self, variant: usize, mode: Mode, dur: Duration) -> Phase {
        let sh = self.shared;
        let domain = &self.rc.domain;
        *sh.cmd.lock().expect("command lock poisoned") = Cmd::Run(variant, mode);
        sh.stop.store(false, Ordering::Relaxed);
        let (a0, f0, e0) = (domain.allocated(), domain.freed(), domain.epoch());
        let mut garbage = Vec::new();
        sh.barrier.wait();
        let t0 = Instant::now();
        if !matches!(mode, Mode::Fixed(_)) {
            while t0.elapsed() < dur {
                std::thread::sleep(SAMPLE_EVERY);
                if variant == RC {
                    // Ordering: Relaxed — statistics; a sample may be off by
                    // the few updates in flight while it is taken.
                    let net: i64 = sh.net.iter().map(|l| l.0.load(Ordering::Relaxed)).sum();
                    let live = (self.live + net).max(0) as u64;
                    garbage.push(domain.in_flight().saturating_sub(live));
                }
            }
            // Ordering: Relaxed — a stop request publishes no data; the
            // barrier below orders everything the clients report.
            sh.stop.store(true, Ordering::Relaxed);
        }
        // The clients have stopped; next they settle.
        sh.barrier.wait();
        let f1 = domain.freed();
        sh.barrier.wait();
        let secs = t0.elapsed().as_secs_f64();
        let mut lat = Vec::new();
        for l in &sh.lat {
            lat.append(&mut l.lock().expect("latency lock poisoned"));
        }
        lat.sort_unstable();
        let freed = domain.freed();
        Phase {
            ops: sh.ops.iter().map(|o| o.load(Ordering::Relaxed)).sum(),
            secs,
            lat,
            garbage,
            allocated: domain.allocated() - a0,
            freed: freed - f0,
            settle_freed: freed - f1,
            epochs: domain.epoch() - e0,
        }
    }
}

/// Spawns the clients over `rc` and `manual`, hands the main thread a
/// [`Coordinator`] for `body`, then stops and joins the clients; a client that
/// holds a popped element pushes it back first. `live` is the RC domain's
/// live block count at the start; the clients' successful puts and deletes
/// keep it current, and garbage is what the domain holds beyond it.
pub fn session<R, S, M, Y>(
    rc: &Rc<R, S>,
    manual: &M,
    load: &Load,
    live: i64,
    body: impl FnOnce(&mut Coordinator<R, S>) -> Y,
) -> (Y, Vec<ClientOut>)
where
    R: Target,
    S: Scheme,
    M: Target,
{
    let shared = Shared {
        barrier: Barrier::new(CLIENTS + 1),
        cmd: Mutex::new(Cmd::Exit),
        stop: AtomicBool::new(false),
        ops: Default::default(),
        lat: Default::default(),
        net: Default::default(),
    };
    let key_space = load.mix.key_space();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let shared = &shared;
                s.spawn(move || {
                    let mut c = Client {
                        load,
                        gens: [0, 1].map(|_| Gen::new(load.seed, load.stream, id as u64)),
                        out: ClientOut {
                            tally: [Tally::new(key_space), Tally::new(key_space)],
                            spans: Vec::new(),
                        },
                        spans: load.trace.map(|e| Spans::new(e, SPAN_CAP)),
                        lat: Vec::new(),
                        net: (0, &shared.net[id].0),
                        batches: 0,
                        seq: (id as u64) << 48,
                    };
                    loop {
                        shared.barrier.wait();
                        let cmd = *shared.cmd.lock().expect("command lock poisoned");
                        let Cmd::Run(v, mode) = cmd else { break };
                        let ops = if v == RC {
                            c.phase(rc, RC, mode, &shared.stop)
                        } else {
                            c.phase(manual, MANUAL, mode, &shared.stop)
                        };
                        shared.ops[id].store(ops, Ordering::Relaxed);
                        *shared.lat[id].lock().expect("latency lock poisoned") =
                            std::mem::take(&mut c.lat);
                        shared.barrier.wait();
                        if v == RC {
                            c.settle(rc);
                        }
                        shared.barrier.wait();
                    }
                    c.give_back(rc, RC);
                    c.give_back(manual, MANUAL);
                    c.settle(rc);
                    if let Some(sp) = c.spans.take() {
                        c.out.spans = sp.list;
                    }
                    c.out
                })
            })
            .collect();
        let mut d = Coordinator {
            shared: &shared,
            rc,
            live,
        };
        let x = body(&mut d);
        *shared.cmd.lock().expect("command lock poisoned") = Cmd::Exit;
        shared.barrier.wait();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (x, outs)
    })
}

/// Runs `ops` on `t` from the calling thread, [`BATCH`] per guard, checking
/// each result into `tally`.
pub fn serial<T: Target>(
    t: &T,
    ops: impl IntoIterator<Item = Op>,
    tally: &mut Tally,
    elements: &[u64],
) {
    let mut ops = ops.into_iter().peekable();
    while ops.peek().is_some() {
        let g = t.pin();
        for op in ops.by_ref().take(BATCH as usize) {
            let o = t.run(op, &g);
            tally.record(op, o, elements);
        }
    }
}

struct Client<'a> {
    load: &'a Load<'a>,
    gens: [Gen; 2],
    out: ClientOut,
    spans: Option<Spans>,
    lat: Vec<u32>,
    /// RC blocks added by successful puts minus those removed by deletes,
    /// and where the coordinator reads it.
    net: (i64, &'a AtomicI64),
    batches: u64,
    /// Next operation id (client id in the top bits).
    seq: u64,
}

impl Client<'_> {
    fn phase<T: Target>(&mut self, t: &T, v: usize, mode: Mode, stop: &AtomicBool) -> u64 {
        let mut ops = 0;
        let mut left = match mode {
            Mode::Fixed(n) => Some(n),
            _ => None,
        };
        loop {
            match &mut left {
                Some(0) => break,
                Some(n) => *n -= 1,
                // Ordering: Relaxed — see `Coordinator::phase`.
                None if stop.load(Ordering::Relaxed) => break,
                None => {}
            }
            self.batches += 1;
            let traced = match mode {
                Mode::Traced => self.batches.is_multiple_of(TRACE_EVERY),
                Mode::Fixed(_) => true,
                _ => false,
            };
            match mode {
                Mode::Latency => self.timed_batch(t, v),
                _ if traced
                    && self
                        .spans
                        .as_ref()
                        .is_some_and(|s| s.has_room(3 + 2 * BATCH as usize)) =>
                {
                    self.traced_batch(t, v)
                }
                _ => self.batch(t, v),
            }
            ops += BATCH;
            self.seq += BATCH;
        }
        ops
    }

    #[inline]
    fn step(&mut self, v: usize, op: Op, out: Outcome) {
        match out {
            Outcome::Popped(Some(x)) => self.gens[v].held = Some(x),
            Outcome::Pushed => self.gens[v].held = None,
            Outcome::Done(true) if v == RC => {
                let b = self.load.blocks_per_put;
                self.net.0 += if op.kind() == Kind::Put { b } else { -b };
                // Ordering: Relaxed — a statistic read by the sampler.
                self.net.1.store(self.net.0, Ordering::Relaxed);
            }
            _ => {}
        }
        self.out.tally[v].record(op, out, self.load.elements);
    }

    fn batch<T: Target>(&mut self, t: &T, v: usize) {
        let g = t.pin();
        for _ in 0..BATCH {
            let op = self.gens[v].next(self.load.mix);
            let out = t.run(op, &g);
            self.step(v, op, out);
        }
        drop(g);
    }

    fn timed_batch<T: Target>(&mut self, t: &T, v: usize) {
        let g = t.pin();
        for i in 0..BATCH {
            let op = self.gens[v].next(self.load.mix);
            let out = if (self.seq + i).is_multiple_of(LAT_STRIDE) {
                let t0 = Instant::now();
                let out = t.run(op, &g);
                self.lat
                    .push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                out
            } else {
                t.run(op, &g)
            };
            self.step(v, op, out);
        }
        drop(g);
    }

    fn traced_batch<T: Target>(&mut self, t: &T, v: usize) {
        let mut sp = self
            .spans
            .take()
            .expect("traced batch without a span buffer");
        let p0 = sp.now();
        let g = t.pin();
        let p1 = sp.now();
        let b = sp.push(trace::BATCH, v, NO_PARENT, self.seq, p0, 0);
        sp.push(trace::pin_name(v), v, b, self.seq, p0, p1);
        for i in 0..BATCH {
            let id = self.seq + i;
            let k0 = sp.now();
            let op = self.gens[v].next(self.load.mix);
            let k1 = sp.now();
            let out = t.run(op, &g);
            let k2 = sp.now();
            sp.push(trace::KEYGEN, v, b, id, k0, k1);
            sp.push(trace::op_name(v, op.kind() as usize), v, b, id, k1, k2);
            self.step(v, op, out);
        }
        let u0 = sp.now();
        drop(g);
        let u1 = sp.now();
        sp.push(trace::unpin_name(v), v, b, self.seq, u0, u1);
        sp.list[b as usize].end = u1;
        self.spans = Some(sp);
    }

    fn settle<T: Target>(&mut self, t: &T) {
        match &mut self.spans {
            Some(sp) if sp.has_room(1) => {
                let s0 = sp.now();
                t.settle();
                let s1 = sp.now();
                sp.push(trace::PROCESS_DEFERRED, RC, NO_PARENT, self.seq, s0, s1);
            }
            _ => t.settle(),
        }
    }

    /// Pushes back an element this client popped and still holds.
    fn give_back<T: Target>(&mut self, t: &T, v: usize) {
        if let Some(x) = self.gens[v].held {
            let g = t.pin();
            let out = t.run(Op::Enq(x), &g);
            drop(g);
            self.step(v, Op::Enq(x), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Zipf;
    use cdrc::EbrScheme;

    /// A map that answers every get with the wrong value.
    struct Lying;

    impl Target for Lying {
        type Guard = ();
        fn pin(&self) {}
        fn run(&self, op: Op, _: &()) -> Outcome {
            match op {
                Op::Get(k) => Outcome::Value(Some(k + 1)),
                _ => Outcome::Done(false),
            }
        }
    }

    #[test]
    fn planted_wrong_values_fail_through_the_client_loop() {
        let mix = Mix::Zipf {
            zipf: Zipf::new(64, 0.5),
            perm: crate::gen::KeyPerm::new(&mut crate::gen::stream(1, &[]), 6),
            get: 100,
            put: 0,
        };
        let load = Load {
            seed: 1,
            stream: 0,
            mix: &mix,
            elements: &[],
            trace: None,
            blocks_per_put: 1,
        };
        let rc = Rc {
            x: Lying,
            domain: DomainRef::<EbrScheme>::new(),
        };
        let ((), outs) = session(&rc, &Lying, &load, 0, |d| {
            d.phase(RC, Mode::Fixed(2), Duration::ZERO);
            d.phase(MANUAL, Mode::Fixed(3), Duration::ZERO);
        });
        for o in &outs {
            assert_eq!(o.tally[RC].verdict.failed, 2 * BATCH);
            assert_eq!(o.tally[MANUAL].verdict.failed, 3 * BATCH);
        }
    }
}
