//! The three workloads, each pairing an automatic (RC) structure on a
//! private `cdrc` domain with its manual counterpart, and the schedule that
//! measures them.

use std::time::{Duration, Instant};

use cdrc::{DomainRef, EbrScheme, HpScheme, Scheme};
use lockfree::manual::{DoubleLinkQueue, NatarajanMittalTree, ResizableHashMap};
use lockfree::rc::{RcDoubleLinkQueue, RcNatarajanMittalTree, RcResizableHashMap};
use smr::{AcquireRetire, Ebr};

use rand::Rng as _;

use crate::check::{check_drained, check_map_contents, teardown_rc, Outcome, Tally, Verdict};
use crate::drive::{
    self, serial, session, ClientOut, Load, Map, Mode, Phase, Queue, Rc, Target, MANUAL, RC,
    VARIANTS,
};
use crate::gen::{distinct_keys, shuffle, stream, KeyPerm, Kind, Mix, Op, Rng, Zipf};
use crate::probes;
use crate::stats::{median, midmean, percentile};
use crate::trace::{self, SelfTimes, Span};

/// Independent builds per run, each measured for an equal share of the
/// rounds: `setup_s` is the median over these and `teardown_ms` the
/// midmean, which follows a build-to-build mix of fast and slow teardowns
/// more smoothly than the median.
const SETUPS: usize = 9;
/// Length of one measured phase.
const PHASE: Duration = Duration::from_millis(250);

/// Generator stream ids, so no two sessions replay each other's inputs.
const PREFILL: u64 = 1;
const WARMUP: u64 = 2;
const SIDE: u64 = 3;
const EPOCH_PROBE: u64 = 4;
/// The measurement sessions use `MEASURE + build`.
const MEASURE: u64 = 16;

/// The command line, checked.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub verdict: Verdict,
    /// `(name, value, unit)`, printed in the final JSON line.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before it.
    pub lines: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// One workload's inputs.
struct Spec {
    name: &'static str,
    mix: Mix,
    /// Operations that fill a fresh structure.
    prefill: Vec<Op>,
    /// A queue's seeded elements.
    elements: Vec<u64>,
    /// Warm-up batches per client and variant, part of set-up.
    warmup: u64,
    /// RC domain blocks one element occupies (the NM tree's leaf comes
    /// with an internal node).
    blocks_per_put: i64,
    /// Whether the RC domain's scheme advances the domain's epoch clock
    /// (EBR does; HP keeps none).
    epoch_clock: bool,
}

pub const WORKLOADS: [&str; 3] = ["kv_zipf", "tree_rq", "weak_queue"];

pub fn run(workload: &str, a: &Args) -> Option<Report> {
    let mut rng = stream(a.seed, &[PREFILL]);
    Some(match workload {
        // Resizable split-ordered map, 65,536 keys all prefilled, zipf 0.99,
        // 50% get / 30% put / 20% delete. RC(EBR) vs manual EBR.
        "kv_zipf" => {
            let perm = KeyPerm::new(&mut rng, 16);
            let mut keys: Vec<u64> = (0..1 << 16).collect();
            shuffle(&mut keys, &mut rng);
            let spec = Spec {
                name: "kv_zipf",
                mix: Mix::Zipf {
                    zipf: Zipf::new(1 << 16, 0.99),
                    perm,
                    get: 50,
                    put: 30,
                },
                prefill: keys.into_iter().map(Op::Put).collect(),
                elements: Vec::new(),
                warmup: 1024,
                blocks_per_put: 1,
                epoch_clock: true,
            };
            measure::<EbrScheme, Ebr, _, _>(a, &spec, || {
                let d = DomainRef::new();
                (
                    Rc {
                        x: Map(RcResizableHashMap::new_in(d.clone())),
                        domain: d,
                    },
                    Map(ResizableHashMap::<u64, u64, Ebr>::new()),
                )
            })
        }
        // Natarajan-Mittal tree (Fig. 11): 100K keys from [0, 200K), 50%
        // updates, 50% range queries of 64 keys. RC(EBR) vs manual EBR.
        "tree_rq" => {
            let spec = Spec {
                name: "tree_rq",
                mix: Mix::Uniform {
                    range: 200_000,
                    update: 50,
                    rq: 50,
                },
                prefill: distinct_keys(&mut rng, 100_000, 200_000)
                    .into_iter()
                    .map(Op::Put)
                    .collect(),
                elements: Vec::new(),
                warmup: 128,
                blocks_per_put: 2,
                epoch_clock: true,
            };
            measure::<EbrScheme, Ebr, _, _>(a, &spec, || {
                let d = DomainRef::new();
                (
                    Rc {
                        x: Map(RcNatarajanMittalTree::new_in(d.clone())),
                        domain: d,
                    },
                    Map(NatarajanMittalTree::<u64, u64, Ebr>::new()),
                )
            })
        }
        // DoubleLink queue (Fig. 12), one element per client, pop and
        // re-push. RC over atomic weak pointers on HP vs manual on EBR.
        "weak_queue" => {
            let elements = queue_elements(&mut rng);
            let spec = Spec {
                name: "weak_queue",
                mix: Mix::PopPush,
                prefill: elements.iter().map(|&e| Op::Enq(e)).collect(),
                elements,
                warmup: 1024,
                blocks_per_put: 1,
                epoch_clock: false,
            };
            measure::<HpScheme, Ebr, _, _>(a, &spec, || {
                let d = DomainRef::new();
                (
                    Rc {
                        x: Queue(RcDoubleLinkQueue::new_in(d.clone())),
                        domain: d,
                    },
                    Queue(DoubleLinkQueue::<u64, Ebr>::new()),
                )
            })
        }
        _ => return None,
    })
}

/// One distinct seeded element per client.
fn queue_elements(rng: &mut Rng) -> Vec<u64> {
    (0..drive::CLIENTS as u64)
        .map(|i| rng.gen_range(0..1u64 << 40) * drive::CLIENTS as u64 + i)
        .collect()
}

/// A built, prefilled and warmed-up pair with the tallies so far.
struct Built<R, S: Scheme, M> {
    rc: Rc<R, S>,
    manual: M,
    tally: [Tally; 2],
    /// RC domain blocks that are not elements (sentinels, roots).
    fixed: i64,
}

impl<R, S: Scheme, M> Built<R, S, M> {
    /// Live RC blocks: the fixed ones plus those of the elements the RC
    /// tally's puts minus deletes leave in the structure.
    fn live(&self, spec: &Spec) -> i64 {
        self.fixed + spec.blocks_per_put * elements(&self.tally[RC])
    }
}

/// Elements a tally's puts minus deletes leave in a map.
fn elements(t: &Tally) -> i64 {
    t.deltas.iter().map(|&d| d as i64).sum()
}

fn merge(tally: &mut [Tally; 2], outs: &[ClientOut]) {
    for o in outs {
        tally[RC].merge(&o.tally[RC]);
        tally[MANUAL].merge(&o.tally[MANUAL]);
    }
}

/// Builds, prefills and warms up both variants; returns the warm-up's
/// client records too (already merged into the tallies), with spans when
/// `trace` names an epoch.
fn set_up<R: Target, S: Scheme, M: Target>(
    a: &Args,
    spec: &Spec,
    build: &impl Fn() -> (Rc<R, S>, M),
    trace: Option<Instant>,
) -> (Built<R, S, M>, Vec<ClientOut>) {
    let (rc, manual) = build();
    let keys = spec.mix.key_space();
    let mut tally = [Tally::new(keys), Tally::new(keys)];
    // After the prefill, one get per key: lazily created parts of a
    // structure (the resizable map's bucket sentinels) exist before any
    // garbage is counted.
    let fill = || spec.prefill.iter().copied().chain((0..keys).map(Op::Get));
    serial(&rc, fill(), &mut tally[RC], &spec.elements);
    serial(&manual, fill(), &mut tally[MANUAL], &spec.elements);
    let fixed = rc.domain.in_flight() as i64 - spec.blocks_per_put * elements(&tally[RC]);
    let mut b = Built {
        rc,
        manual,
        tally,
        fixed,
    };
    let load = Load {
        seed: a.seed,
        stream: WARMUP,
        mix: &spec.mix,
        elements: &spec.elements,
        trace,
        blocks_per_put: spec.blocks_per_put,
    };
    let ((), outs) = session(&b.rc, &b.manual, &load, b.live(spec), |d| {
        for v in [RC, MANUAL] {
            d.phase(v, Mode::Fixed(spec.warmup), Duration::ZERO);
        }
    });
    merge(&mut b.tally, &outs);
    (b, outs)
}

/// Checks the end state of both variants, then tears them down; returns
/// the RC teardown time.
fn finish<R: Target, S: Scheme, M: Target>(
    v: &mut Verdict,
    spec: &Spec,
    b: Built<R, S, M>,
) -> Duration {
    let Built {
        rc,
        manual,
        mut tally,
        ..
    } = b;
    check_end(v, spec, RC, &rc, &mut tally[RC]);
    check_end(v, spec, MANUAL, &manual, &mut tally[MANUAL]);
    drop(manual);
    let Rc { x, domain } = rc;
    teardown_rc(v, &format!("{} rc", spec.name), x, &domain)
}

/// Checks a structure whose clients have stopped: a queue is drained, a
/// map walked key by key. Absorbs the tally's verdict.
fn check_end<T: Target>(v: &mut Verdict, spec: &Spec, variant: usize, t: &T, tally: &mut Tally) {
    let name = format!("{} {}", spec.name, VARIANTS[variant]);
    let g = t.pin();
    if matches!(spec.mix, Mix::PopPush) {
        // A drain stops at the first empty pop, or once it has popped more
        // than was ever pushed (which the check then reports).
        let mut out = Vec::new();
        while out.len() <= spec.elements.len() {
            let o = t.run(Op::Deq, &g);
            tally.record(Op::Deq, o, &spec.elements);
            match o {
                Outcome::Popped(Some(x)) => out.push(x),
                _ => break,
            }
        }
        check_drained(v, &name, &spec.elements, out);
    } else {
        let found = |k| match t.run(Op::Get(k), &g) {
            Outcome::Value(x) => x,
            o => unreachable!("a get returned {o:?}"),
        };
        check_map_contents(v, &name, spec.mix.key_space(), tally, found);
    }
    drop(g);
    v.absorb(&tally.verdict);
}

fn measure<S, SM, R, M>(a: &Args, spec: &Spec, build: impl Fn() -> (Rc<R, S>, M)) -> Report
where
    S: Scheme,
    SM: AcquireRetire,
    R: Target,
    M: Target,
{
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut teardown_ns = Vec::new();
    let mut phases: [[Vec<Phase>; 2]; 2] = Default::default();
    let mut measured = [Tally::default(), Tally::default()];
    let mut spans: Vec<Vec<Span>> = Vec::new();
    let trace_epoch = a.trace.then(Instant::now);
    // Each round runs both variants in each of two modes, alternating which
    // variant goes first so neither always follows the other. The rounds
    // are spread over SETUPS independent builds: a structure's own random
    // state (the maps' hash keys) then varies within a run, not between runs.
    let rounds = ((a.seconds * 1000) / (4 * PHASE.as_millis() as u64)).max(SETUPS as u64) as usize;
    let second = if a.trace { Mode::Traced } else { Mode::Latency };
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (mut b, _) = set_up(a, spec, &build, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        let load = Load {
            seed: a.seed,
            stream: MEASURE + i as u64,
            mix: &spec.mix,
            elements: &spec.elements,
            trace: trace_epoch,
            blocks_per_put: spec.blocks_per_put,
        };
        let mine = (i * rounds / SETUPS)..((i + 1) * rounds / SETUPS);
        let ((), outs) = session(&b.rc, &b.manual, &load, b.live(spec), |d| {
            for r in mine {
                let order = if r % 2 == 0 {
                    [RC, MANUAL]
                } else {
                    [MANUAL, RC]
                };
                for (m, mode) in [Mode::Throughput, second].into_iter().enumerate() {
                    for v in order {
                        phases[m][v].push(d.phase(v, mode, PHASE));
                    }
                }
            }
        });
        merge(&mut measured, &outs);
        merge(&mut b.tally, &outs);
        spans.extend(outs.into_iter().map(|o| o.spans));
        teardown_ns.push(finish(&mut rep.verdict, spec, b).as_nanos() as u64);
    }

    let mops = |ph: &[Phase]| median(&ph.iter().map(Phase::mops).collect::<Vec<_>>());
    let [tput, other] = &phases;
    let (rc_mops, manual_mops) = (mops(&tput[RC]), mops(&tput[MANUAL]));
    let ops: u64 = measured.iter().map(Tally::ops).sum();
    rep.lines.push(format!(
        "{}: seed {}, {} clients, {} ops per guard, {rounds} rounds of {} ms phases, {ops} ops checked",
        spec.name,
        a.seed,
        drive::CLIENTS,
        drive::BATCH,
        PHASE.as_millis()
    ));
    rep.lines.push(format!(
        "per build: setup {} ms; teardown {} ms",
        ms_list(setup_s.iter().map(|s| s * 1e3)),
        ms_list(teardown_ns.iter().map(|&t| t as f64 / 1e6))
    ));
    for v in [RC, MANUAL] {
        let per: Vec<String> = tput[v].iter().map(|p| format!("{:.3}", p.mops())).collect();
        rep.lines.push(format!(
            "{} Mop/s per round: {}",
            VARIANTS[v],
            per.join(" ")
        ));
    }
    if !a.trace {
        let lat = |ph: &[Phase], p: f64| {
            median(&ph.iter().map(|x| percentile(&x.lat, p)).collect::<Vec<_>>())
        };
        let samples = |ph: &[Phase]| ph.iter().map(|x| x.lat.len()).sum::<usize>();
        // Garbage is sampled in both of the RC variant's modes. The average
        // is a midmean and the peak the 95th percentile: the tail above it is
        // set by host stalls of a client thread mid-section, not by the
        // program, and does not repeat from run to run.
        let mut pooled: Vec<u64> = tput[RC]
            .iter()
            .chain(&other[RC])
            .flat_map(|p| p.garbage.iter().copied())
            .collect();
        let garbage_avg = midmean(&mut pooled);
        let garbage_peak = percentile(&pooled, 95.0);
        rep.metric("rc_mops", rc_mops, "Mop/s");
        rep.metric("manual_mops", manual_mops, "Mop/s");
        rep.metric("rc_p50_ns", lat(&other[RC], 50.0), "ns");
        rep.metric("rc_p99_ns", lat(&other[RC], 99.0), "ns");
        rep.metric("manual_p50_ns", lat(&other[MANUAL], 50.0), "ns");
        rep.metric("rc_garbage_avg", garbage_avg, "blocks");
        rep.metric("rc_garbage_peak", garbage_peak, "blocks");
        rep.metric("teardown_ms", midmean(&mut teardown_ns) / 1e6, "ms");
        rep.metric("setup_s", median(&setup_s), "s");
        rep.lines.push(format!(
            "latency: median over phases of each phase's percentile; {} rc and {} manual samples, one op in 8 timed",
            samples(&other[RC]),
            samples(&other[MANUAL])
        ));
        rep.lines.push(format!(
            "garbage: rc domain in-flight blocks minus live ones (post-prefill count plus net successful puts), sampled every ms; avg is the midmean and peak the 95th percentile of {} samples",
            pooled.len()
        ));
        rep.lines.push(format!(
            "rc/manual throughput = {:.3} (paper, Figs. 11-13: RC within 10-15% of manual, i.e. >= 0.85; printed, not gated)",
            rc_mops / manual_mops
        ));
        return rep;
    }

    // Traced run: per-layer metrics.
    let mut st = SelfTimes::default();
    // Span buffers come one per client and build, clients in turn.
    let mut per_client: Vec<SelfTimes> =
        (0..drive::CLIENTS).map(|_| SelfTimes::default()).collect();
    for (i, s) in spans.iter().enumerate() {
        st.add(s);
        per_client[i % drive::CLIENTS].add(s);
    }
    let traced_mops = (mops(&other[RC]), mops(&other[MANUAL]));
    let absent: Vec<Kind> = Kind::ALL
        .into_iter()
        .filter(|&k| measured.iter().all(|t| t.count[k as usize] == 0))
        .collect();
    let (mut side_st, side_tally, side_spans) =
        side::<S, SM>(a, &absent, spec.epoch_clock, &mut rep.verdict);
    spans.extend(side_spans);

    for v in [RC, MANUAL] {
        for k in Kind::ALL {
            let name = trace::op_name(v, k as usize);
            let val = st.midmean(name).or_else(|| side_st.midmean(name));
            let val = need(&mut rep.verdict, trace::NAMES[name as usize], val);
            rep.metric(
                format!("lockfree.{}.{}_ns", VARIANTS[v], k.name()),
                val,
                "ns",
            );
        }
    }
    let mut both = Tally::default();
    for t in &measured {
        both.merge(t);
    }
    let pick = |k: Kind| {
        if both.count[k as usize] > 0 {
            &both
        } else {
            &side_tally
        }
    };
    let ratio = |k: Kind| {
        let t = pick(k);
        t.hits[k as usize] as f64 / t.count[k as usize].max(1) as f64
    };
    rep.metric("lockfree.put_hit_ratio", ratio(Kind::Put), "ratio");
    rep.metric("lockfree.del_hit_ratio", ratio(Kind::Del), "ratio");
    rep.metric("lockfree.get_hit_ratio", ratio(Kind::Get), "ratio");
    let rq = pick(Kind::Range);
    rep.metric(
        "lockfree.range_keys_avg",
        rq.range_keys as f64 / rq.count[Kind::Range as usize].max(1) as f64,
        "keys",
    );
    rep.metric("lockfree.deq_empty_ratio", 1.0 - ratio(Kind::Deq), "ratio");

    for (metric, span) in [
        ("cdrc.pin_ns", trace::pin_name(RC)),
        ("cdrc.unpin_ns", trace::unpin_name(RC)),
        ("smr.pin_ns", trace::pin_name(MANUAL)),
        ("smr.unpin_ns", trace::unpin_name(MANUAL)),
        ("cdrc.process_deferred_ns", trace::PROCESS_DEFERRED),
        ("harness.keygen_ns", trace::KEYGEN),
    ] {
        let val = need(&mut rep.verdict, metric, st.midmean(span));
        rep.metric(metric, val, "ns");
    }
    // Domain counter deltas over the untraced RC phases.
    let rc_ph = &tput[RC];
    let rc_ops = rc_ph.iter().map(|p| p.ops).sum::<u64>().max(1) as f64;
    let sum = |f: fn(&Phase) -> u64| rc_ph.iter().map(f).sum::<u64>() as f64;
    rep.metric(
        "cdrc.alloc_per_op",
        sum(|p| p.allocated) / rc_ops,
        "blocks/op",
    );
    rep.metric("cdrc.freed_per_op", sum(|p| p.freed) / rc_ops, "blocks/op");
    rep.metric(
        "cdrc.settle_freed_share",
        sum(|p| p.settle_freed) / sum(|p| p.freed).max(1.0),
        "ratio",
    );
    let epoch_per_kop = if spec.epoch_clock {
        sum(|p| p.epochs) * 1e3 / rc_ops
    } else {
        let e = epoch_probe(a, spec, &mut rep.verdict);
        rep.lines.push(
            "cdrc.epoch_per_kop: this RC domain's scheme keeps no epoch clock; measured on the same load over RC(EBR)"
                .into(),
        );
        e
    };
    rep.metric("cdrc.epoch_per_kop", epoch_per_kop, "epochs/kop");

    let units = |m: &str| if m.ends_with("_ratio") { "ratio" } else { "ns" };
    for (m, val) in probes::cdrc::<S>(&mut rep.verdict)
        .into_iter()
        .chain(probes::smr::<S, SM>())
        .chain(probes::sticky())
    {
        rep.metric(m, val, units(m));
    }

    let layer = |p: &'static str| move |n: &str| n.starts_with(p);
    let guard = |n: &str| n.ends_with(".pin") || n.ends_with(".unpin");
    for (v, guard_metric) in [(RC, "cdrc.guard_share"), (MANUAL, "smr.guard_share")] {
        rep.metric(
            format!("harness.share_{}", VARIANTS[v]),
            st.share(v, layer("harness.")),
            "ratio",
        );
        rep.metric(guard_metric, st.share(v, guard), "ratio");
        rep.metric(
            format!("lockfree.share_{}", VARIANTS[v]),
            st.share(v, layer("lockfree.")),
            "ratio",
        );
    }
    for (c, own) in per_client.iter().enumerate() {
        for v in [RC, MANUAL] {
            rep.lines.push(format!(
                "client {c} {}: self-time share of traced wall time: harness {:.3}, guard {:.3}, lockfree {:.3}",
                VARIANTS[v],
                own.share(v, layer("harness.")),
                own.share(v, guard),
                own.share(v, layer("lockfree."))
            ));
        }
    }
    // Tracing overhead: the time recording a traced batch's spans adds to
    // it, as a share of the batch's untraced time (one client's time for
    // BATCH operations at the untraced throughput).
    let span_cost = trace::batch_cost_ns(drive::BATCH);
    let batch_ns = |mops: f64| drive::BATCH as f64 * drive::CLIENTS as f64 * 1e3 / mops;
    let overhead = [rc_mops, manual_mops].map(|m| span_cost / batch_ns(m) * 100.0);
    rep.metric("harness.trace_overhead_rc_pct", overhead[RC], "%");
    rep.metric("harness.trace_overhead_manual_pct", overhead[MANUAL], "%");
    rep.lines.push(format!(
        "tracing: recording one batch's spans costs {span_cost:.0} ns, {:.2}% (rc) and {:.2}% (manual) of the batch; one batch in {} is traced, so a traced phase runs about {:.3}% / {:.3}% longer; measured: rc {:.4} vs {:.4} Mop/s, manual {:.4} vs {:.4} Mop/s traced vs untraced",
        overhead[RC],
        overhead[MANUAL],
        drive::TRACE_EVERY,
        overhead[RC] / drive::TRACE_EVERY as f64,
        overhead[MANUAL] / drive::TRACE_EVERY as f64,
        traced_mops.0,
        rc_mops,
        traced_mops.1,
        manual_mops
    ));
    if !absent.is_empty() {
        rep.lines.push(format!(
            "ops outside this mix ({}) measured on side structures of 4096 keys / {} elements",
            absent
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", "),
            drive::CLIENTS
        ));
    }
    let refs: Vec<&[Span]> = spans.iter().map(Vec::as_slice).collect();
    match spans_path(spec.name).map(|p| trace::write_csv(&p, &refs).map(|()| p)) {
        Some(Ok(p)) => rep.lines.push(format!("spans written to {}", p.display())),
        Some(Err(e)) => rep.lines.push(format!("spans not written: {e}")),
        None => rep
            .lines
            .push("spans not written: no build directory".into()),
    }
    rep
}

fn ms_list(v: impl Iterator<Item = f64>) -> String {
    v.map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ")
}

/// A traced median that must exist; a missing one is a benchmark fault.
fn need(v: &mut Verdict, what: &str, val: Option<f64>) -> f64 {
    v.check(val.is_some(), || format!("no spans recorded for {what}"));
    val.unwrap_or(0.0)
}

/// Spans go under the build directory the benchmark binary runs from.
fn spans_path(workload: &str) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let target = exe.parent()?.parent()?;
    Some(target.join("rcbench-spans").join(format!("{workload}.csv")))
}

/// Epochs per thousand RC operations of `spec`'s queue load on an RC(EBR)
/// DoubleLink queue, for the queue workload, whose own RC domain keeps no
/// epoch clock. Checks the run like any other.
fn epoch_probe(a: &Args, spec: &Spec, v: &mut Verdict) -> f64 {
    const BATCHES: u64 = 4096;
    assert!(
        matches!(spec.mix, Mix::PopPush),
        "the epoch probe runs a queue load"
    );
    let build = || {
        let d = DomainRef::<EbrScheme>::new();
        (
            Rc {
                x: Queue(RcDoubleLinkQueue::new_in(d.clone())),
                domain: d,
            },
            Queue(DoubleLinkQueue::<u64, Ebr>::new()),
        )
    };
    let (mut b, _) = set_up(a, spec, &build, None);
    let load = Load {
        seed: a.seed,
        stream: EPOCH_PROBE,
        mix: &spec.mix,
        elements: &spec.elements,
        trace: None,
        blocks_per_put: spec.blocks_per_put,
    };
    let (ph, outs) = session(&b.rc, &b.manual, &load, b.live(spec), |d| {
        d.phase(RC, Mode::Fixed(BATCHES), Duration::ZERO)
    });
    merge(&mut b.tally, &outs);
    finish(v, spec, b);
    ph.epochs as f64 * 1e3 / ph.ops.max(1) as f64
}

/// Side structures for operation kinds outside a workload's mix, run in
/// full trace for a fixed number of batches on the workload's schemes: an
/// NM tree (4096 of 8192 keys; gets, puts, deletes and ranges, 25% each)
/// for map operations and a DoubleLink queue for enqueue and dequeue.
/// Returns their self times, tallies and spans.
fn side<S: Scheme, SM: AcquireRetire>(
    a: &Args,
    absent: &[Kind],
    epoch_clock: bool,
    v: &mut Verdict,
) -> (SelfTimes, Tally, Vec<Vec<Span>>) {
    let mut rng = stream(a.seed, &[SIDE]);
    let epoch = Some(Instant::now());
    let mut outs = Vec::new();
    if absent
        .iter()
        .any(|k| matches!(k, Kind::Get | Kind::Put | Kind::Del | Kind::Range))
    {
        let spec = Spec {
            name: "side tree",
            mix: Mix::Uniform {
                range: 8192,
                update: 50,
                rq: 25,
            },
            prefill: distinct_keys(&mut rng, 4096, 8192)
                .into_iter()
                .map(Op::Put)
                .collect(),
            elements: Vec::new(),
            warmup: 200,
            blocks_per_put: 2,
            epoch_clock,
        };
        let build = || {
            let d = DomainRef::<S>::new();
            (
                Rc {
                    x: Map(RcNatarajanMittalTree::new_in(d.clone())),
                    domain: d,
                },
                Map(NatarajanMittalTree::<u64, u64, SM>::new()),
            )
        };
        let (b, o) = set_up(a, &spec, &build, epoch);
        finish(v, &spec, b);
        outs.extend(o);
    }
    if absent.iter().any(|k| matches!(k, Kind::Enq | Kind::Deq)) {
        let elements = queue_elements(&mut rng);
        let spec = Spec {
            name: "side queue",
            mix: Mix::PopPush,
            prefill: elements.iter().map(|&e| Op::Enq(e)).collect(),
            elements,
            warmup: 200,
            blocks_per_put: 1,
            epoch_clock,
        };
        let build = || {
            let d = DomainRef::<S>::new();
            (
                Rc {
                    x: Queue(RcDoubleLinkQueue::new_in(d.clone())),
                    domain: d,
                },
                Queue(DoubleLinkQueue::<u64, SM>::new()),
            )
        };
        let (b, o) = set_up(a, &spec, &build, epoch);
        finish(v, &spec, b);
        outs.extend(o);
    }
    let mut st = SelfTimes::default();
    let mut tally = Tally::default();
    for o in &outs {
        st.add(&o.spans);
        tally.merge(&o.tally[RC]);
        tally.merge(&o.tally[MANUAL]);
    }
    (st, tally, outs.into_iter().map(|o| o.spans).collect())
}
