//! In-memory spans for the traced run. Spans are recorded only by the
//! benchmark's own code, around each call into a layer; they are written
//! out when the run ends and reduced to per-layer self times.

use std::io::Write;
use std::time::Instant;

/// Span names; a span's `name` field indexes this table.
pub const NAMES: [&str; 19] = [
    "harness.batch",
    "harness.keygen",
    "cdrc.pin",
    "cdrc.unpin",
    "smr.pin",
    "smr.unpin",
    "cdrc.process_deferred",
    "lockfree.rc.get",
    "lockfree.rc.put",
    "lockfree.rc.del",
    "lockfree.rc.range",
    "lockfree.rc.enq",
    "lockfree.rc.deq",
    "lockfree.manual.get",
    "lockfree.manual.put",
    "lockfree.manual.del",
    "lockfree.manual.range",
    "lockfree.manual.enq",
    "lockfree.manual.deq",
];
pub const BATCH: u8 = 0;
pub const KEYGEN: u8 = 1;
pub const PROCESS_DEFERRED: u8 = 6;
const LOCKFREE_RC: u8 = 7;
const LOCKFREE_MANUAL: u8 = 13;

/// The span that opens (`pin`) or closes (`unpin`) a guard of `variant`.
pub fn pin_name(variant: usize) -> u8 {
    [2, 4][variant]
}

pub fn unpin_name(variant: usize) -> u8 {
    [3, 5][variant]
}

/// The span of a structure operation of `kind` on `variant`.
pub fn op_name(variant: usize, kind: usize) -> u8 {
    [LOCKFREE_RC, LOCKFREE_MANUAL][variant] + kind as u8
}

pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. Times are nanoseconds since the run's trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u8,
    pub variant: u8,
    pub parent: u32,
    /// The operation the span belongs to; a batch carries its first op's id.
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

/// One client's span buffer, bounded so a long run cannot exhaust memory.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    cap: usize,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, cap: usize) -> Spans {
        Spans {
            epoch,
            cap,
            list: Vec::new(),
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn has_room(&self, n: usize) -> bool {
        self.list.len() + n <= self.cap
    }

    /// Records a span and returns its index, for children to name as parent.
    pub fn push(
        &mut self,
        name: u8,
        variant: usize,
        parent: u32,
        op: u64,
        start: u64,
        end: u64,
    ) -> u32 {
        self.list.push(Span {
            name,
            variant: variant as u8,
            parent,
            op,
            start,
            end,
        });
        (self.list.len() - 1) as u32
    }
}

/// The time (ns) recording the spans of one traced batch of `batch`
/// operations adds to it: the clock reads and pushes of the batch's own
/// spans and of each operation's keygen and structure spans, with the
/// layer calls themselves left out. The median of repeated timings.
pub fn batch_cost_ns(batch: u64) -> f64 {
    const BATCHES: u64 = 256;
    const REPEATS: usize = 25;
    let mut sp = Spans::new(Instant::now(), usize::MAX);
    let mut per_batch = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        sp.list.clear();
        let t0 = Instant::now();
        for n in 0..BATCHES {
            let p0 = sp.now();
            let p1 = sp.now();
            let b = sp.push(BATCH, 0, NO_PARENT, n, p0, 0);
            sp.push(pin_name(0), 0, b, n, p0, p1);
            for i in 0..batch {
                let k0 = sp.now();
                let k1 = std::hint::black_box(sp.now());
                let k2 = sp.now();
                sp.push(KEYGEN, 0, b, n + i, k0, k1);
                sp.push(op_name(0, 0), 0, b, n + i, k1, k2);
            }
            let u0 = sp.now();
            let u1 = sp.now();
            sp.push(unpin_name(0), 0, b, n, u0, u1);
            sp.list[b as usize].end = u1;
        }
        std::hint::black_box(&sp.list);
        per_batch.push(t0.elapsed().as_nanos() as f64 / BATCHES as f64);
    }
    crate::stats::median(&per_batch)
}

/// Self times (span duration minus the part its children cover), grouped
/// by span name and by variant.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// `[name] -> self times (ns)` over all spans.
    by_name: Vec<Vec<u64>>,
    /// `[variant][name] -> summed self time (ns)`, and root (batch) wall time.
    sums: [[u64; NAMES.len()]; 2],
}

impl SelfTimes {
    pub fn add(&mut self, spans: &[Span]) {
        if self.by_name.is_empty() {
            self.by_name = vec![Vec::new(); NAMES.len()];
        }
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, c) in spans.iter().zip(covered) {
            let own = (s.end - s.start).saturating_sub(c);
            self.by_name[s.name as usize].push(own);
            // Deferred-work spans run between batches, outside the wall
            // time the shares divide.
            if s.name != PROCESS_DEFERRED {
                self.sums[s.variant as usize][s.name as usize] += own;
            }
        }
    }

    /// Midmean (mean of the middle half) of the self times of spans named
    /// `name`, if any were recorded: as robust as the median, without its
    /// whole-nanosecond steps.
    pub fn midmean(&mut self, name: u8) -> Option<f64> {
        let v = self.by_name.get_mut(name as usize)?;
        (!v.is_empty()).then(|| crate::stats::midmean(v))
    }

    /// Share of `variant`'s traced batch wall time spent in the self time of
    /// spans whose names satisfy `pick`.
    pub fn share(&self, variant: usize, pick: impl Fn(&str) -> bool) -> f64 {
        let sums = &self.sums[variant];
        let wall: u64 = sums.iter().sum();
        let part: u64 = NAMES
            .iter()
            .zip(sums)
            .filter(|(n, _)| pick(n))
            .map(|(_, s)| s)
            .sum();
        part as f64 / wall.max(1) as f64
    }
}

/// Writes span buffers as CSV (`client,name,variant,start_ns,end_ns,
/// parent,op`); `client` is the buffer's index and `parent` a span's index
/// within its buffer.
pub fn write_csv(path: &std::path::Path, clients: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "client,name,variant,start_ns,end_ns,parent,op")?;
    for (c, spans) in clients.iter().enumerate() {
        for s in spans.iter() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{c},{},{},{},{},{parent},{}",
                NAMES[s.name as usize],
                ["rc", "manual"][s.variant as usize],
                s.start,
                s.end,
                s.op
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: BATCH,
                variant: 0,
                parent: NO_PARENT,
                op: 0,
                start: 0,
                end: 100,
            },
            Span {
                name: KEYGEN,
                variant: 0,
                parent: 0,
                op: 0,
                start: 10,
                end: 20,
            },
            Span {
                name: op_name(0, 0),
                variant: 0,
                parent: 0,
                op: 0,
                start: 20,
                end: 80,
            },
        ];
        let mut st = SelfTimes::default();
        st.add(&spans);
        assert_eq!(st.midmean(BATCH), Some(30.0));
        assert_eq!(st.midmean(op_name(0, 0)), Some(60.0));
        assert!((st.share(0, |n| n.starts_with("lockfree.")) - 0.6).abs() < 1e-9);
        assert!((st.share(0, |n| n.starts_with("harness.")) - 0.4).abs() < 1e-9);
        assert_eq!(st.midmean(op_name(1, 0)), None);
    }
}
