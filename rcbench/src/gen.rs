//! The `harness` layer: every key, dice roll and prefill order the benchmark
//! uses comes from here, derived from the `--seed` argument alone.

/// Keys scanned per range query: `[k, k + RQ_LEN)`, at most `RQ_LEN` keys.
pub const RQ_LEN: u64 = 64;

pub use rand::distributions::Zipf;
pub use rand::rngs::SmallRng as Rng;
use rand::{Rng as _, RngCore, SeedableRng};

/// The generator stream named by `parts` under `seed`: the same inputs
/// always give the same stream, and distinct `parts` give unrelated ones.
pub fn stream(seed: u64, parts: &[u64]) -> Rng {
    let mixed = parts.iter().fold(seed, |h, &p| {
        (h.rotate_left(29) ^ p).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    Rng::seed_from_u64(mixed)
}

/// A seeded bijection on `[0, 2^bits)`, so which keys are hot depends on
/// the seed rather than always being the smallest ones.
#[derive(Debug, Clone)]
pub struct KeyPerm {
    mul: u64,
    add: u64,
    mask: u64,
}

impl KeyPerm {
    pub fn new(rng: &mut Rng, bits: u32) -> KeyPerm {
        KeyPerm {
            mul: rng.next_u64() | 1,
            add: rng.next_u64(),
            mask: (1u64 << bits) - 1,
        }
    }

    pub fn apply(&self, rank: u64) -> u64 {
        rank.wrapping_mul(self.mul).wrapping_add(self.add) & self.mask
    }
}

/// One operation the harness hands to a structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64),
    Del(u64),
    Range(u64),
    Enq(u64),
    Deq,
}

/// Operation kinds, in the order of [`Kind::ALL`]; used to index per-kind
/// tallies and span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Del,
    Range,
    Enq,
    Deq,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Get,
        Kind::Put,
        Kind::Del,
        Kind::Range,
        Kind::Enq,
        Kind::Deq,
    ];

    pub fn name(self) -> &'static str {
        ["get", "put", "del", "range", "enq", "deq"][self as usize]
    }
}

impl Op {
    pub fn kind(self) -> Kind {
        match self {
            Op::Get(_) => Kind::Get,
            Op::Put(_) => Kind::Put,
            Op::Del(_) => Kind::Del,
            Op::Range(_) => Kind::Range,
            Op::Enq(_) => Kind::Enq,
            Op::Deq => Kind::Deq,
        }
    }
}

/// What a workload's clients ask for.
#[derive(Debug, Clone)]
pub enum Mix {
    /// Zipfian keys over `[0, 2^bits)` through a seeded permutation;
    /// `get`% gets, `put`% puts, the rest deletes.
    Zipf {
        zipf: Zipf,
        perm: KeyPerm,
        get: u64,
        put: u64,
    },
    /// Uniform keys in `[0, range)`: `update`% updates (half puts, half
    /// deletes), `rq`% range queries of [`RQ_LEN`] keys, the rest gets.
    Uniform { range: u64, update: u64, rq: u64 },
    /// Each client pops one element and pushes it back, forever.
    PopPush,
}

impl Mix {
    /// Size of the key space the final-state check walks (0 for queues).
    pub fn key_space(&self) -> u64 {
        match self {
            Mix::Zipf { perm, .. } => perm.mask + 1,
            Mix::Uniform { range, .. } => *range,
            Mix::PopPush => 0,
        }
    }
}

/// One client's operation stream for one structure.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    /// The element a pop/push client currently holds.
    pub held: Option<u64>,
}

impl Gen {
    pub fn new(seed: u64, id: u64, client: u64) -> Gen {
        Gen {
            rng: stream(seed, &[id, client]),
            held: None,
        }
    }

    pub fn next(&mut self, mix: &Mix) -> Op {
        match mix {
            Mix::Zipf {
                zipf,
                perm,
                get,
                put,
            } => {
                let k = perm.apply(zipf.sample(&mut self.rng));
                let dice: u64 = self.rng.gen_range(0..100);
                if dice < *get {
                    Op::Get(k)
                } else if dice < get + put {
                    Op::Put(k)
                } else {
                    Op::Del(k)
                }
            }
            Mix::Uniform { range, update, rq } => {
                let k = self.rng.gen_range(0..*range);
                let dice: u64 = self.rng.gen_range(0..100);
                if dice < *update {
                    if dice.is_multiple_of(2) {
                        Op::Put(k)
                    } else {
                        Op::Del(k)
                    }
                } else if dice < update + rq {
                    Op::Range(k)
                } else {
                    Op::Get(k)
                }
            }
            Mix::PopPush => match self.held {
                Some(v) => Op::Enq(v),
                None => Op::Deq,
            },
        }
    }
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// `n` distinct keys from `[0, range)` in seeded insertion order.
pub fn distinct_keys(rng: &mut Rng, n: u64, range: u64) -> Vec<u64> {
    assert!(n <= range);
    let mut seen = vec![false; range as usize];
    let mut out = Vec::with_capacity(n as usize);
    while (out.len() as u64) < n {
        let k = rng.gen_range(0..range);
        if !std::mem::replace(&mut seen[k as usize], true) {
            out.push(k);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..4).map(|_| stream(7, &[1, 2]).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(stream(7, &[1, 2]).next_u64(), stream(8, &[1, 2]).next_u64());
        assert_ne!(stream(7, &[1, 2]).next_u64(), stream(7, &[2, 1]).next_u64());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1 << 16, 0.99);
        let mut rng = stream(1, &[]);
        let mut hot = 0;
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1 << 16);
            hot += (r < 16) as u32;
        }
        assert!(hot > 20_000, "top 16 ranks drew only {hot} of 100000");
    }

    #[test]
    fn key_perm_is_a_bijection() {
        let p = KeyPerm::new(&mut stream(3, &[]), 10);
        let mut seen = [false; 1024];
        for r in 0..1024 {
            assert!(!std::mem::replace(&mut seen[p.apply(r) as usize], true));
        }
    }
}
