//! Differential property suite for the lazy-greedy selection heap
//! (`uavdc_core::greedy::LazyHeap`).
//!
//! `LazyHeap` keeps at most one entry per candidate: a push re-keys the
//! candidate in place. The heap it replaced, kept below as the oracle,
//! left every superseded entry in a `BinaryHeap` under a generation
//! stamp and dropped it when it reached the top, or in a bulk purge once
//! the heap outgrew a threshold. Both must make the same selections and
//! park the same candidates, and the entries the new heap counts must
//! equal the entries the oracle pops once selection runs to exhaustion,
//! which is what the frozen `heap_pops` counter records.
//!
//! Each case is a random sequence of pushes (re-pushes that supersede an
//! entry included), selections and unparks, followed by selection to
//! exhaustion. A selection's probe answers, per candidate, feasible at,
//! above or below the entry's key, infeasible, or inactive.
//!
//! Run with `--features validate` to widen the property to 1100 seeded
//! cases (the CI equivalence gate); the default is a quick 64.

use std::collections::BinaryHeap;

use proptest::prelude::*;
use uavdc_core::greedy::{LazyHeap, Probe, RATIO_BAND};
use uavdc_geom::{from_total_key, total_key};

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

// ---------------------------------------------------------------------------
// Oracle: the generation-stamped heap
// ---------------------------------------------------------------------------

fn pack_entry(ratio: f64, cand: u32, gen: u32) -> u128 {
    ((total_key(ratio) as u128) << 64) | (((!cand) as u128) << 32) | gen as u128
}

fn entry_ratio(key: u128) -> f64 {
    from_total_key((key >> 64) as u64)
}

fn entry_cand(key: u128) -> u32 {
    !((key >> 32) as u32)
}

fn entry_gen(key: u128) -> u32 {
    key as u32
}

/// The generation-stamped lazy heap, as it was, except that the purge
/// threshold is a parameter: its `max(4·m, 64)` floor would keep the
/// purge from ever running on the small candidate counts used here.
struct StampedHeap {
    heap: BinaryHeap<u128>,
    gen: Vec<u32>,
    parked: Vec<u128>,
    purge_at: usize,
    purges: u64,
}

impl StampedHeap {
    fn new(m: usize, purge_at: Option<usize>) -> Self {
        StampedHeap {
            heap: BinaryHeap::with_capacity(m),
            gen: vec![0; m],
            parked: Vec::new(),
            purge_at: purge_at.unwrap_or(usize::MAX),
            purges: 0,
        }
    }

    fn purge(&mut self, pops: &mut u64) {
        if self.heap.len() < self.purge_at {
            return;
        }
        self.purges += 1;
        let old = std::mem::take(&mut self.heap).into_vec();
        let mut live = Vec::with_capacity(self.gen.len());
        for e in old {
            if entry_gen(e) == self.gen[entry_cand(e) as usize] {
                live.push(e);
            } else {
                *pops += 1;
            }
        }
        self.heap = BinaryHeap::from(live);
    }

    fn push(&mut self, c: usize, ratio: f64) {
        self.gen[c] = self.gen[c].wrapping_add(1);
        self.heap.push(pack_entry(ratio, c as u32, self.gen[c]));
    }

    fn unpark_all(&mut self) {
        for e in self.parked.drain(..) {
            self.heap.push(e);
        }
    }

    fn parked_len(&self) -> usize {
        self.parked.len()
    }

    fn select(
        &mut self,
        mut active: impl FnMut(usize) -> bool,
        mut probe: impl FnMut(usize) -> Probe,
        pops: &mut u64,
    ) -> Option<(usize, f64)> {
        self.purge(pops);
        let mut cohort: Vec<(f64, u32, u32)> = Vec::new();
        let mut cohort_min = f64::INFINITY;
        while let Some(entry) = self.heap.peek().copied() {
            if !cohort.is_empty() && entry_ratio(entry) < cohort_min - RATIO_BAND {
                break;
            }
            self.heap.pop();
            *pops += 1;
            let c = entry_cand(entry) as usize;
            if entry_gen(entry) != self.gen[c] || !active(c) {
                continue;
            }
            match probe(c) {
                Probe::Infeasible => self.parked.push(entry),
                Probe::Feasible(v) => {
                    if v >= entry_ratio(entry) {
                        cohort_min = cohort_min.min(v);
                        cohort.push((v, entry_cand(entry), entry_gen(entry)));
                    } else {
                        self.heap
                            .push(pack_entry(v, entry_cand(entry), entry_gen(entry)));
                    }
                }
            }
        }
        cohort.sort_unstable_by_key(|e| e.1);
        let mut best: Option<(f64, u32, u32)> = None;
        for &(r, c, g) in &cohort {
            match best {
                None => best = Some((r, c, g)),
                Some((br, _, _)) => {
                    if r > br + RATIO_BAND {
                        best = Some((r, c, g));
                    }
                }
            }
        }
        let winner = best?;
        for &(r, c, g) in &cohort {
            if c != winner.1 {
                self.heap.push(pack_entry(r, c, g));
            }
        }
        Some((winner.1 as usize, winner.0))
    }
}

// ---------------------------------------------------------------------------
// Random operation sequences
// ---------------------------------------------------------------------------

/// A probe's answer for one candidate in one selection.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Answer {
    /// `Feasible` at the entry's key.
    At,
    /// `Feasible` one ulp above the key.
    UlpAbove,
    /// `Feasible` 0.5 above the key.
    Above,
    /// `Feasible` one ulp below the key (inside the tie band).
    UlpBelow,
    /// `Feasible` 0.75 below the key (a CELF decay out of the band).
    Below,
    Infeasible,
    /// `active(c)` is false.
    Inactive,
}

#[derive(Clone, Debug)]
enum Op {
    Push(usize, f64),
    Select(Vec<Answer>),
    Unpark,
}

/// Ratios with exact ties, ties inside [`RATIO_BAND`] (`1` and `1 + ε`),
/// near misses just outside it (`1 + 8ε`) and both zeros.
const RATIOS: [f64; 9] = [
    0.25,
    1.0,
    1.0 + f64::EPSILON,
    1.0 + 8.0 * f64::EPSILON,
    2.0,
    2.0,
    3.5,
    0.0,
    -0.0,
];

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // xorshift64*; the seed is forced odd so it is never zero.
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn answers(&mut self, m: usize) -> Vec<Answer> {
        const ALL: [Answer; 7] = [
            Answer::At,
            Answer::UlpAbove,
            Answer::Above,
            Answer::UlpBelow,
            Answer::Below,
            Answer::Infeasible,
            Answer::Inactive,
        ];
        (0..m)
            .map(|_| {
                // Half the answers are `At`, the usual exact entry.
                if self.below(2) == 0 {
                    Answer::At
                } else {
                    ALL[self.below(ALL.len())]
                }
            })
            .collect()
    }

    fn ops(&mut self, m: usize, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| match self.below(10) {
                0..=5 => Op::Push(self.below(m), RATIOS[self.below(RATIOS.len())]),
                6..=8 => Op::Select(self.answers(m)),
                _ => Op::Unpark,
            })
            .collect()
    }
}

/// One side of the comparison: a heap plus the probe's model of each
/// candidate's current key.
trait Side {
    fn push(&mut self, c: usize, ratio: f64);
    fn unpark_all(&mut self);
    fn parked_len(&self) -> usize;
    fn select_with(
        &mut self,
        active: &dyn Fn(usize) -> bool,
        probe: &mut dyn FnMut(usize) -> Probe,
    ) -> Option<(usize, f64)>;
    fn pops(&mut self) -> u64;
}

struct New(LazyHeap, u64);

impl Side for New {
    fn push(&mut self, c: usize, ratio: f64) {
        self.0.push(c, ratio);
    }
    fn unpark_all(&mut self) {
        self.0.unpark_all();
    }
    fn parked_len(&self) -> usize {
        self.0.parked_len()
    }
    fn select_with(
        &mut self,
        active: &dyn Fn(usize) -> bool,
        probe: &mut dyn FnMut(usize) -> Probe,
    ) -> Option<(usize, f64)> {
        let got = self.0.select(active, probe);
        self.1 += self.0.take_entries();
        got
    }
    fn pops(&mut self) -> u64 {
        self.1 + self.0.take_entries()
    }
}

struct Old(StampedHeap, u64);

impl Side for Old {
    fn push(&mut self, c: usize, ratio: f64) {
        self.0.push(c, ratio);
    }
    fn unpark_all(&mut self) {
        self.0.unpark_all();
    }
    fn parked_len(&self) -> usize {
        self.0.parked_len()
    }
    fn select_with(
        &mut self,
        active: &dyn Fn(usize) -> bool,
        probe: &mut dyn FnMut(usize) -> Probe,
    ) -> Option<(usize, f64)> {
        self.0.select(active, probe, &mut self.1)
    }
    fn pops(&mut self) -> u64 {
        self.1
    }
}

/// Runs one selection with `answers`. `key[c]` tracks the key of `c`'s
/// entry: a feasible answer `v` becomes the key the entry returns with
/// (as a decay, or as a cohort loser). Only a candidate's first probe in
/// a selection follows its answer; later ones answer `At`, so repeated
/// decays cannot loop.
fn select(side: &mut dyn Side, key: &mut [f64], answers: &[Answer]) -> Option<(usize, u64)> {
    let mut probed = vec![false; key.len()];
    let active = |c: usize| answers[c] != Answer::Inactive;
    let mut probe = |c: usize| {
        let k = key[c];
        let answer = if probed[c] { Answer::At } else { answers[c] };
        probed[c] = true;
        let v = match answer {
            Answer::At | Answer::Inactive => k,
            Answer::UlpAbove => k.next_up(),
            Answer::Above => k + 0.5,
            Answer::UlpBelow => k.next_down(),
            Answer::Below => k - 0.75,
            Answer::Infeasible => return Probe::Infeasible,
        };
        key[c] = v;
        Probe::Feasible(v)
    };
    side.select_with(&active, &mut probe)
        .map(|(c, r)| (c, r.to_bits()))
}

/// Replays `ops` on the new heap and on the oracle, then selects to
/// exhaustion with `tail` answers, asserting the same winners and parked
/// counts after every selection and the same pop total at the end.
fn assert_same(m: usize, ops: &[Op], tail: &[Vec<Answer>], purge_at: Option<usize>) -> u64 {
    let mut new = New(LazyHeap::new(m), 0);
    let mut old = Old(StampedHeap::new(m, purge_at), 0);
    let mut key_new = vec![0.0f64; m];
    let mut key_old = vec![0.0f64; m];
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Push(c, r) => {
                new.push(*c, *r);
                old.push(*c, *r);
                key_new[*c] = *r;
                key_old[*c] = *r;
            }
            Op::Unpark => {
                new.unpark_all();
                old.unpark_all();
            }
            Op::Select(answers) => {
                let a = select(&mut new, &mut key_new, answers);
                let b = select(&mut old, &mut key_old, answers);
                assert_eq!(a, b, "step {step}: selections diverge");
            }
        }
        assert_eq!(
            new.parked_len(),
            old.parked_len(),
            "step {step}: parked counts diverge"
        );
    }
    let mut rounds = 0;
    loop {
        let answers = &tail[rounds % tail.len()];
        let a = select(&mut new, &mut key_new, answers);
        let b = select(&mut old, &mut key_old, answers);
        assert_eq!(a, b, "exhaustion round {rounds}: selections diverge");
        assert_eq!(new.parked_len(), old.parked_len());
        if a.is_none() {
            break;
        }
        rounds += 1;
        assert!(rounds <= m + 1, "a winning selection removes a candidate");
    }
    assert_eq!(
        new.pops(),
        old.pops(),
        "entries counted differ from entries the oracle popped"
    );
    old.0.purges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn indexed_heap_matches_stamped_heap(
        seed in 0u64..u64::MAX,
        m in 1usize..13,
        len in 1usize..160,
    ) {
        let mut g = Gen(seed | 1);
        let ops = g.ops(m, len);
        let tail: Vec<Vec<Answer>> = (0..3).map(|_| g.answers(m)).collect();
        assert_same(m, &ops, &tail, None);
        assert_same(m, &ops, &tail, Some(4 * m));
    }
}

#[test]
fn purging_oracle_is_exercised() {
    // Twenty re-pushes of one candidate, then a selection: the oracle's
    // purge sweeps the superseded entries out in bulk, the new heap
    // never held them, and both count all twenty-one entries.
    let mut ops: Vec<Op> = (0..20).map(|i| Op::Push(0, 1.0 + i as f64)).collect();
    ops.push(Op::Push(1, 2.0));
    ops.push(Op::Select(vec![Answer::At; 2]));
    let purges = assert_same(2, &ops, &[vec![Answer::At; 2]], Some(8));
    assert!(purges > 0, "the oracle's purge never ran");
}
