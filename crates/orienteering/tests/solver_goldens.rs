//! Bit-level goldens for the GRASP and greedy backends.
//!
//! One FNV-1a hash per backend (and one for the team solver) over `(tour, cost.to_bits(),
//! prize.to_bits())` of every solution on a fixed family of seeded
//! instances. Half the instances sit on a small integer lattice with
//! integer prizes, so equal insertion deltas and equal prize/cost ratios
//! are common: any change to how the solvers break exact ties moves the
//! hash. The constants were recorded before the insertion cache existed
//! and pin the solvers' output bit for bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uavdc_graph::DistMatrix;
use uavdc_orienteering::{
    solve, solve_team, Backend, GraspConfig, OrienteeringInstance, OrienteeringSolution, TeamConfig,
};

const INSTANCES: u64 = 240;
const GRASP_GOLDEN: u64 = 0x41a3_4c2a_7e3d_6377;
const GREEDY_GOLDEN: u64 = 0x6757_d408_7656_ab23;
const TEAM_GOLDEN: u64 = 0x50aa_07c3_abde_cda7;

/// Instance `i`: odd `i` on a 9×9 lattice with integer prizes (tie-heavy),
/// even `i` continuous. Sizes 1..48, budgets from nothing to generous.
fn instance(i: u64) -> OrienteeringInstance {
    let mut rng = SmallRng::seed_from_u64(0x0b5e_55ed ^ i.wrapping_mul(0x9e37_79b9));
    let lattice = i % 2 == 1;
    let n = 1 + rng.gen_range(0..48usize);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            if lattice {
                (rng.gen_range(0..9u32) as f64, rng.gen_range(0..9u32) as f64)
            } else {
                (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))
            }
        })
        .collect();
    let prizes: Vec<f64> = (0..n)
        .map(|_| {
            if lattice {
                rng.gen_range(0..4u32) as f64
            } else {
                rng.gen_range(0.0..10.0)
            }
        })
        .collect();
    let scale = if lattice { 9.0 } else { 100.0 };
    let budget = rng.gen_range(0.0..4.0) * scale;
    let depot = rng.gen_range(0..n);
    OrienteeringInstance::new(DistMatrix::from_euclidean(&pts), prizes, depot, budget)
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn solution(&mut self, s: &OrienteeringSolution) {
        self.mix(s.tour.len() as u64);
        for &v in &s.tour {
            self.mix(v as u64);
        }
        self.mix(s.cost.to_bits());
        self.mix(s.prize.to_bits());
    }
}

fn backend_hash(backend: Backend) -> u64 {
    let mut h = Fnv::new();
    for i in 0..INSTANCES {
        let inst = instance(i);
        let s = solve(&inst, backend, &uavdc_obs::NOOP);
        assert!(inst.verify(&s), "instance {i}: infeasible solution");
        h.solution(&s);
    }
    h.0
}

#[test]
fn grasp_solutions_match_golden() {
    let got = backend_hash(Backend::Grasp(GraspConfig::default()));
    assert_eq!(got, GRASP_GOLDEN, "GRASP hash 0x{got:016x}");
}

#[test]
fn greedy_solutions_match_golden() {
    let got = backend_hash(Backend::Greedy);
    assert_eq!(got, GREEDY_GOLDEN, "greedy hash 0x{got:016x}");
}

#[test]
fn team_solutions_match_golden() {
    let mut h = Fnv::new();
    for i in 0..INSTANCES {
        let inst = instance(i);
        let cfg = TeamConfig {
            teams: 1 + (i % 3) as usize,
            ils_rounds: 6,
            seed: i,
        };
        let s = solve_team(&inst, &cfg);
        assert!(s.verify(&inst), "instance {i}: infeasible team solution");
        for (tour, cost) in s.tours.iter().zip(&s.costs) {
            h.mix(tour.len() as u64);
            for &v in tour {
                h.mix(v as u64);
            }
            h.mix(cost.to_bits());
        }
        h.mix(s.prize.to_bits());
    }
    assert_eq!(h.0, TEAM_GOLDEN, "team hash 0x{:016x}", h.0);
}
