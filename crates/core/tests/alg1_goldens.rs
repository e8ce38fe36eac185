//! Bit-level goldens for Algorithm 1 and its team-orienteering fleet
//! variant.
//!
//! The planner-baseline roster leaves Algorithm 1 out, so these
//! `CollectionPlan::fingerprint`s are what pins its plans: fixed seeds ×
//! the paper's five battery capacities × both candidate filters, at a
//! fifth of the paper's scale so the debug test run stays short. The
//! capacities shrink by the same factor as the device count, so every
//! budget binds (at full capacity a fifth-scale instance fits whole). The
//! values were recorded before the orienteering insertion cache existed;
//! a solver change that moves any plan by one bit fails here.

use uavdc_core::validate::{check_plan, Profile};
use uavdc_core::{Alg1Config, Alg1Planner, CandidateFilter, Planner, TeamAlg1Planner};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

const SCALE: f64 = 0.2;
const CAPACITIES: [f64; 5] = [3.0e5, 4.5e5, 6.0e5, 7.5e5, 9.0e5];
const SEEDS: [u64; 2] = [1, 2];

fn scenario(seed: u64, capacity: f64) -> Scenario {
    let params = ScenarioParams::default()
        .scaled(SCALE)
        .with_capacity(Joules(capacity * SCALE));
    uniform(&params, seed)
}

/// `(seed, paper capacity, filter, fingerprint)`.
const ALG1_GOLDENS: [(u64, f64, CandidateFilter, u64); 20] = [
    (1, 3e5, CandidateFilter::Disjoint, 0x65713430d4384203),
    (1, 3e5, CandidateFilter::Raw, 0xbd1bcf57740afd8d),
    (1, 4.5e5, CandidateFilter::Disjoint, 0x307750f9a46e9753),
    (1, 4.5e5, CandidateFilter::Raw, 0x154eb56077e0bed6),
    (1, 6e5, CandidateFilter::Disjoint, 0xa28b877a2265df09),
    (1, 6e5, CandidateFilter::Raw, 0x425404ac3c812a65),
    (1, 7.5e5, CandidateFilter::Disjoint, 0x8b62e7b77b361048),
    (1, 7.5e5, CandidateFilter::Raw, 0xbd88df5b30c83a8f),
    (1, 9e5, CandidateFilter::Disjoint, 0x4e917db2cf53daf0),
    (1, 9e5, CandidateFilter::Raw, 0x975a7ae21540deb3),
    (2, 3e5, CandidateFilter::Disjoint, 0xac5e2f5375ddb883),
    (2, 3e5, CandidateFilter::Raw, 0x79c9fd01c091b151),
    (2, 4.5e5, CandidateFilter::Disjoint, 0xb35256f8628752c4),
    (2, 4.5e5, CandidateFilter::Raw, 0x664e301f1a1f6fdb),
    (2, 6e5, CandidateFilter::Disjoint, 0xd0db9cfd35112bed),
    (2, 6e5, CandidateFilter::Raw, 0xbebc59954d278e57),
    (2, 7.5e5, CandidateFilter::Disjoint, 0x5f67d7cadb27ed94),
    (2, 7.5e5, CandidateFilter::Raw, 0xb15a9e479b0088ad),
    (2, 9e5, CandidateFilter::Disjoint, 0x2d1c29ab150bcd2b),
    (2, 9e5, CandidateFilter::Raw, 0x824f107a7c8d5d4c),
];

/// `(seed, paper capacity, fleet size, one fingerprint per UAV)`.
const FLEET_GOLDENS: [(u64, f64, usize, &[u64]); 12] = [
    (1, 3e5, 1, &[0x798e6a5184b77534]),
    (1, 3e5, 2, &[0x798e6a5184b77534, 0x807d2541688944d0]),
    (
        1,
        3e5,
        3,
        &[0xb2d5893b5afcd59d, 0x01a7c25aaf435a0b, 0x480bc2ef5d4d64af],
    ),
    (1, 6e5, 1, &[0x993935e856ff5230]),
    (1, 6e5, 2, &[0x63786979fb3eebf4, 0x5586b7a61d7d136f]),
    (
        1,
        6e5,
        3,
        &[0x946d7673af1da1ea, 0x890833fa19527c3f, 0x7477a6667f64ec50],
    ),
    (2, 3e5, 1, &[0xac5e2f5375ddb883]),
    (2, 3e5, 2, &[0x968806b122dbe541, 0xae822bfa74a1f3f1]),
    (
        2,
        3e5,
        3,
        &[0x968806b122dbe541, 0xae822bfa74a1f3f1, 0xd5b3f21f4e32a0b2],
    ),
    (2, 6e5, 1, &[0xd519663064358899]),
    (2, 6e5, 2, &[0x0496664896eb0360, 0xb602f3b993141199]),
    (
        2,
        6e5,
        3,
        &[0x0f54ce9c3ca48c05, 0xd492eb3cd951fa34, 0x3c2499fd8883cc3b],
    ),
];

#[test]
fn alg1_plans_match_goldens() {
    let mut got = Vec::new();
    for seed in SEEDS {
        for capacity in CAPACITIES {
            let s = scenario(seed, capacity);
            for filter in [CandidateFilter::Disjoint, CandidateFilter::Raw] {
                let planner = Alg1Planner::new(Alg1Config {
                    filter,
                    ..Alg1Config::default()
                });
                let plan = planner.plan(&s);
                check_plan(&s, &plan, Profile::P1FullDisjoint).expect("Alg 1 plan must validate");
                got.push((seed, capacity, filter, plan.fingerprint()));
            }
        }
    }
    assert_eq!(got.len(), ALG1_GOLDENS.len());
    for (g, want) in got.iter().zip(&ALG1_GOLDENS) {
        assert_eq!(g, want, "Alg 1 plan moved");
    }
}

#[test]
fn team_alg1_fleets_match_goldens() {
    let mut got: Vec<(u64, f64, usize, Vec<u64>)> = Vec::new();
    for seed in SEEDS {
        for capacity in [CAPACITIES[0], CAPACITIES[2]] {
            let s = scenario(seed, capacity);
            for fleet in [1, 2, 3] {
                let plan = TeamAlg1Planner::new(fleet).plan_fleet(&s);
                let prints = plan.plans.iter().map(|p| p.fingerprint()).collect();
                got.push((seed, capacity, fleet, prints));
            }
        }
    }
    assert_eq!(got.len(), FLEET_GOLDENS.len());
    for (g, want) in got.iter().zip(&FLEET_GOLDENS) {
        assert_eq!((g.0, g.1, g.2, g.3.as_slice()), *want, "fleet plan moved");
    }
}
