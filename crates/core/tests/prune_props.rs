//! Differential property suite for the Benchmark pruner (§VII.A).
//!
//! [`EngineMode::Lazy`] (`prune_lazy`: linked stops, cached edges and
//! removal deltas, a tournament tree over the ratios, a dirty list and
//! a certified feasibility test) must reproduce [`EngineMode::Exhaustive`]
//! (`prune_exhaustive`, one full rescan per removal) exactly: the same
//! plan, bit for bit, and the same `iterations`. The counters are checked
//! against an oracle written out here from the public building blocks:
//! it rebuilds the initial Christofides tour and coverage lists, replays
//! the rescan, and counts what each engine must count — a full rescan's
//! `len − 1` evaluations per pass for the exhaustive engine, and for the
//! lazy engine every stop on the first pass plus, after each removal,
//! the on-tour stops covering a device whose last-but-one coverer it
//! was.
//!
//! The layouts cover uniform devices; half-integer lattices, where equal
//! ratios are common and must resolve to the earlier tour position;
//! coincident devices, where zero edges and zero deltas leave
//! `saved.max(1e-12)` to decide; 1–3-device instances; capacities that
//! prune down to the depot; and capacities set to the exact energy of an
//! intermediate tour and one ulp either side, which is where the lazy
//! engine's feasibility certificate must fall back to the exact sums.
//!
//! Run with `--features validate` to widen each property to >= 1024
//! seeded cases (the CI equivalence gate); the default is a quick 64.

use proptest::prelude::*;
use uavdc_core::{BenchmarkPlanner, EngineMode};
use uavdc_geom::{tour_length, Aabb, Point2, SpatialGrid};
use uavdc_graph::christofides::{christofides_with, ChristofidesConfig};
use uavdc_graph::DistMatrix;
use uavdc_net::units::{Joules, MegaBytes, MegaBytesPerSecond, Meters};
use uavdc_net::{IotDevice, RadioModel, Scenario, UavSpec};

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

fn scenario(devices: &[(f64, f64, f64)], r0: f64, capacity: f64) -> Scenario {
    Scenario {
        region: Aabb::square(200.0),
        devices: devices
            .iter()
            .map(|&(x, y, d)| IotDevice {
                pos: Point2::new(x, y),
                data: MegaBytes(d),
            })
            .collect(),
        depot: Point2::new(0.0, 0.0),
        radio: RadioModel::new(Meters(r0), MegaBytesPerSecond(150.0)),
        uav: UavSpec {
            capacity: Joules(capacity),
            ..UavSpec::paper_default()
        },
    }
}

/// What a pruning run must report, replayed independently.
struct Replay {
    iterations: u64,
    exhaustive_evals: u64,
    lazy_evals: u64,
    /// Exact energy of the tour at the start of each iteration that
    /// passed the feasibility test (the first is the full tour's).
    energies: Vec<f64>,
}

/// Replays the pruning loop on the initial tour the planner builds:
/// depot + devices in Christofides order (polished, depot first), with
/// per-device coverage lists from a radius query.
fn replay(s: &Scenario) -> Replay {
    let n = s.num_devices();
    let r0 = s.coverage_radius().value();
    let positions = s.device_positions();
    let index = SpatialGrid::build(&positions, r0.max(1.0));
    let coverage: Vec<Vec<u32>> = positions
        .iter()
        .map(|&p| {
            index
                .query_radius(p, r0)
                .into_iter()
                .map(|i| i as u32)
                .collect()
        })
        .collect();
    let mut all = vec![s.depot];
    all.extend(positions.iter().copied());
    let order: Vec<usize> = if all.len() <= 3 {
        (0..all.len()).collect()
    } else {
        let m = DistMatrix::from_fn(all.len(), |i, j| all[i].distance(all[j]));
        let mut tour = christofides_with(&m, &ChristofidesConfig::default(), &uavdc_obs::NOOP);
        tour.rotate_to_start(0);
        tour.order().to_vec()
    };
    let mut pts: Vec<Point2> = order.iter().map(|&i| all[i]).collect();
    let mut dev: Vec<usize> = order.iter().map(|&i| i.wrapping_sub(1)).collect();

    let b = s.radio.bandwidth.value();
    let eta_h = s.uav.hover_power.value();
    let per_m = s.uav.travel_energy_per_meter().value();
    let capacity = s.uav.capacity.value();
    let data = |v: u32| s.devices[v as usize].data.value();
    let mut out = Replay {
        iterations: 0,
        exhaustive_evals: 0,
        lazy_evals: 0,
        energies: Vec::new(),
    };
    let mut dirty = pts.len() - 1;
    loop {
        out.iterations += 1;
        let mut taken = vec![false; n];
        let mut hover_s = vec![0.0; pts.len()];
        let mut hover_energy = 0.0;
        for i in 1..pts.len() {
            let mut t = 0.0f64;
            for &v in &coverage[dev[i]] {
                if !taken[v as usize] {
                    taken[v as usize] = true;
                    t = t.max(data(v) / b);
                }
            }
            hover_s[i] = t;
            hover_energy += t * eta_h;
        }
        let energy = hover_energy + tour_length(&pts) * per_m;
        if energy <= capacity || pts.len() <= 1 {
            break;
        }
        out.energies.push(energy);
        out.exhaustive_evals += (pts.len() - 1) as u64;
        out.lazy_evals += dirty as u64;
        let mut covering = vec![0u32; n];
        for &d in &dev[1..] {
            for &v in &coverage[d] {
                covering[v as usize] += 1;
            }
        }
        let mut best = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        for i in 1..pts.len() {
            let lost: f64 = coverage[dev[i]]
                .iter()
                .filter(|&&v| covering[v as usize] == 1)
                .map(|&v| data(v))
                .sum();
            let k = pts.len();
            let removal = if k <= 2 {
                tour_length(&pts)
            } else {
                let (p, c, q) = (pts[(i + k - 1) % k], pts[i], pts[(i + 1) % k]);
                p.distance(c) + c.distance(q) - p.distance(q)
            };
            let saved = removal * per_m + hover_s[i] * eta_h;
            let ratio = lost / saved.max(1e-12);
            if ratio < best_ratio {
                best_ratio = ratio;
                best = i;
            }
        }
        if best == usize::MAX {
            break;
        }
        let removed = dev[best];
        pts.remove(best);
        dev.remove(best);
        // Stops whose loss the removal changed: coverers of a device the
        // removed stop leaves with a single coverer.
        let mut marked = vec![false; pts.len()];
        for &v in &coverage[removed] {
            if covering[v as usize] == 2 {
                for (i, &d) in dev.iter().enumerate().skip(1) {
                    if coverage[v as usize].contains(&(d as u32)) {
                        marked[i] = true;
                    }
                }
            }
        }
        dirty = marked.iter().filter(|&&m| m).count();
    }
    out
}

/// Plans with both engines and checks them against each other and the
/// replay.
fn assert_engines_agree(s: &Scenario, tag: &str) {
    let (lazy, ls) = BenchmarkPlanner.plan_prepared(s, EngineMode::Lazy, None);
    let (full, fs) = BenchmarkPlanner.plan_prepared(s, EngineMode::Exhaustive, None);
    assert_eq!(
        lazy.fingerprint(),
        full.fingerprint(),
        "{tag}: lazy and exhaustive plans diverge:\n{lazy:?}\nvs\n{full:?}"
    );
    assert_eq!(lazy, full, "{tag}: plans diverge");
    if s.num_devices() == 0 {
        return;
    }
    let r = replay(s);
    let (l, f) = (ls.counters, fs.counters);
    assert_eq!(f.iterations, r.iterations, "{tag}: exhaustive iterations");
    assert_eq!(l.iterations, r.iterations, "{tag}: lazy iterations");
    assert_eq!(
        f.evaluations, r.exhaustive_evals,
        "{tag}: exhaustive evaluations"
    );
    assert_eq!(
        f.marginal_evals, r.exhaustive_evals,
        "{tag}: exhaustive marginal_evals"
    );
    assert_eq!(l.evaluations, r.lazy_evals, "{tag}: lazy evaluations");
    assert_eq!(l.marginal_evals, r.lazy_evals, "{tag}: lazy marginal_evals");
}

/// The same layout at battery `capacity`.
fn with_capacity(s: &Scenario, capacity: f64) -> Scenario {
    let mut s = s.clone();
    s.uav.capacity = Joules(capacity);
    s
}

/// Checks the layout at the exact energy of the intermediate tour picked
/// by `pick` (a fraction of the removal sequence) and one ulp either
/// side, plus at 0 J, which prunes down to the depot.
fn assert_boundaries_agree(s: &Scenario, pick: f64, tag: &str) {
    let energies = replay(&with_capacity(s, -1.0)).energies;
    let k = ((energies.len() as f64 - 1.0) * pick).round().max(0.0) as usize;
    if let Some(&e) = energies.get(k) {
        for c in [e.next_down(), e, e.next_up()] {
            assert_engines_agree(&with_capacity(s, c), &format!("{tag} at E[{k}] {c:e}"));
        }
    }
    assert_engines_agree(&with_capacity(s, 0.0), &format!("{tag} at 0 J"));
}

fn device() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.0f64..200.0, 0.0f64..200.0, 0.0f64..1000.0)
}

/// Devices on a half-integer lattice with data from a short list, so
/// edges, deltas and losses repeat exactly.
fn lattice_device() -> impl Strategy<Value = (f64, f64, f64)> {
    (0u32..60, 0u32..6, 0usize..4).prop_map(|(x, y, d)| {
        let x = f64::from(x) / 2.0 + 10.0;
        (x, f64::from(y) / 2.0 + 10.0, [0.0, 150.0, 300.0, 600.0][d])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn uniform_layouts_agree(
        devices in proptest::collection::vec(device(), 1..40),
        r0 in 5.0f64..40.0,
        frac in 0.0f64..1.2,
        pick in 0.0f64..1.0,
    ) {
        let s = scenario(&devices, r0, 0.0);
        let full = replay(&with_capacity(&s, -1.0)).energies.first().copied().unwrap_or(0.0);
        assert_engines_agree(&with_capacity(&s, full * frac), "uniform");
        assert_boundaries_agree(&s, pick, "uniform");
    }

    #[test]
    fn half_integer_lattices_break_ties_by_tour_position(
        devices in proptest::collection::vec(lattice_device(), 1..40),
        r0 in (0usize..5).prop_map(|i| [0.5, 1.0, 1.5, 2.0, 3.0][i]),
        frac in 0.0f64..1.0,
        pick in 0.0f64..1.0,
    ) {
        let s = scenario(&devices, r0, 0.0);
        let full = replay(&with_capacity(&s, -1.0)).energies.first().copied().unwrap_or(0.0);
        assert_engines_agree(&with_capacity(&s, full * frac), "lattice");
        assert_boundaries_agree(&s, pick, "lattice");
    }

    #[test]
    fn coincident_devices_agree(
        sites in proptest::collection::vec(device(), 1..6),
        picks in proptest::collection::vec((0usize..6, 0usize..4), 1..30),
        r0 in 1.0f64..30.0,
        pick in 0.0f64..1.0,
    ) {
        let devices: Vec<(f64, f64, f64)> = picks
            .iter()
            .map(|&(i, d)| {
                let (x, y, _) = sites[i % sites.len()];
                (x, y, [0.0, 0.0, 200.0, 500.0][d])
            })
            .collect();
        let s = scenario(&devices, r0, 0.0);
        assert_boundaries_agree(&s, pick, "coincident");
    }

    #[test]
    fn tiny_instances_agree(
        devices in proptest::collection::vec(device(), 1..4),
        r0 in 1.0f64..250.0,
        capacity in 0.0f64..20_000.0,
        pick in 0.0f64..1.0,
    ) {
        let s = scenario(&devices, r0, capacity);
        assert_engines_agree(&s, "tiny");
        assert_boundaries_agree(&s, pick, "tiny");
    }
}

#[test]
fn empty_scenario_agrees() {
    assert_engines_agree(&scenario(&[], 20.0, 1000.0), "empty");
}
