//! Post-optimisation of finished plans.
//!
//! Planners emit feasible plans whose stop *sets* are fixed; this module
//! squeezes the remaining slack out of the stop *order* with 2-opt and
//! Or-opt moves over the closed tour (depot fixed). Reordering never
//! changes what is collected, only the travel length — so a polished plan
//! is feasible whenever the input was, with strictly less (or equal)
//! energy. The freed energy is returned so callers can try to extend the
//! plan further.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes tour positions of the plan it polishes; `polishing_any_planner_preserves_collection_and_feasibility` checks it"
)]

use crate::plan::CollectionPlan;
use uavdc_geom::Point2;
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

/// Reorders the plan's stops in place (2-opt + Or-opt over the closed
/// tour through the depot) and returns the travel energy saved.
pub fn polish_plan(plan: &mut CollectionPlan, scenario: &Scenario) -> Joules {
    let n = plan.stops.len();
    if n < 3 {
        return Joules::ZERO;
    }
    let before = plan.travel_energy(scenario);
    // Tour as (position, stop index) with the depot at slot 0.
    let mut tour: Vec<(Point2, usize)> = Vec::with_capacity(n + 1);
    tour.push((scenario.depot, usize::MAX));
    tour.extend(plan.stops.iter().enumerate().map(|(i, s)| (s.pos, i)));

    let mut improved = true;
    let mut sweeps = 0;
    while improved && sweeps < 60 {
        improved = false;
        sweeps += 1;
        improved |= two_opt_pass(&mut tour);
        improved |= or_opt_pass(&mut tour);
    }

    let order: Vec<usize> = tour.iter().skip(1).map(|&(_, i)| i).collect();
    let stops = std::mem::take(&mut plan.stops);
    let mut slots: Vec<Option<crate::plan::HoverStop>> = stops.into_iter().map(Some).collect();
    #[expect(
        clippy::expect_used,
        reason = "order is a permutation of stop indices by construction"
    )]
    let reordered = order
        .into_iter()
        .map(|i| slots[i].take().expect("each stop appears once in the tour"))
        .collect();
    plan.stops = reordered;
    (before - plan.travel_energy(scenario)).clamp_non_negative()
}

fn two_opt_pass(tour: &mut [(Point2, usize)]) -> bool {
    let n = tour.len();
    let mut improved = false;
    for i in 0..n - 1 {
        for j in (i + 2)..n {
            if i == 0 && j == n - 1 {
                continue;
            }
            let (a, b) = (tour[i].0, tour[i + 1].0);
            let (c, d) = (tour[j].0, tour[(j + 1) % n].0);
            if a.distance(c) + b.distance(d) < a.distance(b) + c.distance(d) - 1e-10 {
                tour[i + 1..=j].reverse();
                improved = true;
            }
        }
    }
    improved
}

fn or_opt_pass(tour: &mut Vec<(Point2, usize)>) -> bool {
    let n = tour.len();
    if n < 5 {
        return false;
    }
    let mut improved = false;
    for seg_len in 1..=3usize.min(n - 3) {
        // Segment starts after the depot; never move slot 0.
        let mut start = 1;
        while start + seg_len <= tour.len() {
            let nn = tour.len();
            let prev = tour[start - 1].0;
            let next = tour[(start + seg_len) % nn].0;
            let first = tour[start].0;
            let last = tour[start + seg_len - 1].0;
            let gain = prev.distance(first) + last.distance(next) - prev.distance(next);
            if gain <= 1e-10 {
                start += 1;
                continue;
            }
            // Remove the segment, find best re-insertion.
            let seg: Vec<(Point2, usize)> = tour.drain(start..start + seg_len).collect();
            let m = tour.len();
            let mut best_cost = f64::INFINITY;
            let mut best_pos = start;
            let mut best_rev = false;
            for k in 0..m {
                let a = tour[k].0;
                let b = tour[(k + 1) % m].0;
                let fwd = a.distance(seg[0].0) + seg[seg_len - 1].0.distance(b) - a.distance(b);
                let rev = a.distance(seg[seg_len - 1].0) + seg[0].0.distance(b) - a.distance(b);
                if fwd < best_cost {
                    best_cost = fwd;
                    best_pos = k + 1;
                    best_rev = false;
                }
                if rev < best_cost {
                    best_cost = rev;
                    best_pos = k + 1;
                    best_rev = true;
                }
            }
            if best_cost < gain - 1e-10 {
                let mut seg = seg;
                if best_rev {
                    seg.reverse();
                }
                for (off, item) in seg.into_iter().enumerate() {
                    tour.insert(best_pos + off, item);
                }
                improved = true;
                // Restart this segment length after a change.
                start = 1;
            } else {
                // Put it back where it was.
                for (off, item) in seg.into_iter().enumerate() {
                    tour.insert(start + off, item);
                }
                start += 1;
            }
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::HoverStop;
    use crate::validate::{check_plan, Profile};
    use uavdc_geom::Aabb;
    use uavdc_net::units::{MegaBytes, MegaBytesPerSecond, Meters, Seconds};
    use uavdc_net::{DeviceId, IotDevice, RadioModel, UavSpec};

    fn scenario() -> Scenario {
        Scenario {
            region: Aabb::square(100.0),
            devices: (0..6)
                .map(|i| IotDevice {
                    pos: Point2::new(10.0 + 15.0 * i as f64, if i % 2 == 0 { 20.0 } else { 80.0 }),
                    data: MegaBytes(150.0),
                })
                .collect(),
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(Meters(10.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: uavdc_net::units::Joules(1.0e6),
                ..UavSpec::paper_default()
            },
        }
    }

    fn zigzag_plan(s: &Scenario) -> CollectionPlan {
        // Visit devices in index order: a zig-zag between y=20 and y=80.
        CollectionPlan {
            stops: s
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| HoverStop {
                    pos: d.pos,
                    sojourn: Seconds(1.0),
                    collected: vec![(DeviceId(i as u32), d.data)],
                })
                .collect(),
        }
    }

    #[test]
    fn polishing_shortens_zigzag() {
        let s = scenario();
        let mut plan = zigzag_plan(&s);
        let before = plan.total_energy(&s);
        let volume = plan.collected_volume();
        let saved = polish_plan(&mut plan, &s);
        assert!(saved.value() > 0.0, "zig-zag must be improvable");
        assert!(plan.total_energy(&s).value() < before.value());
        assert_eq!(plan.collected_volume(), volume, "collection untouched");
        check_plan(&s, &plan, Profile::P3Partial).unwrap();
        // Energy bookkeeping consistent.
        assert!(((before - plan.total_energy(&s)).value() - saved.value()).abs() < 1e-9);
    }

    #[test]
    fn polishing_keeps_every_stop_exactly_once() {
        let s = scenario();
        let mut plan = zigzag_plan(&s);
        polish_plan(&mut plan, &s);
        let mut devices: Vec<u32> = plan
            .stops
            .iter()
            .flat_map(|st| st.collected.iter().map(|&(d, _)| d.0))
            .collect();
        devices.sort_unstable();
        assert_eq!(devices, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn small_plans_are_noops() {
        let s = scenario();
        let mut plan = CollectionPlan::empty();
        assert_eq!(polish_plan(&mut plan, &s), Joules::ZERO);
        let mut two = CollectionPlan {
            stops: zigzag_plan(&s).stops[..2].to_vec(),
        };
        assert_eq!(polish_plan(&mut two, &s), Joules::ZERO);
    }

    #[test]
    fn polishing_already_optimal_tour_is_stable() {
        let s = scenario();
        let mut plan = zigzag_plan(&s);
        polish_plan(&mut plan, &s);
        let e1 = plan.total_energy(&s);
        let saved = polish_plan(&mut plan, &s);
        assert!(saved.value() < 1e-9);
        assert!((plan.total_energy(&s).value() - e1.value()).abs() < 1e-9);
    }
}
