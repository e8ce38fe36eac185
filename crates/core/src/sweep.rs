//! Sweep-coverage baseline: a planner that ignores where the data is.
//!
//! Lays hovering stops on a boustrophedon (serpentine) lattice with rows
//! spaced `√2·R0` apart — the widest spacing whose square cells stay
//! fully covered — hovers at every stop long enough to drain all newly
//! covered devices, and truncates the sweep when the battery runs out.
//! A classic area-coverage strategy and a useful second baseline: it
//! shows how much the paper's data-aware planning actually buys over
//! blind coverage.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes device and stop ids it built itself; the sweep tests in `tests/extensions.rs` and `validate_props` check it"
)]

use crate::plan::{CollectionPlan, HoverStop};
use crate::Planner;
use uavdc_geom::{Point2, SpatialGrid};
use uavdc_net::units::Seconds;
use uavdc_net::{DeviceId, Scenario};

/// The sweep-coverage planner (no configuration; the lattice pitch is
/// derived from the coverage radius).
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepPlanner;

impl Planner for SweepPlanner {
    fn name(&self) -> &'static str {
        "Sweep coverage (boustrophedon)"
    }

    fn plan(&self, scenario: &Scenario) -> CollectionPlan {
        if scenario.num_devices() == 0 {
            return CollectionPlan::empty();
        }
        let r0 = scenario.coverage_radius().value();
        // √2·R0 is the exact covering pitch; back off 1% so cell-corner
        // devices are strictly inside coverage despite float rounding.
        let pitch = (r0 * std::f64::consts::SQRT_2 * 0.99).max(1e-6);
        let region = &scenario.region;
        let b = scenario.radio.bandwidth.value();
        let eta_h = scenario.uav.hover_power.value();
        let per_m = scenario.uav.travel_energy_per_meter().value();
        let capacity = scenario.uav.capacity.value();

        // Serpentine lattice of stop positions covering the region.
        let cols = (region.width() / pitch).ceil() as usize;
        let rows = (region.height() / pitch).ceil() as usize;
        let mut lattice = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            let y = region.min.y + (row as f64 + 0.5) * pitch;
            let xs: Vec<f64> = (0..cols)
                .map(|c| region.min.x + (c as f64 + 0.5) * pitch)
                .collect();
            if row % 2 == 0 {
                lattice.extend(xs.iter().map(|&x| Point2::new(x, y)));
            } else {
                lattice.extend(xs.iter().rev().map(|&x| Point2::new(x, y)));
            }
        }

        let positions = scenario.device_positions();
        let index = SpatialGrid::build(&positions, r0.max(1.0));
        let mut taken = vec![false; scenario.num_devices()];
        let mut stops: Vec<HoverStop> = Vec::new();
        let mut pos = scenario.depot;
        let mut energy = 0.0f64;
        for lp in lattice {
            // Marginal devices at this lattice stop.
            let mut new_devices = Vec::new();
            let mut sojourn = 0.0f64;
            for i in index.query_radius(lp, r0) {
                if !taken[i] {
                    new_devices.push(i);
                    sojourn = sojourn.max(positions_data(scenario, i) / b);
                }
            }
            if new_devices.is_empty() {
                continue; // skip empty cells entirely (no travel spent)
            }
            // Budget check: leg there + hover + direct return to depot.
            let leg = pos.distance(lp);
            let back = lp.distance(scenario.depot);
            let cost_here = leg * per_m + sojourn * eta_h;
            if energy + cost_here + back * per_m > capacity {
                continue; // try later (cheaper) stops on the serpentine
            }
            for &i in &new_devices {
                taken[i] = true;
            }
            stops.push(HoverStop {
                pos: lp,
                sojourn: Seconds(sojourn),
                collected: new_devices
                    .iter()
                    .map(|&i| (DeviceId(i as u32), scenario.devices[i].data))
                    .collect(),
            });
            energy += cost_here;
            pos = lp;
        }
        let plan = CollectionPlan { stops };
        crate::validate::debug_check_plan(
            "SweepPlanner",
            scenario,
            &plan,
            crate::validate::Profile::P1FullDisjoint,
        );
        plan
    }
}

fn positions_data(scenario: &Scenario, i: usize) -> f64 {
    scenario.devices[i].data.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{check_plan, Profile};
    use crate::{Alg2Planner, Planner};
    use uavdc_geom::Aabb;
    use uavdc_net::units::{Joules, MegaBytes, MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario(capacity: f64, n: usize) -> Scenario {
        Scenario {
            region: Aabb::square(300.0),
            devices: (0..n)
                .map(|i| IotDevice {
                    pos: Point2::new(((i * 71) % 300) as f64, ((i * 113) % 300) as f64),
                    data: MegaBytes(100.0 + ((i * 37) % 800) as f64),
                })
                .collect(),
            depot: Point2::new(150.0, 150.0),
            radio: RadioModel::new(Meters(40.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(capacity),
                ..UavSpec::paper_eval()
            },
        }
    }

    #[test]
    fn generous_budget_covers_every_device() {
        let s = scenario(1.0e6, 30);
        let plan = SweepPlanner.plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        // Summation order differs, so compare within float tolerance.
        assert!(
            (plan.collected_volume().value() - s.total_data().value()).abs() < 1e-6,
            "collected {} of {}",
            plan.collected_volume(),
            s.total_data()
        );
    }

    #[test]
    fn constrained_budget_stays_feasible() {
        for cap in [1000.0, 20_000.0, 80_000.0] {
            let s = scenario(cap, 40);
            let plan = SweepPlanner.plan(&s);
            check_plan(&s, &plan, Profile::P1FullDisjoint)
                .unwrap_or_else(|e| panic!("cap {cap}: {e}"));
        }
    }

    #[test]
    fn data_aware_planning_beats_blind_sweep_when_constrained() {
        // The whole point of the paper: Algorithm 2 should beat blind
        // coverage on a constrained budget.
        let s = scenario(60_000.0, 50);
        let sweep = SweepPlanner.plan(&s);
        let alg2 = Alg2Planner::default().plan(&s);
        assert!(
            alg2.collected_volume().value() >= sweep.collected_volume().value(),
            "alg2 {} < sweep {}",
            alg2.collected_volume(),
            sweep.collected_volume()
        );
    }

    #[test]
    fn empty_cells_are_skipped() {
        // All devices in one corner: the sweep must not hover over the
        // empty remainder of the region.
        let mut s = scenario(1.0e6, 0);
        s.devices = (0..5)
            .map(|i| IotDevice {
                pos: Point2::new(10.0 + 5.0 * i as f64, 10.0),
                data: MegaBytes(200.0),
            })
            .collect();
        let plan = SweepPlanner.plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert!(
            plan.stops.len() <= 3,
            "too many stops: {}",
            plan.stops.len()
        );
        assert_eq!(plan.collected_volume(), MegaBytes(1000.0));
    }

    #[test]
    fn empty_scenario() {
        let mut s = scenario(1000.0, 1);
        s.devices.clear();
        assert!(SweepPlanner.plan(&s).stops.is_empty());
    }
}
