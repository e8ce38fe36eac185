//! Collection plans and their energy and time accounting; the checker
//! is [`check_plan`](crate::validate::check_plan).

use uavdc_geom::Point2;
use uavdc_net::units::{Joules, MegaBytes, Meters, Seconds};
use uavdc_net::{DeviceId, Scenario};

/// One hovering stop of a plan.
#[derive(Clone, Debug, PartialEq)]
pub struct HoverStop {
    /// Projected hovering position.
    pub pos: Point2,
    /// Sojourn duration at this stop.
    pub sojourn: Seconds,
    /// What is collected here: device and amount. All listed devices must
    /// be within coverage radius of `pos`, each amount within what the
    /// device holds and what the sojourn's bandwidth allows.
    pub collected: Vec<(DeviceId, MegaBytes)>,
}

impl HoverStop {
    /// Total volume collected at this stop.
    pub fn volume(&self) -> MegaBytes {
        self.collected.iter().map(|&(_, v)| v).sum()
    }
}

/// A closed data-collection tour: depot → stops in order → depot.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionPlan {
    /// Hovering stops in visiting order (depot not included).
    pub stops: Vec<HoverStop>,
}

impl CollectionPlan {
    /// The empty plan: stay at the depot, collect nothing.
    pub fn empty() -> Self {
        CollectionPlan { stops: Vec::new() }
    }

    /// Total collected volume, summed over stops.
    pub fn collected_volume(&self) -> MegaBytes {
        self.stops.iter().map(HoverStop::volume).sum()
    }

    /// Ground length of the closed tour depot → stops → depot.
    pub fn travel_length(&self, scenario: &Scenario) -> Meters {
        if self.stops.is_empty() {
            return Meters::ZERO;
        }
        let mut len = 0.0;
        let mut prev = scenario.depot;
        for s in &self.stops {
            len += prev.distance(s.pos);
            prev = s.pos;
        }
        len += prev.distance(scenario.depot);
        Meters(len)
    }

    /// Energy spent flying the tour.
    pub fn travel_energy(&self, scenario: &Scenario) -> Joules {
        scenario.uav.travel_energy(self.travel_length(scenario))
    }

    /// Energy spent hovering, over all stops.
    pub fn hover_energy(&self, scenario: &Scenario) -> Joules {
        self.stops
            .iter()
            .map(|s| scenario.uav.hover_energy(s.sojourn))
            .sum()
    }

    /// Total energy demand of the plan.
    pub fn total_energy(&self, scenario: &Scenario) -> Joules {
        self.travel_energy(scenario) + self.hover_energy(scenario)
    }

    /// Total mission duration: flight time plus hover time.
    pub fn duration(&self, scenario: &Scenario) -> Seconds {
        let flight = self.travel_length(scenario) / scenario.uav.speed;
        let hover: Seconds = self.stops.iter().map(|s| s.sojourn).sum();
        flight + hover
    }

    /// Order-sensitive 64-bit fingerprint of the full plan content.
    ///
    /// FNV-1a over every stop's position, sojourn, and collection list,
    /// folding each `f64` in as its exact IEEE-754 bit pattern — two plans
    /// hash equal iff they are bit-identical, which is the equality the
    /// bench-compare gate needs (the planners are deterministic, so any
    /// drift is a real behaviour change, not float noise).
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.stops.len() as u64);
        for stop in &self.stops {
            mix(stop.pos.x.to_bits());
            mix(stop.pos.y.to_bits());
            // lint:allow(unit-unwrap): hashing the exact bit pattern, not arithmetic
            mix(stop.sojourn.value().to_bits());
            mix(stop.collected.len() as u64);
            for &(dev, amount) in &stop.collected {
                mix(u64::from(dev.0));
                // lint:allow(unit-unwrap): hashing the exact bit pattern, not arithmetic
                mix(amount.value().to_bits());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_geom::Aabb;
    use uavdc_net::units::{MegaBytesPerSecond, Meters as M, Watts};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario() -> Scenario {
        Scenario {
            region: Aabb::square(200.0),
            devices: vec![
                IotDevice {
                    pos: Point2::new(50.0, 50.0),
                    data: MegaBytes(300.0),
                },
                IotDevice {
                    pos: Point2::new(150.0, 150.0),
                    data: MegaBytes(600.0),
                },
            ],
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(M(50.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(50_000.0),
                speed: uavdc_net::units::MetersPerSecond(10.0),
                hover_power: Watts(150.0),
                travel_power: Watts(100.0),
                altitude: M(0.0),
                travel_energy_override: None,
            },
        }
    }

    fn good_plan() -> CollectionPlan {
        CollectionPlan {
            stops: vec![
                HoverStop {
                    pos: Point2::new(50.0, 50.0),
                    sojourn: Seconds(2.0),
                    collected: vec![(DeviceId(0), MegaBytes(300.0))],
                },
                HoverStop {
                    pos: Point2::new(150.0, 150.0),
                    sojourn: Seconds(4.0),
                    collected: vec![(DeviceId(1), MegaBytes(600.0))],
                },
            ],
        }
    }

    #[test]
    fn empty_plan_is_free() {
        let s = scenario();
        let p = CollectionPlan::empty();
        assert_eq!(p.total_energy(&s), Joules::ZERO);
        assert_eq!(p.collected_volume(), MegaBytes::ZERO);
        assert_eq!(p.duration(&s), Seconds::ZERO);
    }

    #[test]
    fn travel_geometry() {
        let s = scenario();
        let p = good_plan();
        let expect = Point2::new(0.0, 0.0).distance(Point2::new(50.0, 50.0))
            + Point2::new(50.0, 50.0).distance(Point2::new(150.0, 150.0))
            + Point2::new(150.0, 150.0).distance(Point2::new(0.0, 0.0));
        assert!((p.travel_length(&s).value() - expect).abs() < 1e-9);
        // 10 J per metre.
        assert!((p.travel_energy(&s).value() - 10.0 * expect).abs() < 1e-6);
        // Hover: (2 + 4) s * 150 J/s.
        assert_eq!(p.hover_energy(&s), Joules(900.0));
    }

    #[test]
    fn duration_combines_flight_and_hover() {
        let s = scenario();
        let p = good_plan();
        let flight = p.travel_length(&s).value() / 10.0;
        assert!((p.duration(&s).value() - flight - 6.0).abs() < 1e-9);
    }

    #[test]
    fn collected_volume_sums_every_stop() {
        assert_eq!(good_plan().collected_volume(), MegaBytes(900.0));
    }

    #[test]
    fn fingerprint_separates_plans() {
        let p = good_plan();
        assert_eq!(p.fingerprint(), good_plan().fingerprint());
        assert_ne!(p.fingerprint(), CollectionPlan::empty().fingerprint());
        let mut reordered = good_plan();
        reordered.stops.reverse();
        assert_ne!(p.fingerprint(), reordered.fingerprint(), "order matters");
        let mut nudged = good_plan();
        nudged.stops[0].sojourn = Seconds(2.0 + 1e-12);
        assert_ne!(p.fingerprint(), nudged.fingerprint(), "bit-level change");
    }
}
