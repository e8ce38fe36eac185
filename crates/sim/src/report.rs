//! Post-mission analysis: aggregate statistics and trace export.

use crate::event::SimEvent;
use crate::sim::SimOutcome;
use uavdc_net::units::{megabytes_as_gb, Joules, MegaBytes, Seconds};
use uavdc_net::Scenario;

/// Digest of one simulated mission, for tables and CSV logs.
#[derive(Clone, Debug, PartialEq)]
pub struct MissionReport {
    /// Did the UAV make it home?
    pub completed: bool,
    /// Volume delivered to the depot.
    pub collected: MegaBytes,
    /// Total energy used.
    pub energy_used: Joules,
    /// Hovering share of the energy.
    pub hover_energy: Joules,
    /// Travel share of the energy.
    pub travel_energy: Joules,
    /// Mission duration.
    pub mission_time: Seconds,
    /// Number of hovering stops actually reached.
    pub stops_reached: usize,
    /// Number of flight legs flown (including the return leg).
    pub legs_flown: usize,
    /// Volume-weighted mean *collection latency*: how long, on average, a
    /// delivered megabyte sat on its device after mission start before
    /// being uplinked. Lower = fresher data.
    pub mean_collection_latency: Seconds,
    /// Fraction of the battery left unused (0 for a depleted mission).
    // lint:allow(raw-quantity): dimensionless fraction of capacity (0..1), not joules
    pub energy_headroom: f64,
}

impl MissionReport {
    /// Builds a report from an outcome.
    pub fn new(outcome: &SimOutcome, scenario: &Scenario) -> Self {
        let mut stops = 0;
        let mut legs = 0;
        let mut weighted_latency = 0.0;
        let mut weight = 0.0;
        for e in &outcome.trace.events {
            match e {
                SimEvent::HoverEnded { .. } => stops += 1,
                SimEvent::Departed { .. } => legs += 1,
                SimEvent::Uploaded { t, amount, .. } => {
                    weighted_latency += t.value() * amount.value();
                    weight += amount.value();
                }
                _ => {}
            }
        }
        let capacity = scenario.uav.capacity.value();
        MissionReport {
            completed: outcome.completed,
            collected: outcome.collected,
            energy_used: outcome.energy_used,
            hover_energy: outcome.hover_energy_used,
            travel_energy: outcome.energy_used - outcome.hover_energy_used,
            mission_time: outcome.mission_time,
            stops_reached: stops,
            legs_flown: legs,
            mean_collection_latency: Seconds(if weight > 0.0 {
                weighted_latency / weight
            } else {
                0.0
            }),
            energy_headroom: if outcome.completed && capacity > 0.0 {
                (1.0 - outcome.energy_used.value() / capacity).max(0.0)
            } else {
                0.0
            },
        }
    }
}

impl std::fmt::Display for MissionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "mission {}: {:.2} GB in {:.0} s over {} stops",
            if self.completed {
                "completed"
            } else {
                "ABORTED"
            },
            megabytes_as_gb(self.collected),
            self.mission_time.value(),
            self.stops_reached,
        )?;
        write!(
            f,
            "  energy {:.0} J ({:.0} hover / {:.0} travel), headroom {:.1}%, mean latency {:.0} s",
            self.energy_used.value(),
            self.hover_energy.value(),
            self.travel_energy.value(),
            100.0 * self.energy_headroom,
            self.mean_collection_latency.value(),
        )
    }
}

/// Writes the full event trace as CSV (`time_s,event,x,y,device,amount_mb`).
pub fn write_trace_csv(path: &std::path::Path, outcome: &SimOutcome) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "time_s,event,x,y,device,amount_mb")?;
    for e in &outcome.trace.events {
        match e {
            SimEvent::Departed { t, from, .. } => {
                writeln!(f, "{:.3},departed,{:.2},{:.2},,", t.value(), from.x, from.y)?
            }
            SimEvent::Arrived { t, pos } => {
                writeln!(f, "{:.3},arrived,{:.2},{:.2},,", t.value(), pos.x, pos.y)?
            }
            SimEvent::Uploaded { t, device, amount } => writeln!(
                f,
                "{:.3},uploaded,,,{},{:.3}",
                t.value(),
                device.0,
                amount.value()
            )?,
            SimEvent::HoverEnded { t, pos, .. } => writeln!(
                f,
                "{:.3},hover_ended,{:.2},{:.2},,",
                t.value(),
                pos.x,
                pos.y
            )?,
            SimEvent::BatteryDepleted { t, pos } => writeln!(
                f,
                "{:.3},battery_depleted,{:.2},{:.2},,",
                t.value(),
                pos.x,
                pos.y
            )?,
            SimEvent::ReturnedToDepot { t, .. } => writeln!(f, "{:.3},returned,,,,", t.value())?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SimConfig};
    use uavdc_core::{CollectionPlan, HoverStop};
    use uavdc_geom::{Aabb, Point2};
    use uavdc_net::units::{MegaBytesPerSecond, Meters};
    use uavdc_net::{DeviceId, IotDevice, RadioModel, UavSpec};

    fn scenario() -> Scenario {
        Scenario {
            region: Aabb::square(200.0),
            devices: vec![
                IotDevice {
                    pos: Point2::new(30.0, 40.0),
                    data: MegaBytes(300.0),
                },
                IotDevice {
                    pos: Point2::new(100.0, 40.0),
                    data: MegaBytes(150.0),
                },
            ],
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(Meters(20.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(10_000.0),
                ..UavSpec::paper_default()
            },
        }
    }

    fn plan() -> CollectionPlan {
        CollectionPlan {
            stops: vec![
                HoverStop {
                    pos: Point2::new(30.0, 40.0),
                    sojourn: Seconds(2.0),
                    collected: vec![(DeviceId(0), MegaBytes(300.0))],
                },
                HoverStop {
                    pos: Point2::new(100.0, 40.0),
                    sojourn: Seconds(1.0),
                    collected: vec![(DeviceId(1), MegaBytes(150.0))],
                },
            ],
        }
    }

    #[test]
    fn report_splits_energy_correctly() {
        let s = scenario();
        let out = simulate(&s, &plan(), &SimConfig::default());
        let r = MissionReport::new(&out, &s);
        assert!(r.completed);
        // Hover: 3 s * 150 J/s.
        assert!((r.hover_energy.value() - 450.0).abs() < 1e-9);
        assert!(
            (r.hover_energy.value() + r.travel_energy.value() - r.energy_used.value()).abs() < 1e-9
        );
        assert_eq!(r.stops_reached, 2);
        assert_eq!(r.legs_flown, 3); // two stops + return
        assert!(r.energy_headroom > 0.0 && r.energy_headroom < 1.0);
    }

    #[test]
    fn latency_is_volume_weighted_and_ordered() {
        let s = scenario();
        let out = simulate(&s, &plan(), &SimConfig::default());
        let r = MissionReport::new(&out, &s);
        // First upload finishes at t=5+2, second around t>12: mean must
        // lie between the two upload completion times.
        let times: Vec<f64> = out.trace.uploads().map(|(t, _, _)| t.value()).collect();
        assert_eq!(times.len(), 2);
        assert!(r.mean_collection_latency.value() >= times[0] - 1e-9);
        assert!(r.mean_collection_latency.value() <= times[1] + 1e-9);
    }

    #[test]
    fn aborted_mission_has_no_headroom() {
        let mut s = scenario();
        s.uav.capacity = Joules(100.0);
        let out = simulate(&s, &plan(), &SimConfig::default());
        let r = MissionReport::new(&out, &s);
        assert!(!r.completed);
        assert_eq!(r.energy_headroom, 0.0);
        assert_eq!(r.collected, MegaBytes::ZERO);
    }

    #[test]
    fn trace_csv_round_trips_event_count() {
        let s = scenario();
        let out = simulate(&s, &plan(), &SimConfig::default());
        let dir = std::env::temp_dir().join("uavdc_trace_test");
        let path = dir.join("trace.csv");
        write_trace_csv(&path, &out).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), out.trace.len() + 1);
        assert!(text.starts_with("time_s,event"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn display_mentions_the_essentials() {
        let s = scenario();
        let out = simulate(&s, &plan(), &SimConfig::default());
        let text = MissionReport::new(&out, &s).to_string();
        assert!(text.contains("completed"));
        assert!(text.contains("GB"));
        assert!(text.contains("hover"));
    }
}
