//! Plain-text scenario persistence.
//!
//! A small versioned line format (no external dependencies) so scenarios
//! can be archived, shared, and re-run bit-identically — `f64` values are
//! printed with Rust's shortest round-trip representation:
//!
//! ```text
//! uavdc-scenario v1
//! region <min_x> <min_y> <max_x> <max_y>
//! depot <x> <y>
//! radio <range_m> <bandwidth_mbps>
//! uav <capacity_j> <speed_mps> <hover_w> <travel_w> <altitude_m> <travel_j_per_m|->
//! device <x> <y> <data_mb>        (one line per device)
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "indexes line fields after checking their count; the module's unit tests and `scenario_roundtrip_preserves_planning_results` check it"
)]

use crate::radio::RadioModel;
use crate::scenario::{IotDevice, Scenario, UavSpec};
use crate::units::{
    Joules, JoulesPerMeter, MegaBytes, MegaBytesPerSecond, Meters, MetersPerSecond, Watts,
};
use uavdc_geom::{Aabb, Point2};

/// Errors from [`scenario_from_str`] / [`read_scenario`].
#[derive(Debug)]
pub enum ScenarioIoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The text is not a valid scenario file; the string names the line
    /// and problem.
    Parse(String),
    /// The parsed scenario failed [`Scenario::validate`].
    Invalid(String),
}

impl std::fmt::Display for ScenarioIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioIoError::Io(e) => write!(f, "io error: {e}"),
            ScenarioIoError::Parse(what) => write!(f, "parse error: {what}"),
            ScenarioIoError::Invalid(what) => write!(f, "invalid scenario: {what}"),
        }
    }
}

impl std::error::Error for ScenarioIoError {}

impl From<std::io::Error> for ScenarioIoError {
    fn from(e: std::io::Error) -> Self {
        ScenarioIoError::Io(e)
    }
}

/// Serialises a scenario to the v1 text format.
pub fn scenario_to_string(s: &Scenario) -> String {
    let mut out = String::with_capacity(64 + 32 * s.num_devices());
    out.push_str("uavdc-scenario v1\n");
    out.push_str(&format!(
        "region {} {} {} {}\n",
        s.region.min.x, s.region.min.y, s.region.max.x, s.region.max.y
    ));
    out.push_str(&format!("depot {} {}\n", s.depot.x, s.depot.y));
    out.push_str(&format!(
        "radio {} {}\n",
        s.radio.range.value(),
        s.radio.bandwidth.value()
    ));
    let override_str = match s.uav.travel_energy_override {
        Some(d) => format!("{}", d.value()),
        None => "-".to_string(),
    };
    out.push_str(&format!(
        "uav {} {} {} {} {} {}\n",
        s.uav.capacity.value(),
        s.uav.speed.value(),
        s.uav.hover_power.value(),
        s.uav.travel_power.value(),
        s.uav.altitude.value(),
        override_str,
    ));
    for d in &s.devices {
        out.push_str(&format!(
            "device {} {} {}\n",
            d.pos.x,
            d.pos.y,
            d.data.value()
        ));
    }
    out
}

/// Parses the v1 text format and validates the result.
pub fn scenario_from_str(text: &str) -> Result<Scenario, ScenarioIoError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let err = |n: usize, what: &str| ScenarioIoError::Parse(format!("line {}: {what}", n + 1));

    let (n0, header) = lines
        .next()
        .ok_or_else(|| ScenarioIoError::Parse("empty file".into()))?;
    if header.trim() != "uavdc-scenario v1" {
        return Err(err(n0, "expected header 'uavdc-scenario v1'"));
    }

    fn floats(line: &str, tag: &str, want: usize) -> Option<Vec<f64>> {
        let mut it = line.split_whitespace();
        if it.next() != Some(tag) {
            return None;
        }
        let vals: Option<Vec<f64>> = it.map(|t| t.parse().ok()).collect();
        vals.filter(|v| v.len() == want)
    }

    let (n1, region_line) = lines
        .next()
        .ok_or_else(|| ScenarioIoError::Parse("missing region".into()))?;
    let r = floats(region_line, "region", 4).ok_or_else(|| err(n1, "bad region line"))?;
    let (n2, depot_line) = lines
        .next()
        .ok_or_else(|| ScenarioIoError::Parse("missing depot".into()))?;
    let d = floats(depot_line, "depot", 2).ok_or_else(|| err(n2, "bad depot line"))?;
    let (n3, radio_line) = lines
        .next()
        .ok_or_else(|| ScenarioIoError::Parse("missing radio".into()))?;
    let ra = floats(radio_line, "radio", 2).ok_or_else(|| err(n3, "bad radio line"))?;
    let (n4, uav_line) = lines
        .next()
        .ok_or_else(|| ScenarioIoError::Parse("missing uav".into()))?;
    // The override slot may be '-' so parse by hand.
    let toks: Vec<&str> = uav_line.split_whitespace().collect();
    if toks.len() != 7 || toks[0] != "uav" {
        return Err(err(n4, "bad uav line (want 'uav' + 6 fields)"));
    }
    let uav_nums: Option<Vec<f64>> = toks[1..6].iter().map(|t| t.parse().ok()).collect();
    let uav_nums = uav_nums.ok_or_else(|| err(n4, "bad uav numbers"))?;
    let override_v = match toks[6] {
        "-" => None,
        t => Some(JoulesPerMeter(
            t.parse().map_err(|_| err(n4, "bad travel override"))?,
        )),
    };

    let mut devices = Vec::new();
    for (n, line) in lines {
        let v = floats(line, "device", 3).ok_or_else(|| err(n, "bad device line"))?;
        devices.push(IotDevice {
            pos: Point2::new(v[0], v[1]),
            data: MegaBytes(v[2]),
        });
    }

    let scenario = Scenario {
        region: Aabb::new(Point2::new(r[0], r[1]), Point2::new(r[2], r[3])),
        devices,
        depot: Point2::new(d[0], d[1]),
        radio: RadioModel::new(Meters(ra[0]), MegaBytesPerSecond(ra[1])),
        uav: UavSpec {
            capacity: Joules(uav_nums[0]),
            speed: MetersPerSecond(uav_nums[1]),
            hover_power: Watts(uav_nums[2]),
            travel_power: Watts(uav_nums[3]),
            altitude: Meters(uav_nums[4]),
            travel_energy_override: override_v,
        },
    };
    scenario.validate().map_err(ScenarioIoError::Invalid)?;
    Ok(scenario)
}

/// Writes a scenario file (creating parent directories).
pub fn write_scenario(path: &std::path::Path, s: &Scenario) -> Result<(), ScenarioIoError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, scenario_to_string(s))?;
    Ok(())
}

/// Reads and validates a scenario file.
pub fn read_scenario(path: &std::path::Path) -> Result<Scenario, ScenarioIoError> {
    scenario_from_str(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{uniform, ScenarioParams};

    #[test]
    fn roundtrip_is_bit_exact() {
        let s = uniform(&ScenarioParams::default().scaled(0.05), 9);
        let text = scenario_to_string(&s);
        let back = scenario_from_str(&text).unwrap();
        assert_eq!(back.depot, s.depot);
        assert_eq!(back.region, s.region);
        assert_eq!(back.radio, s.radio);
        assert_eq!(back.uav, s.uav);
        assert_eq!(back.devices.len(), s.devices.len());
        for (a, b) in back.devices.iter().zip(&s.devices) {
            assert_eq!(a, b, "device round-trip drifted");
        }
        // And the re-serialisation is identical.
        assert_eq!(scenario_to_string(&back), text);
    }

    #[test]
    fn physical_spec_roundtrips_none_override() {
        let mut s = uniform(&ScenarioParams::default().scaled(0.02), 1);
        s.uav.travel_energy_override = None;
        let back = scenario_from_str(&scenario_to_string(&s)).unwrap();
        assert_eq!(back.uav.travel_energy_override, None);
    }

    #[test]
    fn file_roundtrip() {
        let s = uniform(&ScenarioParams::default().scaled(0.02), 3);
        let dir = std::env::temp_dir().join("uavdc_io_test");
        let path = dir.join("scenario.txt");
        write_scenario(&path, &s).unwrap();
        let back = read_scenario(&path).unwrap();
        assert_eq!(back.devices, s.devices);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            scenario_from_str("nonsense v9\n"),
            Err(ScenarioIoError::Parse(_))
        ));
        assert!(matches!(
            scenario_from_str(""),
            Err(ScenarioIoError::Parse(_))
        ));
    }

    #[test]
    fn rejects_malformed_lines() {
        let s = uniform(&ScenarioParams::default().scaled(0.02), 1);
        let good = scenario_to_string(&s);
        // Corrupt the radio line.
        let bad = good.replace("radio ", "radio oops ");
        assert!(matches!(
            scenario_from_str(&bad),
            Err(ScenarioIoError::Parse(_))
        ));
        // Drop a required field from a device line.
        let device_line = good.lines().find(|l| l.starts_with("device")).unwrap();
        let trimmed = device_line.rsplit_once(' ').unwrap().0;
        let bad2 = good.replace(device_line, trimmed);
        assert!(matches!(
            scenario_from_str(&bad2),
            Err(ScenarioIoError::Parse(_))
        ));
    }

    #[test]
    fn rejects_physically_invalid_scenarios() {
        let s = uniform(&ScenarioParams::default().scaled(0.02), 1);
        // Device outside the region.
        let text = scenario_to_string(&s) + "device 99999 0 10\n";
        assert!(matches!(
            scenario_from_str(&text),
            Err(ScenarioIoError::Invalid(_))
        ));
    }

    #[test]
    fn error_display_names_the_line() {
        let s = uniform(&ScenarioParams::default().scaled(0.02), 1);
        let bad = scenario_to_string(&s).replace("depot ", "depot x ");
        let e = scenario_from_str(&bad).unwrap_err();
        assert!(e.to_string().contains("line 3"), "got: {e}");
    }
}
