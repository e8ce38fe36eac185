//! Aggregate-node election and data forwarding.
//!
//! The paper's system model (§III.A) starts from a dense deployment of
//! IoT devices, of which some are elected as *aggregate sensor nodes*;
//! every non-aggregate device forwards its sensing data to a neighbouring
//! aggregate node (choosing one when several are in range), and the UAV
//! only ever visits aggregate nodes. This module implements that
//! pre-processing step so scenarios can be generated from raw
//! deployments, not just from hand-placed aggregates.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes device ids it built itself; the module's unit tests check it"
)]

use crate::scenario::IotDevice;
use crate::units::{MegaBytes, Meters};
use uavdc_geom::{cmp_f64, cmp_f64_desc, Point2, SpatialGrid};

/// A raw (pre-aggregation) IoT device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawDevice {
    /// Ground position.
    pub pos: Point2,
    /// Sensing data generated over the collection period.
    pub data: MegaBytes,
}

/// Result of aggregation: the aggregate devices plus bookkeeping about
/// what was forwarded where.
#[derive(Clone, Debug)]
pub struct AggregationOutcome {
    /// The aggregate sensor nodes, each holding its own data plus all the
    /// data forwarded to it.
    pub aggregates: Vec<IotDevice>,
    /// For every raw device, the index (into `aggregates`) it forwards to;
    /// aggregate devices forward to themselves.
    pub assignment: Vec<usize>,
    /// Raw devices with no aggregate within communication range; their
    /// data is stranded and will not be collected (counted so experiments
    /// can report coverage).
    pub stranded: Vec<usize>,
}

impl AggregationOutcome {
    /// Total data volume held by aggregates (collectable).
    pub fn aggregated_data(&self) -> MegaBytes {
        self.aggregates.iter().map(|a| a.data).sum()
    }
}

/// Elects aggregates greedily and forwards data.
///
/// Election: scan devices in order of decreasing data volume; a device
/// becomes an aggregate unless it is already within `comm_range` of an
/// existing aggregate (a classic greedy dominating-set construction —
/// aggregates end up pairwise farther than `comm_range` apart, matching
/// the paper's "sparsely distributed" premise). Forwarding: every
/// non-aggregate sends its data to the *nearest* aggregate within
/// `comm_range`; devices with none in range are reported as stranded.
pub fn aggregate_network(raw: &[RawDevice], comm_range: Meters) -> AggregationOutcome {
    assert!(
        comm_range.is_finite() && comm_range.value() > 0.0,
        "comm_range must be positive"
    );
    let n = raw.len();
    if n == 0 {
        return AggregationOutcome {
            aggregates: Vec::new(),
            assignment: Vec::new(),
            stranded: Vec::new(),
        };
    }
    // Order by decreasing data volume so heavy producers become
    // aggregates and avoid forwarding cost.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp_f64_desc(raw[a].data.value(), raw[b].data.value()));

    let positions: Vec<Point2> = raw.iter().map(|d| d.pos).collect();
    let index = SpatialGrid::build(&positions, comm_range.value().max(1.0));

    let mut is_aggregate = vec![false; n];
    let mut chosen: Vec<usize> = Vec::new();
    for &i in &order {
        let near = index.query_radius(raw[i].pos, comm_range.value());
        if !near.iter().any(|&j| is_aggregate[j]) {
            is_aggregate[i] = true;
            chosen.push(i);
        }
    }
    chosen.sort_unstable();
    let agg_index_of: Vec<Option<usize>> = {
        let mut v = vec![None; n];
        for (k, &i) in chosen.iter().enumerate() {
            v[i] = Some(k);
        }
        v
    };

    let agg_positions: Vec<Point2> = chosen.iter().map(|&i| raw[i].pos).collect();
    let agg_grid = SpatialGrid::build(&agg_positions, comm_range.value().max(1.0));

    let mut volumes: Vec<MegaBytes> = chosen.iter().map(|&i| raw[i].data).collect();
    let mut assignment = vec![usize::MAX; n];
    let mut stranded = Vec::new();
    for i in 0..n {
        if let Some(k) = agg_index_of[i] {
            assignment[i] = k;
            continue;
        }
        // Nearest aggregate within range.
        let near = agg_grid.query_radius(raw[i].pos, comm_range.value());
        if let Some(&k) = near.iter().min_by(|&&a, &&b| {
            cmp_f64(
                agg_positions[a].distance_sq(raw[i].pos),
                agg_positions[b].distance_sq(raw[i].pos),
            )
        }) {
            assignment[i] = k;
            volumes[k] += raw[i].data;
        } else {
            stranded.push(i);
        }
    }

    let aggregates = chosen
        .iter()
        .zip(&volumes)
        .map(|(&i, &data)| IotDevice {
            pos: raw[i].pos,
            data,
        })
        .collect();
    AggregationOutcome {
        aggregates,
        assignment,
        stranded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn raw(x: f64, y: f64, mb: f64) -> RawDevice {
        RawDevice {
            pos: Point2::new(x, y),
            data: MegaBytes(mb),
        }
    }

    #[test]
    fn empty_input() {
        let out = aggregate_network(&[], Meters(10.0));
        assert!(out.aggregates.is_empty());
        assert!(out.stranded.is_empty());
    }

    #[test]
    fn single_device_is_its_own_aggregate() {
        let out = aggregate_network(&[raw(5.0, 5.0, 42.0)], Meters(10.0));
        assert_eq!(out.aggregates.len(), 1);
        assert_eq!(out.aggregates[0].data, MegaBytes(42.0));
        assert_eq!(out.assignment, vec![0]);
    }

    #[test]
    fn close_cluster_collapses_to_heaviest() {
        // Three devices within range: the heaviest becomes the aggregate,
        // the others forward to it.
        let out = aggregate_network(
            &[
                raw(0.0, 0.0, 10.0),
                raw(1.0, 0.0, 99.0),
                raw(0.0, 1.0, 20.0),
            ],
            Meters(5.0),
        );
        assert_eq!(out.aggregates.len(), 1);
        assert_eq!(out.aggregates[0].data, MegaBytes(129.0));
        assert_eq!(out.aggregates[0].pos, Point2::new(1.0, 0.0));
        assert!(out.stranded.is_empty());
    }

    #[test]
    fn far_devices_stay_separate() {
        let out = aggregate_network(&[raw(0.0, 0.0, 10.0), raw(100.0, 0.0, 20.0)], Meters(5.0));
        assert_eq!(out.aggregates.len(), 2);
        assert_eq!(out.aggregated_data(), MegaBytes(30.0));
    }

    #[test]
    fn stranded_device_reported() {
        // Device 2 is out of range of both others AND cannot be an
        // aggregate itself... actually any device with no aggregate in
        // range becomes one, so stranding requires being non-aggregate.
        // With the greedy rule a device is stranded only if an aggregate
        // is within range at election time but not the nearest... which
        // cannot happen. Stranded stays empty by construction here.
        let out = aggregate_network(
            &[raw(0.0, 0.0, 10.0), raw(3.0, 0.0, 5.0), raw(50.0, 0.0, 7.0)],
            Meters(5.0),
        );
        assert!(out.stranded.is_empty());
        assert_eq!(out.aggregates.len(), 2);
    }

    #[test]
    fn forwarding_picks_nearest_aggregate() {
        // Two aggregates far apart; a light device near the second.
        let out = aggregate_network(
            &[
                raw(0.0, 0.0, 100.0),
                raw(30.0, 0.0, 90.0),
                raw(28.0, 0.0, 1.0),
            ],
            Meters(6.0),
        );
        assert_eq!(out.aggregates.len(), 2);
        // Device at 28 forwards to aggregate at 30 (distance 2 < 6).
        let a30 = out
            .aggregates
            .iter()
            .position(|a| (a.pos.x - 30.0).abs() < 1e-9)
            .unwrap();
        assert_eq!(out.assignment[2], a30);
        assert_eq!(out.aggregates[a30].data, MegaBytes(91.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_aggregation_conserves_data(
            devices in proptest::collection::vec(
                ((0.0f64..500.0), (0.0f64..500.0), (1.0f64..100.0)), 1..80),
            range in 10.0f64..120.0,
        ) {
            let raw: Vec<RawDevice> = devices.iter().map(|&(x, y, d)| raw_dev(x, y, d)).collect();
            let total: f64 = raw.iter().map(|d| d.data.value()).sum();
            let out = aggregate_network(&raw, Meters(range));
            let stranded: f64 = out.stranded.iter().map(|&i| raw[i].data.value()).sum();
            let aggregated = out.aggregated_data().value();
            prop_assert!((aggregated + stranded - total).abs() < 1e-6 * (1.0 + total));
            // Aggregates are pairwise farther apart than the range.
            for i in 0..out.aggregates.len() {
                for j in (i + 1)..out.aggregates.len() {
                    prop_assert!(
                        out.aggregates[i].pos.distance(out.aggregates[j].pos) > range - 1e-9
                    );
                }
            }
            // Every non-stranded device is assigned to an in-range aggregate.
            for (i, &a) in out.assignment.iter().enumerate() {
                if a != usize::MAX {
                    prop_assert!(raw[i].pos.distance(out.aggregates[a].pos) <= range + 1e-9);
                }
            }
        }
    }

    fn raw_dev(x: f64, y: f64, mb: f64) -> RawDevice {
        RawDevice {
            pos: Point2::new(x, y),
            data: MegaBytes(mb),
        }
    }
}
