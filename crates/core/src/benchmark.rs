//! The paper's benchmark heuristic (§VII.A).
//!
//! Build a Christofides tour over *all* aggregate sensor nodes; if its
//! hovering + travel energy exceeds the battery, repeatedly remove the
//! tour node whose removal loses the least data volume per unit of energy
//! saved, until feasible.
//!
//! Collection follows the same physical framework as the planners: the
//! UAV hovering above a node receives from *every* device within coverage
//! radius `R0` simultaneously, each device being collected at its first
//! covering stop in tour order (this is what reproduces the paper's
//! benchmark magnitudes — e.g. ≈ 74 GB at `E = 3·10⁵ J` in Fig. 4 — which
//! single-node collection undershoots by ~3x). The pruning ratio uses the
//! *marginal* data loss of removing a stop: data nobody else on the tour
//! still covers.

use crate::greedy::{EngineMode, EvalCounters, PlanStats};
use crate::plan::{CollectionPlan, HoverStop};
use crate::tourutil::{apply_order, christofides_order_obs, closed_tour_length, removal_delta};
use crate::Planner;
use uavdc_geom::{Point2, SpatialGrid};
use uavdc_net::units::Seconds;
use uavdc_net::{DeviceId, Scenario};
use uavdc_obs::{Recorder, Span};

/// The benchmark planner (no configuration; [`Planner::plan`] uses the
/// incremental pruning engine, [`BenchmarkPlanner::plan_with_stats`]
/// selects the engine explicitly).
#[derive(Clone, Copy, Debug, Default)]
pub struct BenchmarkPlanner;

/// The benchmark pruner's capacity-independent setup artifact: per-device
/// coverage lists plus the initial Christofides tour over depot + all
/// devices. Depends only on the scenario *layout* (positions, coverage
/// radius), never on the battery, so capacity sweeps over one instance
/// can share it through an [`ArtifactCache`](crate::ArtifactCache)
/// keyed by `Scenario::layout_fingerprint`.
#[derive(Clone, Debug)]
pub struct BenchmarkSetup {
    /// Devices within `R0` of each device's position (by device index).
    coverage: Vec<Vec<u32>>,
    /// Initial tour positions in Christofides order; index 0 is the depot.
    pts: Vec<Point2>,
    /// Device hovered above per tour index (`usize::MAX` for the depot).
    dev_of: Vec<usize>,
}

impl BenchmarkSetup {
    /// Builds the artifact, reporting the Christofides sub-spans to
    /// `rec`. Requires a non-empty scenario (the planner's empty-scenario
    /// early return never consults the artifact).
    pub fn build_obs(scenario: &Scenario, rec: &dyn Recorder) -> Self {
        let n = scenario.num_devices();
        let r0 = scenario.coverage_radius().value();

        // Coverage lists per device position.
        let positions = scenario.device_positions();
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

        // Initial Christofides tour over depot + all devices (polished
        // once up front; the pruning loop then only removes nodes, so its
        // per-iteration cost shrinks as the battery grows — the runtime
        // shape the paper reports).
        let mut pts: Vec<Point2> = Vec::with_capacity(n + 1);
        pts.push(scenario.depot);
        pts.extend(positions.iter().copied());
        let order = christofides_order_obs(&pts, rec);
        let pts = apply_order(&pts, &order);
        let dev_of: Vec<usize> = order
            .iter()
            .map(|&i| if i == 0 { usize::MAX } else { i - 1 })
            .collect();
        BenchmarkSetup {
            coverage,
            pts,
            dev_of,
        }
    }

    /// Builds the artifact without instrumentation.
    pub fn build(scenario: &Scenario) -> Self {
        BenchmarkSetup::build_obs(scenario, &uavdc_obs::NOOP)
    }

    /// Number of stops on the initial tour (depot included).
    pub fn tour_len(&self) -> usize {
        self.pts.len()
    }
}

/// Working state of the pruning loop.
struct PruneState<'a> {
    scenario: &'a Scenario,
    /// Tour positions; index 0 is the depot.
    pts: Vec<Point2>,
    /// Device hovered above per tour index (`usize::MAX` for the depot).
    dev_of: Vec<usize>,
    /// Devices within `R0` of each device's position (by device index).
    coverage: Vec<Vec<u32>>,
}

impl<'a> PruneState<'a> {
    /// Assigns every device to its first covering stop in tour order and
    /// returns `(per-stop new-device lists, per-stop hover seconds,
    /// total hover energy)`.
    fn assignments(&self) -> (Vec<Vec<u32>>, Vec<f64>, f64) {
        let b = self.scenario.radio.bandwidth.value();
        let eta_h = self.scenario.uav.hover_power.value();
        let mut taken = vec![false; self.scenario.num_devices()];
        let mut new_devices = vec![Vec::new(); self.pts.len()];
        let mut hover_s = vec![0.0; self.pts.len()];
        let mut hover_energy = 0.0;
        for i in 1..self.pts.len() {
            let dev = self.dev_of[i];
            let mut t = 0.0f64;
            for &v in &self.coverage[dev] {
                if !taken[v as usize] {
                    taken[v as usize] = true;
                    new_devices[i].push(v);
                    t = t.max(self.scenario.devices[v as usize].data.value() / b);
                }
            }
            hover_s[i] = t;
            hover_energy += t * eta_h;
        }
        (new_devices, hover_s, hover_energy)
    }
}

/// One pruning pass with a full rescan per iteration (the reference the
/// incremental engine is validated against).
fn prune_exhaustive(state: &mut PruneState<'_>, counters: &mut EvalCounters) {
    let scenario = state.scenario;
    let n = scenario.num_devices();
    let eta_h = scenario.uav.hover_power.value();
    let per_m = scenario.uav.travel_energy_per_meter().value();
    let capacity = scenario.uav.capacity.value();
    loop {
        counters.iterations += 1;
        let (_, hover_s, hover_energy) = state.assignments();
        let tour_len = closed_tour_length(&state.pts);
        if hover_energy + tour_len * per_m <= capacity || state.pts.len() <= 1 {
            break;
        }
        counters.marginal_evals += (state.pts.len() - 1) as u64;
        counters.evaluations += (state.pts.len() - 1) as u64;
        // Marginal data loss of removing stop i: the data of devices
        // assigned to i that no other remaining stop covers.
        let mut covering_stops = vec![0u32; n];
        #[allow(clippy::needless_range_loop)] // several arrays indexed by i
        for i in 1..state.pts.len() {
            for &v in &state.coverage[state.dev_of[i]] {
                covering_stops[v as usize] += 1;
            }
        }
        let mut best_idx = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        #[allow(clippy::needless_range_loop)] // several arrays indexed by i
        for i in 1..state.pts.len() {
            let dev = state.dev_of[i];
            let lost: f64 = state.coverage[dev]
                .iter()
                .filter(|&&v| covering_stops[v as usize] == 1)
                .map(|&v| scenario.devices[v as usize].data.value())
                .sum();
            let saved = removal_delta(&state.pts, i) * per_m + hover_s[i] * eta_h;
            let ratio = lost / saved.max(1e-12);
            if ratio < best_ratio {
                best_ratio = ratio;
                best_idx = i;
            }
        }
        if best_idx == usize::MAX {
            break;
        }
        state.pts.remove(best_idx);
        state.dev_of.remove(best_idx);
    }
}

/// Incremental pruning: maintains per-device covering-stop counts, the
/// first-covering-stop assignment, per-stop hover seconds, and cached
/// per-stop `lost` sums across removals, so each iteration recomputes
/// only the stops a removal actually touched. The argmin itself stays the
/// exhaustive pass's plain ascending strict-`<` fold over O(|tour|)
/// cached values, and every cached quantity is kept bit-identical to the
/// full rescan (same filtered coverage-order sums, max-merged hover
/// times, fresh O(|tour|) energy totals per iteration), so the removal
/// sequence — and the final plan — matches [`prune_exhaustive`] exactly
/// (property-tested; DESIGN.md §8).
fn prune_lazy(state: &mut PruneState<'_>, counters: &mut EvalCounters, rec: &dyn Recorder) {
    let scenario = state.scenario;
    let n = scenario.num_devices();
    let eta_h = scenario.uav.hover_power.value();
    let per_m = scenario.uav.travel_energy_per_meter().value();
    let capacity = scenario.uav.capacity.value();
    let b = scenario.radio.bandwidth.value();
    let len0 = state.pts.len();

    // Tour position of each device's own stop (`usize::MAX` once pruned).
    let mut device_pos: Vec<usize> = vec![usize::MAX; n];
    for i in 1..len0 {
        device_pos[state.dev_of[i]] = i;
    }
    // Number of on-tour stops covering each device.
    let mut covering_stops = vec![0u32; n];
    for i in 1..len0 {
        for &v in &state.coverage[state.dev_of[i]] {
            covering_stops[v as usize] += 1;
        }
    }
    // First-covering-stop assignment (same sweep as `assignments`).
    let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); len0];
    let mut hover_s: Vec<f64> = vec![0.0; len0];
    {
        let mut taken = vec![false; n];
        for i in 1..len0 {
            let mut t = 0.0f64;
            for &v in &state.coverage[state.dev_of[i]] {
                if !taken[v as usize] {
                    taken[v as usize] = true;
                    assigned[i].push(v);
                    t = t.max(scenario.devices[v as usize].data.value() / b);
                }
            }
            hover_s[i] = t;
        }
    }
    // Cached marginal loss per stop; every entry starts dirty.
    let mut lost: Vec<f64> = vec![0.0; len0];
    let mut lost_dirty: Vec<bool> = vec![true; len0];

    loop {
        counters.iterations += 1;
        // Fresh O(|tour|) energy totals each iteration, accumulated in
        // the same order as `assignments` for bit-identical sums.
        let mut hover_energy = 0.0f64;
        for &h in hover_s.iter().skip(1) {
            hover_energy += h * eta_h;
        }
        let tour_len = closed_tour_length(&state.pts);
        if hover_energy + tour_len * per_m <= capacity || state.pts.len() <= 1 {
            break;
        }
        // Refresh stale loss caches (the filtered sum runs in coverage
        // order, exactly like the exhaustive pass).
        let mut refreshed = 0u64;
        for i in 1..state.pts.len() {
            if !lost_dirty[i] {
                continue;
            }
            lost_dirty[i] = false;
            counters.marginal_evals += 1;
            counters.evaluations += 1;
            refreshed += 1;
            let dev = state.dev_of[i];
            lost[i] = state.coverage[dev]
                .iter()
                .filter(|&&v| covering_stops[v as usize] == 1)
                .map(|&v| scenario.devices[v as usize].data.value())
                .sum();
        }
        rec.observe("bench.loss_refreshes_per_iter", refreshed);
        let mut best_idx = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        #[allow(clippy::needless_range_loop)] // several arrays indexed by i
        for i in 1..state.pts.len() {
            let saved = removal_delta(&state.pts, i) * per_m + hover_s[i] * eta_h;
            let ratio = lost[i] / saved.max(1e-12);
            if ratio < best_ratio {
                best_ratio = ratio;
                best_idx = i;
            }
        }
        if best_idx == usize::MAX {
            break;
        }
        // Remove the stop and repair the incremental structures.
        let removed_dev = state.dev_of[best_idx];
        let orphans = std::mem::take(&mut assigned[best_idx]);
        state.pts.remove(best_idx);
        state.dev_of.remove(best_idx);
        assigned.remove(best_idx);
        hover_s.remove(best_idx);
        lost.remove(best_idx);
        lost_dirty.remove(best_idx);
        device_pos[removed_dev] = usize::MAX;
        for p in device_pos.iter_mut() {
            if *p != usize::MAX && *p > best_idx {
                *p -= 1;
            }
        }
        // Decrement covering counts; a device dropping to a single
        // remaining coverer changes that coverer's marginal loss.
        for &v in &state.coverage[removed_dev] {
            let v = v as usize;
            covering_stops[v] -= 1;
            if covering_stops[v] == 1 {
                for &d in &state.coverage[v] {
                    let p = device_pos[d as usize];
                    if p != usize::MAX {
                        lost_dirty[p] = true;
                    }
                }
            }
        }
        // Reassign the removed stop's devices to their next covering
        // stop in tour order (max-merge keeps hover times exact).
        for &v in &orphans {
            let mut next = usize::MAX;
            for &d in &state.coverage[v as usize] {
                let p = device_pos[d as usize];
                if p < next {
                    next = p;
                }
            }
            if next != usize::MAX {
                assigned[next].push(v);
                hover_s[next] = hover_s[next].max(scenario.devices[v as usize].data.value() / b);
            }
        }
    }
}

impl BenchmarkPlanner {
    /// Plans with an explicit engine choice and returns the work/timing
    /// breakdown alongside the plan. `counters.candidates` is the
    /// initial tour's stop count (the benchmark has no grid candidates).
    pub fn plan_with_stats(
        &self,
        scenario: &Scenario,
        engine: EngineMode,
    ) -> (CollectionPlan, PlanStats) {
        self.plan_with_stats_obs(scenario, engine, &uavdc_obs::NOOP)
    }

    /// Like [`plan_with_stats`](BenchmarkPlanner::plan_with_stats),
    /// reporting spans (`bench/setup` covering the initial Christofides
    /// tour, `bench/prune`), end-of-run counters, and per-iteration
    /// histograms to `rec`. With the no-op recorder this is the same
    /// computation producing bit-identical plans (property-tested in
    /// `tests/obs_noop_equivalence.rs`).
    pub fn plan_with_stats_obs(
        &self,
        scenario: &Scenario,
        engine: EngineMode,
        rec: &dyn Recorder,
    ) -> (CollectionPlan, PlanStats) {
        self.plan_prepared_obs(scenario, engine, None, rec)
    }

    /// Recorder-free twin of
    /// [`plan_prepared_obs`](BenchmarkPlanner::plan_prepared_obs).
    pub fn plan_prepared(
        &self,
        scenario: &Scenario,
        engine: EngineMode,
        prepared: Option<&BenchmarkSetup>,
    ) -> (CollectionPlan, PlanStats) {
        self.plan_prepared_obs(scenario, engine, prepared, &uavdc_obs::NOOP)
    }

    /// Like [`plan_with_stats_obs`](BenchmarkPlanner::plan_with_stats_obs),
    /// optionally reusing a prebuilt [`BenchmarkSetup`] instead of
    /// rebuilding it. `prepared` must be exactly what
    /// [`BenchmarkSetup::build_obs`] would produce for this scenario (the
    /// keying contract of an [`ArtifactCache`](crate::ArtifactCache)).
    /// The pruning loop runs on a clone of the artifact either way, so
    /// cold and prepared runs share every instruction after setup and
    /// produce bit-identical plans and counters (property-tested in
    /// `tests/artifact_cache_invisibility.rs`); only `setup_ns` shrinks.
    pub fn plan_prepared_obs(
        &self,
        scenario: &Scenario,
        engine: EngineMode,
        prepared: Option<&BenchmarkSetup>,
        rec: &dyn Recorder,
    ) -> (CollectionPlan, PlanStats) {
        let root = Span::root(rec, "bench");
        // lint:allow(effect-taint): wall-clock runtime stats only; never influence plan content
        let setup_start = std::time::Instant::now();
        let n = scenario.num_devices();
        let mut stats = PlanStats {
            engine,
            counters: EvalCounters {
                candidates: n,
                ..EvalCounters::default()
            },
            setup_ns: 0,
            loop_ns: 0,
        };
        if n == 0 {
            stats.setup_ns = setup_start.elapsed().as_nanos() as u64;
            return (CollectionPlan::empty(), stats);
        }
        let setup_span = root.child("setup");
        let built;
        let setup = match prepared {
            Some(s) => s,
            None => {
                built = BenchmarkSetup::build_obs(scenario, rec);
                &built
            }
        };
        let mut state = PruneState {
            scenario,
            pts: setup.pts.clone(),
            dev_of: setup.dev_of.clone(),
            coverage: setup.coverage.clone(),
        };
        stats.setup_ns = setup_start.elapsed().as_nanos() as u64;
        drop(setup_span);

        // lint:allow(effect-taint): wall-clock runtime stats only; never influence plan content
        let loop_start = std::time::Instant::now();
        let prune_span = root.child("prune");
        match engine {
            EngineMode::Lazy => prune_lazy(&mut state, &mut stats.counters, rec),
            EngineMode::Exhaustive => prune_exhaustive(&mut state, &mut stats.counters),
        }
        drop(prune_span);
        stats.loop_ns = loop_start.elapsed().as_nanos() as u64;
        let c = &stats.counters;
        rec.add("bench.initial_stops", c.candidates as u64);
        rec.add("bench.iterations", c.iterations);
        rec.add("bench.evaluations", c.evaluations);
        rec.add("bench.marginal_evals", c.marginal_evals);

        // Materialise stops from the final assignment.
        let capacity = scenario.uav.capacity.value();
        let (new_devices, hover_s, _) = state.assignments();
        let stops = (1..state.pts.len())
            .filter(|&i| !new_devices[i].is_empty() || hover_s[i] > 0.0)
            .map(|i| HoverStop {
                pos: state.pts[i],
                sojourn: Seconds(hover_s[i]),
                collected: new_devices[i]
                    .iter()
                    .map(|&v| (DeviceId(v), scenario.devices[v as usize].data))
                    .collect(),
            })
            .collect();
        let plan = CollectionPlan { stops };
        debug_assert!(plan.total_energy(scenario).value() <= capacity * (1.0 + 1e-9) + 1e-9);
        let _ = capacity;
        (plan, stats)
    }
}

impl Planner for BenchmarkPlanner {
    fn name(&self) -> &'static str {
        "Benchmark (Christofides + prune)"
    }

    fn plan(&self, scenario: &Scenario) -> CollectionPlan {
        self.plan_with_stats(scenario, EngineMode::Lazy).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_geom::Aabb;
    use uavdc_net::units::{Joules, MegaBytes, MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario(capacity: f64, devices: Vec<(f64, f64, f64)>) -> Scenario {
        Scenario {
            region: Aabb::square(200.0),
            devices: devices
                .into_iter()
                .map(|(x, y, d)| IotDevice {
                    pos: Point2::new(x, y),
                    data: MegaBytes(d),
                })
                .collect(),
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(Meters(20.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(capacity),
                ..UavSpec::paper_default()
            },
        }
    }

    #[test]
    fn generous_budget_collects_everything() {
        let s = scenario(
            50_000.0,
            vec![
                (40.0, 40.0, 300.0),
                (120.0, 50.0, 450.0),
                (60.0, 150.0, 150.0),
            ],
        );
        let plan = BenchmarkPlanner.plan(&s);
        plan.validate(&s).unwrap();
        assert_eq!(plan.collected_volume(), MegaBytes(900.0));
    }

    #[test]
    fn coverage_semantics_collects_neighbors_at_one_stop() {
        // Two devices 10 m apart (coverage 20 m): visiting either stop
        // collects both, and the duplicate stop hovers zero seconds.
        let s = scenario(50_000.0, vec![(40.0, 40.0, 300.0), (50.0, 40.0, 600.0)]);
        let plan = BenchmarkPlanner.plan(&s);
        plan.validate(&s).unwrap();
        assert_eq!(plan.collected_volume(), MegaBytes(900.0));
        let total_devices: usize = plan.stops.iter().map(|st| st.collected.len()).sum();
        assert_eq!(total_devices, 2, "each device collected exactly once");
        // The first covering stop got both; hover time is the max need.
        let first = plan
            .stops
            .iter()
            .find(|st| st.collected.len() == 2)
            .unwrap();
        assert!((first.sojourn.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn tight_budget_prunes_low_value_far_nodes() {
        let s = scenario(
            4000.0,
            vec![
                (30.0, 30.0, 900.0),
                (35.0, 30.0, 800.0),
                (190.0, 190.0, 100.0),
            ],
        );
        let plan = BenchmarkPlanner.plan(&s);
        plan.validate(&s).unwrap();
        let kept: Vec<u32> = plan
            .stops
            .iter()
            .flat_map(|st| st.collected.iter().map(|&(d, _)| d.0))
            .collect();
        assert!(
            !kept.contains(&2),
            "far low-value node should be pruned, kept {kept:?}"
        );
        assert!(kept.contains(&0) && kept.contains(&1));
    }

    #[test]
    fn zero_capacity_empty_plan() {
        let s = scenario(0.0, vec![(40.0, 40.0, 300.0)]);
        let plan = BenchmarkPlanner.plan(&s);
        plan.validate(&s).unwrap();
        assert!(plan.stops.is_empty());
    }

    #[test]
    fn empty_scenario() {
        let s = scenario(1000.0, vec![]);
        assert!(BenchmarkPlanner.plan(&s).stops.is_empty());
    }

    #[test]
    fn feasible_for_a_range_of_budgets() {
        let devices: Vec<(f64, f64, f64)> = (0..40)
            .map(|i| {
                (
                    ((i * 37) % 200) as f64,
                    ((i * 53) % 200) as f64,
                    100.0 + (i * 23 % 900) as f64,
                )
            })
            .collect();
        for cap in [500.0, 2000.0, 10_000.0, 100_000.0] {
            let s = scenario(cap, devices.clone());
            let plan = BenchmarkPlanner.plan(&s);
            plan.validate(&s)
                .unwrap_or_else(|e| panic!("capacity {cap}: {e}"));
        }
    }

    #[test]
    fn collected_volume_monotone_in_budget() {
        let devices: Vec<(f64, f64, f64)> = (0..30)
            .map(|i| {
                (
                    ((i * 41) % 200) as f64,
                    ((i * 29) % 200) as f64,
                    200.0 + (i * 31 % 700) as f64,
                )
            })
            .collect();
        let mut prev = -1.0;
        for cap in [1000.0, 5000.0, 20_000.0, 80_000.0] {
            let s = scenario(cap, devices.clone());
            let v = BenchmarkPlanner.plan(&s).collected_volume().value();
            assert!(
                v >= prev - 1e-6,
                "volume decreased: {v} after {prev} at cap {cap}"
            );
            prev = v;
        }
    }

    #[test]
    fn pruning_keeps_marginal_coverage_consistent() {
        // Devices covered by several stops must not be lost when one of
        // their covering stops is pruned.
        let s = scenario(
            6000.0,
            vec![
                (30.0, 30.0, 500.0),
                (45.0, 30.0, 500.0),
                (38.0, 35.0, 400.0), // covered by both neighbours
                (150.0, 150.0, 100.0),
            ],
        );
        let plan = BenchmarkPlanner.plan(&s);
        plan.validate(&s).unwrap();
        let collected: std::collections::BTreeSet<u32> = plan
            .stops
            .iter()
            .flat_map(|st| st.collected.iter().map(|&(d, _)| d.0))
            .collect();
        // Device 2 sits between 0 and 1; if either of those stops
        // survives, device 2 must be collected.
        if collected.contains(&0) || collected.contains(&1) {
            assert!(collected.contains(&2));
        }
    }
}
