//! Request-level benchmark of the uavdc planners.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-paper|warm-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! One client sends a fixed, seed-derived request list in a closed loop
//! on one thread. Every request calls the planners' public entry points
//! and checks the plan with `validate::check_plan` and `sim::simulate`.
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced run, whose spans are also written to
//! `perfbench/out/`.

mod request;
mod stats;
mod trace;
mod workload;

use request::{execute, plan, profile, Tally};
use stats::{median, nearest_rank, sorted};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;
use workload::{Class, Kind, Prepared, Workload, PASSES};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs request `i` of `w` once through `tr`.
fn run_request(
    w: &Workload,
    prepared: &Prepared,
    tr: &mut Tracer,
    i: usize,
    scenario: &uavdc_net::Scenario,
) -> Result<request::Done, request::Failure> {
    let class = w.requests[i].class;
    execute(tr, i as u32, scenario, profile(class), |tr| {
        plan(tr, i as u32, class, scenario, prepared)
    })
}

/// The untraced run: the passes over every request, with rounds of
/// set-ups timed between them so that `setup_s` samples the whole run.
fn end_to_end(w: &Workload) -> (Tally, Vec<Metric>) {
    let mut tr = Tracer::new(false);
    let mut tally = Tally::new(w.requests.len());
    let (set_ups, rounds) = w.kind.set_ups();
    let mut setup_s = vec![f64::INFINITY; set_ups];
    let mut prepared = None;
    for pass in 0..PASSES {
        if (0..rounds).any(|r| r * PASSES / rounds == pass) {
            for best in &mut setup_s {
                // Free the previous set-up first, so that `peak_rss_mb`
                // measures one live set of artifacts, not two.
                drop(prepared.take());
                let t = Instant::now();
                let p = w.set_up(&mut Tracer::new(false));
                *best = best.min(t.elapsed().as_secs_f64());
                prepared = Some(std::hint::black_box(p));
            }
        }
        let prepared = prepared.as_ref().expect("set up before the first pass");
        tally.pass(
            |i| w.scenario_for(prepared, &w.requests[i]),
            |i, s| run_request(w, prepared, &mut tr, i, s),
        );
    }
    let n = tally.outcomes.len();
    let lat = sorted(&tally.latency_ms);
    let metrics = vec![
        metric("plans_per_s", tally.plans_per_s(), "1/s"),
        metric("plan_ms_p50", nearest_rank(&lat, 0.50), "ms"),
        metric("plan_ms_p95", nearest_rank(&lat, 0.95), "ms"),
        metric(
            "checked_frac",
            (n - tally.failed()) as f64 / n as f64,
            "ratio",
        ),
        metric("collected_gb_mean", tally.collected_gb_mean(), "GB"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    print_bands(w, &tally);
    let s = sorted(&setup_s);
    println!(
        "set-ups: {set_ups} in {rounds} rounds, fastest round of each: min={:.6} median={:.6} max={:.6} s",
        s[0],
        median(&s),
        s[s.len() - 1]
    );
    (tally, metrics)
}

/// Per-class latency bands and where each reported percentile falls, so
/// a reader can see that no percentile sits in a gap between classes.
fn print_bands(w: &Workload, tally: &Tally) {
    let lat = sorted(&tally.latency_ms);
    let mut bands = Vec::new();
    for &class in w.kind.roster() {
        let own: Vec<f64> = w
            .requests
            .iter()
            .zip(&tally.latency_ms)
            .filter(|(r, _)| r.class == class)
            .map(|(_, &ms)| ms)
            .collect();
        let s = sorted(&own);
        let (lo, hi) = (s[0], s[s.len() - 1]);
        println!(
            "band {:<7} n={:<5} min={lo:.3} p50={:.3} p95={:.3} max={hi:.3} ms",
            class.name(),
            s.len(),
            nearest_rank(&s, 0.5),
            nearest_rank(&s, 0.95),
        );
        bands.push((class, lo, hi));
    }
    for p in [0.50, 0.95] {
        let v = nearest_rank(&lat, p);
        let inside: Vec<&str> = bands
            .iter()
            .filter(|&&(_, lo, hi)| lo <= v && v <= hi)
            .map(|&(c, _, _)| c.name())
            .collect();
        println!(
            "p{:.0} = {v:.3} ms over n={} samples (rank {}), inside band(s): {}",
            p * 100.0,
            lat.len(),
            (p * lat.len() as f64).ceil(),
            if inside.is_empty() {
                "NONE (in a gap)".to_string()
            } else {
                inside.join(", ")
            }
        );
    }
}

/// The traced run: the same passes as the untraced run, each request
/// traced in every other pass, so `trace.overhead_frac` compares the same
/// requests with and without tracing. Per-layer metrics come from the
/// traced executions' spans.
fn per_layer(w: &Workload, seed: u64) -> (Tally, Vec<Metric>) {
    let mut tr = Tracer::new(true);
    let prepared = tr.span("setup", None, |tr| w.set_up(tr));
    let mut off = Tracer::new(false);
    let n = w.requests.len();
    let (mut plain_s, mut traced_s) = (vec![f64::INFINITY; n], vec![f64::INFINITY; n]);
    let mut tally = Tally::new(n);
    for pass in 0..PASSES {
        tally.pass(
            |i| w.scenario_for(&prepared, &w.requests[i]),
            |i, s| {
                let (tracer, best) = if (i + pass) % 2 == 0 {
                    (&mut tr, &mut traced_s[i])
                } else {
                    (&mut off, &mut plain_s[i])
                };
                let t = Instant::now();
                let out = run_request(w, &prepared, tracer, i, s);
                *best = best.min(t.elapsed().as_secs_f64());
                out
            },
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", w.kind.name()));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }

    let st = tr.self_times();
    let ms = |name: &str| st.get(name).map_or(0.0, |s| s.mean_ms());
    let c = |name: &str| tr.counter(name);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let builds = st.get("candidates.build").map_or(0, |s| s.spans) as f64;
    let greedy = c("greedy.requests");
    let alg2 = c("tour.requests");
    let mut metrics = vec![
        metric("candidates.build_ms", ms("candidates.build"), "ms"),
        metric(
            "candidates.cells",
            per(c("candidates.cells"), builds),
            "count",
        ),
        metric("candidates.prune_ms", ms("candidates.prune"), "ms"),
        metric(
            "candidates.kept_frac",
            per(c("candidates.kept"), c("candidates.cells")),
            "ratio",
        ),
        metric("christofides.setup_ms", ms("christofides.setup"), "ms"),
        metric("alg1.plan_ms", ms("alg1.plan"), "ms"),
    ];
    for class in [Class::Alg2, Class::Alg3K2, Class::Alg3K4, Class::Bench] {
        let span = format!("greedy.loop.{}", class.name());
        metrics.push(metric(
            format!("greedy.loop_ms.{}", class.name()),
            ms(&span),
            "ms",
        ));
    }
    metrics.extend([
        metric(
            "greedy.evaluations",
            per(c("greedy.evaluations"), greedy),
            "count",
        ),
        metric(
            "greedy.eval_frac",
            per(c("greedy.evaluations"), c("greedy.exhaustive_bound")),
            "ratio",
        ),
        metric(
            "greedy.iterations",
            per(c("greedy.iterations"), greedy),
            "count",
        ),
        metric("tour.patches", per(c("tour.patches"), alg2), "count"),
        metric(
            "tour.full_retours",
            per(c("tour.full_retours"), alg2),
            "count",
        ),
        metric("cache.get_us", ms("cache.get") * 1e3, "us"),
        metric("cache.hits", c("cache.hits"), "count"),
        metric("check.ms", ms("check"), "ms"),
        metric("check.failures", c("check.failures"), "count"),
        metric("sim.ms", ms("sim"), "ms"),
        metric("sim.disagreements", c("sim.disagreements"), "count"),
        metric("request.self_ms", ms("request"), "ms"),
        metric(
            "trace.overhead_frac",
            traced_s.iter().sum::<f64>() / plain_s.iter().sum::<f64>() - 1.0,
            "ratio",
        ),
    ]);
    (tally, metrics)
}

/// Peak resident set size (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = Workload::for_seconds(args.kind, args.seed, args.seconds);
    println!(
        "workload {} seed {}: {} requests over {} instances, {PASSES} passes, closed loop, 1 client, 1 thread",
        args.kind.name(),
        args.seed,
        w.requests.len(),
        w.instance_seeds.len()
    );
    let (tally, metrics) = if args.trace {
        per_layer(&w, args.seed)
    } else {
        end_to_end(&w)
    };
    let passes: Vec<String> = tally.pass_s.iter().map(|s| format!("{s:.2}")).collect();
    println!("pass wall times: {} s", passes.join(" "));
    for (i, o) in tally.outcomes.iter().enumerate() {
        if let Err(f) = o {
            println!("request {i} ({:?}) failed: {f:?}", w.requests[i]);
        }
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        std::process::exit(1);
    }
    let failed = tally.failed();
    println!(
        "{}",
        json_line(failed == 0, tally.outcomes.len(), failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plans a reduced-size workload: small instances, few requests.
    fn reduced(kind: Kind) -> (Workload, Tally) {
        let w = Workload::new(kind, 42, 0.1, 2, 1);
        let prepared = w.set_up(&mut Tracer::new(false));
        let mut tr = Tracer::new(false);
        let mut tally = Tally::new(w.requests.len());
        for _ in 0..2 {
            tally.pass(
                |i| w.scenario_for(&prepared, &w.requests[i]),
                |i, s| run_request(&w, &prepared, &mut tr, i, s),
            );
        }
        (w, tally)
    }

    #[test]
    fn reduced_workloads_repeat_exactly() {
        for kind in [Kind::ColdPaper, Kind::WarmSweep] {
            let (w1, t1) = reduced(kind);
            let (w2, t2) = reduced(kind);
            assert_eq!(w1, w2, "{}: request lists differ", kind.name());
            assert!(!w1.requests.is_empty());
            assert_eq!(t1.failed(), 0, "{}: {:?}", kind.name(), t1.outcomes);
            assert_eq!(t2.failed(), 0, "{}", kind.name());
            assert_eq!(
                t1.collected_gb_mean().to_bits(),
                t2.collected_gb_mean().to_bits(),
                "{}",
                kind.name()
            );
            assert_eq!(t1.outcomes, t2.outcomes, "{}", kind.name());
            let classes: Vec<Class> = w1.requests.iter().map(|r| r.class).collect();
            for c in kind.roster() {
                assert!(classes.contains(c), "{} lacks {}", kind.name(), c.name());
            }
        }
    }

    #[test]
    fn request_lists_depend_on_the_seed_only() {
        let a = Workload::for_seconds(Kind::WarmSweep, 3, 20);
        let b = Workload::for_seconds(Kind::WarmSweep, 4, 20);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.instance_seeds, b.instance_seeds);
        assert!(a.requests.len() >= workload::MIN_REQUESTS);
        let cold = Workload::for_seconds(Kind::ColdPaper, 3, 1);
        assert!(cold.requests.len() >= workload::MIN_REQUESTS);
        assert_eq!(cold.instance_seeds.len(), cold.requests.len());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json_line(true, 3, 0, &[metric("x", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
