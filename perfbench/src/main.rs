//! Benchmark of the PIMCOMP sweep pipeline, from model to verified
//! report.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload (see `workload.rs` and README.md).
//! Set-up resolves the models, plans the sweep and, for the warm
//! workloads, fills the artifact cache. The timed loop then repeats the
//! untraced sweep through the user's entry point until `--seconds` of
//! sweep time have been measured (at least twice). `--trace 0` reports
//! the end-to-end metrics; `--trace 1` also runs two traced sweeps and
//! reports per-layer metrics from their spans. Every run checks its
//! outputs; the last stdout line is the JSON result.

mod measure;
mod stats;
mod trace;
mod traced;
mod workload;

use measure::{engine_sweep, reset_dir, serve_sweep, ServeCounts, Sweep};
use pimcomp_arch::PipelineMode;
use pimcomp_dse::{SweepPlan, SweepReport, SweepSpec};
use serde::Value;
use stats::{geomean, mean, median, percentile, ratio};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{chrome_json, self_times, Tracer};
use workload::{Entry, Workload, SWEEP_THREADS};

const USAGE: &str =
    "usage: perfbench --workload <ga_cold|sim_warm|verify_quant|tiny_many> --seed <n> \
     --seconds <s> --trace <0|1>";

/// Set-up's repeatable part (spec parsing, model resolution, sweep
/// planning) repeats for at least this long, and at least
/// [`SETUP_MIN_REPS`] times; `setup_s` takes the median. On the cold
/// workloads one repetition takes about a millisecond, which a short
/// burst of repetitions at process start measures unreliably.
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MIN_REPS: usize = 5;

/// Timed sweeps per run at least, so report bytes can be compared and a
/// sub-second point is timed more than once.
const MIN_SWEEPS: usize = 2;

/// Traced sweeps per `--trace 1` run; their work counts must agree.
const TRACED_SWEEPS: usize = 2;

/// Largest RMSE an unquantized mapped execution may show against the
/// reference interpreter.
const UNQUANTIZED_RMSE_LIMIT: f64 = 1e-4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Scratch space of one run: the artifact cache and the serve journal,
/// removed when the run ends.
struct WorkDir {
    root: PathBuf,
    cache: PathBuf,
    journal: PathBuf,
}

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let root = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        reset_dir(&root)?;
        Ok(WorkDir {
            cache: root.join("cache"),
            journal: root.join("sweep.journal"),
            root,
        })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best-effort cleanup; a leftover directory is harmless.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Failed checks, counted against the points attempted.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn fail(&mut self, why: &str) {
        eprintln!("perfbench: CHECK FAILED: {why}");
        self.failed += 1;
    }

    fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(&why());
        }
    }

    /// Every point must be `ok`; a quantization-0 point must match the
    /// reference interpreter within [`UNQUANTIZED_RMSE_LIMIT`].
    fn report(&mut self, label: &str, report: &SweepReport) {
        self.attempted += report.points.len() as u64;
        for p in &report.points {
            let rmse = p.metrics.as_ref().and_then(|m| m.output_rmse);
            let problem = if !p.ok {
                Some(format!("failed: {}", p.error.as_deref().unwrap_or("?")))
            } else if p.quantization == Some(0) && rmse.is_none_or(|r| r > UNQUANTIZED_RMSE_LIMIT) {
                Some(format!(
                    "unquantized RMSE {rmse:?} over {UNQUANTIZED_RMSE_LIMIT}"
                ))
            } else if p.quantization.is_some() && !rmse.is_some_and(f64::is_finite) {
                Some(format!("RMSE {rmse:?} is not finite"))
            } else {
                None
            };
            if let Some(problem) = problem {
                self.fail(&format!("{label}: point {}: {problem}", p.key()));
            }
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn run(args: &Args) -> Result<i32, String> {
    let w = Workload::new(&args.workload, args.seed)?;
    let dir = WorkDir::create(w.name)?;
    let spec = SweepSpec::from_json(&w.spec_json).map_err(|e| e.to_string())?;
    let mut checks = Checks::default();

    let (setup_s, fill_json) = setup(&w, &dir.cache, &mut checks)?;
    let timed = timed_sweeps(&w, &spec, &dir, args.seconds, &mut checks)?;
    let sweeps = &timed.sweeps;
    for (i, sweep) in sweeps.iter().enumerate() {
        checks.expect(sweep.serve == sweeps[0].serve, || {
            format!("counter drift (benchmark bug): sweep {i}'s serve counts differ")
        });
    }
    // Where set-up's fill is the same sweep, the warm replay must
    // reproduce the cold fill's report.
    if let Some(fill_json) = fill_json.filter(|_| w.warm_fill.as_ref() == Some(&spec)) {
        checks.expect(fill_json == timed.report_json, || {
            "the warm replay's report differs from the cold fill's".to_string()
        });
    }

    let per_point = timed.per_point_sweeps();
    let point_s: Vec<f64> = per_point
        .iter()
        .flat_map(|s| s.point_s.iter().copied())
        .collect();
    let points = timed.report.points.len() as f64;
    let rate = |sweeps: &[Measured]| {
        median(
            &sweeps
                .iter()
                .map(|s| points / s.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let points_per_s = rate(sweeps);

    let layer = if args.trace {
        let untraced_pps = rate(per_point);
        Some(traced_metrics(
            &w,
            &spec,
            &dir,
            &timed,
            untraced_pps,
            &mut checks,
        )?)
    } else {
        None
    };
    let quality = quality_metrics(&timed.report);
    let artifact_bytes: Vec<f64> = timed.artifact_bytes.iter().map(|&b| b as f64).collect();
    let end_to_end = vec![
        metric("setup_s", "s", setup_s),
        metric("points_per_s", "points/s", points_per_s),
        metric("point_s_p50", "s", percentile(&point_s, 0.5)),
        metric("point_s_p90", "s", percentile(&point_s, 0.9)),
        metric("ht_cycles_geomean", "cycles", quality.ht_cycles_geomean),
        metric("energy_uj_geomean", "uJ", quality.energy_uj_geomean),
        metric("artifact_kb_mean", "kB", mean(&artifact_bytes) / 1e3),
        metric("peak_rss_mb", "MB", peak_rss_bytes()? as f64 / 1e6),
    ];
    let walls = |sweeps: &[Measured]| {
        sweeps
            .iter()
            .map(|s| format!("{:.3}", s.wall.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "workload {} seed {}: {} points per sweep; sweep walls (s): {}; {} per-point samples",
        w.name,
        args.seed,
        points,
        walls(sweeps),
        point_s.len()
    );
    if !timed.engine.is_empty() {
        println!("engine sweep walls (s): {}", walls(&timed.engine));
    }
    let reported = match layer {
        Some((mut metrics, runs)) => {
            print_self_times(&runs);
            let path = write_trace(w.name, args.seed, &runs)?;
            println!("trace written to {}", path.display());
            let failed = ratio(checks.failed as f64, checks.attempted as f64);
            metrics.extend([
                metric("error_rate", "ratio", failed),
                metric("ll_cycles_geomean", "cycles", quality.ll_cycles_geomean),
                metric("top1_match_frac", "ratio", quality.top1_match_frac),
            ]);
            println!("end-to-end (untraced):");
            print_metrics(&end_to_end);
            println!("per layer (traced):");
            metrics
        }
        None => end_to_end,
    };
    print_metrics(&reported);
    println!("{}", result_json(&checks, &reported)?);
    Ok(if checks.failed == 0 { 0 } else { 1 })
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// Set-up time: the median of repeated spec parses + sweep plans (which
/// resolve every model and size the hardware), plus the cache fill of
/// the warm workloads. Returns the fill's report, if any.
fn setup(w: &Workload, cache: &Path, checks: &mut Checks) -> Result<(f64, Option<String>), String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let t0 = Instant::now();
        let spec = SweepSpec::from_json(&w.spec_json).map_err(|e| e.to_string())?;
        let plan = SweepPlan::new(&spec).map_err(|e| e.to_string())?;
        black_box(plan.len());
        reps.push(t0.elapsed().as_secs_f64());
    }
    let mut setup_s = median(&reps);
    reset_dir(cache)?;
    let fill = match &w.warm_fill {
        Some(fill_spec) => {
            let t0 = Instant::now();
            let sweep = engine_sweep(fill_spec, SWEEP_THREADS, cache)?;
            setup_s += t0.elapsed().as_secs_f64();
            checks.report("cache fill", &sweep.report);
            Some(sweep.report_json)
        }
        None => None,
    };
    Ok((setup_s, fill))
}

/// What a run keeps of a timed sweep once its report has been checked.
struct Measured {
    wall: Duration,
    point_s: Vec<f64>,
    serve: Option<ServeCounts>,
}

/// The timed sweeps of one run.
struct Timed {
    /// The first sweep's report. Every later report was checked against
    /// it and dropped, so the run's memory does not grow with the
    /// number of sweeps.
    report: SweepReport,
    report_json: String,
    /// The first sweep's artifact sizes.
    artifact_bytes: Vec<u64>,
    /// Sweeps through the workload's entry point.
    sweeps: Vec<Measured>,
    /// Serve workload only: an `ExploreEngine::run` of the same spec
    /// after every served sweep. `run_worker` reports no per-point
    /// events, so these give the per-point times, and each must produce
    /// the served report.
    engine: Vec<Measured>,
}

impl Timed {
    /// The sweeps whose per-point times the run reports.
    fn per_point_sweeps(&self) -> &[Measured] {
        if self.engine.is_empty() {
            &self.sweeps
        } else {
            &self.engine
        }
    }

    /// Checks `sweep` against the first sweep (which it becomes if
    /// there is none yet) and keeps its measurements.
    fn check(
        first: &mut Option<Timed>,
        label: &str,
        sweep: Sweep,
        checks: &mut Checks,
    ) -> Measured {
        checks.report(label, &sweep.report);
        let measured = Measured {
            wall: sweep.wall,
            point_s: sweep.point_s,
            serve: sweep.serve,
        };
        match first {
            None => {
                *first = Some(Timed {
                    report: sweep.report,
                    report_json: sweep.report_json,
                    artifact_bytes: sweep.artifact_bytes,
                    sweeps: Vec::new(),
                    engine: Vec::new(),
                })
            }
            Some(first) => {
                checks.expect(sweep.report_json == first.report_json, || {
                    format!("{label}'s report differs from the first sweep's")
                });
                // Artifacts embed wall-clock stage timings, so their sizes
                // vary by a few bytes between runs; their number must not.
                checks.expect(
                    sweep.artifact_bytes.len() == first.artifact_bytes.len(),
                    || format!("counter drift (benchmark bug): {label}'s artifact count differs"),
                );
            }
        }
        measured
    }
}

/// Untraced sweeps until `seconds` of sweep wall time are measured (and
/// at least [`MIN_SWEEPS`] through the entry point), each checked as it
/// ends.
/// Cold workloads start each sweep from an empty cache; emptying it is
/// not timed.
fn timed_sweeps(
    w: &Workload,
    spec: &SweepSpec,
    dir: &WorkDir,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Timed, String> {
    let mut first: Option<Timed> = None;
    let mut sweeps = Vec::new();
    let mut engine = Vec::new();
    let mut measured = 0.0;
    while sweeps.len() < MIN_SWEEPS || measured < seconds {
        if w.warm_fill.is_none() {
            reset_dir(&dir.cache)?;
        }
        let label = format!("sweep {}", sweeps.len());
        let sweep = match w.entry {
            Entry::Engine => engine_sweep(spec, SWEEP_THREADS, &dir.cache)?,
            Entry::Serve => {
                if dir.journal.exists() {
                    std::fs::remove_file(&dir.journal)
                        .map_err(|e| format!("removing the old journal: {e}"))?;
                }
                serve_sweep(w.name, &w.spec_json, &dir.cache, &dir.journal)?
            }
        };
        measured += sweep.wall.as_secs_f64();
        sweeps.push(Timed::check(&mut first, &label, sweep, checks));
        if w.entry == Entry::Serve {
            reset_dir(&dir.cache)?;
            let sweep = engine_sweep(spec, SWEEP_THREADS, &dir.cache)?;
            measured += sweep.wall.as_secs_f64();
            let label = format!("engine sweep {}", engine.len());
            engine.push(Timed::check(&mut first, &label, sweep, checks));
        }
    }
    let mut timed = first.expect("the loop runs at least one sweep");
    timed.sweeps = sweeps;
    timed.engine = engine;
    Ok(timed)
}

/// Simulated quality of a report (deterministic for a seed).
struct Quality {
    ht_cycles_geomean: f64,
    ll_cycles_geomean: f64,
    energy_uj_geomean: f64,
    top1_match_frac: f64,
}

fn quality_metrics(report: &SweepReport) -> Quality {
    let ht = PipelineMode::HighThroughput.to_string();
    let mut cycles = (Vec::new(), Vec::new());
    let mut energy = Vec::new();
    let mut top1 = Vec::new();
    for p in &report.points {
        let Some(m) = &p.metrics else { continue };
        if p.mode == ht {
            cycles.0.push(m.cycles as f64);
        } else {
            cycles.1.push(m.cycles as f64);
        }
        energy.push(m.energy_uj);
        if p.quantization.is_some_and(|q| q > 0) {
            top1.push(if m.top1_match == Some(true) { 1.0 } else { 0.0 });
        }
    }
    Quality {
        ht_cycles_geomean: geomean(&cycles.0),
        ll_cycles_geomean: geomean(&cycles.1),
        energy_uj_geomean: geomean(&energy),
        top1_match_frac: mean(&top1),
    }
}

/// Runs [`TRACED_SWEEPS`] traced sweeps and derives the per-layer
/// metrics (mean over the traced sweeps; their work counts must agree
/// exactly). Returns the metrics and every sweep's spans.
fn traced_metrics(
    w: &Workload,
    spec: &SweepSpec,
    dir: &WorkDir,
    timed: &Timed,
    untraced_pps: f64,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Vec<Vec<trace::Span>>), String> {
    let epoch = Instant::now();
    let untraced = &timed.report;
    let mut runs = Vec::new();
    let mut per_sweep: Vec<Vec<Metric>> = Vec::new();
    let mut first_work = None;
    for rep in 0..TRACED_SWEEPS {
        if w.warm_fill.is_none() {
            reset_dir(&dir.cache)?;
        }
        let tracer = Tracer::new(epoch);
        let graphs = traced::resolve(&tracer, spec)?;
        let ts = traced::sweep(&tracer, spec, &graphs, &dir.cache)?;
        let spans = tracer.into_spans();

        checks.report(&format!("traced sweep {rep}"), &ts.report);
        for (a, b) in ts.report.points.iter().zip(&untraced.points) {
            let cycles = |p: &pimcomp_dse::PointRecord| p.metrics.as_ref().map(|m| m.cycles);
            checks.expect(a.ok == b.ok && cycles(a) == cycles(b), || {
                format!(
                    "traced point {} simulated {:?} cycles, untraced {:?}",
                    a.key(),
                    cycles(a),
                    cycles(b)
                )
            });
        }
        checks.expect(ts.report.points.len() == untraced.points.len(), || {
            "traced and untraced sweeps differ in point count".to_string()
        });
        match &first_work {
            None => first_work = Some(ts.work.clone()),
            Some(first) => checks.expect(first.repeatable() == ts.work.repeatable(), || {
                format!(
                    "counter drift (benchmark bug): traced work {:?} vs {:?}",
                    ts.work, first
                )
            }),
        }

        let selfs = self_times(&spans);
        let ms = |name: &str| selfs.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3);
        let sum_ms = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration().as_secs_f64() * 1e3)
                .sum::<f64>()
        };
        let wk = &ts.work;
        let sweep_ms = ts.wall.as_secs_f64() * 1e3;
        let n = |v: u64| v as f64;
        per_sweep.push(vec![
            metric("ir.resolve_ms", "ms", ms("ir.resolve")),
            metric("dse.plan_ms", "ms", ms("dse.plan")),
            metric("core.partition_ms", "ms", ms("core.partition")),
            metric("core.partition_ags", "count", n(wk.partition_ags)),
            metric("core.schedule_ms", "ms", ms("core.schedule")),
            metric("core.ga_ms", "ms", ms("core.ga")),
            metric("core.ga_evals", "count", n(wk.ga_evals)),
            metric("core.ga_full_evals", "count", n(wk.ga_full_evals)),
            metric(
                "core.ga_incremental_evals",
                "count",
                n(wk.ga_incremental_evals),
            ),
            metric("core.ga_memo_hits", "count", n(wk.ga_memo_hits)),
            metric(
                "core.ga_memo_hit_ratio",
                "ratio",
                ratio(n(wk.ga_memo_hits), n(wk.ga_memo_hits + wk.ga_evals)),
            ),
            metric(
                "core.ga_grow_success_ratio",
                "ratio",
                ratio(
                    n(wk.ga_grow_successes),
                    n(wk.ga_grow_successes + wk.ga_grow_failures),
                ),
            ),
            metric(
                "core.ga_us_per_eval",
                "us",
                ratio(ms("core.ga") * 1e3, n(wk.ga_evals)),
            ),
            metric("core.artifact_save_ms", "ms", ms("core.artifact_save")),
            metric("core.artifact_load_ms", "ms", ms("core.artifact_load")),
            metric("core.artifact_bytes", "bytes", n(wk.artifact_bytes)),
            metric("sim.run_ms", "ms", ms("sim.run")),
            metric("sim.crossbar_mvms", "count", n(wk.crossbar_mvms)),
            metric("sim.vfu_elems", "count", n(wk.vfu_elems)),
            metric("sim.noc_bytes", "bytes", n(wk.noc_bytes)),
            metric(
                "sim.ns_per_crossbar_mvm",
                "ns",
                ratio(ms("sim.run") * 1e6, n(wk.crossbar_mvms)),
            ),
            metric("exec.reference_ms", "ms", ms("exec.reference")),
            metric("exec.mapped_validate_ms", "ms", ms("exec.mapped_validate")),
            metric("exec.mapped_ms", "ms", ms("exec.mapped")),
            metric("exec.mapped_quant_ms", "ms", ms("exec.mapped_quant")),
            metric("exec.macs", "count", n(wk.exec_macs)),
            metric(
                "exec.reference_useful_ratio",
                "ratio",
                ratio(n(ts.distinct_references), n(wk.reference_runs)),
            ),
            metric("dse.point_overhead_ms", "ms", ms("dse.point")),
            metric(
                "dse.cache_hit_ratio",
                "ratio",
                ratio(n(wk.cache_hits), n(wk.points)),
            ),
            metric("dse.reduce_ms", "ms", ms("dse.reduce")),
            metric(
                "dse.worker_idle_frac",
                "ratio",
                1.0 - ratio(
                    sum_ms("dse.point"),
                    SWEEP_THREADS as f64 * sum_ms("dse.sweep"),
                ),
            ),
            metric(
                "trace_overhead_frac",
                "ratio",
                1.0 - ratio(n(wk.points) / (sweep_ms / 1e3), untraced_pps),
            ),
        ]);
        runs.push(spans);
    }

    let mut metrics: Vec<Metric> = per_sweep[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_sweep.iter().map(|s| s[i].value).collect();
            metric(m.name, m.unit, mean(&values))
        })
        .collect();

    // Bookkeeping of the served workload, from the timed (untraced)
    // sweeps: the served wall time beyond the points' own evaluation.
    let served = timed.sweeps.iter().find_map(|s| s.serve);
    let overhead_ms = match served {
        Some(_) => {
            let ms = |sweeps: &[Measured], f: fn(&Measured) -> f64| {
                median(&sweeps.iter().map(f).collect::<Vec<_>>()) * 1e3
            };
            ms(&timed.sweeps, |s| s.wall.as_secs_f64())
                - ms(&timed.engine, |s| s.point_s.iter().sum::<f64>())
        }
        None => 0.0,
    };
    let counts = served.unwrap_or(ServeCounts {
        leases: 0,
        leases_reclaimed: 0,
        journal_bytes: 0,
    });
    metrics.extend([
        metric("serve.overhead_ms", "ms", overhead_ms),
        metric("serve.leases", "count", counts.leases as f64),
        metric(
            "serve.leases_reclaimed",
            "count",
            counts.leases_reclaimed as f64,
        ),
        metric("serve.journal_bytes", "bytes", counts.journal_bytes as f64),
        metric(
            "serve.ms_per_lease",
            "ms",
            ratio(overhead_ms, counts.leases as f64),
        ),
    ]);
    Ok((metrics, runs))
}

/// Prints each span name's self time and its share of all self time,
/// largest first, summed over the traced sweeps.
fn print_self_times(runs: &[Vec<trace::Span>]) {
    let mut totals: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for spans in runs {
        for (name, d) in self_times(spans) {
            *totals.entry(name).or_default() += d.as_secs_f64() * 1e3;
        }
    }
    let all: f64 = totals.values().sum();
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("self time over {} traced sweeps:", runs.len());
    for (name, ms) in rows {
        println!(
            "  {name:<24} {ms:>12.3} ms {:>6.1}%",
            100.0 * ratio(ms, all)
        );
    }
}

/// Writes the traced sweeps' spans as Chrome trace-event JSON.
fn write_trace(workload: &str, seed: u64, runs: &[Vec<trace::Span>]) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_work").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let json = chrome_json(runs).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Peak resident set size of this process (`VmHWM`).
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kib| kib * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(checks: &Checks, metrics: &[Metric]) -> Result<String, String> {
    let entries = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Map(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&Value::Map(vec![
        ("correct".to_string(), Value::Bool(checks.failed == 0)),
        (
            "attempted".to_string(),
            Value::Int(i128::from(checks.attempted)),
        ),
        ("failed".to_string(), Value::Int(i128::from(checks.failed))),
        ("metrics".to_string(), Value::Map(entries)),
    ]))
    .map_err(|e| e.to_string())
}
