//! Performance-baseline harness: measures the wall-clock numbers the
//! project optimizes for and gates regressions against a committed
//! snapshot.
//!
//! Metrics:
//!
//! * **GA evals/sec** (HT and LL on resnet18) — the `ga_throughput`
//!   inner loop at one thread;
//! * **sweep points/sec** — the committed smoke sweep fixture
//!   (`explore_sweep --fast`) at one thread;
//! * **end-to-end compile wall time** for three zoo models
//!   (resnet18, squeezenet, googlenet), tiny_bert with its symbolic
//!   sequence dimension bound to 64 tokens (the transformer path),
//!   plus resnet18 squeezed onto a single chip in `weight_reload`
//!   mode (the epoch-packer path);
//! * **reference functional inference wall time** — one
//!   seed-synthesized resnet18 inference through the `pimcomp-exec`
//!   f32 interpreter (the per-point cost a `quantization` sweep axis
//!   adds);
//! * **HT simulation wall time** — one cycle-level simulation of a
//!   fixed googlenet compile (the per-point cost of a warm-cache
//!   sweep).
//!
//! ```text
//! bench_baseline [--iters N] [--out PATH] [--check PATH]
//!                [--tolerance 0.25] [--quiet]
//! ```
//!
//! Measure mode (default) prints the versioned JSON snapshot to stdout
//! (and to `--out PATH` if given) — commit that file as
//! `BENCH_baseline.json`. Check mode (`--check PATH`) re-measures and
//! compares against the committed snapshot, normalizing by the machine
//! calibration score so a faster/slower host moves the expectation
//! rather than tripping the gate; any metric regressing beyond
//! `--tolerance` (default 0.25 = 25%) exits with status 1. Malformed
//! input or a schema/version mismatch exits with status 2.
//!
//! The full schema is documented in `docs/BENCHMARKS.md`.

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{
    optimize, CompileOptions, CompileSession, DepInfo, GaContext, GaParams, Partitioning,
};
use pimcomp_dse::{ExploreEngine, SweepSpec};
use pimcomp_sim::Simulator;
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Schema version of the emitted snapshot; bump when fields change
/// incompatibly so `--check` can refuse to compare apples to oranges.
const SCHEMA_VERSION: u32 = 1;

/// Host fingerprint + calibration captured with every snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Machine {
    os: String,
    arch: String,
    cores: usize,
    /// Single-core integer-mix throughput (millions of SplitMix64
    /// steps per second); the cross-machine normalizer for `--check`.
    calibration_mops: f64,
}

/// One measured metric: `iters` samples summarized as median and p95.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Metric {
    name: String,
    /// "throughput" (higher is better) or "latency" (lower is better).
    kind: String,
    unit: String,
    median: f64,
    p95: f64,
}

/// The committed snapshot format (`BENCH_baseline.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Baseline {
    version: u32,
    machine: Machine,
    iterations: usize,
    metrics: Vec<Metric>,
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bench_baseline [--iters N] [--out PATH] [--check PATH] \
         [--tolerance 0.25] [--quiet]"
    );
    std::process::exit(2);
}

struct Opts {
    iters: usize,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    quiet: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        iters: 5,
        out: None,
        check: None,
        tolerance: 0.25,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail_usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--iters" => {
                opts.iters = value("--iters")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail_usage("--iters must be a positive integer"));
            }
            "--out" => opts.out = Some(value("--out")),
            "--check" => opts.check = Some(value("--check")),
            "--tolerance" => {
                opts.tolerance = value("--tolerance")
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t > 0.0)
                    .unwrap_or_else(|| fail_usage("--tolerance must be a positive number"));
            }
            "--quiet" => opts.quiet = true,
            other => fail_usage(&format!("unknown argument `{other}`")),
        }
    }
    opts
}

/// Millions of SplitMix64 steps per second on one core — a pure-ALU
/// workload that tracks the same machine characteristics as the GA hot
/// loop. Best-of-three so a scheduling hiccup underestimates less.
fn calibrate() -> f64 {
    fn mix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    const STEPS: u64 = 20_000_000;
    let mut best = 0.0f64;
    for round in 0..3u64 {
        let t0 = Instant::now();
        let mut acc = round;
        for i in 0..STEPS {
            acc = mix64(acc ^ i);
        }
        let mops = STEPS as f64 / 1e6 / t0.elapsed().as_secs_f64().max(1e-9);
        // Keep `acc` observable so the loop cannot be optimized away.
        best = best.max(mops + (acc & 1) as f64 * 1e-12);
    }
    best
}

fn summarize(name: &str, kind: &str, unit: &str, mut samples: Vec<f64>) -> Metric {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    let p95 = samples[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
    Metric {
        name: name.to_string(),
        kind: kind.to_string(),
        unit: unit.to_string(),
        median,
        p95,
    }
}

/// GA throughput on resnet18, one thread, per mode — the same
/// configuration `ga_throughput` measures.
fn measure_ga(iters: usize, quiet: bool) -> Vec<Metric> {
    let graph = pimcomp_bench::load_network_or_exit("resnet18");
    let base = HardwareConfig::puma();
    let partitioning = Partitioning::new(&graph, &base).unwrap_or_else(|e| {
        eprintln!("error: cannot partition resnet18: {e}");
        std::process::exit(2);
    });
    let per_chip = base.cores_per_chip * base.crossbars_per_core;
    let chips = (2 * partitioning.min_crossbars()).div_ceil(per_chip).max(1);
    let hw = HardwareConfig::puma_with_chips(chips);
    let partitioning = Partitioning::new(&graph, &hw).unwrap_or_else(|e| {
        eprintln!("error: cannot partition resnet18: {e}");
        std::process::exit(2);
    });
    let dep = DepInfo::analyze(&graph);
    let params = GaParams {
        population: 50,
        iterations: 60,
        parallelism: NonZeroUsize::new(1),
        ..GaParams::fast(1)
    };

    let mut metrics = Vec::new();
    for (mode, suffix) in [
        (PipelineMode::HighThroughput, "ht"),
        (PipelineMode::LowLatency, "ll"),
    ] {
        let ctx = GaContext {
            hw: &hw,
            graph: &graph,
            partitioning: &partitioning,
            dep: &dep,
            mode,
            core_limit: None,
        };
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            let (_, stats) = optimize(&ctx, &params).unwrap_or_else(|e| {
                eprintln!("error: GA run failed for resnet18/{mode}: {e}");
                std::process::exit(2);
            });
            samples.push(stats.evaluations as f64 / t0.elapsed().as_secs_f64().max(1e-9));
        }
        let m = summarize(
            &format!("ga_evals_per_sec_{suffix}"),
            "throughput",
            "evals/s",
            samples,
        );
        if !quiet {
            eprintln!("  {}: median {:.0} {}", m.name, m.median, m.unit);
        }
        metrics.push(m);
    }
    metrics
}

/// Smoke-sweep throughput (the `explore_sweep --fast` fixture) at one
/// thread. One sample = `inner` back-to-back sweeps, because a single
/// 4-point sweep finishes in ~1 ms — too close to timer noise.
fn measure_sweep(iters: usize, quiet: bool) -> Metric {
    let spec = SweepSpec::from_json(pimcomp_bench::SMOKE_SWEEP_SPEC).unwrap_or_else(|e| {
        eprintln!("error: committed sweep fixture is invalid: {e}");
        std::process::exit(2);
    });
    let engine = ExploreEngine::new().with_threads(1);
    let inner = 25;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let mut points = 0usize;
        for _ in 0..inner {
            let outcome = engine.run(&spec).unwrap_or_else(|e| {
                eprintln!("error: sweep failed: {e}");
                std::process::exit(2);
            });
            points += outcome.report.points.len();
        }
        samples.push(points as f64 / t0.elapsed().as_secs_f64().max(1e-9));
    }
    let m = summarize("sweep_points_per_sec", "throughput", "points/s", samples);
    if !quiet {
        eprintln!("  {}: median {:.0} {}", m.name, m.median, m.unit);
    }
    m
}

/// End-to-end compile wall time for three zoo models (HT mode, small
/// seeded GA so the work is deterministic run to run).
fn measure_compile(iters: usize, quiet: bool) -> Vec<Metric> {
    let ga = GaParams {
        population: 16,
        iterations: 8,
        ..GaParams::fast(1)
    };
    let mut metrics = Vec::new();
    for name in ["resnet18", "squeezenet", "googlenet"] {
        let graph = pimcomp_bench::load_network_or_exit(name);
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            let compiled =
                pimcomp_bench::compile_one(&graph, PipelineMode::HighThroughput, &ga, false)
                    .unwrap_or_else(|e| {
                        eprintln!("error: compiling {name} failed: {e}");
                        std::process::exit(2);
                    });
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            // Keep the artifact observable so compilation is not
            // considered dead.
            std::hint::black_box(&compiled);
        }
        let m = summarize(&format!("compile_wall_ms_{name}"), "latency", "ms", samples);
        if !quiet {
            eprintln!("  {}: median {:.2} {}", m.name, m.median, m.unit);
        }
        metrics.push(m);
    }

    // Transformer compile: tiny_bert on a single chip with its
    // symbolic sequence dimension bound to 64 tokens — times the
    // session-level seq binding plus the MatMul/attention partitioning
    // and vector-unit costing paths the CNN models never touch. One
    // compile is fast, so a sample is `inner` back-to-back compiles.
    {
        let graph = pimcomp_bench::load_network_or_exit("tiny_bert");
        let hw = HardwareConfig::puma_with_chips(1);
        let opts = CompileOptions::new(PipelineMode::HighThroughput)
            .with_ga(ga.clone())
            .with_seq_len(64);
        let inner = 10;
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            for _ in 0..inner {
                let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
                    .and_then(|s| s.run())
                    .unwrap_or_else(|e| {
                        eprintln!("error: compiling tiny_bert failed: {e}");
                        std::process::exit(2);
                    });
                std::hint::black_box(&compiled);
            }
            samples.push(t0.elapsed().as_secs_f64() * 1e3 / inner as f64);
        }
        let m = summarize("compile_wall_ms_tiny_bert", "latency", "ms", samples);
        if !quiet {
            eprintln!("  {}: median {:.2} {}", m.name, m.median, m.unit);
        }
        metrics.push(m);
    }

    // Resource-constrained compile: resnet18 on a single chip in
    // `weight_reload` mode. Over budget, so the deterministic epoch
    // packer replaces the GA — this times the partition + packing +
    // reload-planning + schedule path the chips:1 workflow exercises.
    let graph = pimcomp_bench::load_network_or_exit("resnet18");
    let hw = HardwareConfig::puma_with_chips(1);
    let opts = CompileOptions::new(PipelineMode::HighThroughput)
        .with_ga(ga.clone())
        .with_weight_reload(None);
    // One packer-path compile finishes in well under a millisecond, so
    // a sample is `inner` back-to-back compiles to stay clear of timer
    // and scheduler noise.
    let inner = 20;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        for _ in 0..inner {
            let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
                .and_then(|s| s.run())
                .unwrap_or_else(|e| {
                    eprintln!("error: reload-mode compile of resnet18 failed: {e}");
                    std::process::exit(2);
                });
            std::hint::black_box(&compiled);
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e3 / inner as f64);
    }
    let m = summarize(
        "compile_wall_ms_resnet18_reload_1chip",
        "latency",
        "ms",
        samples,
    );
    if !quiet {
        eprintln!("  {}: median {:.2} {}", m.name, m.median, m.unit);
    }
    metrics.push(m);
    metrics
}

/// Reference functional inference wall time: one seed-synthesized f32
/// inference of resnet18 through the `pimcomp-exec` interpreter. This
/// is the dominant per-point cost a `quantization` sweep axis adds, so
/// it is gated like the compile paths.
fn measure_exec(iters: usize, quiet: bool) -> Metric {
    let graph = pimcomp_bench::load_network_or_exit("resnet18");
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let outputs = pimcomp_exec::reference_outputs(&graph, 1).unwrap_or_else(|e| {
            eprintln!("error: reference inference of resnet18 failed: {e}");
            std::process::exit(2);
        });
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&outputs);
    }
    let m = summarize("exec_ref_infer_ms_resnet18", "latency", "ms", samples);
    if !quiet {
        eprintln!("  {}: median {:.2} {}", m.name, m.median, m.unit);
    }
    m
}

/// HT simulation wall time: one `Simulator::run` of a fixed googlenet
/// compile (fast seeded GA, batch 2, the harness's sized target). The
/// compile happens once, outside the timed region, so the metric is
/// the simulator's event loop plus its model validation. One run takes
/// milliseconds, so a sample is `inner` back-to-back runs.
fn measure_sim(iters: usize, quiet: bool) -> Metric {
    let graph = pimcomp_bench::load_network_or_exit("googlenet");
    let compiled = pimcomp_bench::compile_one(
        &graph,
        PipelineMode::HighThroughput,
        &GaParams::fast(1),
        false,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: compiling googlenet failed: {e}");
        std::process::exit(2);
    });
    let simulator = Simulator::new(compiled.hw.clone());
    let inner = 5;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        for _ in 0..inner {
            let report = simulator.run(&compiled).unwrap_or_else(|e| {
                eprintln!("error: simulating googlenet failed: {e}");
                std::process::exit(2);
            });
            std::hint::black_box(&report);
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e3 / inner as f64);
    }
    let m = summarize("sim_wall_ms_googlenet_ht", "latency", "ms", samples);
    if !quiet {
        eprintln!("  {}: median {:.2} {}", m.name, m.median, m.unit);
    }
    m
}

fn measure(opts: &Opts) -> Baseline {
    if !opts.quiet {
        eprintln!(
            "bench_baseline: {} iteration(s) per metric, calibrating...",
            opts.iters
        );
    }
    let calibration_mops = calibrate();
    if !opts.quiet {
        eprintln!("  calibration: {calibration_mops:.0} Mops");
    }
    let mut metrics = measure_ga(opts.iters, opts.quiet);
    metrics.push(measure_sweep(opts.iters, opts.quiet));
    metrics.extend(measure_compile(opts.iters, opts.quiet));
    metrics.push(measure_exec(opts.iters, opts.quiet));
    metrics.push(measure_sim(opts.iters, opts.quiet));
    Baseline {
        version: SCHEMA_VERSION,
        machine: Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            calibration_mops,
        },
        iterations: opts.iters,
        metrics,
    }
}

/// Compares a fresh measurement against the committed snapshot.
///
/// The committed medians are scaled by the ratio of calibration scores
/// before comparison, so the gate asks "is this build slower than the
/// committed build *would be on this machine*" rather than comparing
/// raw numbers across different hosts.
fn check(committed: &Baseline, current: &Baseline, tolerance: f64) -> bool {
    let speed_ratio =
        current.machine.calibration_mops / committed.machine.calibration_mops.max(1e-9);
    eprintln!(
        "machine speed ratio vs committed baseline: {speed_ratio:.3} \
         ({:.0} / {:.0} Mops)",
        current.machine.calibration_mops, committed.machine.calibration_mops
    );
    let mut ok = true;
    for want in &committed.metrics {
        let Some(got) = current.metrics.iter().find(|m| m.name == want.name) else {
            eprintln!(
                "FAIL {}: metric missing from current measurement",
                want.name
            );
            ok = false;
            continue;
        };
        let (expected, passed, direction) = match want.kind.as_str() {
            "throughput" => {
                let expected = want.median * speed_ratio;
                (
                    expected,
                    got.median >= expected * (1.0 - tolerance),
                    "below",
                )
            }
            "latency" => {
                let expected = want.median / speed_ratio.max(1e-9);
                (
                    expected,
                    got.median <= expected * (1.0 + tolerance),
                    "above",
                )
            }
            other => {
                eprintln!("FAIL {}: unknown metric kind `{other}`", want.name);
                ok = false;
                continue;
            }
        };
        let delta = (got.median / expected.max(1e-9) - 1.0) * 100.0;
        if passed {
            eprintln!(
                "  ok   {}: {:.1} {} (expected ~{:.1}, {delta:+.1}%)",
                want.name, got.median, got.unit, expected
            );
        } else {
            eprintln!(
                "FAIL {}: {:.1} {} is {direction} the allowed band around {:.1} \
                 ({delta:+.1}%, tolerance {:.0}%)",
                want.name,
                got.median,
                got.unit,
                expected,
                tolerance * 100.0
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let opts = parse_args();

    if let Some(path) = &opts.check {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let committed: Baseline = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not a valid baseline snapshot: {e}");
            std::process::exit(2);
        });
        if committed.version != SCHEMA_VERSION {
            eprintln!(
                "error: {path} has schema version {} but this binary expects {}; \
                 regenerate the baseline (see docs/BENCHMARKS.md)",
                committed.version, SCHEMA_VERSION
            );
            std::process::exit(2);
        }
        let current = measure(&opts);
        if check(&committed, &current, opts.tolerance) {
            eprintln!("bench_baseline: all metrics within tolerance");
        } else {
            eprintln!(
                "bench_baseline: performance regression detected \
                 (see docs/BENCHMARKS.md for how to read and refresh the baseline)"
            );
            std::process::exit(1);
        }
        return;
    }

    let snapshot = measure(&opts);
    let json = serde_json::to_string_pretty(&snapshot).unwrap_or_else(|e| {
        eprintln!("error: snapshot failed to serialize: {e}");
        std::process::exit(2);
    });
    println!("{json}");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    }
}
