//! `pimcomp` — command-line driver for the compilation framework.
//!
//! ```text
//! pimcomp compile  --model resnet18 [--mode ht|ll] [--chips N] [--parallelism P]
//!                  [--policy naive|add|ag] [--ga POPxITERS] [--seed S]
//!                  [--artifact out.pimc.json] [--progress]
//!                  [--simulate] [--report out.json]
//! pimcomp simulate --artifact model.pimc.json [--report out.json]
//! pimcomp inspect  --model model.onnx           # graph + workload stats
//! pimcomp inspect  --artifact model.pimc.json   # compiled-stage summary
//! pimcomp export   --model vgg16 --out vgg16.onnx
//! pimcomp models                                # list the zoo
//! pimcomp explore  sweep.json [--threads N] [--out report.json]
//! pimcomp explore  --diff old.json --against new.json
//! pimcomp serve    --spec sweep.json [--out report.json] [--journal FILE]
//! pimcomp work     --connect host:port [--cache DIR]
//! ```
//!
//! `--model` accepts either a zoo name (`vgg16`, `resnet18`,
//! `googlenet`, `inception_v3`, `squeezenet`, `tiny_cnn`, …) or a path
//! to an `.onnx` file.
//!
//! The compile-once/serve-many flow: `compile --artifact` persists a
//! versioned [`CompiledArtifact`] (inputs plus the GA's decision);
//! `simulate --artifact` (typically on another machine) rebuilds the
//! schedule from that decision and executes it without re-running the
//! GA. Pass
//! `--chips`/`--parallelism` to `simulate` to pin the serving target —
//! the artifact's hardware fingerprint is then checked against it.

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;
use pimcomp_core::{CompileStage, GaParams, ReusePolicy};
use pimcomp_ir::transform::normalize;
use pimcomp_ir::{Graph, GraphStats};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (opts, spec) = match parse_args(cmd, rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "compile" => cmd_compile(&opts),
        "simulate" => cmd_simulate(&opts),
        "verify" => cmd_verify(&opts),
        "inspect" => cmd_inspect(&opts),
        "export" => cmd_export(&opts),
        "models" => cmd_models(),
        "explore" => cmd_explore(&opts, spec),
        "serve" => cmd_serve(&opts),
        "work" => cmd_work(&opts),
        other => unreachable!("`{other}` has a flag table but no handler"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "pimcomp — compilation framework for crossbar-based PIM DNN accelerators

USAGE:
  pimcomp compile  --model <NAME|FILE.onnx> [options]  compile (and optionally simulate)
  pimcomp simulate --artifact <FILE.pimc.json>         simulate a saved artifact
  pimcomp verify   --artifact <FILE.pimc.json>         functionally execute a saved
                                                       artifact and check its numerics
  pimcomp inspect  --model <NAME|FILE.onnx>            print graph and workload statistics
  pimcomp inspect  --artifact <FILE.pimc.json>         summarize a saved artifact's decision
  pimcomp export   --model <NAME> --out <FILE.onnx>    export a zoo model as ONNX
  pimcomp models                                       list zoo models
  pimcomp explore  <SPEC.json> [options]               run a design-space sweep
  pimcomp explore  --diff <OLD.json> --against <NEW.json>
                                                       diff two sweep reports
  pimcomp serve    --spec <SPEC.json> [options]        coordinate a distributed sweep
  pimcomp work     --connect <HOST:PORT> [options]     join a sweep as a worker

OPTIONS (compile):
  --mode ht|ll            pipeline mode (default: ht)
  --chips N               chip count (default: sized to fit with 2x headroom)
  --parallelism P         parallelism degree (default: 20)
  --policy naive|add|ag   memory-reuse policy (default: ag)
  --ga POPxITERS          GA size (default: 100x200)
  --seed S                GA seed (default: 1)
  --weight-reload         allow time-multiplexing the crossbars: models
                          larger than the target compile into mapping
                          epochs whose weights are rewritten between
                          phases (reload stalls appear in the report)
  --seq-len N             bind symbolic sequence dimensions to N tokens
                          (required for transformer models such as
                          tiny_bert; ignored by fixed-shape CNNs)
  --reload-budget N       cap the resident crossbar budget at N
                          (default: the target's full crossbar count;
                          requires --weight-reload)
  --threads N|auto        GA worker threads (`auto` uses all cores; any
                          value compiles bit-identically; default: the
                          PIMCOMP_GA_THREADS env var, else 1)
  --artifact FILE         save the compiled model as a versioned artifact
  --progress              stream stage + GA-generation progress to stderr
  --simulate              run the cycle-accurate simulator on the result
  --report FILE.json      write a JSON report

OPTIONS (simulate):
  --artifact FILE         artifact produced by `compile --artifact`
  --chips N, --parallelism P
                          pin the serving target; the artifact's hardware
                          fingerprint is checked against it (default: the
                          artifact's own embedded hardware)
  --report FILE.json      write the simulation report as JSON

OPTIONS (verify):
  --artifact FILE         artifact produced by `compile --artifact`
  --seed S                synthetic weight/input seed (default: 1); must
                          match a seed the caller wants to reproduce —
                          verification is self-contained, any seed works
  --tolerance T           max acceptable output RMSE for the unquantized
                          check (default: 1e-4)
  --quantized             also execute with crossbar quantization (weight
                          bit-slicing into cells plus ADC clipping) and
                          report the accuracy degradation; the run fails
                          only if the quantized top-1 prediction flips
  --adc-bits B            ADC resolution for --quantized (default: 8;
                          32 means an ideal converter)

OPTIONS (explore):
  (the sweep spec JSON — models incl. .onnx paths, modes, hardware grids
  or \"auto\" per-model sizing, memory_policies, ht_batches, seeds,
  search — is documented field by field in docs/SWEEP_SPEC.md)
  --threads N|auto        sweep worker threads (default: auto; any value
                          produces a byte-identical report)
  --out FILE.json         write the versioned sweep report as JSON
  --csv FILE.csv          write the sweep report as CSV
  --cache DIR|off         per-point artifact cache; reruns replay cached
                          points (default: .pimcomp-cache)
  --cache-max-mb N        bound the cache directory; least-recently-used
                          artifacts are evicted after the run (default:
                          unbounded)
  --budget-summary        print per-rung evaluation accounting and the
                          evaluations saved vs an exhaustive sweep (the
                          spec's `search` section selects the strategy)
  --progress              stream per-point completions (key, rung, cache
                          hit/miss) to stderr; stdout is unchanged
  --diff OLD --against NEW
                          compare two sweep reports instead of running

OPTIONS (serve):
  --spec SPEC.json        the sweep spec (exhaustive search only)
  --listen HOST:PORT      listen address (default: 127.0.0.1:0 — any free
                          port; see --port-file)
  --port-file FILE        write the bound address (host:port) to FILE once
                          listening, for scripted worker launches
  --journal FILE          append-only crash-resume journal; rerunning with
                          the same spec and journal resumes completed points
  --lease-size N          points per worker lease (default: 4)
  --lease-timeout-secs S  reclaim leases older than this (default: 60)
  --out FILE.json         write the report — byte-identical to a
                          single-process `pimcomp explore --out` run
  --csv FILE.csv          write the report as CSV
  --progress              stream lease/point/worker events to stderr

OPTIONS (work):
  --connect HOST:PORT     coordinator address (required)
  --name NAME             display name in the coordinator's progress view
  --cache DIR             shared content-addressed artifact store
  --cache-max-mb N        bound the cache (LRU eviction after each lease)
  --max-points N          stop after N points (CI kill/restart drills)
  --throttle-ms MS        sleep after each point (test interleaving)";

/// A command-line flag: its name without the leading `--`, and whether
/// a value follows it.
type Flag = (&'static str, bool);

/// Each subcommand's flags; a flag not in its command's list is an error.
const COMMAND_FLAGS: &[(&str, &[Flag])] = &[
    (
        "compile",
        &[
            ("model", true),
            ("mode", true),
            ("chips", true),
            ("parallelism", true),
            ("policy", true),
            ("ga", true),
            ("seed", true),
            ("weight-reload", false),
            ("seq-len", true),
            ("reload-budget", true),
            ("threads", true),
            ("artifact", true),
            ("progress", false),
            ("simulate", false),
            ("report", true),
        ],
    ),
    (
        "simulate",
        &[
            ("artifact", true),
            ("chips", true),
            ("parallelism", true),
            ("report", true),
        ],
    ),
    (
        "verify",
        &[
            ("artifact", true),
            ("seed", true),
            ("tolerance", true),
            ("quantized", false),
            ("adc-bits", true),
        ],
    ),
    ("inspect", &[("model", true), ("artifact", true)]),
    ("export", &[("model", true), ("out", true)]),
    ("models", &[]),
    (
        "explore",
        &[
            ("spec", true),
            ("threads", true),
            ("out", true),
            ("csv", true),
            ("cache", true),
            ("cache-max-mb", true),
            ("budget-summary", false),
            ("progress", false),
            ("diff", true),
            ("against", true),
        ],
    ),
    (
        "serve",
        &[
            ("spec", true),
            ("listen", true),
            ("port-file", true),
            ("journal", true),
            ("lease-size", true),
            ("lease-timeout-secs", true),
            ("out", true),
            ("csv", true),
            ("progress", false),
        ],
    ),
    (
        "work",
        &[
            ("connect", true),
            ("name", true),
            ("cache", true),
            ("cache-max-mb", true),
            ("max-points", true),
            ("throttle-ms", true),
        ],
    ),
];

/// Parses the arguments of subcommand `cmd` against its flag table into
/// flag values (switches map to `"true"`) and, for `explore`, the
/// positional spec path.
fn parse_args(
    cmd: &str,
    args: &[String],
) -> Result<(HashMap<String, String>, Option<String>), String> {
    let (_, flags) = COMMAND_FLAGS
        .iter()
        .find(|(name, _)| *name == cmd)
        .ok_or_else(|| format!("unknown command `{cmd}`"))?;
    let mut map = HashMap::new();
    let mut positional = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            if cmd == "explore" && positional.is_none() {
                positional = Some(a.clone());
                continue;
            }
            return Err(format!("unexpected argument `{a}`"));
        };
        let Some(&(_, takes_value)) = flags.iter().find(|(name, _)| *name == key) else {
            let known: Vec<String> = flags.iter().map(|(name, _)| format!("--{name}")).collect();
            return Err(format!(
                "unknown flag `--{key}` for `pimcomp {cmd}`; its flags are: {}",
                if known.is_empty() {
                    "(none)".to_string()
                } else {
                    known.join(", ")
                }
            ));
        };
        let value = if takes_value {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        } else {
            "true".to_string()
        };
        map.insert(key.to_string(), value);
    }
    Ok((map, positional))
}

fn load_model(opts: &HashMap<String, String>) -> Result<Graph, String> {
    let spec = opts
        .get("model")
        .ok_or("`--model` is required (zoo name or .onnx path)")?;
    if spec.ends_with(".onnx") {
        let bytes = std::fs::read(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        return pimcomp_onnx::import_bytes(&bytes).map_err(|e| e.to_string());
    }
    pimcomp::ir::models::test_model(spec)
        .or_else(|| pimcomp::ir::models::by_name(spec))
        .ok_or_else(|| {
            format!(
                "unknown model `{spec}`; available models: {}",
                pimcomp::ir::models::ZOO
                    .iter()
                    .chain(pimcomp::ir::models::TEST_MODELS.iter())
                    .copied()
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn hardware(opts: &HashMap<String, String>, graph: &Graph) -> Result<HardwareConfig, String> {
    let parallelism: usize = opts
        .get("parallelism")
        .map(|s| s.parse().map_err(|_| "bad --parallelism"))
        .transpose()?
        .unwrap_or(20);
    let chips = match opts.get("chips") {
        Some(s) => s.parse().map_err(|_| "bad --chips")?,
        // The shared headroom heuristic (also behind `hardware: "auto"`
        // in sweep specs and the bench harness's sizing).
        None => pimcomp_core::sized_chips(graph, &HardwareConfig::puma(), 2.0)
            .map_err(|e| e.to_string())?,
    };
    let hw = HardwareConfig::puma_with_chips(chips).with_parallelism(parallelism);
    hw.validate().map_err(|e| e.to_string())?;
    Ok(hw)
}

fn cmd_compile(opts: &HashMap<String, String>) -> Result<(), String> {
    let graph =
        normalize(&load_model(opts)?).map_err(|e| format!("model failed normalization: {e}"))?;
    let seq_len = opts
        .get("seq-len")
        .map(|s| {
            s.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or("--seq-len expects a positive integer")
        })
        .transpose()?;
    // Hardware sizing needs fixed shapes; the session re-binds (a
    // no-op on the already-bound graph) through the same options path
    // API users take.
    let sizing_graph = match seq_len {
        Some(n) => pimcomp::ir::transform::bind_seq_len(&graph, n).map_err(|e| e.to_string())?,
        None => graph.clone(),
    };
    let hw = hardware(opts, &sizing_graph)?;
    let mode = match opts.get("mode").map(String::as_str).unwrap_or("ht") {
        "ht" | "HT" => PipelineMode::HighThroughput,
        "ll" | "LL" => PipelineMode::LowLatency,
        other => return Err(format!("unknown mode `{other}` (ht|ll)")),
    };
    let policy = match opts.get("policy").map(String::as_str).unwrap_or("ag") {
        "naive" => ReusePolicy::Naive,
        "add" => ReusePolicy::AddReuse,
        "ag" => ReusePolicy::AgReuse,
        other => return Err(format!("unknown policy `{other}` (naive|add|ag)")),
    };
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(1);
    let parallelism = match opts.get("threads").map(String::as_str) {
        None => None,
        Some("auto") => std::thread::available_parallelism().ok(),
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|_| "--threads expects a positive integer or `auto`")?;
            Some(std::num::NonZeroUsize::new(n).ok_or("--threads must be at least 1 (or `auto`)")?)
        }
    };
    let ga = match opts.get("ga").map(String::as_str) {
        Some(spec) => {
            let (pop, iters) = spec
                .split_once('x')
                .ok_or("--ga expects POPxITERS, e.g. 100x200")?;
            GaParams {
                population: pop.parse().map_err(|_| "bad GA population")?,
                iterations: iters.parse().map_err(|_| "bad GA iterations")?,
                seed,
                parallelism,
                ..GaParams::default()
            }
        }
        None => GaParams {
            seed,
            parallelism,
            ..GaParams::default()
        },
    };

    println!(
        "compiling {} for {} chips x {} cores (parallelism {}, {mode} mode)...",
        graph.name(),
        hw.chips,
        hw.cores_per_chip,
        hw.parallelism
    );
    let reload_budget = opts
        .get("reload-budget")
        .map(|s| s.parse::<usize>().map_err(|_| "bad --reload-budget"))
        .transpose()?;
    let mut compile_opts = CompileOptions::new(mode).with_ga(ga).with_policy(policy);
    if let Some(n) = seq_len {
        compile_opts = compile_opts.with_seq_len(n);
    }
    if opts.contains_key("weight-reload") {
        compile_opts = compile_opts.with_weight_reload(reload_budget);
    } else if reload_budget.is_some() {
        return Err("--reload-budget requires --weight-reload".to_string());
    }
    let session =
        CompileSession::new(hw.clone(), &graph, compile_opts).map_err(|e| e.to_string())?;
    let compiled = if opts.contains_key("progress") {
        session.run_observed(&mut ProgressPrinter::default())
    } else {
        session.run()
    }
    .map_err(|e| e.to_string())?;

    let r = &compiled.report;
    println!(
        "  stages: partition {:?}, replicate+map {:?}, schedule {:?}",
        r.timings.node_partitioning, r.timings.replicating_mapping, r.timings.dataflow_scheduling
    );
    println!("  replication: {:?}", r.replication);
    println!(
        "  {} active cores, {} / {} crossbars, estimated {} = {:.0} cycles",
        r.active_cores,
        r.crossbars_used,
        hw.total_crossbars(),
        if mode == PipelineMode::HighThroughput {
            "F_HT"
        } else {
            "F_LL"
        },
        r.estimated_fitness
    );
    if let Some(plan) = &compiled.reload {
        if plan.is_single_epoch() {
            println!(
                "  weight reload: fits the {}-crossbar budget in one epoch (no reload cost)",
                plan.budget
            );
        } else {
            println!(
                "  weight reload: {} epochs over a {}-crossbar budget, {} AGs rewritten, \
                 {} write-stall cycles, {:.1} uJ write energy",
                plan.epoch_count(),
                plan.budget,
                plan.total_ags_written,
                plan.total_write_cycles,
                plan.total_write_pj / 1e6
            );
        }
    }

    let sim_report = if opts.contains_key("simulate") {
        let report = Simulator::new(hw)
            .run(&compiled)
            .map_err(|e| e.to_string())?;
        match mode {
            PipelineMode::HighThroughput => println!(
                "  simulated: {} cycles/inference -> {:.0} inf/s",
                report.total_cycles, report.throughput_inf_per_s
            ),
            PipelineMode::LowLatency => println!(
                "  simulated: {} cycles latency ({:.1} us)",
                report.total_cycles, report.latency_us
            ),
        }
        println!(
            "  energy {:.1} uJ (dyn {:.1} + leak {:.1}), avg local mem {:.1} kB",
            report.energy.total_pj() / 1e6,
            report.energy.dynamic_pj() / 1e6,
            report.energy.leakage_pj / 1e6,
            report.memory.avg_local_bytes / 1024.0
        );
        if report.reload_stall_cycles > 0 {
            println!(
                "  reload: {} epochs, {} AGs rewritten, {} stall cycles, {:.1} uJ write energy",
                report.reload_epochs,
                report.reload_ags_rewritten,
                report.reload_stall_cycles,
                report.energy.reload_pj / 1e6
            );
        }
        Some(report)
    } else {
        None
    };

    if let Some(path) = opts.get("report") {
        #[derive(serde::Serialize)]
        struct FullReport<'a> {
            compile: &'a pimcomp_core::CompileReport,
            simulation: Option<&'a pimcomp_sim::SimReport>,
        }
        let payload = FullReport {
            compile: r,
            simulation: sim_report.as_ref(),
        };
        let json = serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("  wrote {path}");
    }

    // Last, so the model can be moved into the artifact without a
    // deep copy (compiled models for large networks are megabytes).
    if let Some(path) = opts.get("artifact") {
        let artifact = CompiledArtifact::new(compiled);
        artifact.save(path).map_err(|e| e.to_string())?;
        println!(
            "  wrote artifact {path} (format v{}, hw fingerprint {:#018x})",
            artifact.format_version(),
            artifact.hw_fingerprint()
        );
    }
    Ok(())
}

/// Observer streaming stage + GA progress to stderr (`--progress`).
#[derive(Default)]
struct ProgressPrinter {
    last_reported: usize,
}

/// Whether `GA_DEBUG` is set, read **once** per process. The mutation
/// diagnostics it unlocks flow through the [`GaGeneration`] observer
/// snapshot (the library tallies them into `GaStats` instead of
/// printing to stderr from the hot mutation loop).
fn ga_debug() -> bool {
    static GA_DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *GA_DEBUG.get_or_init(|| std::env::var_os("GA_DEBUG").is_some())
}

impl CompileObserver for ProgressPrinter {
    fn on_stage_start(&mut self, stage: CompileStage) {
        eprintln!("[stage] {} ...", stage.label());
    }

    fn on_stage_finish(&mut self, stage: CompileStage, elapsed: Duration) {
        eprintln!("[stage] {} done in {elapsed:?}", stage.label());
    }

    fn on_ga_generation(&mut self, p: GaGeneration) {
        // Report ~20 times per run to keep stderr readable.
        let step = (p.total_generations / 20).max(1);
        if p.generation >= self.last_reported + step || p.generation + 1 == p.total_generations {
            self.last_reported = p.generation;
            eprintln!(
                "[ga] generation {}/{}: best fitness {:.0} ({} evaluations, {} cache hits)",
                p.generation + 1,
                p.total_generations,
                p.best_fitness,
                p.evaluations,
                p.cache_hits
            );
            if ga_debug() {
                eprintln!(
                    "[ga]   grow mutations so far: {} placed, {} failed (wedged \
                     against capacity when failures dominate)",
                    p.grow_successes, p.grow_failures
                );
            }
        }
    }
}

fn cmd_simulate(opts: &HashMap<String, String>) -> Result<(), String> {
    let path = opts
        .get("artifact")
        .ok_or("`--artifact FILE` is required (produced by `compile --artifact`)")?;
    let artifact = CompiledArtifact::load(path).map_err(|e| e.to_string())?;
    let model = artifact.model();
    println!(
        "loaded {path}: {} ({} mode, format v{}, hw fingerprint {:#018x})",
        model.report.model,
        model.mode,
        artifact.format_version(),
        artifact.hw_fingerprint()
    );
    // With --chips/--parallelism the caller pins the serving target and
    // the fingerprint check is meaningful; otherwise the artifact's own
    // embedded hardware is the target (trivially matching).
    let target = if opts.contains_key("chips") || opts.contains_key("parallelism") {
        let chips = match opts.get("chips") {
            Some(s) => s.parse().map_err(|_| "bad --chips")?,
            None => model.hw.chips,
        };
        let parallelism = match opts.get("parallelism") {
            Some(s) => s.parse().map_err(|_| "bad --parallelism")?,
            None => model.hw.parallelism,
        };
        HardwareConfig::puma_with_chips(chips).with_parallelism(parallelism)
    } else {
        model.hw.clone()
    };
    let report = Simulator::new(target)
        .run_artifact(&artifact)
        .map_err(|e| e.to_string())?;
    match model.mode {
        PipelineMode::HighThroughput => println!(
            "  simulated: {} cycles/inference -> {:.0} inf/s",
            report.total_cycles, report.throughput_inf_per_s
        ),
        PipelineMode::LowLatency => println!(
            "  simulated: {} cycles latency ({:.1} us)",
            report.total_cycles, report.latency_us
        ),
    }
    println!(
        "  energy {:.1} uJ (dyn {:.1} + leak {:.1}), avg local mem {:.1} kB",
        report.energy.total_pj() / 1e6,
        report.energy.dynamic_pj() / 1e6,
        report.energy.leakage_pj / 1e6,
        report.memory.avg_local_bytes / 1024.0
    );
    if let Some(out) = opts.get("report") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| e.to_string())?;
        println!("  wrote {out}");
    }
    Ok(())
}

fn cmd_verify(opts: &HashMap<String, String>) -> Result<(), String> {
    let path = opts
        .get("artifact")
        .ok_or("`--artifact FILE` is required (produced by `compile --artifact`)")?;
    let artifact = CompiledArtifact::load(path).map_err(|e| e.to_string())?;
    let model = artifact.model();
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(1);
    let tolerance: f64 = opts
        .get("tolerance")
        .map(|s| s.parse().map_err(|_| "bad --tolerance"))
        .transpose()?
        .unwrap_or(1e-4);
    println!(
        "loaded {path}: {} ({} mode, format v{}, hw fingerprint {:#018x})",
        model.report.model,
        model.mode,
        artifact.format_version(),
        artifact.hw_fingerprint()
    );
    let exact = pimcomp::exec::verify_model(model, seed, None).map_err(|e| e.to_string())?;
    println!(
        "  unquantized: RMSE {:.3e} over {} output values, top-1 {} (seed {seed})",
        exact.output_rmse,
        exact.output_len,
        if exact.top1_match {
            "match"
        } else {
            "MISMATCH"
        }
    );
    if exact.output_rmse > tolerance {
        return Err(format!(
            "mapped execution diverges from the reference: RMSE {:.3e} exceeds tolerance {tolerance:.1e}",
            exact.output_rmse
        ));
    }
    if opts.contains_key("quantized") {
        let adc_bits: u32 = opts
            .get("adc-bits")
            .map(|s| s.parse().map_err(|_| "bad --adc-bits"))
            .transpose()?
            .unwrap_or(8);
        let quant = pimcomp_arch::QuantConfig::for_hardware(&model.hw, adc_bits)
            .map_err(|e| e.to_string())?;
        let q = pimcomp::exec::verify_model(model, seed, Some(quant)).map_err(|e| e.to_string())?;
        println!(
            "  quantized ({}b cells, {}b weights, {}b ADC): RMSE {:.3e}, top-1 {}",
            model.hw.cell_bits,
            model.hw.weight_bits,
            adc_bits,
            q.output_rmse,
            if q.top1_match { "match" } else { "MISMATCH" }
        );
        if !q.top1_match {
            return Err(format!(
                "quantization at {adc_bits} ADC bits flips the top-1 prediction \
                 (RMSE {:.3e}); raise --adc-bits or the cell precision",
                q.output_rmse
            ));
        }
    }
    println!("  verification passed");
    Ok(())
}

fn inspect_artifact(path: &str) -> Result<(), String> {
    let artifact = CompiledArtifact::load(path).map_err(|e| e.to_string())?;
    let m = artifact.model();
    let r = &m.report;
    println!(
        "artifact {path} (format v{}, hw fingerprint {:#018x})",
        artifact.format_version(),
        artifact.hw_fingerprint()
    );
    println!(
        "model: {} compiled by {} in {} mode",
        r.model, r.compiler, r.mode
    );
    println!(
        "hardware: {} chips x {} cores, parallelism {}",
        m.hw.chips, m.hw.cores_per_chip, m.hw.parallelism
    );
    match &r.ga {
        Some(ga) => println!(
            "decision: GA {:.0} -> {:.0} over {} generations, {} evals ({} incremental), \
             {} cache hits",
            ga.initial_fitness,
            ga.final_fitness,
            ga.history.len(),
            ga.evaluations,
            ga.incremental_evals,
            ga.cache_hits
        ),
        None if m.chromosome.is_some() => println!("decision: {} chromosome", r.compiler),
        None => println!("decision: epoch-packed"),
    }
    println!("rebuilt on load:");
    println!("  partitioning : {} MVM nodes", m.partitioning.len());
    println!(
        "  mapping      : {} active cores, {} crossbars",
        r.active_cores, r.crossbars_used
    );
    println!(
        "  scheduling   : {} schedule, {} policy, peak local {:.1} kB",
        match &m.schedule {
            pimcomp_core::Schedule::HighThroughput(_) => "HT",
            pimcomp_core::Schedule::LowLatency(_) => "LL",
        },
        m.memory.policy.label(),
        m.memory.peak_bytes as f64 / 1024.0
    );
    println!("replication: {:?}", r.replication);
    match &m.reload {
        Some(plan) if plan.is_single_epoch() => println!(
            "weight reload: single epoch within a {}-crossbar budget (resident, no reload cost)",
            plan.budget
        ),
        Some(plan) => println!(
            "weight reload: {} epochs over a {}-crossbar budget ({} AGs rewritten, \
             {} write-stall cycles, {:.1} uJ)",
            plan.epoch_count(),
            plan.budget,
            plan.total_ags_written,
            plan.total_write_cycles,
            plan.total_write_pj / 1e6
        ),
        None => {}
    }
    println!("estimated fitness: {:.0} cycles", r.estimated_fitness);
    Ok(())
}

fn cmd_inspect(opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = opts.get("artifact") {
        return inspect_artifact(path);
    }
    let graph = load_model(opts)?;
    let stats = GraphStats::of(&graph);
    println!("model: {} ({} nodes)", stats.model, stats.nodes);
    println!(
        "totals: {} conv/fc nodes, {:.2}M params, {:.2}G MACs",
        stats.mvm_nodes,
        stats.params as f64 / 1e6,
        stats.macs as f64 / 1e9
    );
    println!(
        "\n{:<28} {:<10} {:>12} {:>14} {:>10}",
        "node", "op", "params", "MACs", "windows"
    );
    for n in &stats.per_node {
        if n.macs == 0 && n.params == 0 {
            continue;
        }
        println!(
            "{:<28} {:<10} {:>12} {:>14} {:>10}",
            n.name, n.op, n.params, n.macs, n.windows
        );
    }
    Ok(())
}

fn cmd_export(opts: &HashMap<String, String>) -> Result<(), String> {
    let graph = load_model(opts)?;
    let out = opts.get("out").ok_or("`--out FILE.onnx` is required")?;
    let bytes = pimcomp_onnx::export_graph(&graph).encode();
    std::fs::write(out, &bytes).map_err(|e| e.to_string())?;
    println!("wrote {out} ({} bytes)", bytes.len());
    Ok(())
}

fn cmd_explore(flags: &HashMap<String, String>, spec_path: Option<String>) -> Result<(), String> {
    use pimcomp::dse::{ExploreEngine, SweepAxis, SweepReport, SweepSpec};

    // Diff mode: compare two saved reports instead of running.
    if let Some(old) = flags.get("diff") {
        let new = flags
            .get("against")
            .ok_or("`--diff OLD` needs `--against NEW`")?;
        let old_report = SweepReport::load(old).map_err(|e| e.to_string())?;
        let new_report = SweepReport::load(new).map_err(|e| e.to_string())?;
        print!("{}", old_report.diff(&new_report));
        return Ok(());
    }

    let spec_path = spec_path
        .or_else(|| flags.get("spec").cloned())
        .ok_or("`pimcomp explore` needs a sweep spec path (JSON)")?;
    let json =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = SweepSpec::from_json(&json).map_err(|e| e.to_string())?;

    let threads = match flags.get("threads").map(String::as_str) {
        None | Some("auto") => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--threads expects a positive integer or `auto`")?,
    };
    let mut engine = ExploreEngine::new().with_threads(threads);
    match flags.get("cache").map(String::as_str) {
        Some("off") => {}
        Some(dir) => engine = engine.with_cache_dir(dir),
        None => engine = engine.with_cache_dir(".pimcomp-cache"),
    }
    if let Some(raw) = flags.get("cache-max-mb") {
        let max_mb: u64 = raw
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--cache-max-mb expects a positive integer (megabytes)")?;
        engine = engine.with_cache_limit_mb(max_mb);
    }
    if flags.contains_key("progress") {
        // Per-point completions go to stderr; stdout (the summary and
        // frontier table) is byte-for-byte what a silent run prints.
        engine = engine.with_progress(std::sync::Arc::new(|e: &pimcomp::dse::PointEvent| {
            eprintln!(
                "[explore] {}/{} {} rung {} ({}{})",
                e.index + 1,
                e.total,
                e.key,
                e.rung,
                if e.cache_hit { "cache hit" } else { "compiled" },
                if e.ok { "" } else { ", failed" }
            );
        }));
    }

    // One factor per sweep axis, in expansion order, so the printed
    // product equals the point count. The batch axis folds into the mode
    // factor because low-latency modes collapse it to batch 1.
    let ht = PipelineMode::HighThroughput;
    let ht_modes = spec.modes.iter().filter(|&&m| m == ht).count();
    let ll_modes = spec.modes.len() - ht_modes;
    let batches = spec.axis_len(SweepAxis::Batches, ht);
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    let factors: Vec<String> = SweepAxis::ALL
        .iter()
        .filter_map(|&axis| match axis {
            SweepAxis::Batches => None,
            SweepAxis::Modes => Some(match (ht_modes, ll_modes) {
                (_, 0) => format!("{ht_modes} modes x {batches} batches"),
                (0, _) => format!("{ll_modes} modes"),
                _ => format!(
                    "({ht_modes} HT mode{} x {batches} batches + {ll_modes} LL mode{})",
                    plural(ht_modes),
                    plural(ll_modes)
                ),
            }),
            axis => Some(format!("{} {}", spec.axis_len(axis, ht), axis.name())),
        })
        .collect();
    println!(
        "exploring {} points ({}, {} search, {threads} threads)...",
        spec.len(),
        factors.join(" x "),
        spec.search.name()
    );
    if spec.hardware.is_auto() {
        println!(
            "  hardware: auto — chip counts sized per model by the headroom heuristic \
             (labels carry the chosen count)"
        );
    }
    if spec.modes.contains(&PipelineMode::LowLatency) && spec.batches.iter().any(|&b| b > 1) {
        println!(
            "  note: `ht_batches` applies to high-throughput points only; \
             low-latency points always run batch 1"
        );
    }
    let outcome = engine.run(&spec).map_err(|e| e.to_string())?;
    let report = &outcome.report;
    println!(
        "  evaluated {} points: {} ok, {} failed, {} cache hits / {} compiled",
        report.points.len(),
        report.points.len() - report.failures(),
        report.failures(),
        outcome.cache_hits,
        outcome.cache_misses
    );
    if let Some(ev) = &outcome.eviction {
        if ev.evicted_files > 0 {
            println!(
                "  cache bound: evicted {} artifact(s) ({:.1} MB), kept {} ({:.1} MB)",
                ev.evicted_files,
                ev.evicted_bytes as f64 / (1024.0 * 1024.0),
                ev.kept_files,
                ev.kept_bytes as f64 / (1024.0 * 1024.0)
            );
        }
    }
    if flags.contains_key("budget-summary") {
        println!();
        print!("{}", outcome.budget);
    }

    println!(
        "\nPareto frontier ({} of {} points, per model x mode):",
        report.frontier.len(),
        report.points.len()
    );
    println!(
        "  {:<10} {:<4} {:<28} {:<6} {:>5} {:>20} {:>12} {:>12} {:>11} {:>6}",
        "model",
        "mode",
        "hardware",
        "policy",
        "batch",
        "seed",
        "cycles",
        "energy(uJ)",
        "inf/s",
        "xbar%"
    );
    for p in report.frontier_records() {
        let m = p.metrics.as_ref().expect("frontier points succeeded");
        println!(
            "  {:<10} {:<4} {:<28} {:<6} {:>5} {:>20} {:>12} {:>12.2} {:>11.0} {:>5.1}%",
            p.model,
            p.mode,
            p.hardware,
            p.policy,
            p.batch,
            p.seed,
            m.cycles,
            m.energy_uj,
            m.throughput_inf_per_s,
            m.crossbar_utilization * 100.0
        );
    }
    for p in report.points.iter().filter(|p| !p.ok) {
        eprintln!(
            "  failed: {} ({})",
            p.key(),
            p.error.as_deref().unwrap_or("unknown")
        );
    }

    if let Some(path) = flags.get("out") {
        std::fs::write(path, report.to_json().map_err(|e| e.to_string())? + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nwrote {path} (report format v{})", report.format_version);
    }
    if let Some(path) = flags.get("csv") {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    use pimcomp::serve::{Coordinator, CoordinatorConfig};

    let spec_path = opts
        .get("spec")
        .ok_or("`--spec SPEC.json` is required (an exhaustive sweep spec)")?;
    let json =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;

    let mut cfg = CoordinatorConfig::default();
    if let Some(listen) = opts.get("listen") {
        cfg.listen = listen.clone();
    }
    if let Some(raw) = opts.get("lease-size") {
        cfg.lease_size = raw
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--lease-size expects a positive integer")?;
    }
    if let Some(raw) = opts.get("lease-timeout-secs") {
        let secs: u64 = raw
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--lease-timeout-secs expects a positive integer")?;
        cfg.lease_timeout = Duration::from_secs(secs);
    }
    cfg.journal = opts.get("journal").map(std::path::PathBuf::from);
    cfg.progress = opts.contains_key("progress");
    // Label the job by the spec's file stem so journal headers and
    // progress lines say which sweep this is.
    if let Some(stem) = std::path::Path::new(spec_path)
        .file_stem()
        .and_then(|s| s.to_str())
    {
        cfg.job = stem.to_string();
    }

    let coordinator = Coordinator::bind(&json, cfg).map_err(|e| e.to_string())?;
    let addr = coordinator.local_addr().map_err(|e| e.to_string())?;
    println!("coordinating sweep {spec_path} on {addr}");
    if let Some(path) = opts.get("port-file") {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }

    let outcome = coordinator.run().map_err(|e| e.to_string())?;
    let report = &outcome.report;
    println!(
        "  evaluated {} points ({} resumed from the journal): {} ok, {} failed",
        outcome.evaluated_points,
        outcome.resumed_points,
        report.points.len() - report.failures(),
        report.failures()
    );
    println!(
        "  {} worker connection(s), {} lease(s) issued, {} reclaimed",
        outcome.workers_seen, outcome.leases_issued, outcome.leases_reclaimed
    );
    if let Some(path) = opts.get("out") {
        // Same bytes as `pimcomp explore --out` — the determinism gate
        // `cmp`s the two files.
        std::fs::write(path, report.to_json().map_err(|e| e.to_string())? + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path} (report format v{})", report.format_version);
    }
    if let Some(path) = opts.get("csv") {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }
    Ok(())
}

fn cmd_work(opts: &HashMap<String, String>) -> Result<(), String> {
    use pimcomp::serve::{run_worker, WorkerConfig};

    let connect = opts
        .get("connect")
        .ok_or("`--connect HOST:PORT` is required (the coordinator's address)")?;
    let mut cfg = WorkerConfig::connect_to(connect.as_str());
    if let Some(name) = opts.get("name") {
        cfg.name = name.clone();
    }
    cfg.cache_dir = opts.get("cache").map(std::path::PathBuf::from);
    if let Some(raw) = opts.get("cache-max-mb") {
        let max_mb: u64 = raw
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--cache-max-mb expects a positive integer (megabytes)")?;
        cfg.cache_max_mb = Some(max_mb);
    }
    if let Some(raw) = opts.get("max-points") {
        cfg.max_points = Some(
            raw.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("--max-points expects a positive integer")?,
        );
    }
    if let Some(raw) = opts.get("throttle-ms") {
        let ms: u64 = raw
            .parse()
            .map_err(|_| "--throttle-ms expects milliseconds")?;
        cfg.throttle = Some(Duration::from_millis(ms));
    }

    let summary = run_worker(&cfg).map_err(|e| e.to_string())?;
    println!(
        "worker {} done: {} point(s) evaluated ({} cache hits) over {} lease(s){}",
        summary.worker,
        summary.points_evaluated,
        summary.cache_hits,
        summary.leases,
        if summary.stopped_early {
            ", stopped early at --max-points"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_models() -> Result<(), String> {
    println!("paper benchmarks:");
    for m in pimcomp::ir::models::PAPER_BENCHMARKS {
        let g = pimcomp::ir::models::by_name(m).expect("zoo model");
        let s = GraphStats::of(&g);
        println!(
            "  {:<14} {:>3} nodes {:>7.2}M params {:>6.2}G MACs",
            m,
            s.nodes,
            s.params as f64 / 1e6,
            s.macs as f64 / 1e9
        );
    }
    println!("other zoo models:");
    for m in pimcomp::ir::models::ZOO {
        if pimcomp::ir::models::PAPER_BENCHMARKS.contains(&m) {
            continue;
        }
        let g = pimcomp::ir::models::by_name(m).expect("zoo model");
        let s = GraphStats::of(&g);
        if g.has_symbolic_dims() {
            println!(
                "  {:<14} {:>3} nodes {:>7.2}M params   symbolic seq (bind with --seq-len)",
                m,
                s.nodes,
                s.params as f64 / 1e6
            );
        } else {
            println!(
                "  {:<14} {:>3} nodes {:>7.2}M params {:>6.2}G MACs",
                m,
                s.nodes,
                s.params as f64 / 1e6,
                s.macs as f64 / 1e9
            );
        }
    }
    println!(
        "test models: {}",
        pimcomp::ir::models::TEST_MODELS.join(", ")
    );
    Ok(())
}
