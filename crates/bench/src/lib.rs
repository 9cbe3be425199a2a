//! Benchmark harness regenerating every table and figure of the
//! paper's evaluation (see DESIGN.md's experiment index).
//!
//! Binaries (one per artifact):
//!
//! * `table1` — the hardware component library.
//! * `fig8`   — normalized HT throughput / LL speed vs parallelism.
//! * `fig9`   — energy breakdown at parallelism 20.
//! * `fig10`  — local-memory usage and global accesses per reuse policy.
//! * `table2` — per-stage compile times.
//! * `ga_throughput` — GA evaluations/sec across a worker-thread sweep
//!   (serial vs parallel engine), verifying bit-identical results while
//!   measuring.
//! * `explore_sweep` — design-space-exploration points/sec across a
//!   worker-thread sweep, verifying byte-identical reports and
//!   artifact-cache replay while measuring.
//! * `search_compare` — guided (successive-halving) vs exhaustive
//!   exploration on the committed paper sweep: frontier quality,
//!   budget savings, wall-clock; gates on determinism, cache replay,
//!   and the guided frontier being a subset of the exhaustive one.
//!
//! Each binary prints the paper-style rows and, with `--json PATH`,
//! writes machine-readable results. `--fast` shrinks the GA and the
//! benchmark set for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{
    CompileError, CompileOptions, CompileSession, CompiledModel, GaParams, PumaCompiler,
    ReusePolicy,
};
use pimcomp_ir::transform::normalize;
use pimcomp_ir::Graph;
use pimcomp_sim::{SimError, SimReport, Simulator};
use serde::Serialize;

/// The parallelism degrees of the Fig. 8 sweep.
pub const PARALLELISM_SWEEP: [usize; 5] = [1, 20, 40, 200, 2000];

/// Headroom factor applied when sizing chip counts: capacity ≈
/// `headroom ×` the single-replica demand, leaving room for weight
/// replication.
pub const CHIP_HEADROOM: f64 = 2.0;

/// Harness-wide options parsed from a binary's command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Shrink GA and benchmark set for a smoke run.
    pub fast: bool,
    /// Write machine-readable results here.
    pub json_path: Option<String>,
    /// Restrict to one benchmark network.
    pub only: Option<String>,
    /// Worker-thread sweep (`--threads 1,2,4,8`), used by the
    /// `ga_throughput` binary.
    pub threads: Option<Vec<usize>>,
    /// Fail (exit non-zero) unless every measured configuration reaches
    /// this speedup over its serial baseline (`--min-speedup 2.0`),
    /// used by the `ga_throughput` binary to gate on multi-core
    /// runners.
    pub min_speedup: Option<f64>,
}

impl HarnessOptions {
    /// Parses `--fast`, `--json PATH` and `--only NAME` from args.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions {
            fast: false,
            json_path: None,
            only: None,
            threads: None,
            min_speedup: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--fast" => opts.fast = true,
                "--json" => opts.json_path = args.next(),
                "--only" => opts.only = args.next(),
                "--threads" => {
                    let raw = args.next().unwrap_or_default();
                    let parsed: Result<Vec<usize>, String> = raw
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n >= 1)
                                .ok_or_else(|| s.trim().to_string())
                        })
                        .collect();
                    match parsed {
                        Ok(list) if !list.is_empty() => opts.threads = Some(list),
                        _ => {
                            eprintln!(
                                "error: --threads expects a comma-separated list of \
                                 positive integers, got `{raw}`"
                            );
                            std::process::exit(2);
                        }
                    }
                }
                "--min-speedup" => match args.next().and_then(|s| s.parse().ok()) {
                    Some(v) => opts.min_speedup = Some(v),
                    None => {
                        eprintln!("error: --min-speedup expects a number, e.g. 2.0");
                        std::process::exit(2);
                    }
                },
                other => eprintln!("ignoring unknown argument `{other}`"),
            }
        }
        if let Some(only) = &opts.only {
            if !available_networks()
                .iter()
                .any(|n| n.eq_ignore_ascii_case(only))
            {
                eprintln!("error: {}", UnknownNetwork { name: only.clone() });
                std::process::exit(2);
            }
        }
        opts
    }

    /// The benchmark set under these options. Default: the five paper
    /// benchmarks (fast mode keeps the two cheapest). `--only` selects
    /// any loadable network — the full zoo, not just the paper set —
    /// and is validated against [`available_networks`] at parse time,
    /// so this never returns an empty set silently.
    pub fn networks(&self) -> Vec<&'static str> {
        if let Some(only) = &self.only {
            return available_networks()
                .iter()
                .copied()
                .filter(|n| n.eq_ignore_ascii_case(only))
                .collect();
        }
        if self.fast {
            vec!["resnet18", "squeezenet"]
        } else {
            pimcomp_ir::models::PAPER_BENCHMARKS.to_vec()
        }
    }

    /// GA parameters under these options (paper 100×200, or a small
    /// configuration for smoke runs).
    pub fn ga(&self) -> GaParams {
        if self.fast {
            GaParams {
                population: 20,
                iterations: 30,
                ..GaParams::fast(1)
            }
        } else {
            GaParams {
                seed: 1,
                ..GaParams::default()
            }
        }
    }

    /// Parallelism sweep (fast mode: endpoints and the paper's default).
    pub fn parallelisms(&self) -> Vec<usize> {
        if self.fast {
            vec![1, 20, 2000]
        } else {
            PARALLELISM_SWEEP.to_vec()
        }
    }

    /// Writes `value` as pretty JSON when `--json` was given.
    pub fn write_json<T: Serialize>(&self, value: &T) {
        if let Some(path) = &self.json_path {
            match serde_json::to_string_pretty(value) {
                Ok(s) => {
                    if let Err(e) = std::fs::write(path, s) {
                        eprintln!("failed to write {path}: {e}");
                    } else {
                        eprintln!("wrote {path}");
                    }
                }
                Err(e) => eprintln!("failed to serialize results: {e}"),
            }
        }
    }
}

/// The benchmark names [`load_network`] resolves (the IR zoo).
pub fn available_networks() -> &'static [&'static str] {
    &pimcomp_ir::models::ZOO
}

/// An unknown benchmark name, carrying the full list of valid names so
/// CLIs can print it instead of making the user guess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownNetwork {
    /// The name that did not resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown benchmark `{}`; available networks: {}",
            self.name,
            available_networks().join(", ")
        )
    }
}

impl std::error::Error for UnknownNetwork {}

/// Why [`load_network`] could not produce a compilable graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The name did not resolve to a zoo model.
    Unknown(UnknownNetwork),
    /// The model resolved but failed graph normalization.
    Malformed {
        /// The network name as requested.
        name: String,
        /// The underlying IR error.
        source: pimcomp_ir::IrError,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Unknown(e) => e.fmt(f),
            LoadError::Malformed { name, source } => {
                write!(f, "network `{name}` failed normalization: {source}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Loads and normalizes a benchmark network by name.
///
/// # Errors
///
/// [`LoadError::Unknown`] (listing every valid name) instead of a
/// panic, so harness binaries and sweep drivers survive a typo in
/// `--only`; [`LoadError::Malformed`] if normalization rejects the
/// model (impossible for the committed zoo, reachable once imported
/// graphs flow through here).
pub fn load_network(name: &str) -> Result<Graph, LoadError> {
    let g = pimcomp_ir::models::by_name(name).ok_or_else(|| {
        LoadError::Unknown(UnknownNetwork {
            name: name.to_string(),
        })
    })?;
    normalize(&g).map_err(|source| LoadError::Malformed {
        name: name.to_string(),
        source,
    })
}

/// [`load_network`] for binaries: prints the error (with the list of
/// valid names) and exits with status 2 on unknown names.
pub fn load_network_or_exit(name: &str) -> Graph {
    load_network(name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The committed smoke sweep spec (2 models × 2 hardware configs on
/// the small test target): the fixture CI's `explore` smoke job and
/// the `explore_sweep` harness run by default. Lives on disk at
/// `crates/bench/fixtures/smoke_sweep.json` so the CLI can consume the
/// identical spec.
pub const SMOKE_SWEEP_SPEC: &str = include_str!("../fixtures/smoke_sweep.json");

/// The committed paper-style sweep spec (3 models × 2 modes × 6
/// hardware configs); the `explore_sweep` harness's full-size input,
/// on disk at `crates/bench/fixtures/paper_sweep.json`.
pub const PAPER_SWEEP_SPEC: &str = include_str!("../fixtures/paper_sweep.json");

/// The smoke sweep under guided (successive-halving) search — same
/// axes as [`SMOKE_SWEEP_SPEC`] so point keys line up for report
/// diffs; CI runs it and diffs its frontier against the exhaustive
/// golden. On disk at `crates/bench/fixtures/smoke_sweep_halving.json`.
pub const SMOKE_SWEEP_HALVING_SPEC: &str = include_str!("../fixtures/smoke_sweep_halving.json");

/// The paper-style sweep under guided search — same axes as
/// [`PAPER_SWEEP_SPEC`]; the `search_compare` harness's full-size
/// input, on disk at `crates/bench/fixtures/paper_sweep_halving.json`.
pub const PAPER_SWEEP_HALVING_SPEC: &str = include_str!("../fixtures/paper_sweep_halving.json");

/// The committed new-axes smoke sweep: memory policies × HT batches ×
/// auto-sized hardware × one `.onnx` model (the committed
/// `tiny_mlp.onnx` export) alongside a zoo name. CI's explore-smoke
/// job runs it from the repository root — the spec's `.onnx` path is
/// root-relative — and checks thread-count and cold/warm byte
/// identity. On disk at `crates/bench/fixtures/smoke_sweep_axes.json`.
pub const SMOKE_SWEEP_AXES_SPEC: &str = include_str!("../fixtures/smoke_sweep_axes.json");

/// The committed weight-reload smoke sweep: one model under two
/// crossbar budgets plus a reload-off twin of the same point, so CI's
/// explore-smoke job exercises the `weight_reload` axis end to end —
/// 1-vs-4-thread byte identity and budget-keyed cache replay. On disk
/// at `crates/bench/fixtures/smoke_sweep_reload.json`.
pub const SMOKE_SWEEP_RELOAD_SPEC: &str = include_str!("../fixtures/smoke_sweep_reload.json");

/// A harness step failure: which half of the compile → simulate pair
/// went wrong. The five committed paper benchmarks always succeed, but
/// the harness also runs user-supplied graphs (`--only` over the zoo,
/// imported ONNX models in sweep drivers), so per the standing
/// panic-free policy the library surfaces errors and lets binaries
/// decide how to die.
#[derive(Debug)]
pub enum HarnessError {
    /// Compilation (or hardware sizing, which partitions the graph)
    /// failed.
    Compile(CompileError),
    /// Simulation of a compiled model failed.
    Simulate(SimError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Compile(e) => write!(f, "compile: {e}"),
            HarnessError::Simulate(e) => write!(f, "simulate: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Compile(e) => Some(e),
            HarnessError::Simulate(e) => Some(e),
        }
    }
}

impl From<CompileError> for HarnessError {
    fn from(e: CompileError) -> Self {
        HarnessError::Compile(e)
    }
}

impl From<SimError> for HarnessError {
    fn from(e: SimError) -> Self {
        HarnessError::Simulate(e)
    }
}

/// Unwraps a harness result for binaries: prints the error with its
/// context and exits with status 1. Keeps the library panic-free while
/// letting the fig/table binaries keep their crash-on-failure contract.
pub fn run_or_exit<T, E: std::fmt::Display>(result: Result<T, E>, context: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {context}: {e}");
        std::process::exit(1);
    })
}

/// Sizes a PUMA-like target for `graph`: enough chips for
/// [`CHIP_HEADROOM`]× the single-replica crossbar demand. The
/// heuristic itself lives in core ([`pimcomp_core::sized_chips`]) so
/// the sweep engine's `hardware: "auto"` option and this harness size
/// targets identically.
///
/// # Errors
///
/// Propagates partitioning failures ([`CompileError`]) instead of
/// panicking — a user graph (e.g. an imported ONNX model) that does not
/// partition must not bring a sweep down.
pub fn hardware_for(graph: &Graph, parallelism: usize) -> Result<HardwareConfig, CompileError> {
    let base = HardwareConfig::puma();
    let chips = pimcomp_core::sized_chips(graph, &base, CHIP_HEADROOM)?;
    Ok(HardwareConfig::puma_with_chips(chips).with_parallelism(parallelism))
}

/// One compiled-and-simulated data point.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Network name.
    pub network: String,
    /// `PIMCOMP` or `PUMA-like`.
    pub compiler: String,
    /// Pipeline mode.
    pub mode: String,
    /// Parallelism degree.
    pub parallelism: usize,
    /// Simulated cycles (HT: pipeline interval; LL: latency).
    pub cycles: u64,
    /// Dynamic energy in µJ.
    pub dynamic_uj: f64,
    /// Leakage energy in µJ.
    pub leakage_uj: f64,
    /// Average local-memory working set in kB.
    pub avg_local_kb: f64,
    /// Global-memory traffic in kB.
    pub global_traffic_kb: f64,
    /// Cores used.
    pub active_cores: usize,
}

impl RunResult {
    /// Converts a simulator report into a harness row.
    pub fn from_sim(r: &SimReport, parallelism: usize) -> Self {
        RunResult {
            network: r.model.clone(),
            compiler: r.compiler.clone(),
            mode: r.mode.to_string(),
            parallelism,
            cycles: r.total_cycles,
            dynamic_uj: r.energy.dynamic_pj() / 1e6,
            leakage_uj: r.energy.leakage_pj / 1e6,
            avg_local_kb: r.memory.avg_local_bytes / 1024.0,
            global_traffic_kb: r.memory.global_traffic_bytes as f64 / 1024.0,
            active_cores: r.active_cores,
        }
    }
}

/// Compiles `graph` with both compilers and simulates both results.
///
/// Returns `(pimcomp, puma_like)`.
///
/// # Errors
///
/// [`HarnessError`] naming the failed stage; binaries typically wrap
/// calls in [`run_or_exit`] to keep their crash-on-failure contract.
pub fn run_pair(
    graph: &Graph,
    mode: PipelineMode,
    parallelism: usize,
    ga: &GaParams,
    policy: ReusePolicy,
) -> Result<(RunResult, RunResult), HarnessError> {
    let hw = hardware_for(graph, parallelism)?;
    let opts = CompileOptions::new(mode)
        .with_ga(ga.clone())
        .with_policy(policy);
    let ours =
        CompileSession::new(hw.clone(), graph, opts.clone()).and_then(CompileSession::run)?;
    let base = PumaCompiler::new(hw.clone()).compile(graph, &opts)?;
    let sim = Simulator::new(hw);
    let r_ours = sim.run(&ours)?;
    let r_base = sim.run(&base)?;
    Ok((
        RunResult::from_sim(&r_ours, parallelism),
        RunResult::from_sim(&r_base, parallelism),
    ))
}

/// Compiles one network with one compiler (no simulation); used by
/// `table2` and the criterion benches.
///
/// # Errors
///
/// [`HarnessError::Compile`] when hardware sizing or compilation fails.
pub fn compile_one(
    graph: &Graph,
    mode: PipelineMode,
    ga: &GaParams,
    baseline: bool,
) -> Result<CompiledModel, HarnessError> {
    let hw = hardware_for(graph, 20)?;
    let opts = CompileOptions::new(mode).with_ga(ga.clone());
    let compiled = if baseline {
        PumaCompiler::new(hw).compile(graph, &opts)?
    } else {
        CompileSession::new(hw, graph, opts).and_then(CompileSession::run)?
    };
    Ok(compiled)
}

/// Formats a ratio like the paper's plot annotations (`2.4x`).
pub fn ratio(baseline: u64, ours: u64) -> String {
    if ours == 0 {
        return "inf".into();
    }
    format!("{:.1}x", baseline as f64 / ours as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_core::Partitioning;

    #[test]
    fn only_selects_any_loadable_network() {
        // Every name that passes `--only` validation must also select a
        // non-empty benchmark set (and load), so a validated run can
        // never silently do nothing.
        for name in available_networks() {
            let opts = HarnessOptions {
                fast: false,
                json_path: None,
                only: Some(name.to_string()),
                threads: None,
                min_speedup: None,
            };
            assert_eq!(opts.networks(), vec![*name]);
            load_network(name).unwrap();
        }
    }

    #[test]
    fn unknown_network_error_lists_available_names() {
        let err = load_network("alexnet").unwrap_err();
        match &err {
            LoadError::Unknown(u) => assert_eq!(u.name, "alexnet"),
            other => panic!("expected Unknown, got {other:?}"),
        }
        let msg = err.to_string();
        for name in available_networks() {
            assert!(msg.contains(name), "`{msg}` should list `{name}`");
        }
    }

    #[test]
    fn hardware_sizing_gives_headroom() {
        let g = load_network("squeezenet").unwrap();
        let hw = hardware_for(&g, 20).unwrap();
        let p = Partitioning::new(&g, &hw).unwrap();
        assert!(hw.total_crossbars() >= 2 * p.min_crossbars() - hw.crossbars_per_core);
    }

    #[test]
    fn hardware_sizing_surfaces_partition_failures() {
        // An input-only graph has nothing to map onto crossbars; the
        // sizing heuristic must report that, not panic.
        let mut b = pimcomp_ir::GraphBuilder::new("degenerate");
        let _ = b.input_flat("x", 8);
        let g = b.finish().unwrap();
        assert!(matches!(
            hardware_for(&g, 20),
            Err(CompileError::NoMvmNodes)
        ));
    }

    #[test]
    fn run_pair_produces_consistent_rows() {
        let g = load_network("squeezenet").unwrap();
        let ga = GaParams {
            population: 8,
            iterations: 6,
            ..GaParams::fast(3)
        };
        let (ours, base) = run_pair(
            &g,
            PipelineMode::HighThroughput,
            20,
            &ga,
            ReusePolicy::AgReuse,
        )
        .unwrap();
        assert_eq!(ours.network, "squeezenet");
        assert_eq!(ours.compiler, "PIMCOMP");
        assert_eq!(base.compiler, "PUMA-like");
        assert!(ours.cycles > 0 && base.cycles > 0);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(240, 100), "2.4x");
        assert_eq!(ratio(100, 0), "inf");
    }

    #[test]
    fn committed_sweep_fixtures_parse() {
        let smoke = pimcomp_dse::SweepSpec::from_json(SMOKE_SWEEP_SPEC).unwrap();
        assert_eq!(smoke.points().unwrap().len(), 4);
        let paper = pimcomp_dse::SweepSpec::from_json(PAPER_SWEEP_SPEC).unwrap();
        assert_eq!(paper.points().unwrap().len(), 3 * 2 * 6);
        // The new-axes spec parses and counts without touching the
        // filesystem (its .onnx path is relative to the repo root, not
        // this crate, so only `len` is checked here — CI runs it end
        // to end).
        let axes = pimcomp_dse::SweepSpec::from_json(SMOKE_SWEEP_AXES_SPEC).unwrap();
        assert!(axes.hardware.is_auto());
        assert_eq!(axes.policies.len(), 2);
        assert_eq!(axes.batches, vec![1, 2]);
        // 2 models x 2 auto parallelism x 2 policies x (HT: 2 batches
        // + LL: 1) x 1 seed.
        assert_eq!(axes.len(), 2 * 2 * 2 * 3);
        // The reload spec sweeps off + two budgets over a single point.
        let reload = pimcomp_dse::SweepSpec::from_json(SMOKE_SWEEP_RELOAD_SPEC).unwrap();
        assert_eq!(
            reload.weight_reload,
            vec![
                pimcomp_dse::ReloadSetting::Off,
                pimcomp_dse::ReloadSetting::On(Some(32)),
                pimcomp_dse::ReloadSetting::On(Some(64)),
            ]
        );
        assert_eq!(reload.points().unwrap().len(), 3);
    }

    #[test]
    fn halving_fixtures_mirror_their_exhaustive_twins() {
        // The guided fixtures must share axes (hence point keys) with
        // their exhaustive twins so `explore --diff` joins every point,
        // differing only in the search section.
        for (exhaustive, halving) in [
            (SMOKE_SWEEP_SPEC, SMOKE_SWEEP_HALVING_SPEC),
            (PAPER_SWEEP_SPEC, PAPER_SWEEP_HALVING_SPEC),
        ] {
            let e = pimcomp_dse::SweepSpec::from_json(exhaustive).unwrap();
            let h = pimcomp_dse::SweepSpec::from_json(halving).unwrap();
            assert!(matches!(h.search, pimcomp_dse::SearchStrategy::Halving(_)));
            assert_eq!(e.models, h.models);
            assert_eq!(e.modes, h.modes);
            assert_eq!(e.hardware, h.hardware);
            assert_eq!(e.seeds, h.seeds);
            assert_eq!(
                (e.ga_population, e.ga_iterations),
                (h.ga_population, h.ga_iterations)
            );
        }
    }
}
