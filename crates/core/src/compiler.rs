//! Compilation options and the finished [`CompiledModel`] (paper
//! Fig. 3's user input and output); the staged
//! [`CompileSession`](crate::CompileSession) produces one from the other.

use crate::artifact::ArtifactError;
use crate::ga::{GaParams, GaStats};
use crate::mapping::{Chromosome, CoreMapping};
use crate::memory::{MemoryPlan, ReusePolicy};
use crate::partition::{EpochPlan, Partitioning, ReloadPlan};
use crate::schedule::Schedule;
use crate::waiting::DepInfo;
use crate::CompileError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Largest HT transfer batch [`CompileOptions::validate`] accepts.
///
/// The schedule, memory plan and simulator multiply the batch by node
/// widths, element sizes and partial-sum fan-in, and the simulator
/// issues `batch` MVMs per AG and round. 2^16 already covers every
/// sliding window of the zoo's largest feature map (224 × 224 = 50,176)
/// in one round and keeps those products far below 2^64; a batch near
/// 2^62 wraps them.
pub const MAX_HT_BATCH: usize = 1 << 16;

/// User-facing compilation options (the "User Input" of paper Fig. 3
/// that is not part of the hardware description).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Application scenario: high-throughput or low-latency.
    pub mode: PipelineMode,
    /// Genetic-algorithm hyper-parameters.
    pub ga: GaParams,
    /// HT transfer batch: sliding windows processed between
    /// global-memory rounds (the paper's Fig. 10 protocol uses 2).
    pub batch: usize,
    /// Local-memory allocation policy.
    pub memory_policy: ReusePolicy,
    /// Run `pimcomp_ir::transform::normalize` before compiling
    /// (batch-norm folding, dropout elimination). On by default.
    pub normalize: bool,
    /// Resource-constrained compilation: when the model does not fit
    /// the crossbar budget, split it into *mapping epochs* and rewrite
    /// crossbar contents between them (COMPASS-style weight reloading)
    /// instead of failing with
    /// [`CompileError::InsufficientCapacity`]. Off by default.
    pub weight_reload: bool,
    /// Crossbar budget for `weight_reload` mode. `None` uses the full
    /// hardware capacity; `Some(n)` restricts placement to `n`
    /// crossbars even if the chip has more (for what-if sweeps over
    /// budgets). Only meaningful with `weight_reload: true`.
    pub reload_budget: Option<usize>,
    /// Sequence length to bind symbolic (`seq`) dimensions to before
    /// compiling. Required for transformer graphs imported with a
    /// symbolic sequence axis; ignored by fully fixed graphs.
    pub seq_len: Option<usize>,
}

impl CompileOptions {
    /// Defaults for a pipeline mode: paper GA parameters (100×200),
    /// AG-reuse, and the mode's natural batch (the paper's Fig. 10
    /// protocol value of 2 for HT; 1 for LL, where batching does not
    /// apply).
    pub fn new(mode: PipelineMode) -> Self {
        CompileOptions {
            mode,
            ga: GaParams::default(),
            batch: match mode {
                PipelineMode::HighThroughput => 2,
                PipelineMode::LowLatency => 1,
            },
            memory_policy: ReusePolicy::AgReuse,
            normalize: true,
            weight_reload: false,
            reload_budget: None,
            seq_len: None,
        }
    }

    /// Checks internal consistency. Run automatically when a
    /// [`CompileSession`](crate::CompileSession) is created, so stage
    /// code never sees malformed options.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidOptions`] when:
    ///
    /// * `batch` is zero or larger than [`MAX_HT_BATCH`],
    /// * the GA population or generation count is zero,
    /// * the GA tournament size is zero or the elite fraction is
    ///   outside `[0, 1]`,
    /// * `max_nodes_per_core` is pinned to zero,
    /// * a batch larger than 1 is combined with low-latency mode
    ///   (batching is a high-throughput transfer concept),
    /// * `reload_budget` is set without `weight_reload`, or is zero,
    /// * `seq_len` is set to zero.
    pub fn validate(&self) -> Result<(), CompileError> {
        let invalid = |detail: &str| {
            Err(CompileError::InvalidOptions {
                detail: detail.to_string(),
            })
        };
        if !(1..=MAX_HT_BATCH).contains(&self.batch) {
            return invalid(&format!(
                "`batch` must be within 1..={MAX_HT_BATCH}, got {}",
                self.batch
            ));
        }
        if self.ga.population == 0 {
            return invalid("GA population must be at least 1");
        }
        if self.ga.iterations == 0 {
            return invalid("GA generation count must be at least 1");
        }
        if self.ga.tournament == 0 {
            return invalid("GA tournament size must be at least 1");
        }
        if !self.ga.elite_fraction.is_finite() || !(0.0..=1.0).contains(&self.ga.elite_fraction) {
            return invalid("GA elite fraction must be within [0, 1]");
        }
        if self.ga.max_nodes_per_core == Some(0) {
            return invalid("`max_nodes_per_core` cannot be pinned to 0");
        }
        if self.mode == PipelineMode::LowLatency && self.batch > 1 {
            return invalid(
                "`batch` only applies to high-throughput mode; \
                 use batch 1 (the default) for low-latency compilations",
            );
        }
        if self.reload_budget.is_some() && !self.weight_reload {
            return invalid("`reload_budget` requires `weight_reload: true`");
        }
        if self.reload_budget == Some(0) {
            return invalid("`reload_budget` must be at least 1 crossbar");
        }
        if self.seq_len == Some(0) {
            return invalid("`seq_len` must be at least 1");
        }
        Ok(())
    }

    /// Replaces the GA parameters with the fast test configuration
    /// seeded by `seed`.
    pub fn with_fast_ga(mut self, seed: u64) -> Self {
        self.ga = GaParams::fast(seed);
        self
    }

    /// Sets the GA parameters.
    pub fn with_ga(mut self, ga: GaParams) -> Self {
        self.ga = ga;
        self
    }

    /// Overrides only the GA generation budget, keeping every other
    /// parameter (seed included) untouched.
    ///
    /// Because the GA's per-offspring RNG streams are keyed by
    /// `(seed, generation, slot)` — never by the total generation count
    /// — a run at a smaller budget evaluates exactly the first
    /// `iterations` generations of a longer run with the same seed.
    /// Budgeted-search drivers (successive halving over a sweep) rely
    /// on this: re-running a survivor at a larger budget continues the
    /// same deterministic trajectory instead of exploring a different
    /// one.
    pub fn with_ga_budget(mut self, iterations: usize) -> Self {
        self.ga.iterations = iterations;
        self
    }

    /// Sets the GA worker-thread count. `None` (the default) runs the
    /// search serially; any setting produces bit-identical results —
    /// see [`GaParams::parallelism`] for the determinism contract.
    pub fn with_parallelism(mut self, threads: Option<std::num::NonZeroUsize>) -> Self {
        self.ga.parallelism = threads;
        self
    }

    /// Sets the memory policy.
    pub fn with_policy(mut self, policy: ReusePolicy) -> Self {
        self.memory_policy = policy;
        self
    }

    /// Sets the HT transfer batch.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Enables `weight_reload` mode with an optional crossbar budget
    /// (`None` = the full hardware capacity).
    pub fn with_weight_reload(mut self, budget: Option<usize>) -> Self {
        self.weight_reload = true;
        self.reload_budget = budget;
        self
    }

    /// Binds symbolic sequence dimensions to `len` tokens before
    /// compiling. Has no effect on fully fixed graphs.
    pub fn with_seq_len(mut self, len: usize) -> Self {
        self.seq_len = Some(len);
        self
    }
}

/// Wall-clock time of each compilation stage (Table II rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct StageTimings {
    /// Node partitioning.
    pub node_partitioning: Duration,
    /// Weight replicating + core mapping (the GA, or the baseline
    /// heuristic).
    pub replicating_mapping: Duration,
    /// Dataflow scheduling (including dependency analysis and memory
    /// planning).
    pub dataflow_scheduling: Duration,
}

impl StageTimings {
    /// Total compile time.
    pub fn total(&self) -> Duration {
        self.node_partitioning + self.replicating_mapping + self.dataflow_scheduling
    }
}

/// Summary of one compilation, including the Table II timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileReport {
    /// Model name.
    pub model: String,
    /// Which compiler produced this (`PIMCOMP` or `PUMA-like`).
    pub compiler: String,
    /// Pipeline mode.
    pub mode: PipelineMode,
    /// Per-stage wall-clock times.
    pub timings: StageTimings,
    /// GA trace (absent for the baseline).
    pub ga: Option<GaStats>,
    /// Final replica count per partitioned node.
    pub replication: Vec<usize>,
    /// Cores hosting at least one AG.
    pub active_cores: usize,
    /// Crossbars occupied by weights.
    pub crossbars_used: usize,
    /// The mode's analytic fitness of the final mapping (cycles).
    pub estimated_fitness: f64,
}

/// Everything the simulator needs to execute a compiled model.
///
/// Wrap in a [`CompiledArtifact`](crate::CompiledArtifact) for
/// versioned, fingerprint-checked persistence: the artifact stores the
/// inputs and the [`chromosome`](CompiledModel::chromosome) decision,
/// and loading rebuilds every other field through the session stages.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The normalized graph that was compiled.
    pub graph: Graph,
    /// Hardware target.
    pub hw: HardwareConfig,
    /// Pipeline mode.
    pub mode: PipelineMode,
    /// Node partitioning.
    pub partitioning: Partitioning,
    /// Replication + placement.
    pub mapping: CoreMapping,
    /// The decision the mapping was placed from (see
    /// [`Partitioned::place`](crate::Partitioned::place)); `None` for
    /// epoch-packed `weight_reload` models.
    pub chromosome: Option<Chromosome>,
    /// Dependency / waiting analysis.
    pub dep: DepInfo,
    /// The per-core schedule.
    pub schedule: Schedule,
    /// Local-memory plan under the selected policy.
    pub memory: MemoryPlan,
    /// Epoch/reload plan. `Some` whenever the model was compiled in
    /// `weight_reload` mode (a model that fits its budget gets a
    /// single-epoch plan with zero reload cost, so the mode stays
    /// visible in the artifact); `None` for ordinary compilations.
    pub reload: Option<ReloadPlan>,
    /// Compilation summary.
    pub report: CompileReport,
}

impl CompiledModel {
    /// Recomputes the memory plan under a different policy without
    /// recompiling (used by the Fig. 10 sweep).
    pub fn replan_memory(&self, policy: ReusePolicy) -> MemoryPlan {
        MemoryPlan::for_schedule(
            &self.graph,
            &self.schedule,
            &self.partitioning,
            &self.mapping,
            &self.dep,
            &self.hw,
            policy,
        )
    }

    /// Checks everything the simulator and the functional executor
    /// index: each partition entry's geometry matches the hardware, the
    /// mapping realizes its replication plan on the target's cores
    /// ([`CoreMapping::validate`]), and a multi-epoch reload plan is the
    /// one its budget derives. Both consumers call this, so a model
    /// edited in memory fails with the same error in each.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Inconsistent`] naming the first violation.
    pub fn validate(&self) -> Result<(), ArtifactError> {
        let inconsistent = |detail: String| ArtifactError::Inconsistent { detail };
        let hx = self.hw.crossbar_rows;
        let wcc = self.hw.weight_cols_per_crossbar();
        if hx == 0 || wcc == 0 {
            return Err(inconsistent(
                "hardware has zero crossbar rows or weight columns".to_string(),
            ));
        }
        if let Some((i, e)) = self
            .partitioning
            .entries()
            .iter()
            .enumerate()
            .find(|(_, e)| {
                e.ags_per_replica != e.weight_height.div_ceil(hx)
                    || e.crossbars_per_ag != e.weight_width.div_ceil(wcc)
            })
        {
            return Err(inconsistent(format!(
                "entry {i} (`{}`) geometry ({} AGs × {} crossbars) disagrees with \
                 a {}×{} weight matrix on {hx}-row, {wcc}-weight-column crossbars",
                e.name, e.ags_per_replica, e.crossbars_per_ag, e.weight_height, e.weight_width
            )));
        }
        let cores = self.hw.total_cores();
        self.mapping
            .validate(&self.partitioning, cores)
            .map_err(|e| inconsistent(e.to_string()))?;

        // Multi-epoch reload models run the packer's epochs serially;
        // only the plan the budget derives is duplication-free and
        // covers every Array Group exactly once.
        if let Some(plan) = self.reload.as_ref().filter(|p| !p.is_single_epoch()) {
            let rebuilt =
                EpochPlan::new(&self.partitioning, &self.hw, plan.budget).map_err(|e| {
                    inconsistent(format!(
                        "cannot rebuild the epoch plan for budget {}: {e}",
                        plan.budget
                    ))
                })?;
            if rebuilt.reload_plan(&self.partitioning, &self.hw) != *plan
                || CoreMapping::from_epoch_plan(&rebuilt, &self.partitioning, cores) != self.mapping
            {
                return Err(inconsistent(format!(
                    "the reload plan and mapping disagree with the epoch plan \
                     a {}-crossbar budget derives",
                    plan.budget
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompileSession;
    use pimcomp_ir::models;

    fn compile(mode: PipelineMode) -> CompiledModel {
        let graph = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        let opts = CompileOptions::new(mode).with_fast_ga(11);
        CompileSession::new(hw, &graph, opts)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn ht_compilation_produces_ht_schedule() {
        let c = compile(PipelineMode::HighThroughput);
        assert!(c.schedule.as_ht().is_some());
        assert!(c.report.ga.is_some());
        assert!(c.report.estimated_fitness > 0.0);
        assert!(c.report.timings.total() > Duration::ZERO);
    }

    #[test]
    fn ll_compilation_produces_ll_schedule() {
        let c = compile(PipelineMode::LowLatency);
        assert!(c.schedule.as_ll().is_some());
    }

    #[test]
    fn compilation_is_deterministic_per_seed() {
        let a = compile(PipelineMode::HighThroughput);
        let b = compile(PipelineMode::HighThroughput);
        assert_eq!(a.report.replication, b.report.replication);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn replan_memory_changes_only_the_plan() {
        let c = compile(PipelineMode::HighThroughput);
        let naive = c.replan_memory(ReusePolicy::Naive);
        let ag = c.replan_memory(ReusePolicy::AgReuse);
        assert!(naive.avg_bytes >= ag.avg_bytes);
        assert_eq!(c.memory.policy, ReusePolicy::AgReuse);
    }

    #[test]
    fn normalization_folds_bn_before_compiling() {
        let graph = models::resnet18();
        let hw = HardwareConfig::puma_with_chips(8);
        let opts = CompileOptions {
            ga: GaParams {
                population: 4,
                iterations: 2,
                ..GaParams::fast(1)
            },
            ..CompileOptions::new(PipelineMode::HighThroughput)
        };
        let out = CompileSession::new(hw, &graph, opts)
            .unwrap()
            .run()
            .unwrap();
        assert!(out
            .graph
            .nodes()
            .iter()
            .all(|n| !matches!(n.op, pimcomp_ir::Op::BatchNorm)));
    }

    #[test]
    fn invalid_hardware_is_rejected() {
        let mut hw = HardwareConfig::small_test();
        hw.parallelism = 0;
        let err = CompileSession::new(
            hw,
            &models::tiny_mlp(),
            CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::InvalidHardware { .. }));
    }
}
