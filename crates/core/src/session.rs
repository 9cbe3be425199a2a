//! Staged compilation sessions: the paper's four-stage pipeline
//! (Fig. 3) exposed as typestate artifacts.
//!
//! A [`CompileSession`] walks the compiler's stages one typed artifact
//! at a time ([`CompileSession::run`] walks them all in one call),
//!
//! ```text
//! CompileSession ──partition()──► Partitioned ──optimize()──► Optimized
//!                    §IV-B                        §IV-C           │
//!                                                            schedule()
//!                                                              §IV-D
//!                                                                ▼
//!                CompiledModel ◄──finish()── Scheduled
//! ```
//!
//! so that every intermediate result is inspectable and the pipeline is
//! *re-enterable*. [`Partitioned::place`] is the one way to an
//! [`Optimized`]: `optimize()` places the GA's chromosome, the PUMA
//! baseline its greedy one, and an artifact load the recorded one.
//! Swap GA parameters on a [`Partitioned`] or
//! re-optimize an [`Optimized`] without repeating partitioning, replan
//! memory or rebatch a [`Scheduled`] without re-running the GA. Each
//! stage method has an `_observed` variant that streams progress
//! through a [`CompileObserver`].
//!
//! # Example
//!
//! ```
//! use pimcomp_arch::{HardwareConfig, PipelineMode};
//! use pimcomp_core::{CompileOptions, CompileSession, ReusePolicy};
//!
//! # fn main() -> Result<(), pimcomp_core::CompileError> {
//! let graph = pimcomp_ir::models::tiny_cnn();
//! let hw = HardwareConfig::small_test();
//! let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(7);
//!
//! let scheduled = CompileSession::new(hw, &graph, opts)?
//!     .partition()?    // §IV-B  — inspect .partitioning()
//!     .optimize()?     // §IV-C  — inspect .mapping() / .ga_stats()
//!     .schedule()?;    // §IV-D  — inspect .schedule() / .memory()
//!
//! // Re-enter scheduling under a different memory policy; everything
//! // upstream (partitioning, GA result) is reused as-is.
//! let scheduled = scheduled.replan_memory(ReusePolicy::Naive);
//! let compiled = scheduled.finish();
//! assert_eq!(compiled.memory.policy, ReusePolicy::Naive);
//! # Ok(())
//! # }
//! ```

use crate::compiler::{CompileOptions, CompileReport, CompiledModel, StageTimings};
use crate::ga::{optimize_observed, GaContext, GaGeneration, GaParams, GaStats};
use crate::mapping::{Chromosome, CoreMapping};
use crate::memory::{MemoryPlan, ReusePolicy};
use crate::partition::{EpochPlan, EpochReloadCost, Partitioning, ReloadPlan};
use crate::schedule::{HtSchedule, LlSchedule, Schedule};
use crate::waiting::DepInfo;
use crate::{fitness, CompileError};
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use std::time::{Duration, Instant};

/// The pipeline stages a [`CompileObserver`] is notified about
/// (the rows of the paper's Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompileStage {
    /// Node partitioning (§IV-B).
    NodePartitioning,
    /// Weight replicating + core mapping, the GA (§IV-C).
    ReplicatingMapping,
    /// Dataflow scheduling + memory planning (§IV-D).
    DataflowScheduling,
}

impl CompileStage {
    /// Human-readable stage name.
    pub fn label(self) -> &'static str {
        match self {
            CompileStage::NodePartitioning => "node partitioning",
            CompileStage::ReplicatingMapping => "replicating + mapping",
            CompileStage::DataflowScheduling => "dataflow scheduling",
        }
    }
}

/// Receives progress callbacks while a session compiles.
///
/// All methods have no-op defaults; implement only what you need. The
/// GA generation callback fires once per generation during
/// [`Partitioned::optimize_observed`], which for paper-sized runs
/// (population 100 × 200 iterations) is frequent enough for live
/// progress bars.
pub trait CompileObserver {
    /// A stage is about to run.
    fn on_stage_start(&mut self, _stage: CompileStage) {}

    /// A stage finished in `elapsed` wall-clock time.
    fn on_stage_finish(&mut self, _stage: CompileStage, _elapsed: Duration) {}

    /// The GA completed one generation.
    fn on_ga_generation(&mut self, _progress: GaGeneration) {}
}

/// The do-nothing observer used by the plain (non-`_observed`) stage
/// methods.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CompileObserver for NullObserver {}

/// Observers forward through mutable references, so a caller can keep
/// ownership while threading one observer through nested layers (e.g.
/// a sweep engine handing the same observer to every stage).
impl<O: CompileObserver + ?Sized> CompileObserver for &mut O {
    fn on_stage_start(&mut self, stage: CompileStage) {
        (**self).on_stage_start(stage);
    }
    fn on_stage_finish(&mut self, stage: CompileStage, elapsed: Duration) {
        (**self).on_stage_finish(stage, elapsed);
    }
    fn on_ga_generation(&mut self, progress: GaGeneration) {
        (**self).on_ga_generation(progress);
    }
}

/// Boxed observers forward too, so heterogeneous observer pipelines can
/// be stored and passed around as trait objects.
impl<O: CompileObserver + ?Sized> CompileObserver for Box<O> {
    fn on_stage_start(&mut self, stage: CompileStage) {
        (**self).on_stage_start(stage);
    }
    fn on_stage_finish(&mut self, stage: CompileStage, elapsed: Duration) {
        (**self).on_stage_finish(stage, elapsed);
    }
    fn on_ga_generation(&mut self, progress: GaGeneration) {
        (**self).on_ga_generation(progress);
    }
}

/// [`StageTimings`] doubles as an observer that accumulates per-stage
/// wall-clock durations — the observer-based replacement for threading
/// timing code through the compiler.
impl CompileObserver for StageTimings {
    fn on_stage_finish(&mut self, stage: CompileStage, elapsed: Duration) {
        match stage {
            CompileStage::NodePartitioning => self.node_partitioning += elapsed,
            CompileStage::ReplicatingMapping => self.replicating_mapping += elapsed,
            CompileStage::DataflowScheduling => self.dataflow_scheduling += elapsed,
        }
    }
}

/// A validated compilation session: hardware target + normalized graph
/// + options, ready to enter the pipeline.
///
/// Creation validates all three inputs, so stage methods only fail for
/// capacity/mapping reasons, never for malformed input.
#[derive(Debug, Clone)]
pub struct CompileSession {
    hw: HardwareConfig,
    graph: Graph,
    opts: CompileOptions,
}

impl CompileSession {
    /// Validates inputs and opens a session.
    ///
    /// The graph is normalized here (batch-norm folding, dropout
    /// elimination) when `opts.normalize` is set.
    ///
    /// # Errors
    ///
    /// * [`CompileError::InvalidHardware`] / [`CompileError::InvalidGraph`]
    ///   for malformed inputs,
    /// * [`CompileError::InvalidOptions`] for malformed options (zero
    ///   batch, empty GA population or generations, HT-only options in
    ///   LL mode — see [`CompileOptions::validate`]),
    /// * [`CompileError::UnboundSeqLen`] when the graph has a symbolic
    ///   sequence dimension and `opts.seq_len` is `None`.
    pub fn new(
        hw: HardwareConfig,
        graph: &Graph,
        opts: CompileOptions,
    ) -> Result<Self, CompileError> {
        hw.validate().map_err(|e| CompileError::InvalidHardware {
            detail: e.to_string(),
        })?;
        opts.validate()?;
        // Bind the symbolic sequence length before anything computes
        // shapes; fully fixed graphs pass through untouched.
        let graph = match opts.seq_len {
            Some(len) => pimcomp_ir::transform::bind_seq_len(graph, len).map_err(|e| {
                CompileError::InvalidGraph {
                    detail: e.to_string(),
                }
            })?,
            None if graph.has_symbolic_dims() => {
                return Err(CompileError::UnboundSeqLen {
                    model: graph.name().to_string(),
                })
            }
            None => graph.clone(),
        };
        let graph = if opts.normalize {
            pimcomp_ir::transform::normalize(&graph).map_err(|e| CompileError::InvalidGraph {
                detail: e.to_string(),
            })?
        } else {
            graph
        };
        graph.validate().map_err(|e| CompileError::InvalidGraph {
            detail: e.to_string(),
        })?;
        Ok(CompileSession { hw, graph, opts })
    }

    /// The hardware target.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// The (possibly normalized) graph this session compiles.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The session's options.
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// Stage 1 (§IV-B): node partitioning + dependency analysis.
    ///
    /// # Errors
    ///
    /// [`CompileError::NoMvmNodes`] when nothing maps to crossbars.
    pub fn partition(self) -> Result<Partitioned, CompileError> {
        self.partition_observed(&mut NullObserver)
    }

    /// [`CompileSession::partition`] with progress callbacks.
    ///
    /// # Errors
    ///
    /// Same as [`CompileSession::partition`].
    pub fn partition_observed(
        self,
        observer: &mut dyn CompileObserver,
    ) -> Result<Partitioned, CompileError> {
        observer.on_stage_start(CompileStage::NodePartitioning);
        let t0 = Instant::now();
        let partitioning = Partitioning::new(&self.graph, &self.hw)?;
        let dep = DepInfo::analyze(&self.graph);
        let elapsed = t0.elapsed();
        observer.on_stage_finish(CompileStage::NodePartitioning, elapsed);
        Ok(Partitioned {
            session: self,
            partitioning,
            dep,
            elapsed,
        })
    }

    /// Convenience: runs all stages and finishes the model.
    ///
    /// # Errors
    ///
    /// Any stage error; see the stage methods.
    pub fn run(self) -> Result<CompiledModel, CompileError> {
        self.run_observed(&mut NullObserver)
    }

    /// [`CompileSession::run`] with progress callbacks.
    ///
    /// # Errors
    ///
    /// Any stage error; see the stage methods.
    pub fn run_observed(
        self,
        observer: &mut dyn CompileObserver,
    ) -> Result<CompiledModel, CompileError> {
        Ok(self
            .partition_observed(observer)?
            .optimize_observed(observer)?
            .schedule_observed(observer)?
            .finish())
    }
}

/// Stage-1 artifact: the partitioned workload (§IV-B) plus the
/// dependency analysis both later stages consume.
#[derive(Debug, Clone)]
pub struct Partitioned {
    session: CompileSession,
    partitioning: Partitioning,
    dep: DepInfo,
    elapsed: Duration,
}

impl Partitioned {
    /// The node partitioning (one entry per MVM node).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The inter-node dependency analysis.
    pub fn dep(&self) -> &DepInfo {
        &self.dep
    }

    /// The session inputs (hardware, graph, options).
    pub fn session(&self) -> &CompileSession {
        &self.session
    }

    /// Wall-clock time partitioning took.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Re-enters this stage with different options — e.g. new GA
    /// parameters or a different pipeline mode — keeping the
    /// partitioning (which depends only on graph + hardware).
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidOptions`] when the new options are
    /// malformed or change `normalize` (normalization already happened
    /// at session creation, so it cannot be revised here).
    pub fn with_options(mut self, opts: CompileOptions) -> Result<Self, CompileError> {
        opts.validate()?;
        if opts.normalize != self.session.opts.normalize {
            return Err(CompileError::InvalidOptions {
                detail: "cannot change `normalize` after partitioning; \
                         open a new session"
                    .to_string(),
            });
        }
        self.session.opts = opts;
        Ok(self)
    }

    /// Shorthand for [`Partitioned::with_options`] swapping only the GA
    /// parameters.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidOptions`] when the parameters are malformed.
    pub fn with_ga(self, ga: GaParams) -> Result<Self, CompileError> {
        let opts = self.session.opts.clone().with_ga(ga);
        self.with_options(opts)
    }

    /// Stages 2+3 (§IV-C): joint weight replication + core mapping via
    /// the genetic algorithm — or, in `weight_reload` mode when the
    /// model exceeds its crossbar budget, the deterministic epoch
    /// packer (COMPASS-style time multiplexing, no GA).
    ///
    /// # Errors
    ///
    /// * [`CompileError::InsufficientCapacity`] when even one replica
    ///   per node cannot be placed (suggesting `weight_reload` as an
    ///   escape hatch),
    /// * [`CompileError::ReloadBudgetTooSmall`] when a reload budget
    ///   cannot hold even one Array Group.
    pub fn optimize(self) -> Result<Optimized, CompileError> {
        self.optimize_observed(&mut NullObserver)
    }

    /// [`Partitioned::optimize`] at an overridden GA generation budget,
    /// leaving every other option (seed included) untouched.
    ///
    /// Seed-stream discipline is preserved: RNG streams are keyed by
    /// `(seed, generation, slot)`, so a run at a smaller budget
    /// evaluates exactly the first `iterations` generations of a
    /// full-budget run — see [`CompileOptions::with_ga_budget`].
    /// Budgeted-search drivers (the design-space exploration engine's
    /// successive-halving rungs) use this to cheaply triage points
    /// before spending the full budget on survivors.
    ///
    /// # Errors
    ///
    /// Same as [`Partitioned::optimize`], plus
    /// [`CompileError::InvalidOptions`] for a zero budget.
    pub fn optimize_with_budget(self, iterations: usize) -> Result<Optimized, CompileError> {
        let opts = self.session.opts.clone().with_ga_budget(iterations);
        self.with_options(opts)?.optimize()
    }

    /// [`Partitioned::optimize`] with progress callbacks (stage events
    /// plus one [`GaGeneration`] per GA generation).
    ///
    /// # Errors
    ///
    /// Same as [`Partitioned::optimize`].
    pub fn optimize_observed(
        self,
        observer: &mut dyn CompileObserver,
    ) -> Result<Optimized, CompileError> {
        observer.on_stage_start(CompileStage::ReplicatingMapping);
        let t0 = Instant::now();
        // Over its reload budget the crossbars are time-multiplexed, so
        // replication is pointless and the GA's search space collapses:
        // `place` runs the deterministic epoch packer instead.
        let (chromosome, ga_stats) = match self.target() {
            Target::Epochs { .. } => (None, None),
            Target::Cores { cores, .. } => {
                let ctx = GaContext {
                    hw: &self.session.hw,
                    graph: &self.session.graph,
                    partitioning: &self.partitioning,
                    dep: &self.dep,
                    mode: self.session.opts.mode,
                    core_limit: Some(cores),
                };
                let (chromosome, stats) =
                    optimize_observed(&ctx, &self.session.opts.ga, &mut |p| {
                        observer.on_ga_generation(p);
                    })?;
                (Some(chromosome), Some(stats))
            }
        };
        let mut optimized = self.place(chromosome)?;
        optimized.ga_stats = ga_stats;
        optimized.elapsed = t0.elapsed();
        observer.on_stage_finish(CompileStage::ReplicatingMapping, optimized.elapsed);
        Ok(optimized)
    }

    /// Stages 2+3 from a given decision: the one way every model is
    /// placed — the GA's chromosome ([`Partitioned::optimize`]), the
    /// PUMA baseline's greedy one, or the chromosome a
    /// [`CompiledArtifact`](crate::CompiledArtifact) recorded. `None`
    /// asks for the epoch packer, the decision of an over-budget
    /// `weight_reload` model.
    ///
    /// A chromosome is checked the way the GA constrains it
    /// ([`Chromosome::check_placement`]) before it is materialized.
    ///
    /// # Errors
    ///
    /// * [`CompileError::MappingInvariant`] when the chromosome breaks a
    ///   GA constraint, or when the decision's kind does not match the
    ///   model (a chromosome for an over-budget reload model, none for
    ///   one that fits),
    /// * [`CompileError::ReloadBudgetTooSmall`] when the epoch packer
    ///   cannot hold even one Array Group.
    pub fn place(self, chromosome: Option<Chromosome>) -> Result<Optimized, CompileError> {
        let t0 = Instant::now();
        let hw = &self.session.hw;
        let mismatch = |detail: &str| CompileError::MappingInvariant {
            detail: detail.to_string(),
        };
        let (mapping, reload) = match (self.target(), &chromosome) {
            (Target::Cores { cores, budget }, Some(c)) => {
                c.check_placement(&self.partitioning, cores, hw.crossbar_capacity_per_core())?;
                let mapping = CoreMapping::from_chromosome(c, &self.partitioning)?;
                let reload = budget
                    .map(|b| resident_reload_plan(&self.partitioning, &mapping, hw, b, cores));
                (mapping, reload)
            }
            (Target::Epochs { budget }, None) => {
                let plan = EpochPlan::new(&self.partitioning, hw, budget)?;
                let mapping =
                    CoreMapping::from_epoch_plan(&plan, &self.partitioning, hw.total_cores());
                (mapping, Some(plan.reload_plan(&self.partitioning, hw)))
            }
            (Target::Cores { .. }, None) => {
                return Err(mismatch(
                    "the model fits its crossbar target, but the decision has no chromosome",
                ))
            }
            (Target::Epochs { .. }, Some(_)) => {
                return Err(mismatch(
                    "the model exceeds its reload budget and is epoch-packed, \
                     but the decision has a chromosome",
                ))
            }
        };
        Ok(Optimized {
            partitioned: self,
            mapping,
            chromosome,
            ga_stats: None,
            reload,
            elapsed: t0.elapsed(),
        })
    }

    /// Where this session's decision may place Array Groups.
    pub(crate) fn target(&self) -> Target {
        let hw = &self.session.hw;
        let opts = &self.session.opts;
        if !opts.weight_reload {
            return Target::Cores {
                cores: hw.total_cores(),
                budget: None,
            };
        }
        let budget = opts
            .reload_budget
            .unwrap_or_else(|| hw.total_crossbars())
            .min(hw.total_crossbars());
        let capacity = hw.crossbar_capacity_per_core();
        let usable = (budget / capacity).min(hw.total_cores());
        if usable >= 1 && self.partitioning.min_crossbars() <= usable * capacity {
            Target::Cores {
                cores: usable,
                budget: Some(budget),
            }
        } else {
            Target::Epochs { budget }
        }
    }
}

/// The placement target of a [`Partitioned`] session.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Target {
    /// A chromosome over a core prefix: the whole chip, or in
    /// `weight_reload` mode the cores a `budget` that the model fits
    /// covers.
    Cores { cores: usize, budget: Option<usize> },
    /// An over-budget `weight_reload` model, packed into epochs.
    Epochs { budget: usize },
}

/// The [`ReloadPlan`] of a reload-mode model that fits its budget: one
/// epoch, every weight resident, zero reload cost — kept (rather than
/// `None`) so artifacts record that the compilation was
/// budget-constrained.
fn resident_reload_plan(
    partitioning: &Partitioning,
    mapping: &CoreMapping,
    hw: &HardwareConfig,
    budget: usize,
    ring_cores: usize,
) -> ReloadPlan {
    let cells_per_weight = hw.cells_per_weight();
    let mut resident = 0u64;
    for inst in &mapping.instances {
        let e = partitioning.entry(inst.mvm);
        let rows = crate::schedule::slice_rows(e.weight_height, hw.crossbar_rows, inst.slice);
        resident += (rows * e.weight_width * cells_per_weight) as u64;
    }
    ReloadPlan {
        budget,
        ring_cores,
        epochs: vec![EpochReloadCost {
            resident_cells: resident,
            ..EpochReloadCost::default()
        }],
        total_ags_written: 0,
        total_cells_written: 0,
        total_write_cycles: 0,
        total_write_pj: 0.0,
        total_compute_cycles: 0,
    }
}

/// Stage-2/3 artifact: the replication + placement result (§IV-C) —
/// from the GA, or from the epoch packer in over-budget
/// `weight_reload` compilations.
#[derive(Debug, Clone)]
pub struct Optimized {
    partitioned: Partitioned,
    mapping: CoreMapping,
    chromosome: Option<Chromosome>,
    ga_stats: Option<GaStats>,
    reload: Option<ReloadPlan>,
    elapsed: Duration,
}

impl Optimized {
    /// The replication + placement decision.
    pub fn mapping(&self) -> &CoreMapping {
        &self.mapping
    }

    /// The GA's optimization trace (`None` when the epoch packer
    /// produced the mapping — over-budget `weight_reload` runs skip
    /// the GA entirely).
    pub fn ga_stats(&self) -> Option<&GaStats> {
        self.ga_stats.as_ref()
    }

    /// The reload schedule (`Some` for every `weight_reload`
    /// compilation; zero-cost single epoch when the model fits).
    pub fn reload(&self) -> Option<&ReloadPlan> {
        self.reload.as_ref()
    }

    /// The upstream partitioning artifact.
    pub fn partitioned(&self) -> &Partitioned {
        &self.partitioned
    }

    /// Wall-clock time placement took (the GA included).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Discards this mapping and steps back to the partitioning
    /// artifact (e.g. to change the pipeline mode, which invalidates
    /// the GA's objective).
    pub fn into_partitioned(self) -> Partitioned {
        self.partitioned
    }

    /// Re-runs the GA with different parameters, reusing the
    /// partitioning. Equivalent to
    /// `self.into_partitioned().with_ga(ga)?.optimize()`.
    ///
    /// # Errors
    ///
    /// Same as [`Partitioned::optimize`], plus
    /// [`CompileError::InvalidOptions`] for malformed parameters.
    pub fn reoptimize(self, ga: GaParams) -> Result<Optimized, CompileError> {
        self.into_partitioned().with_ga(ga)?.optimize()
    }

    /// Stage 4 (§IV-D): dataflow scheduling + memory planning.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (scheduling total functions),
    /// kept fallible for forward compatibility.
    pub fn schedule(self) -> Result<Scheduled, CompileError> {
        self.schedule_observed(&mut NullObserver)
    }

    /// [`Optimized::schedule`] with progress callbacks.
    ///
    /// # Errors
    ///
    /// Same as [`Optimized::schedule`].
    pub fn schedule_observed(
        self,
        observer: &mut dyn CompileObserver,
    ) -> Result<Scheduled, CompileError> {
        observer.on_stage_start(CompileStage::DataflowScheduling);
        let t0 = Instant::now();
        let (schedule, memory) = build_schedule_and_memory(
            &self.partitioned.session,
            &self.partitioned.partitioning,
            &self.partitioned.dep,
            &self.mapping,
        );
        let elapsed = t0.elapsed();
        observer.on_stage_finish(CompileStage::DataflowScheduling, elapsed);
        Ok(Scheduled {
            optimized: self,
            schedule,
            memory,
            elapsed,
        })
    }
}

fn build_schedule_and_memory(
    session: &CompileSession,
    partitioning: &Partitioning,
    dep: &DepInfo,
    mapping: &CoreMapping,
) -> (Schedule, MemoryPlan) {
    let hw = &session.hw;
    let schedule = match session.opts.mode {
        PipelineMode::HighThroughput => Schedule::HighThroughput(HtSchedule::build(
            &session.graph,
            partitioning,
            mapping,
            dep,
            hw,
            session.opts.batch,
        )),
        PipelineMode::LowLatency => Schedule::LowLatency(LlSchedule::build(
            &session.graph,
            partitioning,
            mapping,
            dep,
            hw,
        )),
    };
    let memory = MemoryPlan::for_schedule(
        &session.graph,
        &schedule,
        partitioning,
        mapping,
        dep,
        hw,
        session.opts.memory_policy,
    );
    (schedule, memory)
}

/// Stage-4 artifact: per-core schedules + the local-memory plan
/// (§IV-D), one [`Scheduled::finish`] away from a [`CompiledModel`].
#[derive(Debug, Clone)]
pub struct Scheduled {
    optimized: Optimized,
    schedule: Schedule,
    memory: MemoryPlan,
    elapsed: Duration,
}

impl Scheduled {
    /// The per-core dataflow schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The local-memory plan under the session's policy.
    pub fn memory(&self) -> &MemoryPlan {
        &self.memory
    }

    /// The upstream optimization artifact.
    pub fn optimized(&self) -> &Optimized {
        &self.optimized
    }

    /// Wall-clock time scheduling took.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Discards the schedule and steps back to the mapping artifact.
    pub fn into_optimized(self) -> Optimized {
        self.optimized
    }

    /// Re-plans local memory under a different policy without touching
    /// the schedule (the Fig. 10 sweep).
    #[must_use]
    pub fn replan_memory(mut self, policy: ReusePolicy) -> Self {
        let t0 = Instant::now();
        self.optimized.partitioned.session.opts.memory_policy = policy;
        let partitioned = &self.optimized.partitioned;
        self.memory = MemoryPlan::for_schedule(
            &partitioned.session.graph,
            &self.schedule,
            &partitioned.partitioning,
            &self.optimized.mapping,
            &partitioned.dep,
            &partitioned.session.hw,
            policy,
        );
        self.elapsed += t0.elapsed();
        self
    }

    /// Rebuilds the schedule with a different HT transfer batch,
    /// keeping partitioning and mapping.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidOptions`] for a zero batch or when the
    /// session is in low-latency mode (batching is an HT concept).
    pub fn rebatch(mut self, batch: usize) -> Result<Self, CompileError> {
        // Set the batch directly: `with_batch` clamps zero to 1, which
        // would silently defeat the documented zero-batch rejection.
        let mut opts = self.optimized.partitioned.session.opts.clone();
        opts.batch = batch;
        opts.validate()?;
        let t0 = Instant::now();
        self.optimized.partitioned.session.opts = opts;
        let partitioned = &self.optimized.partitioned;
        let (schedule, memory) = build_schedule_and_memory(
            &partitioned.session,
            &partitioned.partitioning,
            &partitioned.dep,
            &self.optimized.mapping,
        );
        self.schedule = schedule;
        self.memory = memory;
        self.elapsed += t0.elapsed();
        Ok(self)
    }

    /// Assembles the final [`CompiledModel`] (with its
    /// [`CompileReport`]); consumes the session.
    #[must_use]
    pub fn finish(self) -> CompiledModel {
        let Scheduled {
            optimized,
            schedule,
            memory,
            elapsed: t_schedule,
        } = self;
        let Optimized {
            partitioned,
            mapping,
            chromosome,
            ga_stats,
            reload,
            elapsed: t_mapping,
        } = optimized;
        let Partitioned {
            session,
            partitioning,
            dep,
            elapsed: t_partition,
        } = partitioned;

        // Multi-epoch reload plans execute serially, so their analytic
        // per-epoch compute sum replaces the mapping-based estimate
        // (which would treat all epochs as concurrently resident).
        let estimated = match reload.as_ref().filter(|p| !p.is_single_epoch()) {
            Some(plan) => plan.total_compute_cycles as f64,
            None => match session.opts.mode {
                PipelineMode::HighThroughput => {
                    fitness::ht_fitness_from_mapping(&session.hw, &partitioning, &mapping)
                }
                PipelineMode::LowLatency => fitness::ll_fitness(
                    &session.hw,
                    &session.graph,
                    &partitioning,
                    &dep,
                    &mapping.replication,
                ),
            },
        };
        let estimated = fitness::with_reload_stalls(estimated, reload.as_ref());

        let report = CompileReport {
            model: session.graph.name().to_string(),
            compiler: "PIMCOMP".to_string(),
            mode: session.opts.mode,
            timings: StageTimings {
                node_partitioning: t_partition,
                replicating_mapping: t_mapping,
                dataflow_scheduling: t_schedule,
            },
            ga: ga_stats,
            replication: mapping.replication.counts().to_vec(),
            active_cores: mapping.active_cores(),
            crossbars_used: mapping.replication.total_crossbars(&partitioning),
            estimated_fitness: estimated,
        };

        CompiledModel {
            graph: session.graph,
            hw: session.hw,
            mode: session.opts.mode,
            partitioning,
            mapping,
            chromosome,
            dep,
            schedule,
            memory,
            reload,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::models;

    fn session(mode: PipelineMode) -> CompileSession {
        CompileSession::new(
            HardwareConfig::small_test(),
            &models::tiny_cnn(),
            CompileOptions::new(mode).with_fast_ga(11),
        )
        .unwrap()
    }

    #[test]
    fn stages_are_inspectable() {
        let p = session(PipelineMode::HighThroughput).partition().unwrap();
        assert!(!p.partitioning().is_empty());
        let o = p.optimize().unwrap();
        assert!(o.mapping().active_cores() > 0);
        assert!(o.ga_stats().unwrap().evaluations > 0);
        let s = o.schedule().unwrap();
        assert!(s.schedule().as_ht().is_some());
        assert!(s.memory().peak_bytes > 0);
    }

    #[test]
    fn observer_sees_stages_and_generations() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<CompileStage>,
            finished: Vec<CompileStage>,
            generations: usize,
        }
        impl CompileObserver for Recorder {
            fn on_stage_start(&mut self, stage: CompileStage) {
                self.started.push(stage);
            }
            fn on_stage_finish(&mut self, stage: CompileStage, _elapsed: Duration) {
                self.finished.push(stage);
            }
            fn on_ga_generation(&mut self, progress: GaGeneration) {
                assert!(progress.best_fitness > 0.0);
                self.generations += 1;
            }
        }
        let mut rec = Recorder::default();
        let _ = session(PipelineMode::HighThroughput)
            .run_observed(&mut rec)
            .unwrap();
        let all = [
            CompileStage::NodePartitioning,
            CompileStage::ReplicatingMapping,
            CompileStage::DataflowScheduling,
        ];
        assert_eq!(rec.started, all);
        assert_eq!(rec.finished, all);
        assert_eq!(rec.generations, GaParams::fast(11).iterations);
    }

    #[test]
    fn stage_timings_collect_via_observer() {
        let mut timings = StageTimings::default();
        let _ = session(PipelineMode::LowLatency)
            .run_observed(&mut timings)
            .unwrap();
        assert!(timings.total() > Duration::ZERO);
    }

    #[test]
    fn reoptimize_reuses_partitioning() {
        let o = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap();
        let first = o.mapping().clone();
        let o2 = o.reoptimize(GaParams::fast(99)).unwrap();
        // Different seed explores differently but stays feasible.
        let cores = o2.partitioned().session().hardware().total_cores();
        o2.mapping()
            .validate(o2.partitioned().partitioning(), cores)
            .unwrap();
        let _ = first;
    }

    #[test]
    fn replan_memory_keeps_schedule() {
        let s = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap();
        let schedule_before = s.schedule().clone();
        let s = s.replan_memory(ReusePolicy::Naive);
        assert_eq!(s.schedule(), &schedule_before);
        assert_eq!(s.memory().policy, ReusePolicy::Naive);
        assert_eq!(s.finish().memory.policy, ReusePolicy::Naive);
    }

    #[test]
    fn optimize_with_budget_runs_a_prefix_and_rejects_zero() {
        // GaParams::fast runs 24 generations; a 5-generation budget
        // must walk exactly the first 5 generations of that trajectory.
        let full = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap();
        let short = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize_with_budget(5)
            .unwrap();
        assert_eq!(short.ga_stats().unwrap().history.len(), 5);
        assert_eq!(
            short.ga_stats().unwrap().history[..],
            full.ga_stats().unwrap().history[..5]
        );
        assert!(matches!(
            session(PipelineMode::HighThroughput)
                .partition()
                .unwrap()
                .optimize_with_budget(0),
            Err(CompileError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn rebatch_zero_is_rejected() {
        let s = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap();
        assert!(matches!(
            s.clone().rebatch(0),
            Err(CompileError::InvalidOptions { .. })
        ));
        assert!(matches!(
            s.rebatch(crate::MAX_HT_BATCH + 1),
            Err(CompileError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn rebatch_rebuilds_the_ht_schedule() {
        let s = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap();
        let s = s.rebatch(4).unwrap();
        assert_eq!(s.schedule().as_ht().unwrap().batch, 4);
        let s = s.rebatch(crate::MAX_HT_BATCH).unwrap();
        assert_eq!(s.schedule().as_ht().unwrap().batch, crate::MAX_HT_BATCH);
    }

    #[test]
    fn rebatch_rejected_in_ll_mode() {
        let s = session(PipelineMode::LowLatency)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap();
        assert!(matches!(
            s.rebatch(4),
            Err(CompileError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn invalid_options_rejected_at_creation() {
        let graph = models::tiny_mlp();
        let hw = HardwareConfig::small_test();
        let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        opts.batch = 0;
        assert!(matches!(
            CompileSession::new(hw.clone(), &graph, opts),
            Err(CompileError::InvalidOptions { .. })
        ));
        let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        opts.batch = crate::MAX_HT_BATCH + 1;
        assert!(matches!(
            CompileSession::new(hw.clone(), &graph, opts),
            Err(CompileError::InvalidOptions { detail }) if detail.contains("within 1..=65536")
        ));
        let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        opts.ga.population = 0;
        assert!(matches!(
            CompileSession::new(hw.clone(), &graph, opts),
            Err(CompileError::InvalidOptions { .. })
        ));
        let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        opts.ga.iterations = 0;
        assert!(matches!(
            CompileSession::new(hw, &graph, opts),
            Err(CompileError::InvalidOptions { .. })
        ));
    }
}
