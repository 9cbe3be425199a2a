//! The modified genetic algorithm jointly optimizing weight replication
//! and core mapping (paper Section IV-C).
//!
//! Individuals are [`Chromosome`]s (gene grids of
//! `core_num × max_node_num_in_core` slots). As in the paper, the
//! crossover phase is skipped — recombining two mappings almost never
//! yields a feasible mapping — and evolution proceeds through four
//! mutation operators:
//!
//! 1. **Grow**: increase a node's replication, placing the new replica's
//!    AGs on random cores with free capacity.
//! 2. **Shrink**: decrease a node's replication, returning its crossbars.
//! 3. **Spread**: move part of one gene's AGs to another core.
//! 4. **Merge**: fold one gene into a gene of the same node on another
//!    core.
//!
//! All operators preserve feasibility (crossbar capacity and per-core
//! node limits), so no penalty terms are needed.
//!
//! # The evaluation engine
//!
//! Fitness evaluation dominates compile time, so the engine is built
//! for parallel, incremental, memoized evaluation while staying
//! **deterministic to the bit** for a given [`GaParams::seed`]:
//!
//! * **Seed-stream splitting** — every initial individual and every
//!   offspring slot of every generation owns a private [`StdRng`]
//!   seeded by SplitMix64-mixing the master seed with the (generation,
//!   slot) pair. No RNG is ever shared, so the random choices a slot
//!   makes cannot depend on scheduling.
//! * **Batched offspring** — each generation derives its full offspring
//!   batch (selection + mutation) up front against the immutable parent
//!   population, then evaluates the batch across a scoped worker pool
//!   ([`GaParams::parallelism`]) with an index-ordered reduction.
//!   Serial and parallel runs share one code path, so any thread count
//!   (including 1) produces bit-identical populations and
//!   [`GaStats`].
//! * **Memoization + incrementality** — results are cached by
//!   [chromosome fingerprint](Chromosome::fingerprint)
//!   ([`FitnessMemo`](crate::FitnessMemo)), and offspring that differ
//!   from their parent in a few genes are re-evaluated incrementally
//!   (per-core recomputation in HT mode, chain-estimate reuse in LL
//!   mode) — exactly, not approximately.

use crate::fitness::{
    compute_fitness, ht_fitness, ll_fitness_with_issue_floor, EvalBasis, EvalKind, EvalScratch,
    FitnessMemo,
};
use crate::mapping::{Chromosome, Gene};
use crate::parallel::run_indexed_with;
use crate::partition::{MvmIdx, Partitioning};
use crate::waiting::DepInfo;
use crate::CompileError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Genetic-algorithm hyper-parameters.
///
/// Defaults follow the paper's evaluation: population 100, 200
/// iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Population size (paper: 100).
    pub population: usize,
    /// Generation count (paper: 200).
    pub iterations: usize,
    /// RNG seed for reproducible compilations.
    pub seed: u64,
    /// Fraction of the population carried over unchanged each
    /// generation.
    pub elite_fraction: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Maximum mutation operators applied to one child.
    pub max_mutations_per_child: usize,
    /// Per-core distinct-node limit (`max_node_num_in_core`); `None`
    /// selects a heuristic based on node and core counts.
    pub max_nodes_per_core: Option<usize>,
    /// Worker threads for offspring construction and fitness
    /// evaluation. `None` (the default) runs serially on the calling
    /// thread.
    ///
    /// **Determinism contract (seed-stream splitting).** The result is
    /// bit-identical for every setting: each initial individual and
    /// each offspring slot of each generation draws from its own
    /// [`StdRng`] stream whose seed is derived from [`GaParams::seed`]
    /// and the (generation, slot) pair by a SplitMix64-style mix —
    /// never from a shared generator — fitness evaluation is a pure
    /// function of the chromosome, and batch results are reduced in
    /// slot order. Parallelism therefore changes wall-clock time only,
    /// never the compiled mapping or the [`GaStats`] trace.
    ///
    /// When this field is `None`, the `PIMCOMP_GA_THREADS` environment
    /// variable (a positive integer) supplies the default instead — CI
    /// uses it to run the whole test suite through both the serial and
    /// the parallel path. An explicit `Some(n)` always wins, so tests
    /// and benchmarks that compare thread counts stay meaningful under
    /// the override.
    pub parallelism: Option<NonZeroUsize>,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 100,
            iterations: 200,
            seed: 0xC0FFEE,
            elite_fraction: 0.2,
            tournament: 3,
            max_mutations_per_child: 3,
            max_nodes_per_core: None,
            parallelism: None,
        }
    }
}

impl GaParams {
    /// A down-scaled configuration for tests and examples (population
    /// 16, 24 iterations, given seed).
    pub fn fast(seed: u64) -> Self {
        GaParams {
            population: 16,
            iterations: 24,
            seed,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count (see [`GaParams::parallelism`]).
    #[must_use]
    pub fn with_parallelism(mut self, threads: Option<NonZeroUsize>) -> Self {
        self.parallelism = threads;
        self
    }
}

/// The worker-thread count a run will actually use:
/// [`GaParams::parallelism`] when explicitly set, else the
/// `PIMCOMP_GA_THREADS` environment default (a positive integer),
/// else 1.
pub fn effective_parallelism(params: &GaParams) -> usize {
    if let Some(n) = params.parallelism {
        return n.get();
    }
    if let Ok(raw) = std::env::var("PIMCOMP_GA_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    1
}

/// Derives the seed of one private RNG stream from the master seed
/// (SplitMix64-style avalanche over the `(stage, index)` pair; stage 0
/// is population initialization, stage `g + 1` is generation `g`).
fn stream_seed(master: u64, stage: u64, index: u64) -> u64 {
    let mut z = master
        ^ stage.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits a deterministic child seed from `master` for the stream
/// addressed by `(stage, index)` — the same SplitMix64-style avalanche
/// the GA uses internally for its per-offspring RNG streams (see
/// [`GaParams::parallelism`]).
///
/// Exposed for drivers that fan deterministic work out over many
/// compilations (the design-space exploration engine derives each sweep
/// point's GA seed this way), so results stay bit-identical for any
/// thread count or evaluation order.
pub fn split_stream_seed(master: u64, stage: u64, index: u64) -> u64 {
    stream_seed(master, stage, index)
}

/// Optimization trace returned alongside the best chromosome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaStats {
    /// Best fitness of the initial random population.
    pub initial_fitness: f64,
    /// Best fitness after the final generation.
    pub final_fitness: f64,
    /// Best fitness at each generation.
    pub history: Vec<f64>,
    /// Total fitness evaluations computed (full + incremental;
    /// memo-cache hits are *not* evaluations).
    pub evaluations: usize,
    /// Evaluations computed from scratch (initial population, and
    /// offspring whose parent basis could not be reused).
    pub full_evals: usize,
    /// Evaluations computed incrementally from the parent's basis
    /// (dirty-core recomputation in HT mode, chain reuse in LL mode).
    pub incremental_evals: usize,
    /// Offspring answered from the fitness memo cache without any
    /// computation.
    pub cache_hits: usize,
    /// Fitness evaluations computed in each generation (the initial
    /// population is excluded; it accounts for
    /// `evaluations - evals_per_generation.sum()`).
    pub evals_per_generation: Vec<usize>,
    /// Grow mutations that placed at least one additional replica.
    pub grow_successes: usize,
    /// Grow mutations that found headroom but could not place anything
    /// (capacity or per-core slot exhaustion). A high ratio of failures
    /// to successes means the population is wedged against the crossbar
    /// budget — the diagnostic `GA_DEBUG` stderr prints used to carry.
    pub grow_failures: usize,
}

/// One generation's progress snapshot, delivered to
/// [`CompileObserver::on_ga_generation`](crate::CompileObserver::on_ga_generation)
/// while the GA runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaGeneration {
    /// Generation index (0-based).
    pub generation: usize,
    /// Total generations this run will execute.
    pub total_generations: usize,
    /// Best fitness in the population after this generation.
    pub best_fitness: f64,
    /// Cumulative fitness evaluations so far.
    pub evaluations: usize,
    /// Cumulative fitness-memo cache hits so far.
    pub cache_hits: usize,
    /// Cumulative grow mutations that succeeded so far (see
    /// [`GaStats::grow_successes`]).
    pub grow_successes: usize,
    /// Cumulative grow mutations that failed so far (see
    /// [`GaStats::grow_failures`]).
    pub grow_failures: usize,
}

/// Everything the fitness functions need, bundled for reuse.
pub struct GaContext<'a> {
    /// Hardware target.
    pub hw: &'a HardwareConfig,
    /// The (normalized) graph.
    pub graph: &'a Graph,
    /// Node partitioning.
    pub partitioning: &'a Partitioning,
    /// Dependency/waiting analysis.
    pub dep: &'a DepInfo,
    /// Which fitness to optimize.
    pub mode: PipelineMode,
    /// Restricts the search to cores `0..limit` (`None` = every core).
    /// Used by `weight_reload` compilations whose crossbar budget is
    /// smaller than the chip, so the GA packs into the budgeted prefix
    /// of cores; downstream stages size arrays by the full core count,
    /// so a limited chromosome simply leaves the tail cores empty.
    pub core_limit: Option<usize>,
}

impl GaContext<'_> {
    /// Cores available to the search: the hardware's core count, or the
    /// `core_limit` prefix when one is set (never more than the chip
    /// has).
    pub fn cores(&self) -> usize {
        let total = self.hw.total_cores();
        self.core_limit.map_or(total, |l| l.min(total)).max(1)
    }

    /// Evaluates the mode's fitness for a chromosome from scratch
    /// (lower is better). This is the reference implementation the
    /// memoized/incremental engine ([`FitnessMemo`](crate::FitnessMemo))
    /// must match bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates invariant violations from replication derivation.
    pub fn fitness(&self, chromosome: &Chromosome) -> Result<f64, CompileError> {
        let plan = chromosome.replication(self.partitioning)?;
        Ok(match self.mode {
            PipelineMode::HighThroughput => {
                ht_fitness(self.hw, self.partitioning, chromosome, &plan)
            }
            PipelineMode::LowLatency => ll_fitness_with_issue_floor(
                self.hw,
                self.graph,
                self.partitioning,
                self.dep,
                chromosome,
                &plan,
            ),
        })
    }
}

/// The mutable state the mutation operators work on: a chromosome plus
/// the per-core crossbar occupancy they keep in sync.
#[derive(Debug, Clone)]
struct Draft {
    chromosome: Chromosome,
    used_crossbars: Vec<usize>,
}

/// A population member: a draft plus its evaluation result.
#[derive(Debug, Clone)]
struct Individual {
    draft: Draft,
    fitness: f64,
    fingerprint: u128,
    basis: Arc<EvalBasis>,
}

/// How an offspring obtained its fitness (tallied into [`GaStats`]).
enum OffspringSource {
    /// No mutation applied; the parent's result carries over.
    Unchanged,
    /// Answered by the fitness memo.
    CacheHit,
    /// Computed (fully or incrementally).
    Evaluated(EvalKind),
}

/// Per-offspring mutation-operator diagnostics, carried back from the
/// worker and reduced in slot order so the tallies are deterministic
/// for any thread count. This replaces the old `GA_DEBUG` stderr
/// prints, which read `std::env::var` inside the hot mutation loop and
/// wrote diagnostics from a library crate; the tallies now flow through
/// [`GaStats`] and the [`GaGeneration`] observer snapshot instead.
#[derive(Debug, Clone, Copy, Default)]
struct MutationTally {
    grow_ok: usize,
    grow_failed: usize,
}

/// One derived-and-evaluated offspring, produced by a worker.
struct Offspring {
    draft: Draft,
    fitness: f64,
    fingerprint: u128,
    basis: Arc<EvalBasis>,
    source: OffspringSource,
    tally: MutationTally,
}

/// Reusable per-worker buffers for offspring derivation. Purely an
/// allocation cache (cleared before every use), so reuse across
/// offspring slots never changes results.
#[derive(Default)]
struct MutScratch {
    /// Candidate gene lists (spread source genes, merge genes).
    genes: Vec<(usize, Gene)>,
    /// Merge target genes.
    targets: Vec<(usize, Gene)>,
    /// Shrink slot walk order.
    slots: Vec<usize>,
    /// `(ag_count, cycles)` per-core items for `critical_node`.
    items: Vec<(usize, usize)>,
}

/// Everything one evaluation worker reuses across its offspring slots.
#[derive(Default)]
struct WorkerScratch {
    eval: EvalScratch,
    mutation: MutScratch,
}

/// Heuristic `max_node_num_in_core` when the user does not pin one.
pub fn default_max_nodes_per_core(nodes: usize, cores: usize) -> usize {
    ((2 * nodes).div_ceil(cores) + 2).clamp(4, nodes.max(4))
}

/// Runs the GA and returns the best chromosome with its trace.
///
/// # Errors
///
/// [`CompileError::InsufficientCapacity`] when even one replica of every
/// node cannot be placed.
pub fn optimize(
    ctx: &GaContext<'_>,
    params: &GaParams,
) -> Result<(Chromosome, GaStats), CompileError> {
    optimize_observed(ctx, params, &mut |_| {})
}

/// Runs the GA like [`optimize`], invoking `on_generation` after every
/// generation with a [`GaGeneration`] progress snapshot.
///
/// # Errors
///
/// [`CompileError::InsufficientCapacity`] when even one replica of every
/// node cannot be placed.
pub fn optimize_observed(
    ctx: &GaContext<'_>,
    params: &GaParams,
    on_generation: &mut dyn FnMut(GaGeneration),
) -> Result<(Chromosome, GaStats), CompileError> {
    let cores = ctx.cores();
    let capacity = ctx.hw.crossbar_capacity_per_core();
    let max_nodes = params
        .max_nodes_per_core
        .unwrap_or_else(|| default_max_nodes_per_core(ctx.partitioning.len(), cores));

    let required = ctx.partitioning.min_crossbars();
    let available = cores * capacity;
    if required > available {
        return Err(CompileError::InsufficientCapacity {
            required,
            available,
        });
    }

    let threads = effective_parallelism(params);
    let mut memo = FitnessMemo::new(ctx);
    let pop_n = params.population.max(1);

    // Initial population: random replication numbers per node (the
    // paper's initialization), placed big-AGs-first so fragmentation
    // cannot strand them. Individual 0 stays at the minimum plan as a
    // safe anchor. Every individual derives from its own seed stream
    // and is evaluated from scratch across the worker pool.
    let built = run_indexed_with(threads, pop_n, EvalScratch::default, |scratch, i| {
        let mut rng = StdRng::seed_from_u64(stream_seed(params.seed, 0, i as u64));
        let draft = initial_draft(ctx, cores, max_nodes, capacity, i > 0, &mut rng)?;
        let (fitness, basis, _) = compute_fitness(ctx, &draft.chromosome, None, scratch)?;
        Ok::<_, CompileError>((draft, fitness, basis))
    });
    let mut population: Vec<Individual> = Vec::with_capacity(pop_n);
    for result in built {
        let (draft, fitness, basis) = result?;
        let fingerprint = draft.chromosome.fingerprint();
        let basis = Arc::new(basis);
        memo.observe(EvalKind::Full);
        memo.record(fingerprint, fitness, basis.clone());
        population.push(Individual {
            draft,
            fitness,
            fingerprint,
            basis,
        });
    }

    population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
    let initial_fitness = population[0].fitness;
    let mut history = Vec::with_capacity(params.iterations);
    let mut evals_per_generation = Vec::with_capacity(params.iterations);
    let mut grow_successes = 0usize;
    let mut grow_failures = 0usize;

    let elite =
        ((params.population as f64 * params.elite_fraction).ceil() as usize).clamp(1, pop_n);

    for gen in 0..params.iterations {
        let offspring_n = pop_n - elite;
        let evals_before = memo.full_evals() + memo.incremental_evals();

        // Derive and evaluate the whole offspring batch against the
        // immutable parent population; each slot owns its RNG stream.
        let results = run_indexed_with(threads, offspring_n, WorkerScratch::default, |ws, slot| {
            let scratch = &mut ws.eval;
            let mut rng =
                StdRng::seed_from_u64(stream_seed(params.seed, gen as u64 + 1, slot as u64));
            let parent = tournament(&population, params.tournament, &mut rng);
            let mut draft = parent.draft.clone();
            let n_mut = rng.gen_range(1..=params.max_mutations_per_child);
            let mut changed = false;
            let mut tally = MutationTally::default();
            for _ in 0..n_mut {
                changed |= mutate(
                    &mut draft,
                    ctx,
                    capacity,
                    &mut rng,
                    &mut tally,
                    &mut ws.mutation,
                );
            }
            if !changed {
                return Ok(Offspring {
                    draft,
                    fitness: parent.fitness,
                    fingerprint: parent.fingerprint,
                    basis: parent.basis.clone(),
                    source: OffspringSource::Unchanged,
                    tally,
                });
            }
            let fingerprint = draft.chromosome.fingerprint();
            if let Some(entry) = memo.lookup(fingerprint) {
                return Ok(Offspring {
                    draft,
                    fitness: entry.fitness,
                    fingerprint,
                    basis: entry.basis.clone(),
                    source: OffspringSource::CacheHit,
                    tally,
                });
            }
            let (fitness, basis, kind) = compute_fitness(
                ctx,
                &draft.chromosome,
                Some((&parent.draft.chromosome, &parent.basis)),
                scratch,
            )?;
            Ok::<_, CompileError>(Offspring {
                draft,
                fitness,
                fingerprint,
                basis: Arc::new(basis),
                source: OffspringSource::Evaluated(kind),
                tally,
            })
        });

        // Index-ordered reduction: tally stats and fill the memo in
        // slot order, so the outcome is independent of thread count.
        let mut next: Vec<Individual> = population[..elite].to_vec();
        for result in results {
            let off = result?;
            grow_successes += off.tally.grow_ok;
            grow_failures += off.tally.grow_failed;
            match off.source {
                OffspringSource::Unchanged => {}
                OffspringSource::CacheHit => memo.observe_hit(),
                OffspringSource::Evaluated(kind) => {
                    memo.observe(kind);
                    memo.record(off.fingerprint, off.fitness, off.basis.clone());
                }
            }
            next.push(Individual {
                draft: off.draft,
                fitness: off.fitness,
                fingerprint: off.fingerprint,
                basis: off.basis,
            });
        }
        next.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        population = next;
        history.push(population[0].fitness);
        evals_per_generation.push(memo.full_evals() + memo.incremental_evals() - evals_before);
        on_generation(GaGeneration {
            generation: gen,
            total_generations: params.iterations,
            best_fitness: population[0].fitness,
            evaluations: memo.full_evals() + memo.incremental_evals(),
            cache_hits: memo.cache_hits(),
            grow_successes,
            grow_failures,
        });
    }

    let best = population.remove(0);
    let stats = GaStats {
        initial_fitness,
        final_fitness: best.fitness,
        history,
        evaluations: memo.full_evals() + memo.incremental_evals(),
        full_evals: memo.full_evals(),
        incremental_evals: memo.incremental_evals(),
        cache_hits: memo.cache_hits(),
        evals_per_generation,
        grow_successes,
        grow_failures,
    };
    Ok((best.draft.chromosome, stats))
}

/// Builds a feasible draft. With `randomize` set, each node draws
/// a random power-of-two replication number (halved until it fits);
/// otherwise every node gets exactly one replica.
fn initial_draft(
    ctx: &GaContext<'_>,
    cores: usize,
    max_nodes: usize,
    capacity: usize,
    randomize: bool,
    rng: &mut StdRng,
) -> Result<Draft, CompileError> {
    let mut ind = Draft {
        chromosome: Chromosome::empty(cores, max_nodes),
        used_crossbars: vec![0; cores],
    };
    // Pass 1: the mandatory replica of every node, wide-AG nodes first
    // so fragmentation cannot strand them.
    let mut order: Vec<MvmIdx> = (0..ctx.partitioning.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ctx.partitioning.entry(i).crossbars_per_ag));
    for &mvm in &order {
        let a = ctx.partitioning.entry(mvm).ags_per_replica;
        // Random start first; deterministic first-fit as the fallback
        // so pass 1 only fails on true capacity exhaustion.
        if !place_ags(&mut ind, ctx, mvm, a, capacity, rng)
            && !place_ags_from(&mut ind, ctx, mvm, a, capacity, 0)
        {
            return Err(CompileError::InsufficientCapacity {
                required: ctx.partitioning.min_crossbars(),
                available: cores * capacity,
            });
        }
    }
    // Pass 2: random replication — the paper's initialization draws a
    // random replication number per node. Unstructured draws saturate
    // the crossbar budget and freeze every later mutation, so the draw
    // is structured: each individual samples a random *window target*
    // `t` (log-uniform) and replicates every node toward
    // `ceil(windows/t)`, stopping at ~85% occupancy so the mutation
    // operators always have room to move.
    if randomize {
        // A random fraction of individuals draw aggressive targets
        // (up to ~98% occupancy, where the balanced heuristic lives);
        // the rest keep slack so the mutation operators can move.
        let pct = *[98usize, 90, 75].choose(rng).expect("non-empty");
        let budget = (cores * capacity) * pct / 100;
        let max_windows = (0..ctx.partitioning.len())
            .map(|i| ctx.partitioning.entry(i).windows)
            .max()
            .unwrap_or(1)
            .max(1);
        let t_fit = fit_window_target(ctx.partitioning, budget, max_windows);
        // Log-uniform sample in [t_fit, max_windows], biased low (more
        // replication) by taking the min of two draws.
        let (lo, hi) = ((t_fit.max(1) as f64).ln(), (max_windows.max(2) as f64).ln());
        let draw = |rng: &mut StdRng| rng.gen_range(lo..=hi).exp().round().max(1.0) as usize;
        let t = draw(rng).min(draw(rng));
        let mut occupied: usize = ind.used_crossbars.iter().sum();
        for &mvm in &order {
            let entry = ctx.partitioning.entry(mvm);
            let a = entry.ags_per_replica;
            let want = entry.windows.div_ceil(t).max(1);
            let mut extra = want.saturating_sub(1).min(entry.windows.saturating_sub(1));
            // Respect the occupancy budget.
            let per_replica = entry.crossbars_per_replica().max(1);
            extra = extra.min(budget.saturating_sub(occupied) / per_replica);
            while extra > 0 {
                if place_ags(&mut ind, ctx, mvm, extra * a, capacity, rng) {
                    occupied += extra * per_replica;
                    break;
                }
                extra /= 2;
            }
        }
    }
    Ok(ind)
}

/// Smallest window target `t` whose windows-proportional replication
/// (`R = ceil(windows/t)`) fits the crossbar `budget`.
fn fit_window_target(partitioning: &Partitioning, budget: usize, max_windows: usize) -> usize {
    let cost = |t: usize| -> usize {
        (0..partitioning.len())
            .map(|i| {
                let e = partitioning.entry(i);
                e.windows.div_ceil(t) * e.crossbars_per_replica()
            })
            .sum()
    };
    let (mut lo, mut hi) = (1usize, max_windows);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cost(mid) <= budget {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Tournament selection.
fn tournament<'a>(population: &'a [Individual], k: usize, rng: &mut StdRng) -> &'a Individual {
    let mut best = &population[rng.gen_range(0..population.len())];
    for _ in 1..k.max(1) {
        let cand = &population[rng.gen_range(0..population.len())];
        if cand.fitness < best.fitness {
            best = cand;
        }
    }
    best
}

/// Applies one random mutation operator; returns whether the chromosome
/// changed.
///
/// Node selection is criticality-biased in HT mode: half of the grow
/// operations target a node on the current bottleneck core, and half of
/// the shrinks target the most over-replicated node. Uniform-random
/// selection (the paper's wording) needs far more generations to walk
/// the `max`-objective plateau; the bias changes which node is drawn,
/// not what the operators do.
fn mutate(
    ind: &mut Draft,
    ctx: &GaContext<'_>,
    capacity: usize,
    rng: &mut StdRng,
    tally: &mut MutationTally,
    ms: &mut MutScratch,
) -> bool {
    let n = ctx.partitioning.len();
    match rng.gen_range(0..4u8) {
        0 => {
            let node = if ctx.mode == PipelineMode::HighThroughput && rng.gen_bool(0.5) {
                critical_node(ind, ctx, ms).unwrap_or_else(|| rng.gen_range(0..n))
            } else {
                rng.gen_range(0..n)
            };
            mutate_grow(ind, ctx, node, capacity, rng, tally)
        }
        1 => {
            let node = if rng.gen_bool(0.5) {
                over_replicated_node(ind, ctx).unwrap_or_else(|| rng.gen_range(0..n))
            } else {
                rng.gen_range(0..n)
            };
            mutate_shrink(ind, ctx, node, rng, ms)
        }
        2 => mutate_spread(ind, ctx, capacity, rng, ms),
        _ => mutate_merge(ind, ctx, capacity, rng, ms),
    }
}

/// A node with AGs on the bottleneck core (largest estimated HT time),
/// preferring the gene with the largest cycle count there.
fn critical_node(ind: &Draft, ctx: &GaContext<'_>, ms: &mut MutScratch) -> Option<MvmIdx> {
    let plan = ind.chromosome.replication(ctx.partitioning).ok()?;
    let mut worst: Option<(u64, usize)> = None;
    for core in 0..ind.chromosome.cores() {
        ms.items.clear();
        for (_, gene) in ind.chromosome.genes_of_core(core) {
            ms.items.push((
                gene.ag_count,
                plan.windows_per_replica(ctx.partitioning, gene.mvm),
            ));
        }
        let t = crate::fitness::ht_core_time_in_place(ctx.hw, &mut ms.items);
        if worst.is_none_or(|(w, _)| t > w) {
            worst = Some((t, core));
        }
    }
    let (_, core) = worst?;
    ind.chromosome
        .genes_of_core(core)
        .max_by_key(|(_, g)| plan.windows_per_replica(ctx.partitioning, g.mvm))
        .map(|(_, g)| g.mvm)
}

/// The replicated node with the smallest windows-per-replica (the most
/// over-replicated one; shrinking it frees the most useful capacity).
fn over_replicated_node(ind: &Draft, ctx: &GaContext<'_>) -> Option<MvmIdx> {
    let plan = ind.chromosome.replication(ctx.partitioning).ok()?;
    (0..ctx.partitioning.len())
        .filter(|&i| plan.count(i) > 1)
        .min_by_key(|&i| plan.windows_per_replica(ctx.partitioning, i))
}

/// Operator I: increase `node`'s replication, scattering the new AGs
/// onto cores with free capacity. The step size is geometric (up to
/// doubling the current count) so large targets are reachable in few
/// generations; falls back to +1, rolls back entirely on failure.
fn mutate_grow(
    ind: &mut Draft,
    ctx: &GaContext<'_>,
    node: MvmIdx,
    capacity: usize,
    rng: &mut StdRng,
    tally: &mut MutationTally,
) -> bool {
    let entry = ctx.partitioning.entry(node);
    let a = entry.ags_per_replica;
    let cur = ind.chromosome.ag_total(node) / a.max(1);
    // Replicating beyond one replica per window is pure waste.
    let headroom = entry.windows.saturating_sub(cur);
    if headroom == 0 {
        return false;
    }
    let mut amount = rng.gen_range(1..=cur.max(1)).min(headroom);
    while amount > 0 {
        if place_ags(ind, ctx, node, amount * a, capacity, rng) {
            tally.grow_ok += 1;
            return true;
        }
        amount /= 2;
    }
    tally.grow_failed += 1;
    false
}

/// Operator II: decrease `node`'s replication (geometric step, at least
/// one replica remains), recovering the crossbars from its genes.
fn mutate_shrink(
    ind: &mut Draft,
    ctx: &GaContext<'_>,
    node: MvmIdx,
    rng: &mut StdRng,
    ms: &mut MutScratch,
) -> bool {
    let entry = ctx.partitioning.entry(node);
    let a = entry.ags_per_replica;
    let total = ind.chromosome.ag_total(node);
    if total < 2 * a {
        return false; // last replica must stay
    }
    let cur = total / a;
    let amount = rng.gen_range(1..cur);
    let mut to_remove = amount * a;
    // Walk this node's gene slots in random order, shaving counts.
    ms.slots.clear();
    ms.slots.extend(
        ind.chromosome
            .genes()
            .filter(|(_, g)| g.mvm == node)
            .map(|(s, _)| s),
    );
    ms.slots.shuffle(rng);
    for i in 0..ms.slots.len() {
        let slot = ms.slots[i];
        if to_remove == 0 {
            break;
        }
        let gene = match ind.chromosome.gene(slot) {
            Some(g) => g,
            None => continue,
        };
        let take = gene.ag_count.min(to_remove);
        let core = ind.chromosome.core_of_slot(slot);
        ind.used_crossbars[core] -= take * entry.crossbars_per_ag;
        to_remove -= take;
        let left = gene.ag_count - take;
        ind.chromosome.set_gene(
            slot,
            (left > 0).then_some(Gene {
                mvm: node,
                ag_count: left,
            }),
        );
    }
    debug_assert_eq!(to_remove, 0);
    true
}

/// Operator III: spread part of a random gene's AGs to another core.
fn mutate_spread(
    ind: &mut Draft,
    ctx: &GaContext<'_>,
    capacity: usize,
    rng: &mut StdRng,
    ms: &mut MutScratch,
) -> bool {
    ms.genes.clear();
    ms.genes
        .extend(ind.chromosome.genes().filter(|(_, g)| g.ag_count >= 2));
    let Some(&(slot, gene)) = ms.genes.choose(rng) else {
        return false;
    };
    let entry = ctx.partitioning.entry(gene.mvm);
    let src_core = ind.chromosome.core_of_slot(slot);
    let move_n = rng.gen_range(1..gene.ag_count);
    let needed = move_n * entry.crossbars_per_ag;

    let cores = ind.chromosome.cores();
    let start = rng.gen_range(0..cores);
    for off in 0..cores {
        let dst = (start + off) % cores;
        if dst == src_core || ind.used_crossbars[dst] + needed > capacity {
            continue;
        }
        let dst_slot = ind
            .chromosome
            .slot_of_node_on_core(dst, gene.mvm)
            .or_else(|| ind.chromosome.free_slot_of_core(dst));
        let Some(dst_slot) = dst_slot else { continue };
        // Commit.
        let dst_count = ind.chromosome.gene(dst_slot).map_or(0, |g| g.ag_count);
        ind.chromosome.set_gene(
            dst_slot,
            Some(Gene {
                mvm: gene.mvm,
                ag_count: dst_count + move_n,
            }),
        );
        ind.chromosome.set_gene(
            slot,
            Some(Gene {
                mvm: gene.mvm,
                ag_count: gene.ag_count - move_n,
            }),
        );
        ind.used_crossbars[src_core] -= needed;
        ind.used_crossbars[dst] += needed;
        return true;
    }
    false
}

/// Operator IV: merge a whole gene into a gene of the same node on
/// another core.
fn mutate_merge(
    ind: &mut Draft,
    ctx: &GaContext<'_>,
    capacity: usize,
    rng: &mut StdRng,
    ms: &mut MutScratch,
) -> bool {
    ms.genes.clear();
    ms.genes.extend(ind.chromosome.genes());
    let Some(&(slot, gene)) = ms.genes.choose(rng) else {
        return false;
    };
    let entry = ctx.partitioning.entry(gene.mvm);
    let src_core = ind.chromosome.core_of_slot(slot);
    let needed = gene.ag_count * entry.crossbars_per_ag;

    // Candidate targets: other cores already hosting this node.
    ms.targets.clear();
    ms.targets.extend(
        ms.genes
            .iter()
            .copied()
            .filter(|&(s, g)| g.mvm == gene.mvm && ind.chromosome.core_of_slot(s) != src_core),
    );
    ms.targets.shuffle(rng);
    for i in 0..ms.targets.len() {
        let (dst_slot, dst_gene) = ms.targets[i];
        let dst_core = ind.chromosome.core_of_slot(dst_slot);
        if ind.used_crossbars[dst_core] + needed > capacity {
            continue;
        }
        ind.chromosome.set_gene(
            dst_slot,
            Some(Gene {
                mvm: gene.mvm,
                ag_count: dst_gene.ag_count + gene.ag_count,
            }),
        );
        ind.chromosome.set_gene(slot, None);
        ind.used_crossbars[src_core] -= needed;
        ind.used_crossbars[dst_core] += needed;
        return true;
    }
    false
}

/// Places `count` AGs of `node` on cores with capacity and slot room,
/// scanning from a random start. Cores already hosting the node are
/// preferred (they need no fresh slot), which keeps slot pressure low.
/// All-or-nothing: rolls back on failure.
fn place_ags(
    ind: &mut Draft,
    ctx: &GaContext<'_>,
    node: MvmIdx,
    count: usize,
    capacity: usize,
    rng: &mut StdRng,
) -> bool {
    let cores = ind.chromosome.cores();
    let start = rng.gen_range(0..cores);
    place_ags_from(ind, ctx, node, count, capacity, start)
}

/// Deterministic variant of [`place_ags`] scanning from `start`.
fn place_ags_from(
    ind: &mut Draft,
    ctx: &GaContext<'_>,
    node: MvmIdx,
    count: usize,
    capacity: usize,
    start: usize,
) -> bool {
    let entry = ctx.partitioning.entry(node);
    let xb = entry.crossbars_per_ag;
    let cores = ind.chromosome.cores();
    let mut placed: Vec<usize> = Vec::with_capacity(count); // slots touched

    'outer: for _ in 0..count {
        // First pass: merge into a core already hosting the node.
        let mut fallback: Option<(usize, usize)> = None;
        for off in 0..cores {
            let core = (start + off) % cores;
            if ind.used_crossbars[core] + xb > capacity {
                continue;
            }
            if let Some(slot) = ind.chromosome.slot_of_node_on_core(core, node) {
                let cur = ind.chromosome.gene(slot).map_or(0, |g| g.ag_count);
                ind.chromosome.set_gene(
                    slot,
                    Some(Gene {
                        mvm: node,
                        ag_count: cur + 1,
                    }),
                );
                ind.used_crossbars[core] += xb;
                placed.push(slot);
                continue 'outer;
            }
            if fallback.is_none() {
                if let Some(slot) = ind.chromosome.free_slot_of_core(core) {
                    fallback = Some((core, slot));
                }
            }
        }
        // Second pass: open a fresh slot.
        if let Some((core, slot)) = fallback {
            ind.chromosome.set_gene(
                slot,
                Some(Gene {
                    mvm: node,
                    ag_count: 1,
                }),
            );
            ind.used_crossbars[core] += xb;
            placed.push(slot);
            continue 'outer;
        }
        // Could not place this AG: roll back everything.
        for &slot in placed.iter().rev() {
            let core = ind.chromosome.core_of_slot(slot);
            let gene = ind.chromosome.gene(slot).expect("just placed");
            ind.used_crossbars[core] -= xb;
            ind.chromosome.set_gene(
                slot,
                (gene.ag_count > 1).then_some(Gene {
                    mvm: node,
                    ag_count: gene.ag_count - 1,
                }),
            );
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::models;
    use pimcomp_ir::transform::normalize;

    fn setup(mode: PipelineMode) -> (Graph, HardwareConfig) {
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let _ = mode;
        (g, hw)
    }

    fn run(mode: PipelineMode, seed: u64) -> (Chromosome, GaStats, Partitioning) {
        run_with(mode, seed, None)
    }

    fn run_with(
        mode: PipelineMode,
        seed: u64,
        parallelism: Option<NonZeroUsize>,
    ) -> (Chromosome, GaStats, Partitioning) {
        let (g, hw) = setup(mode);
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode,
            core_limit: None,
        };
        let params = GaParams::fast(seed).with_parallelism(parallelism);
        let (best, stats) = optimize(&ctx, &params).unwrap();
        (best, stats, p)
    }

    #[test]
    fn ga_improves_or_matches_initial_fitness_ht() {
        let (_, stats, _) = run(PipelineMode::HighThroughput, 1);
        assert!(stats.final_fitness <= stats.initial_fitness);
        assert!(stats.evaluations > 0);
        assert_eq!(stats.history.len(), GaParams::fast(1).iterations);
    }

    #[test]
    fn ga_improves_or_matches_initial_fitness_ll() {
        let (_, stats, _) = run(PipelineMode::LowLatency, 2);
        assert!(stats.final_fitness <= stats.initial_fitness);
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let (a, _, _) = run(PipelineMode::HighThroughput, 42);
        let (b, _, _) = run(PipelineMode::HighThroughput, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_run_matches_serial_bit_for_bit() {
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let (serial_best, serial_stats, _) = run_with(mode, 11, None);
            let (par_best, par_stats, _) = run_with(mode, 11, NonZeroUsize::new(4));
            assert_eq!(serial_best, par_best, "{mode}: chromosomes diverged");
            assert_eq!(serial_stats, par_stats, "{mode}: stats diverged");
        }
    }

    #[test]
    fn eval_stats_are_consistent() {
        let (_, stats, _) = run(PipelineMode::HighThroughput, 9);
        assert_eq!(
            stats.evaluations,
            stats.full_evals + stats.incremental_evals
        );
        let per_gen: usize = stats.evals_per_generation.iter().sum();
        // Initial population accounts for the remainder.
        assert_eq!(stats.evaluations - per_gen, GaParams::fast(9).population);
        // Single-gene mutations dominate, so the incremental path must
        // actually be exercised.
        assert!(stats.incremental_evals > 0, "{stats:?}");
    }

    #[test]
    fn best_chromosome_is_feasible() {
        let (best, _, p) = run(PipelineMode::HighThroughput, 7);
        let hw = HardwareConfig::small_test();
        let used = best.used_crossbars(&p);
        assert!(used.iter().all(|&u| u <= hw.crossbar_capacity_per_core()));
        let plan = best.replication(&p).unwrap();
        assert!(plan.counts().iter().all(|&r| r >= 1));
        let mapping = crate::mapping::CoreMapping::from_chromosome(&best, &p).unwrap();
        mapping.validate(&p, best.cores()).unwrap();
    }

    #[test]
    fn ga_exploits_replication_when_capacity_allows() {
        // tiny_cnn on the small target leaves plenty of room, so the GA
        // should end with at least one node replicated.
        let (best, _, p) = run(PipelineMode::HighThroughput, 3);
        let plan = best.replication(&p).unwrap();
        assert!(
            plan.counts().iter().any(|&r| r > 1),
            "expected some replication, got {:?}",
            plan.counts()
        );
    }

    #[test]
    fn insufficient_capacity_is_reported() {
        let g = normalize(&models::vgg16()).unwrap();
        let hw = HardwareConfig::small_test(); // far too small for vgg16
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        assert!(matches!(
            optimize(&ctx, &GaParams::fast(1)),
            Err(CompileError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn grow_tallies_are_populated_and_thread_invariant() {
        let (_, serial, _) = run_with(PipelineMode::HighThroughput, 5, None);
        let (_, parallel, _) = run_with(PipelineMode::HighThroughput, 5, NonZeroUsize::new(4));
        assert_eq!(serial.grow_successes, parallel.grow_successes);
        assert_eq!(serial.grow_failures, parallel.grow_failures);
        assert!(
            serial.grow_successes > 0,
            "a fast GA run on tiny_cnn should grow at least once: {serial:?}"
        );
    }

    #[test]
    fn budgeted_run_is_a_prefix_of_the_full_run() {
        // Seed streams are keyed by (seed, generation, slot), so a
        // k-generation run draws exactly the streams of the first k
        // generations of a longer run — the property successive-halving
        // drivers rely on when re-running survivors at a larger budget.
        let (g, hw) = setup(PipelineMode::HighThroughput);
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        let full = GaParams {
            iterations: 12,
            ..GaParams::fast(21)
        };
        let short = GaParams {
            iterations: 4,
            ..full.clone()
        };
        let (_, full_stats) = optimize(&ctx, &full).unwrap();
        let (_, short_stats) = optimize(&ctx, &short).unwrap();
        assert_eq!(short_stats.history[..], full_stats.history[..4]);
        assert_eq!(
            short_stats.evals_per_generation[..],
            full_stats.evals_per_generation[..4]
        );
        assert_eq!(short_stats.initial_fitness, full_stats.initial_fitness);
    }

    #[test]
    fn stream_seeds_do_not_collide_trivially() {
        let mut seen = std::collections::HashSet::new();
        for stage in 0..64u64 {
            for index in 0..64u64 {
                assert!(seen.insert(stream_seed(42, stage, index)));
            }
        }
    }
}
