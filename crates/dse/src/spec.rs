//! Declarative sweep specifications: the JSON the `pimcomp explore`
//! subcommand consumes, parsed with structured errors (never panics on
//! malformed input) and expanded into a deterministic point list.
//!
//! The complete field-by-field schema reference (every default,
//! validation rule, and the exact error each malformed shape produces)
//! lives in `docs/SWEEP_SPEC.md` at the repository root.

use crate::{ExploreError, PointRecord};
use pimcomp_arch::{preset, preset_names, HardwareConfig, HardwareGrid, PipelineMode};
use pimcomp_core::{split_stream_seed, ReusePolicy};
use pimcomp_ir::Graph;
use serde::Value;

/// Hard cap on the number of points one sweep may expand to, so a typo
/// in a grid axis fails fast instead of queueing years of compilation.
pub const MAX_SWEEP_POINTS: usize = 10_000;

/// Seed-split stage tag for the seed axis (`split_stream_seed(master,
/// SEED_STAGE, i)`); distinct from every GA-internal stage by
/// construction because the GA mixes its own master seed, not ours.
const SEED_STAGE: u64 = 0;

/// A worked sweep spec, kept in sync with README and the test suite.
///
/// Axes: 2 models × 2 modes × (2 chips × 2 parallelism = 4 hardware
/// configurations) × 1 policy × 1 HT batch × 1 seed = 16 points.
pub const EXAMPLE_SPEC: &str = r#"{
  "master_seed": 42,
  "models": ["tiny_cnn", "tiny_mlp"],
  "modes": ["ht", "ll"],
  "hardware": {
    "base": "small_test",
    "chips": [1, 2],
    "parallelism": [4, 8]
  },
  "memory_policies": ["ag"],
  "ht_batches": [2],
  "seeds": [1],
  "ga": { "population": 8, "iterations": 6 }
}"#;

/// The spec-file name of a memory-reuse policy (`naive` / `add` /
/// `ag`): the spelling `memory_policies` accepts and the one point
/// keys, reports, and CSVs carry.
pub fn policy_spec_name(policy: ReusePolicy) -> &'static str {
    match policy {
        ReusePolicy::Naive => "naive",
        ReusePolicy::AddReuse => "add",
        ReusePolicy::AgReuse => "ag",
    }
}

/// The policy names a sweep spec accepts, in [`ReusePolicy::ALL`] order.
pub fn policy_names() -> Vec<&'static str> {
    ReusePolicy::ALL
        .iter()
        .map(|&p| policy_spec_name(p))
        .collect()
}

/// How the engine walks the expanded point grid.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchStrategy {
    /// Evaluate every point once at the full GA budget (the PR 3
    /// behavior, and the default when the spec has no `search` section).
    Exhaustive,
    /// Successive halving: evaluate everything at a cheap GA budget,
    /// keep only the most promising fraction of each (model, mode)
    /// group, and re-evaluate survivors at the next budget until the
    /// final rung runs at the full budget. See [`HalvingSpec`].
    Halving(HalvingSpec),
}

impl SearchStrategy {
    /// The strategy's spec-file name (`exhaustive` / `halving`).
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::Halving(_) => "halving",
        }
    }
}

/// Parameters of the successive-halving strategy (PIMSYN/COMPASS-style
/// budgeted search over the sweep grid).
///
/// Between rungs two filters run per (model, mode) group:
///
/// 1. **Dominance pruning** drops every point whose metrics are
///    Pareto-dominated by another point in its group with at least
///    [`HalvingSpec::prune_margin`] relative slack on every objective —
///    cheap-rung metrics are noisy proxies, so only clearly dominated
///    points are discarded.
/// 2. **Halving** keeps the best `keep_fraction` of what remains
///    (at least one point), ranked by Pareto rank then crowding
///    distance (NSGA-II style), so survivors cover the frontier rather
///    than cluster on one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct HalvingSpec {
    /// Per-rung GA generation budgets, strictly increasing; the last
    /// rung must equal the spec's `ga.iterations` (the full budget).
    pub rungs: Vec<usize>,
    /// Fraction of each (model, mode) group kept per non-final rung,
    /// in `(0, 1]`.
    pub keep_fraction: f64,
    /// Relative dominance margin for pruning, `>= 0`. `0.0` prunes
    /// every dominated point; larger values prune only points that are
    /// decisively dominated on all objectives.
    pub prune_margin: f64,
}

impl HalvingSpec {
    /// Default keep fraction (top half of each group survives a rung).
    pub const DEFAULT_KEEP_FRACTION: f64 = 0.5;
    /// Default prune margin (points must be dominated with 25% slack on
    /// every objective before the cheap rung is trusted to drop them).
    pub const DEFAULT_PRUNE_MARGIN: f64 = 0.25;

    /// The default rung ladder for a full budget of `iterations`
    /// generations: divide by 3 until the budget bottoms out at 1, e.g.
    /// 24 → `[2, 8, 24]`, 6 → `[2, 6]`, 1 → `[1]`.
    pub fn default_rungs(iterations: usize) -> Vec<usize> {
        let mut rungs = vec![iterations.max(1)];
        let mut budget = iterations / 3;
        while budget >= 1 {
            rungs.push(budget);
            budget /= 3;
        }
        rungs.reverse();
        rungs.dedup();
        rungs
    }
}

/// Automatic per-model hardware sizing: the bench harness's headroom
/// heuristic ([`pimcomp_core::sized_chips`]) applied to each sweep
/// model, crossed with a sweepable parallelism list.
///
/// Spelled `"hardware": "auto"` (all defaults) or
/// `"hardware": { "auto": true, "base": "puma", "parallelism": [4, 8],
/// "headroom": 2.0 }` in a spec. Each model gets its own labelled
/// configurations (`auto-puma+chips3+par4`), so the chip count in the
/// label documents what the heuristic chose.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoHardware {
    /// Base preset the sizing starts from (`puma` / `small_test`).
    pub base: String,
    /// Parallelism degrees to sweep at the sized chip count.
    pub parallelism: Vec<usize>,
    /// Capacity headroom over the single-replica crossbar demand
    /// (`>= 1`; the bench harness default is 2.0, leaving room for
    /// weight replication).
    pub headroom: f64,
}

impl AutoHardware {
    /// Default headroom, matching the bench harness (`CHIP_HEADROOM`).
    pub const DEFAULT_HEADROOM: f64 = 2.0;
    /// Default parallelism list (the paper's default degree).
    pub const DEFAULT_PARALLELISM: usize = 20;
}

impl Default for AutoHardware {
    fn default() -> Self {
        AutoHardware {
            base: "puma".to_string(),
            parallelism: vec![Self::DEFAULT_PARALLELISM],
            headroom: Self::DEFAULT_HEADROOM,
        }
    }
}

/// One value of the `weight_reload` sweep axis: whether a point
/// compiles in reload mode, and under which crossbar budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadSetting {
    /// Ordinary compilation (the default axis value).
    Off,
    /// `weight_reload` mode: `None` uses the target's full crossbar
    /// count as the budget, `Some(b)` caps it at `b` crossbars.
    On(Option<usize>),
}

impl ReloadSetting {
    /// The value's report/CSV spelling: `off`, `full`, or the budget.
    pub fn label(&self) -> String {
        match self {
            ReloadSetting::Off => "off".to_string(),
            ReloadSetting::On(None) => "full".to_string(),
            ReloadSetting::On(Some(b)) => b.to_string(),
        }
    }
}

/// The hardware axis of a sweep: either explicit labelled
/// configurations (expanded from one or more [`HardwareGrid`]s) or
/// per-model automatic sizing ([`AutoHardware`]).
#[derive(Debug, Clone, PartialEq)]
pub enum HardwareAxis {
    /// Labelled configurations shared by every model.
    Explicit(Vec<(String, HardwareConfig)>),
    /// Per-model sized configurations (`"hardware": "auto"`).
    Auto(AutoHardware),
}

impl HardwareAxis {
    /// Number of hardware configurations each model is swept over.
    pub fn len(&self) -> usize {
        match self {
            HardwareAxis::Explicit(list) => list.len(),
            HardwareAxis::Auto(auto) => auto.parallelism.len(),
        }
    }

    /// `true` when the axis holds no configurations (never for a
    /// parsed spec — parsing rejects empty axes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` for the per-model automatic sizing variant.
    pub fn is_auto(&self) -> bool {
        matches!(self, HardwareAxis::Auto(_))
    }
}

/// A validated, fully resolved sweep specification.
///
/// Build one with [`SweepSpec::from_json`] (the CLI path) or construct
/// the fields directly (the programmatic path); [`SweepSpec::points`]
/// expands the cross-product.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Master seed; per-point GA seeds derive from it when `seeds` is
    /// not given explicitly.
    pub master_seed: u64,
    /// Model names (zoo names, test models, or `.onnx` file paths),
    /// one sweep axis.
    pub models: Vec<String>,
    /// Pipeline modes, one sweep axis.
    pub modes: Vec<PipelineMode>,
    /// The hardware axis: explicit labelled configurations or
    /// per-model automatic sizing.
    pub hardware: HardwareAxis,
    /// GA seeds, one sweep axis.
    pub seeds: Vec<u64>,
    /// GA population per point.
    pub ga_population: usize,
    /// GA generation count per point.
    pub ga_iterations: usize,
    /// Memory-reuse policies, one sweep axis (the paper's AG-reuse
    /// ablation).
    pub policies: Vec<ReusePolicy>,
    /// HT transfer batches, one sweep axis (the paper's Fig. 10
    /// protocol knob). Low-latency points always run batch 1 — the axis
    /// collapses for LL modes per
    /// [`CompileOptions::validate`](pimcomp_core::CompileOptions::validate).
    pub batches: Vec<usize>,
    /// Weight-reload settings, one sweep axis (default `[Off]` — every
    /// point compiles normally). Reload-on values compile in
    /// `weight_reload` mode under a crossbar budget, splitting
    /// over-budget models into serialized mapping epochs.
    pub weight_reload: Vec<ReloadSetting>,
    /// Sequence-length bindings, one sweep axis (default `[None]` — no
    /// binding). Each `Some(n)` compiles the point with symbolic `seq`
    /// dimensions bound to `n` tokens; fixed-shape models ignore the
    /// binding, symbolic models *require* one
    /// ([`CompileError::UnboundSeqLen`](pimcomp_core::CompileError::UnboundSeqLen)).
    pub seq_lens: Vec<Option<usize>>,
    /// Quantization settings, one sweep axis (default `[None]` — no
    /// functional verification). Each `Some(b)` runs the point's
    /// compiled mapping through the functional executor
    /// (`pimcomp-exec`) after simulation and records accuracy metrics:
    /// `b = 0` verifies unquantized f32 numerics, `b > 0` models the
    /// analog datapath with a `b`-bit ADC (`b = 32` is the ideal
    /// converter — weight quantization only).
    pub quantization: Vec<Option<u32>>,
    /// How the engine walks the grid (default: exhaustive).
    pub search: SearchStrategy,
}

/// One point of the expanded sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Model name (zoo name or `.onnx` path).
    pub model: String,
    /// Pipeline mode.
    pub mode: PipelineMode,
    /// Label of the hardware configuration (from the grid expansion or
    /// the auto sizing).
    pub hw_label: String,
    /// The hardware configuration itself.
    pub hw: HardwareConfig,
    /// Memory-reuse policy for this point.
    pub policy: ReusePolicy,
    /// HT transfer batch for this point (always 1 in LL mode).
    pub batch: usize,
    /// GA seed for this point.
    pub seed: u64,
    /// Weight-reload setting for this point.
    pub reload: ReloadSetting,
    /// Sequence length binding for this point (`None` = unbound).
    pub seq: Option<usize>,
    /// Quantization setting for this point (`None` = no functional
    /// verification, `Some(0)` = unquantized check, `Some(b)` = `b`-bit
    /// ADC model).
    pub quant: Option<u32>,
}

impl SweepPoint {
    /// Stable identity of the point inside a report, the key sweep
    /// diffs join on: the [`PointRecord::key`] of its record.
    pub fn key(&self) -> String {
        PointRecord::for_point(self).key()
    }
}

/// One sweep axis. [`SweepAxis::ALL`] lists every axis in expansion
/// order, outermost first; [`SweepSpec::len`], the point expansion and
/// the `explore` banner all walk that one list, so adding an axis means
/// adding a variant there, its [`SweepSpec::axis_len`] arm and its
/// arm in the point expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// `models`.
    Models,
    /// `modes`.
    Modes,
    /// `hardware`: explicit or auto-sized configurations.
    Hardware,
    /// `memory_policies`.
    Policies,
    /// `ht_batches`; low-latency points collapse it to batch 1.
    Batches,
    /// `seeds` / `num_seeds`.
    Seeds,
    /// `weight_reload`.
    WeightReload,
    /// `seq_lens`.
    SeqLens,
    /// `quantization`.
    Quantization,
}

impl SweepAxis {
    /// Every axis, in expansion order (outermost first), which is also
    /// declaration order: `axis as usize` is the axis's position here.
    /// The order is part of the determinism contract: a point's index
    /// depends only on the spec.
    pub const ALL: [SweepAxis; 9] = [
        SweepAxis::Models,
        SweepAxis::Modes,
        SweepAxis::Hardware,
        SweepAxis::Policies,
        SweepAxis::Batches,
        SweepAxis::Seeds,
        SweepAxis::WeightReload,
        SweepAxis::SeqLens,
        SweepAxis::Quantization,
    ];

    /// The axis's plural noun, as the `explore` banner prints it.
    pub fn name(self) -> &'static str {
        match self {
            SweepAxis::Models => "models",
            SweepAxis::Modes => "modes",
            SweepAxis::Hardware => "hardware configs",
            SweepAxis::Policies => "policies",
            SweepAxis::Batches => "batches",
            SweepAxis::Seeds => "seeds",
            SweepAxis::WeightReload => "reload settings",
            SweepAxis::SeqLens => "sequence lengths",
            SweepAxis::Quantization => "quantization settings",
        }
    }
}

impl SweepSpec {
    /// Parses and validates a spec from JSON text.
    ///
    /// Recognized fields (unknown fields are rejected so typos fail
    /// loudly):
    ///
    /// * `models` — required, non-empty array of model names: zoo
    ///   networks, test models, or paths ending in `.onnx` (routed
    ///   through the ONNX importer when the sweep runs). Non-path names
    ///   are validated against the zoo at parse time.
    /// * `hardware` — required: one grid object, an array of grid
    ///   objects, or the automatic per-model sizing. A grid has an
    ///   optional `base` preset name (`puma`, `small_test`) and
    ///   per-knob axes (`chips`, `cores_per_chip`,
    ///   `crossbars_per_core`, `crossbar_size`, `parallelism`,
    ///   `local_memory_kb`, `mvm_latency`, `noc_link_bw`), each a
    ///   scalar or an array. Automatic sizing is the string `"auto"`
    ///   or `{ "auto": true, "base": "puma", "parallelism": [4, 8],
    ///   "headroom": 2.0 }` — each model's chip count comes from the
    ///   bench headroom heuristic ([`pimcomp_core::sized_chips`]).
    /// * `modes` — optional array of `"ht"` / `"ll"` (default
    ///   `["ht"]`).
    /// * `master_seed` — optional integer (default 1).
    /// * `seeds` — optional array of GA seeds; when omitted,
    ///   `num_seeds` (default 1) seeds are split from `master_seed`.
    /// * `ga` — optional `{ "population": P, "iterations": I }`
    ///   (default 16×24, the fast test configuration).
    /// * `memory_policies` — optional non-empty array of
    ///   `"naive"` / `"add"` / `"ag"`, one sweep axis (default
    ///   `["ag"]`). The retired scalar `policy` field is rejected
    ///   with a hint naming this axis.
    /// * `ht_batches` — optional non-empty array of positive HT
    ///   transfer batches, one sweep axis (default `[2]`). Requires an
    ///   `"ht"` entry in `modes`; low-latency points always run
    ///   batch 1, so for LL modes the axis collapses to a single
    ///   point. The retired scalar `batch` field is rejected with a
    ///   hint naming this axis.
    /// * `weight_reload` — optional reload axis (default: off for
    ///   every point). `true` compiles every point in `weight_reload`
    ///   mode at the target's full crossbar capacity; `false` is the
    ///   default; the object form
    ///   `{ "budgets": [2304, 1152], "include_off": true }` sweeps one
    ///   reload point per crossbar budget, optionally alongside an
    ///   ordinary compilation of the same point.
    /// * `seq_lens` — optional non-empty array of positive sequence
    ///   lengths, one sweep axis (default: unbound). Each entry
    ///   compiles the point with symbolic `seq` dimensions bound to
    ///   that many tokens; required for transformer models such as
    ///   `tiny_bert`, ignored by fixed-shape CNNs.
    /// * `quantization` — optional non-empty array of integer ADC
    ///   bit-widths in 0..=32, one sweep axis (default: no functional
    ///   verification). Each entry runs the compiled mapping through
    ///   the functional executor and records `output_rmse` /
    ///   `top1_match` accuracy metrics: `0` verifies unquantized f32
    ///   numerics, `1..=31` model a that-many-bit ADC, `32` is the
    ///   ideal converter (weight quantization only).
    /// * `search` — optional strategy object (default exhaustive):
    ///   `{ "strategy": "exhaustive" }` or `{ "strategy": "halving",
    ///   "rungs": [2, 8, 24], "keep_fraction": 0.5,
    ///   "prune_margin": 0.25 }`. Halving rungs must be strictly
    ///   increasing GA generation budgets ending at `ga.iterations`;
    ///   when omitted they default to a divide-by-3 ladder
    ///   ([`HalvingSpec::default_rungs`]).
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] describing the offending field,
    /// or [`ExploreError::UnknownModel`] listing the valid model names.
    pub fn from_json(json: &str) -> Result<Self, ExploreError> {
        let value = serde_json::parse_value(json).map_err(|e| ExploreError::InvalidSpec {
            detail: format!("not valid JSON: {e}"),
        })?;
        Self::from_value(&value)
    }

    fn from_value(value: &Value) -> Result<Self, ExploreError> {
        // Retired scalar spellings of two list axes get a migration
        // hint rather than the generic unknown-field error.
        for (old, axis) in [("policy", "memory_policies"), ("batch", "ht_batches")] {
            if let Some(v) = value.get(old) {
                return Err(invalid(format!(
                    "`{old}` was replaced by `{axis}`: write \"{axis}\": [{}]",
                    serde_json::to_string(v).unwrap_or_default()
                )));
            }
        }
        known_fields(
            value,
            "sweep spec",
            "field",
            &[
                "master_seed",
                "models",
                "modes",
                "hardware",
                "seeds",
                "num_seeds",
                "ga",
                "memory_policies",
                "ht_batches",
                "weight_reload",
                "seq_lens",
                "quantization",
                "search",
            ],
        )?;

        let master_seed = match value.get("master_seed") {
            Some(v) => as_u64(v, "master_seed")?,
            None => 1,
        };

        let models = list_axis(
            value.get("models"),
            "models",
            "`models` must be a non-empty array of model names or .onnx paths",
            |v| as_string(v, "models entry"),
            String::clone,
        )?;
        // Zoo names are validated at parse time so a typo fails with
        // the full list of alternatives; `.onnx` paths are only read
        // when the sweep runs, resolved against the process working
        // directory (not the spec file's location — see
        // docs/SWEEP_SPEC.md).
        for model in &models {
            if !model.ends_with(".onnx") && !crate::available_models().iter().any(|m| m == model) {
                return Err(ExploreError::UnknownModel {
                    name: model.clone(),
                    available: crate::available_models(),
                });
            }
        }

        let modes = match value.get("modes") {
            None => vec![PipelineMode::HighThroughput],
            v => list_axis(
                v,
                "modes",
                "`modes` must be a non-empty array of \"ht\"/\"ll\"",
                |v| parse_mode(&as_string(v, "modes entry")?),
                PipelineMode::to_string,
            )?,
        };

        let hardware = match value.get("hardware") {
            Some(Value::Str(s)) if s == "auto" => HardwareAxis::Auto(AutoHardware::default()),
            Some(Value::Str(other)) => {
                return Err(invalid(format!(
                    "`hardware` as a string must be \"auto\" (found `{other}`); \
                     use a grid object for explicit configurations"
                )))
            }
            Some(v @ Value::Map(_)) if v.get("auto").is_some() => {
                HardwareAxis::Auto(parse_auto(v)?)
            }
            Some(Value::Seq(grids)) if !grids.is_empty() => {
                let mut out = Vec::new();
                for g in grids {
                    out.extend(parse_grid(g)?);
                }
                HardwareAxis::Explicit(out)
            }
            Some(v @ Value::Map(_)) => HardwareAxis::Explicit(parse_grid(v)?),
            Some(_) | None => {
                return Err(invalid(
                    "`hardware` must be a grid object, a non-empty array of grid \
                     objects, or \"auto\"",
                ))
            }
        };
        if let HardwareAxis::Explicit(list) = &hardware {
            let hw_labels: Vec<String> = list.iter().map(|(l, _)| l.clone()).collect();
            reject_duplicates(&hw_labels, "hardware grid points")?;
        }

        let seeds = match (value.get("seeds"), value.get("num_seeds")) {
            (Some(_), Some(_)) => {
                return Err(invalid("give either `seeds` or `num_seeds`, not both"))
            }
            (Some(v), None) => list_axis(
                Some(v),
                "seeds",
                "`seeds` must be a non-empty array of integers",
                |v| as_u64(v, "seeds entry"),
                u64::to_string,
            )?,
            // Split seeds never repeat (the split is a bijection).
            (None, num) => {
                let n = match num {
                    Some(v) => match as_u64(v, "num_seeds")? {
                        0 => return Err(invalid("`num_seeds` must be at least 1")),
                        n => n as usize,
                    },
                    None => 1,
                };
                (0..n as u64)
                    .map(|i| split_stream_seed(master_seed, SEED_STAGE, i))
                    .collect()
            }
        };

        let (ga_population, ga_iterations) = match value.get("ga") {
            None => (16, 24),
            Some(v) => {
                known_fields(v, "`ga`", "`ga` field", &["population", "iterations"])?;
                let pop = match v.get("population") {
                    Some(p) => as_u64(p, "ga.population")? as usize,
                    None => 16,
                };
                let iters = match v.get("iterations") {
                    Some(i) => as_u64(i, "ga.iterations")? as usize,
                    None => 24,
                };
                if pop == 0 || iters == 0 {
                    return Err(invalid(
                        "`ga.population` and `ga.iterations` must be positive",
                    ));
                }
                (pop, iters)
            }
        };

        let policies = match value.get("memory_policies") {
            None => vec![ReusePolicy::AgReuse],
            v => list_axis(
                v,
                "memory_policies",
                &format!(
                    "`memory_policies` must be a non-empty array of policy names ({})",
                    policy_names().join(" | ")
                ),
                |v| parse_policy(&as_string(v, "memory_policies entry")?),
                |&p| policy_spec_name(p).to_string(),
            )?,
        };

        let batches = match value.get("ht_batches") {
            // The default is never validated against the modes: an
            // LL-only sweep simply collapses it to batch 1.
            None => vec![2],
            v => {
                let batches = list_axis(
                    v,
                    "ht_batches",
                    "`ht_batches` must be a non-empty array of positive integers",
                    |v| positive(v, "ht_batches"),
                    usize::to_string,
                )?;
                // An explicit batch above 1 is meaningless without a
                // high-throughput mode.
                if batches.iter().any(|&b| b > 1) && !modes.contains(&PipelineMode::HighThroughput)
                {
                    return Err(invalid(
                        "`ht_batches` only applies to high-throughput mode, but `modes` \
                         contains no \"ht\" (low-latency points always run batch 1)",
                    ));
                }
                batches
            }
        };

        let weight_reload = match value.get("weight_reload") {
            None => vec![ReloadSetting::Off],
            Some(v) => parse_reload(v)?,
        };

        const SEQ_LENS: &str = "`seq_lens` must be a non-empty array of positive integers";
        let seq_lens = match value.get("seq_lens") {
            None => vec![None],
            v => list_axis(
                v,
                "seq_lens",
                SEQ_LENS,
                |v| match as_usize(v, "seq_lens entry")? {
                    0 => Err(invalid(SEQ_LENS)),
                    n => Ok(n),
                },
                usize::to_string,
            )?
            .into_iter()
            .map(Some)
            .collect(),
        };

        const QUANTIZATION: &str =
            "`quantization` must be a non-empty array of integer ADC bit-widths in 0..=32";
        let quantization = match value.get("quantization") {
            None => vec![None],
            v => list_axis(
                v,
                "quantization",
                QUANTIZATION,
                |v| match as_u64(v, "quantization entry")? {
                    b @ 0..=32 => Ok(b as u32),
                    _ => Err(invalid(QUANTIZATION)),
                },
                u32::to_string,
            )?
            .into_iter()
            .map(Some)
            .collect(),
        };

        let search = match value.get("search") {
            None => SearchStrategy::Exhaustive,
            Some(v) => parse_search(v, ga_iterations)?,
        };

        let spec = SweepSpec {
            master_seed,
            models,
            modes,
            hardware,
            seeds,
            ga_population,
            ga_iterations,
            policies,
            batches,
            weight_reload,
            seq_lens,
            quantization,
            search,
        };
        // Oversized or empty sweeps are rejected before any model is
        // loaded or sized.
        spec.check_size()?;
        Ok(spec)
    }

    /// Rejects a sweep with no points or more than [`MAX_SWEEP_POINTS`]
    /// (cheap: `len` never touches the filesystem, unlike `points` for
    /// `.onnx` models or auto hardware).
    fn check_size(&self) -> Result<(), ExploreError> {
        match self.len() {
            0 => Err(invalid("sweep has no points (an axis is empty)")),
            n if n > MAX_SWEEP_POINTS => Err(invalid(format!(
                "sweep expands to {n} points, more than the {MAX_SWEEP_POINTS} cap"
            ))),
            _ => Ok(()),
        }
    }

    /// Values `axis` takes among the points of pipeline mode `mode`.
    /// Only the batch axis depends on the mode: low-latency points
    /// always run batch 1, so for them it collapses to one value rather
    /// than duplicating identical points.
    pub fn axis_len(&self, axis: SweepAxis, mode: PipelineMode) -> usize {
        match axis {
            SweepAxis::Models => self.models.len(),
            SweepAxis::Modes => self.modes.len(),
            SweepAxis::Hardware => self.hardware.len(),
            SweepAxis::Policies => self.policies.len(),
            SweepAxis::Batches => self.batches_for(mode).len(),
            SweepAxis::Seeds => self.seeds.len(),
            SweepAxis::WeightReload => self.weight_reload.len(),
            SweepAxis::SeqLens => self.seq_lens.len(),
            SweepAxis::Quantization => self.quantization.len(),
        }
    }

    /// The HT transfer batches a point of `mode` sweeps.
    fn batches_for(&self, mode: PipelineMode) -> &[usize] {
        match mode {
            PipelineMode::HighThroughput => &self.batches,
            PipelineMode::LowLatency => &[1],
        }
    }

    /// Number of points the sweep expands to: per mode, the product of
    /// every other axis's length at that mode, summed over the modes.
    pub fn len(&self) -> usize {
        self.modes
            .iter()
            .map(|&mode| {
                SweepAxis::ALL
                    .iter()
                    .filter(|&&axis| axis != SweepAxis::Modes)
                    .map(|&axis| self.axis_len(axis, mode))
                    .product::<usize>()
            })
            .sum()
    }

    /// `true` when any axis is empty (the sweep has no points).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cross-product into points, in [`SweepAxis::ALL`]
    /// order (models outermost, quantization innermost). The order is
    /// part of the determinism contract: point index, and hence any
    /// master-seed derived quantity, depends only on the spec.
    ///
    /// With `hardware: "auto"` this resolves every model (loading
    /// `.onnx` paths from disk) to size its configurations; the engine
    /// uses [`SweepSpec::points_for`] with its already-resolved graphs
    /// instead, so each model is read exactly once per sweep.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] when an axis is empty, the
    /// expansion exceeds [`MAX_SWEEP_POINTS`], or auto sizing fails;
    /// [`ExploreError::UnknownModel`] / [`ExploreError::Onnx`] /
    /// [`ExploreError::Io`] from model resolution under auto hardware.
    pub fn points(&self) -> Result<Vec<SweepPoint>, ExploreError> {
        match &self.hardware {
            HardwareAxis::Explicit(_) => self.points_for(&[]),
            HardwareAxis::Auto(_) => {
                let graphs: Vec<Graph> = self
                    .models
                    .iter()
                    .map(|name| crate::resolve_model(name))
                    .collect::<Result<_, _>>()?;
                self.points_for(&graphs)
            }
        }
    }

    /// [`SweepSpec::points`] over already-resolved model graphs
    /// (`graphs[i]` corresponds to `models[i]`). Only auto hardware
    /// consults the graphs — explicit sweeps may pass an empty slice.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] as for [`SweepSpec::points`].
    pub fn points_for(&self, graphs: &[Graph]) -> Result<Vec<SweepPoint>, ExploreError> {
        self.check_size()?;
        if self.hardware.is_auto() && graphs.len() != self.models.len() {
            return Err(invalid(format!(
                "auto hardware sizing needs one resolved graph per model \
                 ({} models, {} graphs)",
                self.models.len(),
                graphs.len()
            )));
        }
        // A mixed-radix counter over `SweepAxis::ALL`, innermost digit
        // fastest: `digits[axis as usize]` picks the axis's value. Radices
        // depend on the mode only through the batch axis.
        let max_seq = self.seq_lens.iter().flatten().max().copied();
        let size = |model: usize| match &self.hardware {
            HardwareAxis::Explicit(_) => Ok(Vec::new()),
            HardwareAxis::Auto(auto) => {
                sized_hardware(auto, &self.models[model], &graphs[model], max_seq)
            }
        };
        let mut sized = size(0)?;
        let radices = [PipelineMode::HighThroughput, PipelineMode::LowLatency]
            .map(|mode| SweepAxis::ALL.map(|axis| self.axis_len(axis, mode)));
        // Axes past the last one with several values never advance.
        let last = (0..SweepAxis::ALL.len())
            .rposition(|k| radices.iter().any(|r| r[k] > 1))
            .map_or(0, |k| k + 1);
        let mut digits = [0; SweepAxis::ALL.len()];
        let mut out = Vec::with_capacity(self.len());
        loop {
            let at = |axis: SweepAxis| digits[axis as usize];
            let mode = self.modes[at(SweepAxis::Modes)];
            let (hw_label, hw) = match &self.hardware {
                HardwareAxis::Explicit(list) => &list[at(SweepAxis::Hardware)],
                HardwareAxis::Auto(_) => &sized[at(SweepAxis::Hardware)],
            };
            out.push(SweepPoint {
                model: self.models[at(SweepAxis::Models)].clone(),
                mode,
                hw_label: hw_label.clone(),
                hw: hw.clone(),
                policy: self.policies[at(SweepAxis::Policies)],
                batch: self.batches_for(mode)[at(SweepAxis::Batches)],
                seed: self.seeds[at(SweepAxis::Seeds)],
                reload: self.weight_reload[at(SweepAxis::WeightReload)],
                seq: self.seq_lens[at(SweepAxis::SeqLens)],
                quant: self.quantization[at(SweepAxis::Quantization)],
            });
            // Advance the innermost digit that has room; every digit
            // inside it wraps to 0. No digit with room ends the walk.
            let radix = &radices[(mode == PipelineMode::LowLatency) as usize];
            let Some(k) = (0..last).rev().find(|&k| digits[k] + 1 < radix[k]) else {
                return Ok(out);
            };
            digits[k] += 1;
            digits[k + 1..last].fill(0);
            if k == SweepAxis::Models as usize {
                sized = size(digits[k])?;
            }
        }
    }
}

/// Expands an [`AutoHardware`] axis for one model: sizes the chip
/// count with the shared headroom heuristic, then enumerates the
/// parallelism list through a [`HardwareGrid`] so labels
/// (`auto-puma+chips3+par4`) and validation match explicit grids.
///
/// A model with a symbolic sequence dimension is sized at `max_seq`
/// (the largest entry of the sweep's `seq_lens` axis), so the chosen
/// chip count fits the worst-case point of the sweep. Without a
/// `seq_lens` axis such a model cannot be sized and the spec is
/// rejected with a structured error.
fn sized_hardware(
    auto: &AutoHardware,
    model: &str,
    graph: &Graph,
    max_seq: Option<usize>,
) -> Result<Vec<(String, HardwareConfig)>, ExploreError> {
    let base = preset(&auto.base).ok_or_else(|| {
        invalid(format!(
            "hardware.base: unknown hardware preset `{}` (available: {})",
            auto.base,
            preset_names().join(", ")
        ))
    })?;
    let bound;
    let graph = if graph.has_symbolic_dims() {
        let Some(len) = max_seq else {
            return Err(invalid(format!(
                "hardware auto-sizing failed for model `{model}`: the model \
                 has a symbolic sequence dimension; add a `seq_lens` axis to \
                 the sweep so it can be sized at the largest sequence length"
            )));
        };
        bound = pimcomp_ir::transform::bind_seq_len(graph, len).map_err(|e| {
            invalid(format!(
                "hardware auto-sizing failed for model `{model}`: {e}"
            ))
        })?;
        &bound
    } else {
        graph
    };
    let chips = pimcomp_core::sized_chips(graph, &base, auto.headroom).map_err(|e| {
        invalid(format!(
            "hardware auto-sizing failed for model `{model}`: {e}"
        ))
    })?;
    HardwareGrid::new(format!("auto-{}", auto.base), base)
        .with_chips(vec![chips])
        .with_parallelism(auto.parallelism.clone())
        .enumerate()
        .map_err(|e| invalid(format!("hardware auto-sizing for model `{model}`: {e}")))
}

fn invalid(detail: impl Into<String>) -> ExploreError {
    ExploreError::InvalidSpec {
        detail: detail.into(),
    }
}

fn as_object<'a>(v: &'a Value, ctx: &str) -> Result<&'a [(String, Value)], ExploreError> {
    match v {
        Value::Map(entries) => Ok(entries),
        other => Err(invalid(format!(
            "{ctx} must be an object, found {}",
            other.kind()
        ))),
    }
}

/// `v` as an object whose keys all appear in `known`; any other key is
/// an "unknown {what} `KEY` (known fields: ...)" error.
fn known_fields<'a>(
    v: &'a Value,
    ctx: &str,
    what: &str,
    known: &[&str],
) -> Result<&'a [(String, Value)], ExploreError> {
    let entries = as_object(v, ctx)?;
    match entries
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(invalid(format!(
            "unknown {what} `{key}` (known fields: {})",
            known.join(", ")
        ))),
        None => Ok(entries),
    }
}

fn as_string(v: &Value, ctx: &str) -> Result<String, ExploreError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(invalid(format!(
            "{ctx} must be a string, found {}",
            other.kind()
        ))),
    }
}

fn as_u64(v: &Value, ctx: &str) -> Result<u64, ExploreError> {
    match v {
        Value::Int(i) => u64::try_from(*i)
            .map_err(|_| invalid(format!("{ctx} must be a non-negative 64-bit integer"))),
        other => Err(invalid(format!(
            "{ctx} must be an integer, found {}",
            other.kind()
        ))),
    }
}

fn as_f64(v: &Value, ctx: &str) -> Result<f64, ExploreError> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        other => Err(invalid(format!(
            "{ctx} must be a number, found {}",
            other.kind()
        ))),
    }
}

fn as_usize(v: &Value, ctx: &str) -> Result<usize, ExploreError> {
    as_u64(v, ctx).map(|n| n as usize)
}

/// Accepts a scalar or an array for a grid axis, parsing each value
/// with `parse`.
fn scalar_or_list<T>(
    v: &Value,
    ctx: &str,
    parse: fn(&Value, &str) -> Result<T, ExploreError>,
) -> Result<Vec<T>, ExploreError> {
    match v {
        Value::Seq(items) => items.iter().map(|i| parse(i, ctx)).collect(),
        scalar => Ok(vec![parse(scalar, ctx)?]),
    }
}

fn parse_mode(s: &str) -> Result<PipelineMode, ExploreError> {
    match s.to_ascii_lowercase().as_str() {
        "ht" | "high_throughput" => Ok(PipelineMode::HighThroughput),
        "ll" | "low_latency" => Ok(PipelineMode::LowLatency),
        other => Err(invalid(format!(
            "unknown pipeline mode `{other}` (ht | ll)"
        ))),
    }
}

fn parse_policy(s: &str) -> Result<ReusePolicy, ExploreError> {
    match s {
        "naive" => Ok(ReusePolicy::Naive),
        "add" => Ok(ReusePolicy::AddReuse),
        "ag" => Ok(ReusePolicy::AgReuse),
        other => Err(invalid(format!(
            "unknown memory policy `{other}` ({})",
            policy_names().join(" | ")
        ))),
    }
}

fn parse_auto(v: &Value) -> Result<AutoHardware, ExploreError> {
    known_fields(
        v,
        "hardware",
        "auto-hardware field",
        &["auto", "base", "parallelism", "headroom"],
    )?;
    if v.get("auto") != Some(&Value::Bool(true)) {
        return Err(invalid(
            "`hardware.auto` must be `true` (remove the key for an explicit grid)",
        ));
    }
    let base = match v.get("base") {
        Some(b) => as_string(b, "hardware.base")?,
        None => "puma".to_string(),
    };
    if preset(&base).is_none() {
        return Err(invalid(format!(
            "hardware.base: unknown hardware preset `{base}` (available: {})",
            preset_names().join(", ")
        )));
    }
    let parallelism = match v.get("parallelism") {
        Some(axis) => {
            let p = scalar_or_list(axis, "hardware.parallelism", as_usize)?;
            if p.is_empty() || p.contains(&0) {
                return Err(invalid(
                    "`hardware.parallelism` must be a non-empty list of positive degrees",
                ));
            }
            let names: Vec<String> = p.iter().map(usize::to_string).collect();
            reject_duplicates(&names, "hardware.parallelism")?;
            p
        }
        None => vec![AutoHardware::DEFAULT_PARALLELISM],
    };
    let headroom = match v.get("headroom") {
        Some(h) => as_f64(h, "hardware.headroom")?,
        None => AutoHardware::DEFAULT_HEADROOM,
    };
    if !headroom.is_finite() || headroom < 1.0 {
        return Err(invalid("`hardware.headroom` must be a finite number >= 1"));
    }
    Ok(AutoHardware {
        base,
        parallelism,
        headroom,
    })
}

fn parse_grid(v: &Value) -> Result<Vec<(String, HardwareConfig)>, ExploreError> {
    let entries = known_fields(
        v,
        "hardware grid",
        "hardware field",
        &[
            "base",
            "chips",
            "cores_per_chip",
            "crossbars_per_core",
            "crossbar_size",
            "parallelism",
            "local_memory_kb",
            "mvm_latency",
            "noc_link_bw",
        ],
    )?;
    let base = match v.get("base") {
        Some(b) => as_string(b, "hardware.base")?,
        None => "puma".to_string(),
    };
    let mut grid =
        HardwareGrid::over_preset(&base).map_err(|e| invalid(format!("hardware.base: {e}")))?;
    for (key, axis) in entries {
        let ctx = &format!("hardware.{key}");
        match key.as_str() {
            "chips" => grid.chips = scalar_or_list(axis, ctx, as_usize)?,
            "cores_per_chip" => grid.cores_per_chip = scalar_or_list(axis, ctx, as_usize)?,
            "crossbars_per_core" => grid.crossbars_per_core = scalar_or_list(axis, ctx, as_usize)?,
            "crossbar_size" => grid.crossbar_size = scalar_or_list(axis, ctx, as_usize)?,
            "parallelism" => grid.parallelism = scalar_or_list(axis, ctx, as_usize)?,
            "local_memory_kb" => grid.local_memory_kb = scalar_or_list(axis, ctx, as_usize)?,
            "mvm_latency" => grid.mvm_latency = scalar_or_list(axis, ctx, as_u64)?,
            "noc_link_bw" => grid.noc_link_bw = scalar_or_list(axis, ctx, as_f64)?,
            _ => {} // `base`, read above
        }
    }
    grid.enumerate()
        .map_err(|e| invalid(format!("hardware grid: {e}")))
}

fn parse_reload(v: &Value) -> Result<Vec<ReloadSetting>, ExploreError> {
    match v {
        Value::Bool(false) => Ok(vec![ReloadSetting::Off]),
        Value::Bool(true) => Ok(vec![ReloadSetting::On(None)]),
        Value::Map(_) => {
            known_fields(
                v,
                "`weight_reload`",
                "`weight_reload` field",
                &["budgets", "include_off"],
            )?;
            let budgets = list_axis(
                v.get("budgets"),
                "weight_reload.budgets",
                "`weight_reload.budgets` must be a non-empty array of positive crossbar budgets",
                |b| positive(b, "weight_reload.budgets"),
                usize::to_string,
            )?;
            let include_off = match v.get("include_off") {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(other) => {
                    return Err(invalid(format!(
                        "`weight_reload.include_off` must be a boolean, found {}",
                        other.kind()
                    )))
                }
            };
            let mut axis = Vec::new();
            if include_off {
                axis.push(ReloadSetting::Off);
            }
            axis.extend(budgets.into_iter().map(|b| ReloadSetting::On(Some(b))));
            Ok(axis)
        }
        other => Err(invalid(format!(
            "`weight_reload` must be `true`, `false`, or an object \
             {{\"budgets\": [...], \"include_off\": bool}}, found {}",
            other.kind()
        ))),
    }
}

fn parse_search(v: &Value, ga_iterations: usize) -> Result<SearchStrategy, ExploreError> {
    known_fields(
        v,
        "`search`",
        "`search` field",
        &["strategy", "rungs", "keep_fraction", "prune_margin"],
    )?;
    let strategy = match v.get("strategy") {
        Some(s) => as_string(s, "search.strategy")?,
        None => {
            return Err(invalid(
                "`search` needs a `strategy` (exhaustive | halving)",
            ))
        }
    };
    match strategy.as_str() {
        "exhaustive" => {
            for key in ["rungs", "keep_fraction", "prune_margin"] {
                if v.get(key).is_some() {
                    return Err(invalid(format!(
                        "`search.{key}` only applies to the halving strategy"
                    )));
                }
            }
            Ok(SearchStrategy::Exhaustive)
        }
        "halving" => {
            let rungs = match v.get("rungs") {
                None => HalvingSpec::default_rungs(ga_iterations),
                Some(axis) => {
                    let rungs = scalar_or_list(axis, "search.rungs", as_usize)?;
                    if rungs.is_empty() || rungs[0] == 0 {
                        return Err(invalid(
                            "`search.rungs` must be a non-empty array of positive \
                             GA generation budgets",
                        ));
                    }
                    if !rungs.windows(2).all(|w| w[0] < w[1]) {
                        return Err(invalid("`search.rungs` must be strictly increasing"));
                    }
                    if rungs.last() != Some(&ga_iterations) {
                        return Err(invalid(format!(
                            "the final `search.rungs` entry must equal `ga.iterations` \
                             ({ga_iterations}) so survivors get the full budget"
                        )));
                    }
                    rungs
                }
            };
            let keep_fraction = match v.get("keep_fraction") {
                None => HalvingSpec::DEFAULT_KEEP_FRACTION,
                Some(f) => as_f64(f, "search.keep_fraction")?,
            };
            if !keep_fraction.is_finite() || keep_fraction <= 0.0 || keep_fraction > 1.0 {
                return Err(invalid("`search.keep_fraction` must be within (0, 1]"));
            }
            let prune_margin = match v.get("prune_margin") {
                None => HalvingSpec::DEFAULT_PRUNE_MARGIN,
                Some(f) => as_f64(f, "search.prune_margin")?,
            };
            if !prune_margin.is_finite() || prune_margin < 0.0 {
                return Err(invalid(
                    "`search.prune_margin` must be a non-negative number",
                ));
            }
            Ok(SearchStrategy::Halving(HalvingSpec {
                rungs,
                keep_fraction,
                prune_margin,
            }))
        }
        other => Err(invalid(format!(
            "unknown search strategy `{other}` (exhaustive | halving)"
        ))),
    }
}

/// The shape every list-valued spec field shares: `value` must be a
/// non-empty array (otherwise the error is the field's `shape` text),
/// each entry parses through `entry`, and no two entries may share a
/// `label` ("duplicate entry `LABEL` in FIELD").
fn list_axis<T>(
    value: Option<&Value>,
    field: &str,
    shape: &str,
    entry: impl Fn(&Value) -> Result<T, ExploreError>,
    label: impl Fn(&T) -> String,
) -> Result<Vec<T>, ExploreError> {
    let items = match value {
        Some(Value::Seq(items)) if !items.is_empty() => items,
        _ => return Err(invalid(shape)),
    };
    let parsed = items.iter().map(entry).collect::<Result<Vec<T>, _>>()?;
    let labels: Vec<String> = parsed.iter().map(label).collect();
    reject_duplicates(&labels, field)?;
    Ok(parsed)
}

/// An entry of list field `field` that must be an integer of at least 1.
fn positive(v: &Value, field: &str) -> Result<usize, ExploreError> {
    match as_usize(v, &format!("{field} entry"))? {
        0 => Err(invalid(format!("`{field}` entries must be at least 1"))),
        n => Ok(n),
    }
}

fn reject_duplicates(items: &[String], what: &str) -> Result<(), ExploreError> {
    let mut seen = std::collections::HashSet::new();
    for item in items {
        if !seen.insert(item.as_str()) {
            return Err(invalid(format!("duplicate entry `{item}` in {what}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_spec_parses_to_sixteen_points() {
        let spec = SweepSpec::from_json(EXAMPLE_SPEC).unwrap();
        assert_eq!(spec.models.len(), 2);
        assert_eq!(spec.modes.len(), 2);
        assert_eq!(spec.hardware.len(), 4);
        assert_eq!(spec.policies, vec![ReusePolicy::AgReuse]);
        assert_eq!(spec.batches, vec![2]);
        assert_eq!(spec.seeds, vec![1]);
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 16);
        assert_eq!(
            points[0].key(),
            "tiny_cnn/HT/small_test+chips1+par4/ag/b2/seed1"
        );
    }

    #[test]
    fn axis_positions_follow_declaration_order() {
        for (k, axis) in SweepAxis::ALL.into_iter().enumerate() {
            assert_eq!(axis as usize, k, "{axis:?}");
        }
    }

    #[test]
    fn derived_seeds_split_from_master() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "master_seed":9,"num_seeds":3}"#,
        )
        .unwrap();
        assert_eq!(spec.seeds.len(), 3);
        let rederived: Vec<u64> = (0..3).map(|i| split_stream_seed(9, 0, i)).collect();
        assert_eq!(spec.seeds, rederived);
        // Seeds depend on the master, so two sweeps never collide.
        let other = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "master_seed":10,"num_seeds":3}"#,
        )
        .unwrap();
        assert_ne!(spec.seeds, other.seeds);
    }

    #[test]
    fn malformed_specs_are_structured_errors() {
        for (json, needle) in [
            ("[]", "must be an object"),
            ("{", "not valid JSON"),
            (r#"{"models":[],"hardware":{}}"#, "non-empty array"),
            (r#"{"models":["tiny_mlp"]}"#, "`hardware`"),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"base":"tpu"}}"#,
                "unknown hardware preset",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"chips":[0]}}"#,
                "hardware grid",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"modes":["fast"]}"#,
                "unknown pipeline mode",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"typo_field":1}"#,
                "unknown field `typo_field`",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seeds":[1],"num_seeds":2}"#,
                "not both",
            ),
            (
                r#"{"models":["tiny_mlp","tiny_mlp"],"hardware":{}}"#,
                "duplicate entry",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ga":{"population":0}}"#,
                "must be positive",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"num_seeds":0}"#,
                "`num_seeds` must be at least 1",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"chips":-1}}"#,
                "non-negative",
            ),
        ] {
            let err = SweepSpec::from_json(json).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "spec {json} gave `{msg}`, expected to contain `{needle}`"
            );
        }
    }

    #[test]
    fn malformed_axis_fields_are_structured_errors() {
        for (json, needle) in [
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"memory_policies":[]}"#,
                "`memory_policies` must be a non-empty array",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"memory_policies":["lru"]}"#,
                "unknown memory policy `lru` (naive | add | ag)",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "memory_policies":["ag","ag"]}"#,
                "duplicate entry `ag` in memory_policies",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[]}"#,
                "`ht_batches` must be a non-empty array",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[0]}"#,
                "`ht_batches` entries must be at least 1",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[2,2]}"#,
                "duplicate entry `2` in ht_batches",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"modes":["ll"],
                    "ht_batches":[1,2]}"#,
                "`ht_batches` only applies to high-throughput mode",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":"automatic"}"#,
                "must be \"auto\"",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"auto":false}}"#,
                "`hardware.auto` must be `true`",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"auto":true,"chips":[1]}}"#,
                "unknown auto-hardware field `chips`",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"auto":true,"base":"tpu"}}"#,
                "unknown hardware preset `tpu`",
            ),
            (
                r#"{"models":["tiny_mlp"],
                    "hardware":{"auto":true,"parallelism":[0]}}"#,
                "`hardware.parallelism` must be a non-empty list of positive",
            ),
            (
                r#"{"models":["tiny_mlp"],
                    "hardware":{"auto":true,"parallelism":[4,4]}}"#,
                "duplicate entry `4` in hardware.parallelism",
            ),
            (
                r#"{"models":["tiny_mlp"],
                    "hardware":{"auto":true,"headroom":0.5}}"#,
                "`hardware.headroom` must be a finite number >= 1",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"weight_reload":"yes"}"#,
                "`weight_reload` must be `true`, `false`, or an object",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"weight_reload":{}}"#,
                "`weight_reload.budgets` must be a non-empty array of positive crossbar budgets",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"budgets":[]}}"#,
                "`weight_reload.budgets` must be a non-empty array of positive crossbar budgets",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"budgets":[0]}}"#,
                "`weight_reload.budgets` entries must be at least 1",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"budgets":[256,256]}}"#,
                "duplicate entry `256` in weight_reload.budgets",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"budgets":[256],"include_off":1}}"#,
                "`weight_reload.include_off` must be a boolean",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"caps":[256]}}"#,
                "unknown `weight_reload` field `caps`",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seq_lens":[]}"#,
                "`seq_lens` must be a non-empty array of positive integers",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seq_lens":64}"#,
                "`seq_lens` must be a non-empty array of positive integers",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seq_lens":[0]}"#,
                "`seq_lens` must be a non-empty array of positive integers",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seq_lens":[64,64]}"#,
                "duplicate entry `64` in seq_lens",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"quantization":[]}"#,
                "`quantization` must be a non-empty array of integer ADC bit-widths in 0..=32",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"quantization":8}"#,
                "`quantization` must be a non-empty array of integer ADC bit-widths in 0..=32",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"quantization":[33]}"#,
                "`quantization` must be a non-empty array of integer ADC bit-widths in 0..=32",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"quantization":[8,8]}"#,
                "duplicate entry `8` in quantization",
            ),
        ] {
            let err = SweepSpec::from_json(json).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "spec {json} gave `{msg}`, expected to contain `{needle}`"
            );
        }
    }

    #[test]
    fn unknown_model_names_fail_at_parse_listing_alternatives() {
        let err =
            SweepSpec::from_json(r#"{"models":["alexnet"],"hardware":{"base":"small_test"}}"#)
                .unwrap_err();
        match &err {
            ExploreError::UnknownModel { name, available } => {
                assert_eq!(name, "alexnet");
                assert!(available.iter().any(|m| m == "vgg16"));
                assert!(available.iter().any(|m| m == "tiny_cnn"));
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("available models"), "{msg}");
        assert!(msg.contains(".onnx"), "{msg}");
        // `.onnx` paths are not resolved against the zoo at parse time.
        SweepSpec::from_json(r#"{"models":["anything.onnx"],"hardware":{"base":"small_test"}}"#)
            .unwrap();
    }

    #[test]
    fn seq_lens_axis_expands_innermost_and_tags_keys() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_bert"],"hardware":{"base":"small_test"},
                "seeds":[1],"seq_lens":[64,128]}"#,
        )
        .unwrap();
        assert_eq!(spec.seq_lens, vec![Some(64), Some(128)]);
        assert_eq!(spec.len(), 2);
        let points = spec.points().unwrap();
        assert_eq!(points[0].seq, Some(64));
        assert_eq!(points[1].seq, Some(128));
        assert!(points[0].key().ends_with("/seq64"), "{}", points[0].key());
        assert!(points[1].key().ends_with("/seq128"), "{}", points[1].key());

        // Without the axis, points stay unbound and keys keep the
        // historical form.
        let plain = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},"seeds":[1]}"#,
        )
        .unwrap();
        let points = plain.points().unwrap();
        assert_eq!(points[0].seq, None);
        assert!(!points[0].key().contains("/seq"), "{}", points[0].key());
    }

    #[test]
    fn quantization_axis_expands_innermost_and_tags_keys() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "seeds":[1],"quantization":[0,8]}"#,
        )
        .unwrap();
        assert_eq!(spec.quantization, vec![Some(0), Some(8)]);
        assert_eq!(spec.len(), 2);
        let points = spec.points().unwrap();
        assert_eq!(points[0].quant, Some(0));
        assert_eq!(points[1].quant, Some(8));
        assert!(points[0].key().ends_with("/q0"), "{}", points[0].key());
        assert!(points[1].key().ends_with("/q8"), "{}", points[1].key());

        // Without the axis, points skip verification and keys keep the
        // historical form.
        let plain = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},"seeds":[1]}"#,
        )
        .unwrap();
        let points = plain.points().unwrap();
        assert_eq!(points[0].quant, None);
        assert!(!points[0].key().contains("/q"), "{}", points[0].key());
    }

    #[test]
    fn policy_and_batch_axes_cross_product_with_ll_collapsing() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"modes":["ht","ll"],
                "hardware":{"base":"small_test"},"seeds":[1],
                "memory_policies":["naive","ag"],"ht_batches":[1,4]}"#,
        )
        .unwrap();
        // HT: 2 policies x 2 batches; LL: 2 policies x 1 (collapsed).
        assert_eq!(spec.len(), 4 + 2);
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 6);
        let keys: Vec<String> = points.iter().map(|p| p.key()).collect();
        assert_eq!(
            keys,
            [
                "tiny_mlp/HT/small_test/naive/b1/seed1",
                "tiny_mlp/HT/small_test/naive/b4/seed1",
                "tiny_mlp/HT/small_test/ag/b1/seed1",
                "tiny_mlp/HT/small_test/ag/b4/seed1",
                "tiny_mlp/LL/small_test/naive/b1/seed1",
                "tiny_mlp/LL/small_test/ag/b1/seed1",
            ]
        );
        assert!(points
            .iter()
            .filter(|p| p.mode == PipelineMode::LowLatency)
            .all(|p| p.batch == 1));
        // An explicit batch of 1 is harmless without an HT mode; only
        // values above 1 require one.
        let json = r#"{"models":["tiny_mlp"],"hardware":{},"modes":["ll"],"ht_batches":[1]}"#;
        assert_eq!(SweepSpec::from_json(json).unwrap().batches, vec![1]);
    }

    #[test]
    fn retired_scalar_fields_are_migration_errors() {
        for (json, expected) in [
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"policy":"ag"}"#,
                r#"`policy` was replaced by `memory_policies`: write "memory_policies": ["ag"]"#,
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "policy":"naive","memory_policies":["ag"]}"#,
                r#"`policy` was replaced by `memory_policies`: write "memory_policies": ["naive"]"#,
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"batch":4}"#,
                r#"`batch` was replaced by `ht_batches`: write "ht_batches": [4]"#,
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"modes":["ll"],"batch":0}"#,
                r#"`batch` was replaced by `ht_batches`: write "ht_batches": [0]"#,
            ),
        ] {
            match SweepSpec::from_json(json).unwrap_err() {
                ExploreError::InvalidSpec { detail } => assert_eq!(detail, expected),
                other => panic!("spec {json}: expected InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn auto_hardware_sizes_per_model_with_labelled_parallelism() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp","tiny_cnn"],
                "hardware":{"auto":true,"base":"small_test",
                             "parallelism":[2,4]}}"#,
        )
        .unwrap();
        assert!(spec.hardware.is_auto());
        assert_eq!(spec.hardware.len(), 2);
        assert_eq!(spec.len(), 2 * 2);
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.hw_label.starts_with("auto-small_test+chips"),
                "{}",
                p.hw_label
            );
            assert!(p.hw.chips >= 1);
            p.hw.validate().unwrap();
        }
        assert_eq!(points[0].hw.parallelism, 2);
        assert_eq!(points[1].hw.parallelism, 4);
        // The bare string form uses every default.
        let bare = SweepSpec::from_json(r#"{"models":["tiny_mlp"],"hardware":"auto"}"#).unwrap();
        match &bare.hardware {
            HardwareAxis::Auto(a) => {
                assert_eq!(a.base, "puma");
                assert_eq!(a.parallelism, vec![AutoHardware::DEFAULT_PARALLELISM]);
                assert_eq!(a.headroom, AutoHardware::DEFAULT_HEADROOM);
            }
            other => panic!("expected auto hardware, got {other:?}"),
        }
    }

    #[test]
    fn auto_hardware_sizes_symbolic_models_at_the_largest_seq_len() {
        // tiny_bert has a symbolic sequence dimension: auto sizing
        // binds the largest `seq_lens` entry so the chip count fits
        // the worst-case point of the sweep.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_bert"],
                "hardware":{"auto":true,"base":"puma"},
                "seq_lens":[64, 128]}"#,
        )
        .unwrap();
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.hw_label.starts_with("auto-puma+chips"), "{}", p.hw_label);
            p.hw.validate().unwrap();
        }

        // Without the axis the model cannot be sized; the spec is
        // rejected with a structured error naming the fix.
        let bare = SweepSpec::from_json(r#"{"models":["tiny_bert"],"hardware":"auto"}"#).unwrap();
        let err = bare.points().unwrap_err();
        assert!(
            err.to_string().contains("add a `seq_lens` axis"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn weight_reload_axis_expands_and_keys_reload_points() {
        // Default: off for every point, no key suffix.
        let spec =
            SweepSpec::from_json(r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"}}"#)
                .unwrap();
        assert_eq!(spec.weight_reload, vec![ReloadSetting::Off]);
        assert!(!spec.points().unwrap()[0].key().contains("reload"));

        // `true`: every point compiles in reload mode at full capacity.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "seeds":[1],"weight_reload":true}"#,
        )
        .unwrap();
        assert_eq!(spec.weight_reload, vec![ReloadSetting::On(None)]);
        assert_eq!(
            spec.points().unwrap()[0].key(),
            "tiny_mlp/HT/small_test/ag/b2/seed1/reload-full"
        );

        // Budget list with include_off: off first, then one point per
        // budget, innermost in the expansion order.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "seeds":[1],
                "weight_reload":{"budgets":[256,128],"include_off":true}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.weight_reload,
            vec![
                ReloadSetting::Off,
                ReloadSetting::On(Some(256)),
                ReloadSetting::On(Some(128)),
            ]
        );
        assert_eq!(spec.len(), 3);
        let keys: Vec<String> = spec.points().unwrap().iter().map(|p| p.key()).collect();
        assert_eq!(
            keys,
            [
                "tiny_mlp/HT/small_test/ag/b2/seed1",
                "tiny_mlp/HT/small_test/ag/b2/seed1/reload-256",
                "tiny_mlp/HT/small_test/ag/b2/seed1/reload-128",
            ]
        );

        // `false` is accepted and identical to omitting the field.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "weight_reload":false}"#,
        )
        .unwrap();
        assert_eq!(spec.weight_reload, vec![ReloadSetting::Off]);
    }

    #[test]
    fn oversized_sweeps_are_capped() {
        let json = format!(
            r#"{{"models":["tiny_mlp"],"hardware":{{"base":"small_test"}},"num_seeds":{}}}"#,
            MAX_SWEEP_POINTS + 1
        );
        assert!(matches!(
            SweepSpec::from_json(&json),
            Err(ExploreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn search_section_parses_with_defaults_and_overrides() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "ga":{"population":4,"iterations":24},
                "search":{"strategy":"halving"}}"#,
        )
        .unwrap();
        match &spec.search {
            SearchStrategy::Halving(h) => {
                assert_eq!(h.rungs, vec![2, 8, 24]);
                assert_eq!(h.keep_fraction, HalvingSpec::DEFAULT_KEEP_FRACTION);
                assert_eq!(h.prune_margin, HalvingSpec::DEFAULT_PRUNE_MARGIN);
            }
            other => panic!("expected halving, got {other:?}"),
        }
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "ga":{"population":4,"iterations":6},
                "search":{"strategy":"halving","rungs":[1,6],
                          "keep_fraction":0.4,"prune_margin":0.0}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.search,
            SearchStrategy::Halving(HalvingSpec {
                rungs: vec![1, 6],
                keep_fraction: 0.4,
                prune_margin: 0.0,
            })
        );
        // Default and explicit exhaustive are the same strategy.
        let default =
            SweepSpec::from_json(r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"}}"#)
                .unwrap();
        let explicit = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "search":{"strategy":"exhaustive"}}"#,
        )
        .unwrap();
        assert_eq!(default.search, SearchStrategy::Exhaustive);
        assert_eq!(explicit.search, SearchStrategy::Exhaustive);
    }

    #[test]
    fn default_rung_ladders_end_at_the_full_budget() {
        assert_eq!(HalvingSpec::default_rungs(24), vec![2, 8, 24]);
        assert_eq!(HalvingSpec::default_rungs(200), vec![2, 7, 22, 66, 200]);
        assert_eq!(HalvingSpec::default_rungs(6), vec![2, 6]);
        assert_eq!(HalvingSpec::default_rungs(2), vec![2]);
        assert_eq!(HalvingSpec::default_rungs(1), vec![1]);
        assert_eq!(HalvingSpec::default_rungs(0), vec![1]);
        for i in 1..=64 {
            let rungs = HalvingSpec::default_rungs(i);
            assert!(rungs.windows(2).all(|w| w[0] < w[1]), "ladder for {i}");
            assert_eq!(rungs.last(), Some(&i));
        }
    }

    #[test]
    fn malformed_search_sections_are_structured_errors() {
        let base = |search: &str| {
            format!(
                r#"{{"models":["tiny_mlp"],"hardware":{{"base":"small_test"}},
                    "ga":{{"population":4,"iterations":6}},"search":{search}}}"#
            )
        };
        for (search, needle) in [
            (r#"{}"#, "needs a `strategy`"),
            (r#"{"strategy":"random"}"#, "unknown search strategy"),
            (
                r#"{"strategy":"halving","typo":1}"#,
                "unknown `search` field",
            ),
            (
                r#"{"strategy":"exhaustive","rungs":[1,6]}"#,
                "only applies to the halving strategy",
            ),
            (
                r#"{"strategy":"halving","rungs":[]}"#,
                "non-empty array of positive",
            ),
            (
                r#"{"strategy":"halving","rungs":[0,6]}"#,
                "non-empty array of positive",
            ),
            (
                r#"{"strategy":"halving","rungs":[4,2,6]}"#,
                "strictly increasing",
            ),
            (
                r#"{"strategy":"halving","rungs":[1,2]}"#,
                "must equal `ga.iterations` (6)",
            ),
            (
                r#"{"strategy":"halving","keep_fraction":0}"#,
                "within (0, 1]",
            ),
            (
                r#"{"strategy":"halving","keep_fraction":1.5}"#,
                "within (0, 1]",
            ),
            (
                r#"{"strategy":"halving","prune_margin":-0.5}"#,
                "non-negative",
            ),
        ] {
            let err = SweepSpec::from_json(&base(search)).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "search {search} gave `{msg}`, expected to contain `{needle}`"
            );
        }
    }

    #[test]
    fn hardware_accepts_scalar_axes_and_grid_arrays() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],
                "hardware":[{"base":"small_test","chips":1},
                            {"base":"small_test","chips":2,"parallelism":[4,8]}]}"#,
        )
        .unwrap();
        let HardwareAxis::Explicit(hardware) = &spec.hardware else {
            panic!("expected explicit hardware");
        };
        assert_eq!(hardware.len(), 3);
        assert_eq!(hardware[0].0, "small_test+chips1");
        assert_eq!(hardware[2].1.parallelism, 8);
    }
}
