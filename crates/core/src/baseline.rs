//! The PUMA-like baseline compiler (paper Section V-A.2).
//!
//! The paper compares against a faithful re-implementation of the PUMA
//! dataflow under the same framework: node replication chosen
//! *heuristically to balance the inter-layer pipeline* (replicas
//! proportional to each layer's sliding-window count, the PUMA/ISAAC
//! recipe) and a *greedy sequential* core mapping that fills cores one
//! after another. The greedy chromosome then goes through the same
//! session stages as the GA's ([`Partitioned::place`], scheduling,
//! finishing), so measured differences come from the
//! replication/mapping decisions alone.
//!
//! [`Partitioned::place`]: crate::Partitioned::place

use crate::compiler::{CompileOptions, CompiledModel};
use crate::mapping::{Chromosome, Gene};
use crate::partition::Partitioning;
use crate::session::{CompileSession, Target};
use crate::CompileError;
use pimcomp_arch::HardwareConfig;
use pimcomp_ir::Graph;

/// The PUMA-like decision over the first `cores` cores:
/// pipeline-balancing replication + greedy sequential mapping.
///
/// Replication: the largest per-replica window target `t` is found (by
/// binary search) such that `R_n = ceil(windows_n / t)` fits the
/// crossbar budget; early layers with many windows receive more
/// replicas, balancing stage times — the PUMA heuristic.
///
/// Mapping: AG instances are placed node by node into consecutive
/// cores, moving on only when a core fills up.
///
/// # Errors
///
/// [`CompileError::InsufficientCapacity`] when one replica of every
/// node does not fit.
pub fn puma_chromosome(
    partitioning: &Partitioning,
    hw: &HardwareConfig,
    cores: usize,
) -> Result<Chromosome, CompileError> {
    let capacity = hw.crossbar_capacity_per_core();
    let budget = cores * capacity;
    if partitioning.min_crossbars() > budget {
        return Err(CompileError::InsufficientCapacity {
            required: partitioning.min_crossbars(),
            available: budget,
        });
    }

    // Binary search the window target t (smaller t = more replication).
    let cost = |t: usize| -> usize {
        (0..partitioning.len())
            .map(|i| {
                let e = partitioning.entry(i);
                e.windows.div_ceil(t) * e.crossbars_per_replica()
            })
            .sum()
    };
    let max_windows = (0..partitioning.len())
        .map(|i| partitioning.entry(i).windows)
        .max()
        .unwrap_or(1);
    let (mut lo, mut hi) = (1usize, max_windows.max(1));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cost(mid) <= budget {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    // Greedy sequential placement; if per-core fragmentation strands a
    // tail AG, back off replication (increase the window target) and
    // retry.
    let mut target = lo;
    loop {
        match try_greedy_placement(partitioning, cores, capacity, target) {
            Some(chrom) => return Ok(chrom),
            None if target < max_windows => {
                target = (target + target.div_ceil(8)).min(max_windows);
            }
            None => {
                return Err(CompileError::InsufficientCapacity {
                    required: partitioning.min_crossbars(),
                    available: budget,
                })
            }
        }
    }
}

/// One attempt at greedy sequential first-fit placement for window
/// target `t`; `None` when fragmentation strands an AG.
fn try_greedy_placement(
    partitioning: &Partitioning,
    cores: usize,
    capacity: usize,
    target: usize,
) -> Option<Chromosome> {
    let mut chrom = Chromosome::empty(cores, partitioning.len().max(1));
    let mut used = vec![0usize; cores];
    let mut core = 0usize;
    for mvm in 0..partitioning.len() {
        let e = partitioning.entry(mvm);
        let replicas = e.windows.div_ceil(target).max(1);
        let total_ags = replicas * e.ags_per_replica;
        let xb = e.crossbars_per_ag;
        for _ in 0..total_ags {
            // Advance to the next core with room for one AG, wrapping
            // once (first-fit) before giving up.
            if used[core] + xb > capacity {
                match (0..cores).find(|&c| used[c] + xb <= capacity) {
                    Some(c) => core = c,
                    None => return None,
                }
            }
            let slot = chrom
                .slot_of_node_on_core(core, mvm)
                .or_else(|| chrom.free_slot_of_core(core))
                .expect("slot grid sized to node count");
            let cur = chrom.gene(slot).map_or(0, |g| g.ag_count);
            chrom.set_gene(
                slot,
                Some(Gene {
                    mvm,
                    ag_count: cur + 1,
                }),
            );
            used[core] += xb;
        }
    }
    Some(chrom)
}

/// The baseline compiler: the PUMA-like decision, placed, scheduled and
/// finished by the same session stages as PIMCOMP's.
#[derive(Debug, Clone)]
pub struct PumaCompiler {
    hw: HardwareConfig,
}

impl PumaCompiler {
    /// Creates a baseline compiler for the target.
    pub fn new(hw: HardwareConfig) -> Self {
        PumaCompiler { hw }
    }

    /// Compiles `graph` with the PUMA-like decision: `CompileSession::new
    /// → partition → place(greedy chromosome) → schedule → finish`,
    /// labelled `PUMA-like`. GA options inside `opts` are validated but
    /// unused; every other option applies as in a GA compile (an
    /// over-budget `weight_reload` model is epoch-packed).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CompileSession::run`]
    /// (invalid inputs, insufficient capacity).
    pub fn compile(
        &self,
        graph: &Graph,
        opts: &CompileOptions,
    ) -> Result<CompiledModel, CompileError> {
        let partitioned = CompileSession::new(self.hw.clone(), graph, opts.clone())?.partition()?;
        let chromosome = match partitioned.target() {
            Target::Cores { cores, .. } => Some(puma_chromosome(
                partitioned.partitioning(),
                &self.hw,
                cores,
            )?),
            Target::Epochs { .. } => None,
        };
        let mut model = partitioned.place(chromosome)?.schedule()?.finish();
        model.report.compiler = "PUMA-like".to_string();
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::CoreMapping;
    use pimcomp_arch::PipelineMode;
    use pimcomp_ir::models;
    use pimcomp_ir::transform::normalize;

    fn puma_mapping(p: &Partitioning, hw: &HardwareConfig) -> CoreMapping {
        let chromosome = puma_chromosome(p, hw, hw.total_cores()).unwrap();
        CoreMapping::from_chromosome(&chromosome, p).unwrap()
    }

    #[test]
    fn puma_replicates_early_layers_more() {
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&g, &hw).unwrap();
        let m = puma_mapping(&p, &hw);
        let counts = m.replication.counts();
        // conv1 has 32x32=1024 windows; fc2 has 1 window.
        let first = counts[0];
        let last = counts[counts.len() - 1];
        assert!(
            first >= last,
            "early layer should replicate at least as much: {counts:?}"
        );
        assert!(first > 1, "capacity allows replication: {counts:?}");
    }

    #[test]
    fn puma_mapping_is_feasible_and_valid() {
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&g, &hw).unwrap();
        let m = puma_mapping(&p, &hw);
        m.validate(&p, hw.total_cores()).unwrap();
        // Per-core capacity respected.
        let mut used = vec![0usize; hw.total_cores()];
        for inst in &m.instances {
            used[inst.core] += p.entry(inst.mvm).crossbars_per_ag;
        }
        assert!(used.iter().all(|&u| u <= hw.crossbar_capacity_per_core()));
    }

    #[test]
    fn puma_mapping_concentrates_on_few_cores() {
        // Greedy fill packs sequentially: active cores should be close
        // to the theoretical minimum.
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&g, &hw).unwrap();
        let m = puma_mapping(&p, &hw);
        let min_cores = m
            .replication
            .total_crossbars(&p)
            .div_ceil(hw.crossbar_capacity_per_core());
        assert!(m.active_cores() <= min_cores + 2);
    }

    #[test]
    fn baseline_compiles_both_modes() {
        let g = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let opts = CompileOptions::new(mode);
            let out = PumaCompiler::new(hw.clone()).compile(&g, &opts).unwrap();
            assert_eq!(out.report.compiler, "PUMA-like");
            assert!(out.report.estimated_fitness > 0.0);
        }
    }
}
