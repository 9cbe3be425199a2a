//! The PUMA-like baseline compiler (paper Section V-A.2).
//!
//! The paper compares against a faithful re-implementation of the PUMA
//! dataflow under the same framework: node replication chosen
//! *heuristically to balance the inter-layer pipeline* (replicas
//! proportional to each layer's sliding-window count, the PUMA/ISAAC
//! recipe) and a *greedy sequential* core mapping that fills cores one
//! after another. Scheduling and simulation then reuse exactly the same
//! machinery as PIMCOMP, so measured differences come from the
//! replication/mapping decisions alone.

use crate::compiler::{CompileOptions, CompileReport, CompiledModel, StageTimings};
use crate::mapping::{Chromosome, CoreMapping, Gene};
use crate::memory::MemoryPlan;
use crate::partition::Partitioning;
use crate::schedule::{HtSchedule, LlSchedule, Schedule};
use crate::waiting::DepInfo;
use crate::{fitness, CompileError};
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use std::time::Instant;

/// Pipeline-balancing replication + greedy sequential mapping.
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
pub fn puma_mapping(
    partitioning: &Partitioning,
    hw: &HardwareConfig,
) -> Result<CoreMapping, CompileError> {
    let cores = hw.total_cores();
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
            Some(chrom) => return CoreMapping::from_chromosome(&chrom, partitioning),
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

/// The baseline compiler: PUMA-like replication and mapping, PIMCOMP
/// scheduling/simulation machinery.
#[derive(Debug, Clone)]
pub struct PumaCompiler {
    hw: HardwareConfig,
}

impl PumaCompiler {
    /// Creates a baseline compiler for the target.
    pub fn new(hw: HardwareConfig) -> Self {
        PumaCompiler { hw }
    }

    /// Compiles `graph` with the PUMA-like pipeline. GA options inside
    /// `opts` are ignored; pipeline mode, batch and memory policy apply.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CompileSession::run`]
    /// (invalid inputs, insufficient capacity).
    ///
    /// [`CompileSession::run`]: crate::CompileSession::run
    pub fn compile(
        &self,
        graph: &Graph,
        opts: &CompileOptions,
    ) -> Result<CompiledModel, CompileError> {
        self.hw
            .validate()
            .map_err(|e| CompileError::InvalidHardware {
                detail: e.to_string(),
            })?;
        let graph = if opts.normalize {
            pimcomp_ir::transform::normalize(graph).map_err(|e| CompileError::InvalidGraph {
                detail: e.to_string(),
            })?
        } else {
            graph.clone()
        };
        graph.validate().map_err(|e| CompileError::InvalidGraph {
            detail: e.to_string(),
        })?;

        let t0 = Instant::now();
        let partitioning = Partitioning::new(&graph, &self.hw)?;
        let t_partition = t0.elapsed();

        let t1 = Instant::now();
        let mapping = puma_mapping(&partitioning, &self.hw)?;
        let t_mapping = t1.elapsed();

        let t2 = Instant::now();
        let dep = DepInfo::analyze(&graph);
        let schedule = match opts.mode {
            PipelineMode::HighThroughput => Schedule::HighThroughput(HtSchedule::build(
                &graph,
                &partitioning,
                &mapping,
                &dep,
                &self.hw,
                opts.batch,
            )),
            PipelineMode::LowLatency => Schedule::LowLatency(LlSchedule::build(
                &graph,
                &partitioning,
                &mapping,
                &dep,
                &self.hw,
            )),
        };
        let memory = match &schedule {
            Schedule::HighThroughput(s) => {
                MemoryPlan::for_ht(s, &partitioning, &mapping, &self.hw, opts.memory_policy)
            }
            Schedule::LowLatency(s) => {
                MemoryPlan::for_ll(&graph, s, &partitioning, &dep, &self.hw, opts.memory_policy)
            }
        };
        let t_schedule = t2.elapsed();

        let estimated = match opts.mode {
            PipelineMode::HighThroughput => {
                fitness::ht_fitness_from_mapping(&self.hw, &partitioning, &mapping)
            }
            PipelineMode::LowLatency => {
                fitness::ll_fitness(&self.hw, &graph, &partitioning, &dep, &mapping.replication)
            }
        };

        let report = CompileReport {
            model: graph.name().to_string(),
            compiler: "PUMA-like".to_string(),
            mode: opts.mode,
            timings: StageTimings {
                node_partitioning: t_partition,
                replicating_mapping: t_mapping,
                dataflow_scheduling: t_schedule,
            },
            ga: None,
            replication: mapping.replication.counts().to_vec(),
            active_cores: mapping.active_cores(),
            crossbars_used: mapping.replication.total_crossbars(&partitioning),
            estimated_fitness: estimated,
        };

        Ok(CompiledModel {
            graph,
            hw: self.hw.clone(),
            mode: opts.mode,
            partitioning,
            mapping,
            dep,
            schedule,
            memory,
            reload: None,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::models;
    use pimcomp_ir::transform::normalize;

    #[test]
    fn puma_replicates_early_layers_more() {
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&g, &hw).unwrap();
        let m = puma_mapping(&p, &hw).unwrap();
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
        let m = puma_mapping(&p, &hw).unwrap();
        m.validate(&p).unwrap();
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
        let m = puma_mapping(&p, &hw).unwrap();
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
