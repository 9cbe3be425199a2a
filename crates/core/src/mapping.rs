//! Gene encoding and core-mapping materialization (paper Section IV-C).
//!
//! Each **gene** represents several AGs of one node mapped to one core,
//! encoded as the integer `node_index * 10000 + ag_count` (the paper's
//! example: `1030025` = 25 AGs of node 103). A **chromosome** is a fixed
//! grid of `core_num × max_node_num_in_core` gene slots; the slot
//! position determines the core. Decoding a chromosome yields a
//! [`CoreMapping`]: concrete AG instances `(node, replica, slice)`
//! assigned to cores, with per-replica accumulation owners.

use crate::partition::{MvmIdx, Partitioning};
use crate::replication::ReplicationPlan;
use crate::CompileError;
use serde::{Deserialize, Serialize};

/// The paper's gene radix: `code = node_index * 10000 + ag_count`.
pub const GENE_RADIX: u64 = 10_000;

/// Several AGs of one node on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Gene {
    /// Which partitioned node.
    pub mvm: MvmIdx,
    /// How many of its AG instances live on this slot's core.
    pub ag_count: usize,
}

impl Gene {
    /// Encodes as the paper's integer representation.
    ///
    /// # Panics
    ///
    /// Panics if `ag_count >= 10000` (outside the paper's radix).
    pub fn code(&self) -> u64 {
        assert!(
            (self.ag_count as u64) < GENE_RADIX,
            "ag_count {} exceeds the gene radix",
            self.ag_count
        );
        self.mvm as u64 * GENE_RADIX + self.ag_count as u64
    }

    /// Decodes the paper's integer representation; `None` if the AG
    /// count field is zero (an empty slot).
    pub fn from_code(code: u64) -> Option<Self> {
        let ag_count = (code % GENE_RADIX) as usize;
        if ag_count == 0 {
            return None;
        }
        Some(Gene {
            mvm: (code / GENE_RADIX) as usize,
            ag_count,
        })
    }
}

/// A fixed grid of gene slots: `core_num × max_node_num_in_core`.
///
/// `max_node_num_in_core` bounds how many distinct nodes one core may
/// host, which keeps the mapping from scattering so far that on-chip
/// communication dominates (paper Section IV-C.1).
///
/// Storage is struct-of-arrays: the node index and AG count of every
/// slot live in parallel vectors with a bitset marking occupied slots,
/// so the GA's slot scans walk contiguous words instead of
/// discriminant-tagged options, and the memoization fingerprint can be
/// maintained incrementally (XOR in/out one slot's contribution on
/// every [`Chromosome::set_gene`]) instead of rehashing the whole grid
/// per offspring. Serialization keeps the original
/// `{slots, cores, max_nodes_per_core}` shape, so on-disk artifacts
/// are unaffected by the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chromosome {
    mvms: Vec<usize>,
    ags: Vec<usize>,
    occupied: Vec<u64>,
    cores: usize,
    max_nodes_per_core: usize,
    fp: u128,
}

/// The serialized shape of a [`Chromosome`] (its original
/// array-of-options layout, kept stable across the SoA refactor).
#[derive(Serialize, Deserialize)]
struct ChromosomeWire {
    slots: Vec<Option<Gene>>,
    cores: usize,
    max_nodes_per_core: usize,
}

impl Serialize for Chromosome {
    fn to_value(&self) -> serde::Value {
        ChromosomeWire {
            slots: (0..self.len()).map(|s| self.gene(s)).collect(),
            cores: self.cores,
            max_nodes_per_core: self.max_nodes_per_core,
        }
        .to_value()
    }
}

impl Deserialize for Chromosome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let wire = ChromosomeWire::from_value(v)?;
        if wire.cores == 0
            || wire.max_nodes_per_core == 0
            || wire.cores.checked_mul(wire.max_nodes_per_core) != Some(wire.slots.len())
        {
            return Err(serde::DeError::new(format!(
                "chromosome grid {}x{} does not match {} slots",
                wire.cores,
                wire.max_nodes_per_core,
                wire.slots.len()
            )));
        }
        let mut c = Chromosome::empty(wire.cores, wire.max_nodes_per_core);
        for (slot, gene) in wire.slots.into_iter().enumerate() {
            c.set_gene(slot, gene);
        }
        Ok(c)
    }
}

/// SplitMix64 finalizer used to derive the per-slot fingerprint tokens.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Chromosome {
    /// An empty chromosome for `cores` cores with the given per-core
    /// node limit.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn empty(cores: usize, max_nodes_per_core: usize) -> Self {
        assert!(cores > 0 && max_nodes_per_core > 0);
        let slots = cores * max_nodes_per_core;
        let base = u128::from(mix64(cores as u64 ^ 0x5049_4D43_4F4D_5031))
            | (u128::from(mix64(max_nodes_per_core as u64 ^ 0x6368_726f_6d6f_736f)) << 64);
        Chromosome {
            mvms: vec![0; slots],
            ags: vec![0; slots],
            occupied: vec![0; slots.div_ceil(64)],
            cores,
            max_nodes_per_core,
            fp: base,
        }
    }

    /// The fingerprint contribution of one occupied slot: a 128-bit
    /// pseudo-random token of the `(slot, mvm, ag_count)` triple,
    /// XOR-combined into [`Chromosome::fingerprint`].
    fn slot_token(slot: usize, gene: Gene) -> u128 {
        let lo = mix64(
            mix64(mix64(slot as u64 ^ 0x243F_6A88_85A3_08D3) ^ gene.mvm as u64)
                ^ gene.ag_count as u64,
        );
        let hi = mix64(
            mix64(mix64(slot as u64 ^ 0x1319_8A2E_0370_7344) ^ gene.ag_count as u64)
                ^ gene.mvm as u64,
        );
        u128::from(lo) | (u128::from(hi) << 64)
    }

    #[inline]
    fn is_occupied(&self, slot: usize) -> bool {
        self.occupied[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Total slot count (`cores × max_node_num_in_core`).
    pub fn len(&self) -> usize {
        self.mvms.len()
    }

    /// `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&w| w == 0)
    }

    /// Core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Per-core node limit.
    pub fn max_nodes_per_core(&self) -> usize {
        self.max_nodes_per_core
    }

    /// The core a slot index belongs to.
    pub fn core_of_slot(&self, slot: usize) -> usize {
        slot / self.max_nodes_per_core
    }

    /// Slot range of a core.
    pub fn slots_of_core(&self, core: usize) -> std::ops::Range<usize> {
        core * self.max_nodes_per_core..(core + 1) * self.max_nodes_per_core
    }

    /// Gene in a slot.
    pub fn gene(&self, slot: usize) -> Option<Gene> {
        self.is_occupied(slot).then(|| Gene {
            mvm: self.mvms[slot],
            ag_count: self.ags[slot],
        })
    }

    /// Replaces a slot's content, returning the previous gene.
    pub fn set_gene(&mut self, slot: usize, gene: Option<Gene>) -> Option<Gene> {
        let prev = self.gene(slot);
        if let Some(g) = prev {
            self.fp ^= Self::slot_token(slot, g);
        }
        match gene {
            Some(g) => {
                self.fp ^= Self::slot_token(slot, g);
                self.mvms[slot] = g.mvm;
                self.ags[slot] = g.ag_count;
                self.occupied[slot / 64] |= 1u64 << (slot % 64);
            }
            None => {
                self.mvms[slot] = 0;
                self.ags[slot] = 0;
                self.occupied[slot / 64] &= !(1u64 << (slot % 64));
            }
        }
        prev
    }

    /// All `(slot, gene)` pairs in slot order. Iterates the occupancy
    /// bitset word-wise (skipping empty regions), so scans over sparse
    /// grids touch only occupied slots.
    pub fn genes(&self) -> impl Iterator<Item = (usize, Gene)> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(move |(word, &bits)| {
                let mut rest = bits;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(word * 64 + bit)
                })
            })
            .map(|slot| {
                (
                    slot,
                    Gene {
                        mvm: self.mvms[slot],
                        ag_count: self.ags[slot],
                    },
                )
            })
    }

    /// Genes of one core.
    pub fn genes_of_core(&self, core: usize) -> impl Iterator<Item = (usize, Gene)> + '_ {
        self.slots_of_core(core)
            .filter_map(|s| self.gene(s).map(|g| (s, g)))
    }

    /// First free slot of a core, if any.
    pub fn free_slot_of_core(&self, core: usize) -> Option<usize> {
        self.slots_of_core(core).find(|&s| !self.is_occupied(s))
    }

    /// Whether `slot` holds different content in `self` and `other`
    /// (the slot-level diff behind the GA's dirty-core re-evaluation;
    /// compares the SoA columns directly so no `Option` is built).
    pub(crate) fn slot_differs(&self, other: &Self, slot: usize) -> bool {
        let occ = self.is_occupied(slot);
        occ != other.is_occupied(slot)
            || (occ && (self.mvms[slot] != other.mvms[slot] || self.ags[slot] != other.ags[slot]))
    }

    /// Slot of a gene of `mvm` on `core`, if present.
    pub fn slot_of_node_on_core(&self, core: usize, mvm: MvmIdx) -> Option<usize> {
        self.genes_of_core(core)
            .find(|(_, g)| g.mvm == mvm)
            .map(|(s, _)| s)
    }

    /// Total AG instances of `mvm` across all cores.
    pub fn ag_total(&self, mvm: MvmIdx) -> usize {
        self.genes()
            .filter(|(_, g)| g.mvm == mvm)
            .map(|(_, g)| g.ag_count)
            .sum()
    }

    /// Crossbars used on each core under `partitioning`.
    pub fn used_crossbars(&self, partitioning: &Partitioning) -> Vec<usize> {
        let mut used = vec![0usize; self.cores];
        for (slot, gene) in self.genes() {
            used[self.core_of_slot(slot)] +=
                gene.ag_count * partitioning.entry(gene.mvm).crossbars_per_ag;
        }
        used
    }

    /// AG totals per node in a single pass over the genes.
    pub fn ag_totals(&self, partitioning: &Partitioning) -> Vec<usize> {
        let mut totals = vec![0usize; partitioning.len()];
        for (_, gene) in self.genes() {
            if gene.mvm < totals.len() {
                totals[gene.mvm] += gene.ag_count;
            }
        }
        totals
    }

    /// Checks the constraints the GA maintains, so a chromosome from
    /// outside the search (an artifact, a heuristic) materializes safely:
    /// a grid of exactly `cores` cores (the chip, or the budgeted core
    /// prefix in `weight_reload` mode — so no gene can sit outside it),
    /// non-empty genes naming existing nodes, per-core crossbars within
    /// `capacity`, and AG totals that are positive multiples of each
    /// node's AGs-per-replica.
    ///
    /// # Errors
    ///
    /// [`CompileError::MappingInvariant`] naming the first violation.
    pub fn check_placement(
        &self,
        partitioning: &Partitioning,
        cores: usize,
        capacity: usize,
    ) -> Result<(), CompileError> {
        let fail = |detail: String| Err(CompileError::MappingInvariant { detail });
        if self.cores != cores {
            return fail(format!(
                "chromosome grid has {} cores, the placement target has {cores}",
                self.cores
            ));
        }
        // A gene above `capacity` AGs overflows its core whatever its
        // width, so the per-core sums below cannot overflow.
        let nodes = partitioning.len();
        if let Some((slot, g)) = self
            .genes()
            .find(|(_, g)| g.mvm >= nodes || g.ag_count == 0 || g.ag_count > capacity)
        {
            return fail(format!(
                "gene in slot {slot} places {} AGs of node {} (the partitioning has \
                 {nodes} nodes, a core holds {capacity} crossbars)",
                g.ag_count, g.mvm
            ));
        }
        if let Some((core, used)) = self
            .used_crossbars(partitioning)
            .into_iter()
            .enumerate()
            .find(|&(_, used)| used > capacity)
        {
            return fail(format!(
                "core {core} holds {used} crossbars, its capacity is {capacity}"
            ));
        }
        self.replication(partitioning).map(drop)
    }

    /// Derives the replication plan implied by AG totals.
    ///
    /// # Errors
    ///
    /// [`CompileError::MappingInvariant`] when some node's AG total is
    /// zero or not a multiple of its AGs-per-replica.
    pub fn replication(
        &self,
        partitioning: &Partitioning,
    ) -> Result<ReplicationPlan, CompileError> {
        let totals = self.ag_totals(partitioning);
        let mut counts = Vec::with_capacity(partitioning.len());
        for (idx, &total) in totals.iter().enumerate() {
            let a = partitioning.entry(idx).ags_per_replica;
            if total == 0 || total % a != 0 {
                return Err(CompileError::MappingInvariant {
                    detail: format!(
                        "node {} ({}) has {total} AGs, not a positive multiple of {a}",
                        idx,
                        partitioning.entry(idx).name
                    ),
                });
            }
            counts.push(total / a);
        }
        Ok(ReplicationPlan::from_counts(partitioning, counts))
    }

    /// The paper's flat integer encoding of the whole chromosome
    /// (`0` for empty slots).
    pub fn to_codes(&self) -> Vec<u64> {
        (0..self.len())
            .map(|s| self.gene(s).map_or(0, |g| g.code()))
            .collect()
    }

    /// A 128-bit Zobrist-style fingerprint over the grid dimensions and
    /// every slot — the key of the GA's fitness memoization cache.
    ///
    /// The value is the XOR of a pseudo-random token per occupied slot
    /// (derived from the `(slot, mvm, ag_count)` triple by SplitMix64
    /// mixing) over a dimension-derived base, maintained incrementally
    /// by [`Chromosome::set_gene`] — reading it is O(1) no matter how
    /// large the grid is, which matters because the GA fingerprints
    /// every offspring.
    ///
    /// Equal chromosomes always produce equal fingerprints; at 128 bits
    /// the collision probability over a GA run's worth of distinct
    /// chromosomes (≤ 2^16 memo entries) is negligible.
    pub fn fingerprint(&self) -> u128 {
        self.fp
    }

    /// Rebuilds a chromosome from [`Chromosome::to_codes`] output.
    ///
    /// # Panics
    ///
    /// Panics if `codes` length is not `cores * max_nodes_per_core`.
    pub fn from_codes(codes: &[u64], cores: usize, max_nodes_per_core: usize) -> Self {
        assert_eq!(codes.len(), cores * max_nodes_per_core);
        let mut c = Chromosome::empty(cores, max_nodes_per_core);
        for (slot, &code) in codes.iter().enumerate() {
            c.set_gene(slot, Gene::from_code(code));
        }
        c
    }
}

/// One AG instance: a concrete `(node, replica, slice)` living on a
/// core. `slice` is the AG's position along the weight-matrix height;
/// partial sums of all slices of one replica accumulate at the replica's
/// owner core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgInstance {
    /// Which partitioned node.
    pub mvm: MvmIdx,
    /// Replica index within the node.
    pub replica: usize,
    /// AG index within the replica (weight-matrix row block).
    pub slice: usize,
    /// Core holding all of this AG's crossbars.
    pub core: usize,
}

/// The decoded mapping: concrete AG instances per core plus replica
/// accumulation owners.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreMapping {
    /// Replication plan the mapping realizes.
    pub replication: ReplicationPlan,
    /// All AG instances, grouped by node then replica then slice.
    pub instances: Vec<AgInstance>,
    /// Instance indices living on each core.
    pub per_core: Vec<Vec<usize>>,
    /// `owners[mvm][replica]` = core of the replica's first AG, where
    /// partial sums accumulate (paper Algorithm 1, line 7).
    pub owners: Vec<Vec<usize>>,
}

impl CoreMapping {
    /// Materializes a chromosome into concrete AG instances.
    ///
    /// Assignment is replica-aware: every gene first receives as many
    /// *whole* replicas as fit (`floor(ag_count / A)`), so those
    /// replicas accumulate entirely within one core; only the gene
    /// leftovers are pooled into split replicas. This minimizes the
    /// inter-core partial-sum synchronization of Algorithm 1 line 7.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError::MappingInvariant`] from
    /// [`Chromosome::replication`].
    pub fn from_chromosome(
        chromosome: &Chromosome,
        partitioning: &Partitioning,
    ) -> Result<Self, CompileError> {
        let replication = chromosome.replication(partitioning)?;
        let cores = chromosome.cores();
        let mut instances = Vec::new();
        let mut per_core = vec![Vec::new(); cores];
        let mut owners: Vec<Vec<usize>> = Vec::with_capacity(partitioning.len());

        for mvm in 0..partitioning.len() {
            let a = partitioning.entry(mvm).ags_per_replica;
            let r = replication.count(mvm);
            // Gene capacities in slot order.
            let gene_cores: Vec<(usize, usize)> = chromosome
                .genes()
                .filter(|(_, g)| g.mvm == mvm)
                .map(|(slot, g)| (chromosome.core_of_slot(slot), g.ag_count))
                .collect();
            let mut node_owners = vec![usize::MAX; r];
            let mut replica = 0usize;
            let push = |core: usize,
                        replica: usize,
                        slice: usize,
                        instances: &mut Vec<AgInstance>,
                        per_core: &mut Vec<Vec<usize>>,
                        node_owners: &mut Vec<usize>| {
                if slice == 0 {
                    node_owners[replica] = core;
                }
                let id = instances.len();
                instances.push(AgInstance {
                    mvm,
                    replica,
                    slice,
                    core,
                });
                per_core[core].push(id);
            };
            // Pass 1: whole replicas within single genes.
            let mut leftovers: Vec<(usize, usize)> = Vec::new(); // (core, count)
            for &(core, count) in &gene_cores {
                let whole = count / a;
                for _ in 0..whole {
                    for slice in 0..a {
                        push(
                            core,
                            replica,
                            slice,
                            &mut instances,
                            &mut per_core,
                            &mut node_owners,
                        );
                    }
                    replica += 1;
                }
                if count % a > 0 {
                    leftovers.push((core, count % a));
                }
            }
            // Pass 2: pool leftovers into split replicas.
            let mut slice = 0usize;
            for (core, count) in leftovers {
                for _ in 0..count {
                    push(
                        core,
                        replica,
                        slice,
                        &mut instances,
                        &mut per_core,
                        &mut node_owners,
                    );
                    slice += 1;
                    if slice == a {
                        slice = 0;
                        replica += 1;
                    }
                }
            }
            debug_assert_eq!(replica, r);
            debug_assert_eq!(slice, 0);
            owners.push(node_owners);
        }

        Ok(CoreMapping {
            replication,
            instances,
            per_core,
            owners,
        })
    }

    /// Materializes an epoch plan (`weight_reload` mode) into the same
    /// mapping shape the GA produces, overlaying all epochs: every AG
    /// instance keeps the core its epoch assigned it, and replication
    /// is fixed at 1 (duplication-free placement — time-multiplexed
    /// crossbars leave no room for replicas).
    ///
    /// Cores shared by several epochs are *physically* over-committed
    /// here — that is the point of weight reloading; capacity holds
    /// within each epoch, which [`EpochPlan::new`](crate::partition::EpochPlan::new) guarantees.
    /// Instances are ordered by node then slice, matching
    /// [`CoreMapping::from_chromosome`]'s node/replica/slice order.
    pub fn from_epoch_plan(
        plan: &crate::partition::EpochPlan,
        partitioning: &Partitioning,
        cores: usize,
    ) -> Self {
        let mut core_of = vec![Vec::new(); partitioning.len()];
        for (mvm, e) in partitioning.entries().iter().enumerate() {
            core_of[mvm] = vec![usize::MAX; e.ags_per_replica];
        }
        for epoch in &plan.epochs {
            for a in epoch {
                core_of[a.mvm][a.slice] = a.core;
            }
        }
        let mut instances = Vec::new();
        let mut per_core = vec![Vec::new(); cores];
        let mut owners = Vec::with_capacity(partitioning.len());
        for (mvm, slices) in core_of.iter().enumerate() {
            debug_assert!(!slices.contains(&usize::MAX), "epoch plan covers all AGs");
            owners.push(vec![slices[0]]);
            for (slice, &core) in slices.iter().enumerate() {
                let id = instances.len();
                instances.push(AgInstance {
                    mvm,
                    replica: 0,
                    slice,
                    core,
                });
                per_core[core].push(id);
            }
        }
        CoreMapping {
            replication: ReplicationPlan::ones(partitioning),
            instances,
            per_core,
            owners,
        }
    }

    /// Number of cores that host at least one AG.
    pub fn active_cores(&self) -> usize {
        self.per_core.iter().filter(|v| !v.is_empty()).count()
    }

    /// Cores (deduplicated, sorted) hosting AGs of `(mvm, replica)`.
    pub fn replica_cores(&self, mvm: MvmIdx, replica: usize) -> Vec<usize> {
        let mut cores: Vec<usize> = self
            .instances
            .iter()
            .filter(|i| i.mvm == mvm && i.replica == replica)
            .map(|i| i.core)
            .collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// Checks that the mapping realizes its replication plan on `cores`
    /// cores: a positive replica count and one in-range owner per
    /// replica for every node, one instance per `(node, replica, slice)`
    /// Array Group on a core below `cores`, and a per-core index that
    /// agrees with the instances — everything the simulator and the
    /// functional executor index (see
    /// [`CompiledModel::validate`](crate::CompiledModel::validate)).
    ///
    /// # Errors
    ///
    /// [`CompileError::MappingInvariant`] describing the first violation.
    pub fn validate(&self, partitioning: &Partitioning, cores: usize) -> Result<(), CompileError> {
        let fail = |detail: String| Err(CompileError::MappingInvariant { detail });
        let entries = partitioning.entries();
        let counts = self.replication.counts();
        if counts.len() != entries.len() {
            return fail(format!(
                "replication plan covers {} nodes, partitioning has {}",
                counts.len(),
                entries.len()
            ));
        }
        if self.owners.len() != entries.len() {
            return fail(format!(
                "owner table covers {} nodes, partitioning has {}",
                self.owners.len(),
                entries.len()
            ));
        }
        for (mvm, (owners, &r)) in self.owners.iter().zip(counts).enumerate() {
            if r == 0 || owners.len() != r {
                return fail(format!(
                    "node {mvm} has {} owners for {r} replicas",
                    owners.len()
                ));
            }
            if let Some(core) = owners.iter().find(|&&c| c >= cores) {
                return fail(format!(
                    "node {mvm} accumulates on core {core}, the target has {cores} cores"
                ));
            }
        }

        // placed[mvm][replica * A + slice]: seen an instance yet?
        let mut placed: Vec<Vec<bool>> = entries
            .iter()
            .zip(counts)
            .map(|(e, &r)| vec![false; r.saturating_mul(e.ags_per_replica)])
            .collect();
        for inst in &self.instances {
            let (mvm, r, s) = (inst.mvm, inst.replica, inst.slice);
            let Some(a) = entries.get(mvm).map(|e| e.ags_per_replica) else {
                return fail(format!("AG instance names node {mvm} of {}", entries.len()));
            };
            if r >= counts[mvm] || s >= a {
                return fail(format!(
                    "AG instance (node {mvm}, replica {r}, slice {s}) is outside \
                     replication {} × {a} AGs per replica",
                    counts[mvm]
                ));
            }
            if inst.core >= cores {
                return fail(format!(
                    "AG instance (node {mvm}, replica {r}, slice {s}) is mapped to core {}, \
                     the target has {cores} cores",
                    inst.core
                ));
            }
            if std::mem::replace(&mut placed[mvm][r * a + s], true) {
                return fail(format!(
                    "duplicate AG instance (node {mvm}, replica {r}, slice {s})"
                ));
            }
        }
        for (mvm, seen) in placed.iter().enumerate() {
            if let Some(k) = seen.iter().position(|&b| !b) {
                let a = entries[mvm].ags_per_replica;
                return fail(format!(
                    "no AG instance for node {mvm}, replica {}, slice {}",
                    k / a,
                    k % a
                ));
            }
        }
        for (core, ids) in self.per_core.iter().enumerate() {
            if let Some(id) = ids
                .iter()
                .find(|&&id| self.instances.get(id).map(|i| i.core) != Some(core))
            {
                return fail(format!("instance {id} mis-indexed on core {core}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_arch::HardwareConfig;
    use pimcomp_ir::GraphBuilder;

    fn part() -> Partitioning {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 28, 28]);
        // 3x3x64 -> 576 rows -> 5 AGs; 64 cols -> 4 crossbars/AG.
        let c1 = b.conv2d("c1", x, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let _c2 = b.conv2d("c2", c1, 32, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        Partitioning::new(&g, &HardwareConfig::puma()).unwrap()
    }

    #[test]
    fn gene_code_round_trip_matches_paper_format() {
        let g = Gene {
            mvm: 103,
            ag_count: 25,
        };
        assert_eq!(g.code(), 1_030_025);
        assert_eq!(Gene::from_code(1_030_025), Some(g));
        assert_eq!(Gene::from_code(0), None);
        assert_eq!(Gene::from_code(1_030_000), None);
    }

    #[test]
    fn chromosome_slot_to_core_arithmetic() {
        let c = Chromosome::empty(4, 3);
        assert_eq!(c.len(), 12);
        assert_eq!(c.core_of_slot(0), 0);
        assert_eq!(c.core_of_slot(2), 0);
        assert_eq!(c.core_of_slot(3), 1);
        assert_eq!(c.slots_of_core(2), 6..9);
    }

    fn filled() -> (Chromosome, Partitioning) {
        let p = part();
        let mut c = Chromosome::empty(4, 2);
        // Node 0: 5 AGs per replica, 2 replicas = 10 AGs: 6 on core 0, 4 on core 1.
        c.set_gene(
            0,
            Some(Gene {
                mvm: 0,
                ag_count: 6,
            }),
        );
        c.set_gene(
            2,
            Some(Gene {
                mvm: 0,
                ag_count: 4,
            }),
        );
        // Node 1: 5 AGs per replica, 1 replica on core 2.
        c.set_gene(
            4,
            Some(Gene {
                mvm: 1,
                ag_count: 5,
            }),
        );
        (c, p)
    }

    #[test]
    fn replication_is_derived_from_ag_totals() {
        let (c, p) = filled();
        let plan = c.replication(&p).unwrap();
        assert_eq!(plan.count(0), 2);
        assert_eq!(plan.count(1), 1);
    }

    #[test]
    fn non_multiple_ag_total_is_an_invariant_violation() {
        let (mut c, p) = filled();
        c.set_gene(
            2,
            Some(Gene {
                mvm: 0,
                ag_count: 3,
            }),
        ); // total 9, not /5
        assert!(matches!(
            c.replication(&p),
            Err(CompileError::MappingInvariant { .. })
        ));
    }

    #[test]
    fn mapping_materializes_instances_and_owners() {
        let (c, p) = filled();
        let m = CoreMapping::from_chromosome(&c, &p).unwrap();
        m.validate(&p, c.cores()).unwrap();
        // Node 0: replica 0 entirely on core 0 (6 >= 5); replica 1
        // split: slice 0 on core 0 (the 6th AG), slices 1-4 on core 1.
        assert_eq!(m.owners[0], vec![0, 0]);
        assert_eq!(m.replica_cores(0, 0), vec![0]);
        assert_eq!(m.replica_cores(0, 1), vec![0, 1]);
        assert_eq!(m.owners[1], vec![2]);
        assert_eq!(m.active_cores(), 3);
    }

    #[test]
    fn used_crossbars_accounts_ag_width() {
        let (c, p) = filled();
        let used = c.used_crossbars(&p);
        // Node 0: 4 xbars/AG; node 1: 2 xbars/AG (32 cols / 16).
        assert_eq!(used[0], 6 * 4);
        assert_eq!(used[1], 4 * 4);
        assert_eq!(used[2], 5 * 2);
        assert_eq!(used[3], 0);
    }

    #[test]
    fn codes_round_trip() {
        let (c, _) = filled();
        let codes = c.to_codes();
        let c2 = Chromosome::from_codes(&codes, 4, 2);
        assert_eq!(c, c2);
    }

    #[test]
    fn fingerprint_is_path_independent() {
        // The incrementally maintained fingerprint must depend only on
        // the final content, not on the set_gene history.
        let (c, _) = filled();
        let rebuilt = Chromosome::from_codes(&c.to_codes(), 4, 2);
        assert_eq!(c.fingerprint(), rebuilt.fingerprint());

        // Scribble over a slot and restore it: fingerprint returns.
        let mut d = c.clone();
        let before = d.fingerprint();
        let old = d.set_gene(
            1,
            Some(Gene {
                mvm: 1,
                ag_count: 3,
            }),
        );
        assert_ne!(d.fingerprint(), before);
        d.set_gene(1, old);
        assert_eq!(d.fingerprint(), before);
        assert_eq!(d, c);

        // Distinct grids (even with identical flattened content) and
        // distinct slots disagree.
        assert_ne!(
            Chromosome::empty(4, 2).fingerprint(),
            Chromosome::empty(2, 4).fingerprint()
        );
        let mut a = Chromosome::empty(4, 2);
        let mut b = Chromosome::empty(4, 2);
        a.set_gene(
            0,
            Some(Gene {
                mvm: 0,
                ag_count: 1,
            }),
        );
        b.set_gene(
            1,
            Some(Gene {
                mvm: 0,
                ag_count: 1,
            }),
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn serde_keeps_the_array_of_options_wire_format() {
        let mut c = Chromosome::empty(2, 2);
        c.set_gene(
            2,
            Some(Gene {
                mvm: 7,
                ag_count: 3,
            }),
        );
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(
            json,
            r#"{"slots":[null,null,{"mvm":7,"ag_count":3},null],"cores":2,"max_nodes_per_core":2}"#
        );
        let back: Chromosome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.fingerprint(), c.fingerprint());

        // A grid/slot-count mismatch is a deserialization error, not a
        // panic or a silently corrupted chromosome.
        let bad = r#"{"slots":[null,null],"cores":2,"max_nodes_per_core":2}"#;
        assert!(serde_json::from_str::<Chromosome>(bad).is_err());
    }
}
