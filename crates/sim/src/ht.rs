//! Event-driven high-throughput simulator.
//!
//! Executes the per-core round programs of an
//! [`HtSchedule`](pimcomp_core::HtSchedule), modelling:
//!
//! * **structural conflicts** — consecutive MVMs on the same AG
//!   serialize on its crossbars;
//! * **issue bandwidth** — MVM launches within a core are spaced by
//!   `T_interval` (the parallelism-degree knob);
//! * **global-memory contention** — one FCFS port shared by all cores,
//!   acquired strictly in event-time order (no future reservations, so
//!   a slow core cannot convoy the whole machine);
//! * **inter-core synchronization** — partial-sum accumulation at each
//!   replica's owner core blocks on NoC message arrival;
//! * **memory-policy spills** — working sets beyond local capacity add
//!   write-out/read-back traffic every round.
//!
//! In HT mode different layers process different inferences, so each
//! core's program is internally independent; the steady-state pipeline
//! interval is the bottleneck core's completion time, and throughput is
//! its reciprocal.
//!
//! # Event queue
//!
//! A queue entry `(t, core, n)` stands for `n` wake-ups of `core` at
//! time `t`, and each wake-up runs at most one ready item. The
//! multiplicity is part of the model: `n` wake-ups let the core start
//! up to `n` items at `t`, and a wake-up that finds nothing ready
//! re-arms at the core's earliest blocked item. Forcing `n` to 1 (a
//! set of pending wake-ups) changes the simulated machine: at batch 2
//! with a 30×40 GA, googlenet went from 535,518 to 531,006 cycles and
//! inception_v3 from 813,092 to 808,874. What the queue does save is the repeated
//! work: equal keys are merged when popped, wake-ups run one by one
//! until the first idle one, and since an idle wake-up leaves the state
//! untouched, it and every other wake-up of that key move to the wake
//! time as one entry. The wake-ups left after one that ran go back to
//! the queue, so anything it pushed ahead of their key still pops
//! first and items run in the order single wake-ups would pop. The
//! divergence budget counts wake-ups, not entries.

use crate::report::Tally;
use crate::resources::{ActivitySpan, BandwidthServer};
use crate::SimError;
use pimcomp_arch::{EnergyModel, HardwareConfig, NocModel};
use pimcomp_core::{CompiledModel, HtSchedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-program execution phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Next round's load + MVMs + local adds still to run.
    Compute { round: usize },
    /// Local work of `round` done at `ready`; waiting for partials.
    AwaitPartials { round: usize, ready: u64 },
    /// Computation of `round` done at `at`; the result store is issued
    /// once simulated time reaches `at` (keeps the shared port causal).
    StorePending { round: usize, at: u64 },
    /// All rounds complete.
    Done,
}

/// Per-vec-task execution phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VecPhase {
    NotStarted,
    StorePending { at: u64 },
    Done,
}

/// Event-queue work of one run, kept out of the
/// [`SimReport`](crate::SimReport) so observing it never changes report
/// bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QueueStats {
    /// Queue keys the event body processed: one per wake-up that ran
    /// an item, plus one per key whose remaining wake-ups were idle.
    pub(crate) processed: u64,
    /// Wake-ups that ran an item.
    pub(crate) ran: u64,
}

/// One global-memory port per chip (Table I: 4 MB global memory per
/// chip); cores contend within their chip.
struct GlobalMemory<'a> {
    hw: &'a HardwareConfig,
    ports: Vec<BandwidthServer>,
}

impl GlobalMemory<'_> {
    /// Moves `bytes` between `core`'s local memory and global memory,
    /// starting at `now`; returns when the transfer ends, which is
    /// `now` when there is nothing to move.
    fn transfer(&mut self, tally: &mut Tally, core: usize, now: u64, bytes: usize) -> u64 {
        if bytes == 0 {
            return now;
        }
        tally.global_bytes += bytes as u64;
        tally.local_bytes += bytes as u64;
        self.ports[core / self.hw.cores_per_chip].acquire(now, self.hw.global_memory_cycles(bytes))
    }
}

/// Runs the HT simulation of `compiled`, whose schedule is `schedule`.
pub(crate) fn run(
    compiled: &CompiledModel,
    schedule: &HtSchedule,
    energy_model: &EnergyModel,
) -> Result<(Tally, QueueStats), SimError> {
    let hw = &compiled.hw;
    let noc = NocModel::new(hw);
    let cores = hw.total_cores();
    let t_int = hw.issue_interval();
    let t_mvm = hw.mvm_latency;

    // Owner-program index: (core, mvm) -> program id, as a dense table
    // (the event loop probes it once per partial-sum send; a hash map
    // here costs a SipHash per probe for nothing).
    let mvm_stride = schedule
        .programs
        .iter()
        .map(|p| p.mvm + 1)
        .max()
        .unwrap_or(0);
    let mut prog_at: Vec<usize> = vec![usize::MAX; cores * mvm_stride];
    for (i, p) in schedule.programs.iter().enumerate() {
        prog_at[p.core * mvm_stride + p.mvm] = i;
    }

    let mut phase: Vec<Phase> = schedule
        .programs
        .iter()
        .map(|p| {
            if p.rounds == 0 {
                Phase::Done
            } else {
                Phase::Compute { round: 0 }
            }
        })
        .collect();
    let mut vec_phase = vec![VecPhase::NotStarted; schedule.vec_tasks.len()];

    // Partial-sum arrivals per owner program, indexed by round:
    // `partials[pid][round] = (count, latest)`. Senders may run many
    // rounds ahead of the owner, so the per-program table grows lazily
    // to the highest round touched; a consumed round is reset to (0, 0)
    // (indistinguishable from "never arrived", which is what the
    // `< recvs_per_round` checks below rely on).
    let mut partials: Vec<Vec<(usize, u64)>> = vec![Vec::new(); schedule.programs.len()];
    let partials_at = |partials: &Vec<Vec<(usize, u64)>>, pid: usize, round: usize| {
        partials[pid].get(round).copied().unwrap_or((0, 0))
    };

    let mut global_mem = GlobalMemory {
        hw,
        ports: (0..hw.chips).map(|_| BandwidthServer::new()).collect(),
    };
    let mut issue_free = vec![0u64; cores];
    let mut vfu_free = vec![0u64; cores];
    let mut ag_free: Vec<u64> = vec![0; compiled.mapping.instances.len()];
    let mut spans: Vec<ActivitySpan> = vec![ActivitySpan::default(); cores];
    let mut cursor = vec![0usize; cores];

    let mut tally = Tally::default();

    // Ready queue of `(t, core, n)` entries; cores with work start at
    // t=0 (see the module docs for what the count means).
    let mut queue: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
    for core in 0..cores {
        if !schedule.per_core[core].is_empty() || !schedule.vec_per_core[core].is_empty() {
            queue.push(Reverse((0, core, 1)));
        }
    }

    let spill = &compiled.memory.spill_bytes_per_round;
    // The budget counts wake-ups, so it trips at the same point however
    // they are grouped into entries.
    let mut guard: u64 = 0;
    let guard_limit: u64 = 400_000_000;
    let diverged = || SimError::Diverged {
        detail: "HT event budget exceeded".into(),
    };
    let mut stats = QueueStats::default();

    while let Some(Reverse((now, core, mut units))) = queue.pop() {
        while let Some(&Reverse((t, c, n))) = queue.peek() {
            if (t, c) != (now, core) {
                break;
            }
            queue.pop();
            units = units.saturating_add(n);
        }
        guard += 1;
        stats.processed += 1;
        if guard > guard_limit {
            return Err(diverged());
        }

        let items = &schedule.per_core[core];
        let vecs = &schedule.vec_per_core[core];
        let total_items = items.len() + vecs.len();
        let mut ran = false;

        for step in 0..total_items {
            let pick = (cursor[core] + step) % total_items;
            if pick < items.len() {
                let pid = items[pick];
                let p = &schedule.programs[pid];
                match phase[pid] {
                    Phase::Done => continue,
                    Phase::StorePending { round, at } => {
                        if now < at {
                            continue; // an event at `at` is queued
                        }
                        let t_store =
                            global_mem.transfer(&mut tally, core, now, p.store_bytes_per_round);
                        spans[core].record(now, t_store);
                        phase[pid] = if round + 1 >= p.rounds {
                            Phase::Done
                        } else {
                            Phase::Compute { round: round + 1 }
                        };
                        cursor[core] = (pick + 1) % total_items;
                        queue.push(Reverse((t_store.max(now + 1), core, 1)));
                        ran = true;
                        break;
                    }
                    Phase::AwaitPartials { round, ready } => {
                        let got = partials_at(&partials, pid, round);
                        if got.0 < p.recvs_per_round {
                            continue; // message arrival re-queues us
                        }
                        // Remote adds + activation.
                        let start = ready.max(got.1).max(now);
                        let add_elems = (p.recvs_per_round + 1)
                            * compiled.partitioning.entry(p.mvm).weight_width
                            * schedule.batch;
                        let t_vfu = vfu_free[core].max(start) + hw.vfu_cycles(add_elems);
                        vfu_free[core] = t_vfu;
                        tally.vfu_elems += add_elems as u64;
                        partials[pid][round] = (0, 0);
                        spans[core].record(start, t_vfu);
                        phase[pid] = Phase::StorePending { round, at: t_vfu };
                        cursor[core] = (pick + 1) % total_items;
                        queue.push(Reverse((t_vfu.max(now + 1), core, 1)));
                        ran = true;
                        break;
                    }
                    Phase::Compute { round } => {
                        // 1. Load inputs (plus this core's spill share),
                        //    acquired at the current event time.
                        let spill_extra = 2 * spill[core] / items.len().max(1);
                        let load_b = p.load_bytes_per_round + spill_extra;
                        let t_load = global_mem.transfer(&mut tally, core, now, load_b);
                        // 2. MVMs: batch per AG, issued at T_interval
                        //    spacing, serialized per AG's crossbars.
                        let n = p.ag_instances.len();
                        let base = issue_free[core].max(t_load);
                        let mut t_mvm_end = base;
                        let mut k = 0u64;
                        for _b in 0..schedule.batch {
                            for &inst in &p.ag_instances {
                                let issue = base + k * t_int;
                                let start = issue.max(ag_free[inst]);
                                let end = start + t_mvm;
                                ag_free[inst] = end;
                                t_mvm_end = t_mvm_end.max(end);
                                k += 1;
                            }
                        }
                        issue_free[core] = base + k * t_int;
                        tally.mvm_ops += (n * schedule.batch) as u64;
                        let xb = compiled.partitioning.entry(p.mvm).crossbars_per_ag as u64;
                        tally.crossbar_mvms += (n * schedule.batch) as u64 * xb;
                        tally.local_bytes += p.load_bytes_per_round as u64; // crossbar input reads

                        // 3. Local adds (owner's remote adds + act are
                        //    costed in the AwaitPartials phase).
                        let remote_elems = (p.recvs_per_round + usize::from(p.recvs_per_round > 0))
                            * compiled.partitioning.entry(p.mvm).weight_width
                            * schedule.batch;
                        let local_add_elems = p.vec_elems_per_round.saturating_sub(remote_elems);
                        let t_adds = if local_add_elems > 0 {
                            let t = vfu_free[core].max(t_mvm_end) + hw.vfu_cycles(local_add_elems);
                            vfu_free[core] = t;
                            tally.vfu_elems += local_add_elems as u64;
                            t
                        } else {
                            t_mvm_end
                        };
                        spans[core].record(now, t_adds);

                        // 4. Push partials to owner cores.
                        for s in &p.sends_per_round {
                            let arr = t_adds + noc.transfer_cycles(core, s.to_core, s.bytes);
                            tally.noc_bytes += s.bytes as u64;
                            tally.noc_pj += noc.transfer_energy_pj(core, s.to_core, s.bytes);
                            let owner_pid = prog_at[s.to_core * mvm_stride + p.mvm];
                            if owner_pid != usize::MAX {
                                let table = &mut partials[owner_pid];
                                if table.len() <= round {
                                    table.resize(round + 1, (0, 0));
                                }
                                let e = &mut table[round];
                                e.0 += 1;
                                e.1 = e.1.max(arr);
                                queue.push(Reverse((arr, s.to_core, 1)));
                            }
                        }

                        // 5. Owner waits for partials; non-owners (and
                        //    ownerless rounds) go straight to the store.
                        phase[pid] = if p.recvs_per_round > 0 {
                            Phase::AwaitPartials {
                                round,
                                ready: t_adds,
                            }
                        } else {
                            Phase::StorePending { round, at: t_adds }
                        };
                        cursor[core] = (pick + 1) % total_items;
                        // The program's own chain resumes at t_adds...
                        queue.push(Reverse((t_adds.max(now + 1), core, 1)));
                        // ...but the control unit is free to issue the
                        // next program's MVMs as soon as the issue
                        // bandwidth clears — crossbars of different
                        // programs crunch concurrently (Fig. 5's f(n)).
                        queue.push(Reverse((issue_free[core].max(now + 1), core, 1)));
                        ran = true;
                        break;
                    }
                }
            } else {
                let vid = vecs[pick - items.len()];
                let t = &schedule.vec_tasks[vid];
                match vec_phase[vid] {
                    VecPhase::Done => continue,
                    VecPhase::StorePending { at } => {
                        if now < at {
                            continue;
                        }
                        let t_store = global_mem.transfer(&mut tally, core, now, t.store_bytes);
                        vec_phase[vid] = VecPhase::Done;
                        spans[core].record(now, t_store);
                        cursor[core] = (pick + 1) % total_items;
                        queue.push(Reverse((t_store.max(now + 1), core, 1)));
                        ran = true;
                        break;
                    }
                    VecPhase::NotStarted => {
                        let t_load = global_mem.transfer(&mut tally, core, now, t.load_bytes);
                        let t_vfu = vfu_free[core].max(t_load) + hw.vfu_cycles(t.elems);
                        vfu_free[core] = t_vfu;
                        tally.vfu_elems += t.elems as u64;
                        vec_phase[vid] = VecPhase::StorePending { at: t_vfu };
                        spans[core].record(now, t_vfu);
                        cursor[core] = (pick + 1) % total_items;
                        queue.push(Reverse((t_vfu.max(now + 1), core, 1)));
                        // The VFU work runs on its own unit; the core
                        // may continue with other programs meanwhile.
                        queue.push(Reverse((t_load.max(now + 1), core, 1)));
                        ran = true;
                        break;
                    }
                }
            }
        }

        if ran {
            stats.ran += 1;
            if units > 1 {
                // Back through the queue, so an entry this wake-up
                // pushed ahead of `(now, core)` still pops first.
                queue.push(Reverse((now, core, units - 1)));
            }
        } else {
            // Everything done or blocked; blocked programs are woken by
            // message arrivals or their own scheduled store events. An
            // idle wake-up changes nothing, so the key's other wake-ups
            // would be idle too: they all move to the wake time at once.
            guard = guard.saturating_add(units - 1);
            if guard > guard_limit {
                return Err(diverged());
            }
            let mut wake_at: Option<u64> = None;
            for &pid in items {
                match phase[pid] {
                    Phase::AwaitPartials { round, ready } => {
                        let p = &schedule.programs[pid];
                        let (cnt, arr) = partials_at(&partials, pid, round);
                        if cnt >= p.recvs_per_round {
                            let t = arr.max(ready).max(now + 1);
                            wake_at = Some(wake_at.map_or(t, |w: u64| w.min(t)));
                        }
                    }
                    Phase::StorePending { at, .. } if at > now => {
                        wake_at = Some(wake_at.map_or(at, |w: u64| w.min(at)));
                    }
                    _ => {}
                }
            }
            for &vid in vecs {
                if let VecPhase::StorePending { at } = vec_phase[vid] {
                    if at > now {
                        wake_at = Some(wake_at.map_or(at, |w: u64| w.min(at)));
                    }
                }
            }
            if let Some(t) = wake_at {
                queue.push(Reverse((t, core, units)));
            }
        }
    }

    // Verify completion (a stuck owner would show up here).
    for (pid, st) in phase.iter().enumerate() {
        if *st != Phase::Done {
            return Err(SimError::Deadlock {
                detail: format!(
                    "program {pid} (node {}, core {}) did not finish: {:?}",
                    schedule.programs[pid].mvm, schedule.programs[pid].core, st
                ),
            });
        }
    }
    for (vid, st) in vec_phase.iter().enumerate() {
        if *st != VecPhase::Done {
            return Err(SimError::Deadlock {
                detail: format!("vec task {vid} did not finish: {st:?}"),
            });
        }
    }

    let per_core_busy: Vec<u64> = spans.iter().map(|s| s.last_end()).collect();
    let pipeline_interval = per_core_busy.iter().copied().max().unwrap_or(0);

    // Leakage: each active core leaks over its own activity span (in HT
    // an early-finishing core powers down); global memory and routers
    // leak over the whole makespan.
    let mut leak = 0.0;
    for s in &spans {
        if s.is_active() {
            leak += energy_model.leakage_pj(
                energy_model.leakage.core_mw + energy_model.leakage.router_mw,
                s.span(),
            );
        }
    }
    leak += energy_model.leakage_pj(
        energy_model.leakage.global_memory_mw * hw.chips as f64,
        pipeline_interval,
    );

    let tally = Tally {
        cycles: pipeline_interval,
        leakage_pj: leak,
        active_cores: spans.iter().filter(|s| s.is_active()).count(),
        per_core_busy,
        ..tally
    };
    Ok((tally, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_arch::{ComponentLibrary, HardwareConfig, PipelineMode};
    use pimcomp_core::{CompileOptions, CompileSession};

    #[test]
    fn duplicate_wake_ups_are_not_reprocessed() {
        // googlenet at batch 2 piles up duplicate wake-ups: popping
        // each one separately processes 1,831,807 keys to run the same
        // 39,170 items.
        let graph = pimcomp_ir::models::googlenet();
        let mut hw = HardwareConfig::puma();
        hw.chips = pimcomp_core::sized_chips(&graph, &hw, 2.0).unwrap();
        hw.parallelism = 20;
        let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(7);
        let compiled = CompileSession::new(hw.clone(), &graph, opts)
            .unwrap()
            .run()
            .unwrap();
        let energy = EnergyModel::derive(&hw, &ComponentLibrary::puma());
        let schedule = compiled.schedule.as_ht().unwrap();
        let (_, stats) = run(&compiled, schedule, &energy).unwrap();
        assert!(stats.ran > 0);
        assert!(
            stats.processed <= 3 * stats.ran,
            "{} queue keys processed to run {} items",
            stats.processed,
            stats.ran
        );
    }
}
