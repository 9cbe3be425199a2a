//! Event-driven low-latency simulator.
//!
//! Executes the streaming pipeline of an
//! [`LlSchedule`](pimcomp_core::LlSchedule) at sliding-window
//! granularity: a consumer window starts once the receptive-window
//! prefix `(rd, cd)` of every provider is complete (paper §IV-D.2).
//! Modelled effects:
//!
//! * per-core MVM issue spacing (`T_interval`, the parallelism degree);
//! * per-replica crossbar occupancy (a replica's next window cannot
//!   start its MVMs before the previous window's crossbars free up);
//! * VFU serialization per core;
//! * NoC delay for partial-sum accumulation and inter-node forwarding;
//! * strided window assignment across replicas, so a node's output
//!   prefix completes smoothly.

use crate::report::{whole_run_leakage_pj, Tally};
use crate::resources::ActivitySpan;
use crate::SimError;
use pimcomp_arch::{EnergyModel, NocModel};
use pimcomp_core::{CompiledModel, LlSchedule, LlUnitKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-replica runtime state.
#[derive(Debug, Clone)]
struct ReplicaRt {
    /// Windows completed by this replica.
    done: usize,
    /// Base time of the previous window's MVM issue group, aligned by
    /// position with the replica's `ags_per_core` list (cores are
    /// unique within a replica); `u64::MAX` = no previous window.
    /// Crossbar pipelining: next window's MVMs start ≥ prev + T_MVM.
    prev_base: Vec<u64>,
}

/// Runs the LL simulation of `compiled`, whose schedule is `schedule`.
pub(crate) fn run(
    compiled: &CompiledModel,
    schedule: &LlSchedule,
    energy_model: &EnergyModel,
) -> Result<Tally, SimError> {
    let hw = &compiled.hw;
    let noc = NocModel::new(hw);
    let cores = hw.total_cores();
    let eb = hw.input_bytes_per_element();
    let t_int = hw.issue_interval();
    let t_mvm = hw.mvm_latency;
    let units = &schedule.units;

    // Runtime state.
    let mut reps: Vec<Vec<ReplicaRt>> = units
        .iter()
        .map(|u| {
            u.replicas
                .iter()
                .map(|r| ReplicaRt {
                    done: 0,
                    prev_base: vec![u64::MAX; r.ags_per_core.len()],
                })
                .collect()
        })
        .collect();
    let mut issue_free = vec![0u64; cores];
    let mut vfu_free = vec![0u64; cores];
    let mut spans: Vec<ActivitySpan> = vec![ActivitySpan::default(); cores];

    // Node production prefixes (windows complete in row-major prefix)
    // and waiter lists, both dense by node index — the event loop hits
    // them on every dependency check and wake-up.
    let node_count = compiled.graph.node_count();
    let mut node_prefix: Vec<usize> = vec![0; node_count];
    // Waiters: node index -> (unit, replica, threshold).
    let mut waiters: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); node_count];
    // Dense view of the schedule's units-of-node map, resolved once.
    let empty_units: Vec<usize> = Vec::new();
    let units_by_node: Vec<&[usize]> = (0..node_count)
        .map(|i| {
            schedule
                .units_of_node
                .get(&i)
                .map_or(empty_units.as_slice(), |v| v.as_slice())
        })
        .collect();

    // Counters.
    let mut mvm_ops = 0u64;
    let mut crossbar_mvms = 0u64;
    let mut vfu_elems = 0u64;
    let mut noc_bytes = 0u64;
    let mut noc_pj = 0f64;
    let mut local_bytes = 0u64;

    // Pre-computed per-unit inbound forwarding delay (provider owner ->
    // consumer owner, one window's payload).
    let dep_delay: Vec<u64> = units
        .iter()
        .map(|u| {
            let dst = u.replicas.first().map_or(0, |r| r.owner);
            u.providers
                .iter()
                .map(|p| {
                    let p_units = schedule.units_of(p.node);
                    let src = p_units
                        .first()
                        .and_then(|&pu| units[pu].replicas.first())
                        .map_or(dst, |r| r.owner);
                    let bytes = p_units
                        .first()
                        .map_or(0, |&pu| units[pu].elems_per_window * eb);
                    noc.transfer_cycles(src, dst, bytes)
                })
                .max()
                .unwrap_or(0)
        })
        .collect();

    let mut queue: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    for (uid, u) in units.iter().enumerate() {
        for (k, r) in u.replicas.iter().enumerate() {
            if r.windows > 0 {
                queue.push(Reverse((0, uid, k)));
            }
        }
    }

    let mut last_done: u64 = 0;
    let mut guard: u64 = 0;
    let guard_limit: u64 = 500_000_000;

    while let Some(Reverse((now, uid, k))) = queue.pop() {
        guard += 1;
        if guard > guard_limit {
            return Err(SimError::Diverged {
                detail: "LL event budget exceeded".into(),
            });
        }
        let u = &units[uid];
        let rep_spec = &u.replicas[k];
        let r_count = u.replicas.len();
        let done = reps[uid][k].done;
        if done >= rep_spec.windows {
            continue;
        }
        let j = k + done * r_count; // global window index (strided)

        // Dependency check.
        let ready = now;
        let mut blocked = false;
        for p in &u.providers {
            let req = compiled
                .dep
                .required_windows(&compiled.graph, u.node, p.node, j);
            let have = node_prefix[p.node.index()];
            if have < req {
                waiters[p.node.index()].push((uid, k, req));
                blocked = true;
                break;
            }
        }
        if blocked {
            continue;
        }

        // Execute the window.
        let t_done = match u.kind {
            LlUnitKind::Mvm { mvm } => {
                let entry = compiled.partitioning.entry(mvm);
                let mut mvm_end = ready;
                for (pos, &(core, count)) in rep_spec.ags_per_core.iter().enumerate() {
                    let prev = reps[uid][k].prev_base[pos];
                    let mut base = ready.max(issue_free[core]);
                    if prev != u64::MAX {
                        base = base.max(prev + t_mvm);
                    }
                    issue_free[core] = base + count as u64 * t_int;
                    reps[uid][k].prev_base[pos] = base;
                    let end = base + (count as u64 - 1) * t_int + t_mvm;
                    mvm_end = mvm_end.max(end);
                    spans[core].record(base, end);
                    mvm_ops += count as u64;
                    crossbar_mvms += count as u64 * entry.crossbars_per_ag as u64;
                }
                // Partial sums from remote cores to the owner.
                let owner = rep_spec.owner;
                let mut arrive = mvm_end;
                for &(core, _) in &rep_spec.ags_per_core {
                    if core != owner {
                        let bytes = entry.weight_width * eb;
                        arrive = arrive.max(mvm_end + noc.transfer_cycles(core, owner, bytes));
                        noc_bytes += bytes as u64;
                        noc_pj += noc.transfer_energy_pj(core, owner, bytes);
                    }
                }
                // Accumulate + activate on the owner's VFU.
                let w = u.vfu_elems_per_window;
                let t = vfu_free[owner].max(arrive) + hw.vfu_cycles(w);
                vfu_free[owner] = t;
                vfu_elems += w as u64;
                local_bytes += (entry.weight_height + entry.weight_width) as u64 * eb as u64;
                spans[owner].record(arrive, t);
                t
            }
            LlUnitKind::Vector => {
                let owner = rep_spec.owner;
                let w = u.vfu_elems_per_window;
                if w == 0 {
                    ready
                } else {
                    let t = vfu_free[owner].max(ready) + hw.vfu_cycles(w);
                    vfu_free[owner] = t;
                    vfu_elems += w as u64;
                    local_bytes += (2 * u.elems_per_window * eb) as u64;
                    spans[owner].record(ready, t);
                    t
                }
            }
        };

        reps[uid][k].done += 1;
        last_done = last_done.max(t_done);

        // Update the node's production prefix and wake waiters.
        let prefix = node_prefix_of(units, units_by_node[u.node.index()], &reps);
        let old = node_prefix[u.node.index()];
        node_prefix[u.node.index()] = prefix;
        if prefix > old {
            let list = &mut waiters[u.node.index()];
            let mut kept = 0;
            for i in 0..list.len() {
                let (wu, wk, thr) = list[i];
                if thr <= prefix {
                    // Forwarding latency applies once per wake; the
                    // transfers of subsequent ready windows overlap
                    // with compute (wormhole pipelining).
                    queue.push(Reverse((t_done + dep_delay[wu], wu, wk)));
                } else {
                    list[kept] = (wu, wk, thr);
                    kept += 1;
                }
            }
            list.truncate(kept);
        }

        // Next window of this replica.
        if reps[uid][k].done < rep_spec.windows {
            queue.push(Reverse((t_done, uid, k)));
        }
    }

    // Completion check.
    for (uid, u) in units.iter().enumerate() {
        for (k, r) in u.replicas.iter().enumerate() {
            if reps[uid][k].done < r.windows {
                return Err(SimError::Deadlock {
                    detail: format!(
                        "unit {uid} ({}) replica {k}: {}/{} windows",
                        u.name, reps[uid][k].done, r.windows
                    ),
                });
            }
        }
    }

    let active_cores = spans.iter().filter(|s| s.is_active()).count();
    Ok(Tally {
        cycles: last_done,
        mvm_ops,
        crossbar_mvms,
        vfu_elems,
        noc_bytes,
        noc_pj,
        // Boundary global traffic (network inputs + outputs).
        global_bytes: compiled.memory.global_traffic as u64,
        local_bytes,
        // Cores hold live inter-layer state, so every active core leaks
        // over the whole inference (paper §V-B.2: "the active time of
        // each core is related to the overall inference time").
        leakage_pj: whole_run_leakage_pj(energy_model, hw.chips, active_cores, last_done),
        active_cores,
        per_core_busy: spans.iter().map(|s| s.busy_cycles()).collect(),
    })
}

/// Prefix-complete window count of a node: the strided minimum across
/// replicas, then the minimum across the node's column-group units
/// (`unit_ids`, pre-resolved from the schedule's units-of-node map).
fn node_prefix_of(
    units: &[pimcomp_core::LlUnit],
    unit_ids: &[usize],
    reps: &[Vec<ReplicaRt>],
) -> usize {
    if unit_ids.is_empty() {
        return 0;
    }
    let mut prefix = usize::MAX;
    for &uid in unit_ids {
        let u = &units[uid];
        let r = u.replicas.len();
        let mut up = u.windows;
        for (k, _) in u.replicas.iter().enumerate() {
            let done = reps[uid][k].done;
            let frontier = k + done * r;
            if frontier < u.windows {
                up = up.min(frontier);
            }
        }
        prefix = prefix.min(up);
    }
    if prefix == usize::MAX {
        0
    } else {
        prefix
    }
}
