//! The traced run: drives the same sweep points as the timed run, but
//! through each layer's public calls, with a span around every call
//! and the layer's work counts recorded at the same boundary.
//!
//! The point pipeline mirrors the exploration engine's per-point
//! evaluation (cache probe, compile stages, cache write, simulation,
//! optional functional verification) so that the traced run measures
//! the same program; `main` checks that each point's simulated cycles
//! equal the untraced report's.

use crate::trace::{SpanId, Tracer};
use crate::workload::SWEEP_THREADS;
use pimcomp_arch::QuantConfig;
use pimcomp_core::{
    graph_fingerprint, hardware_fingerprint, options_fingerprint, run_indexed, CompileOptions,
    CompileSession, CompiledArtifact, CompiledModel, GaParams,
};
use pimcomp_dse::{
    policy_spec_name, resolve_model, PointMetrics, PointRecord, ReloadSetting, SweepPlan,
    SweepPoint, SweepReport, SweepSpec,
};
use pimcomp_exec::{
    rmse, run_graph, top1, ExecError, MappedBackend, MvmBackend, MvmJob, ReferenceBackend, Tensor,
};
use pimcomp_ir::Graph;
use pimcomp_sim::Simulator;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Work counts of a traced sweep. Every field but `artifact_bytes` is a
/// deterministic function of the spec and the code, so two traced
/// sweeps of the same spec must agree exactly ([`Work::repeatable`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Work {
    pub points: u64,
    pub cache_hits: u64,
    pub partition_ags: u64,
    pub ga_evals: u64,
    pub ga_full_evals: u64,
    pub ga_incremental_evals: u64,
    pub ga_memo_hits: u64,
    pub ga_grow_successes: u64,
    pub ga_grow_failures: u64,
    /// Artifacts saved or loaded.
    pub artifacts: u64,
    /// Their bytes. Artifacts embed wall-clock stage timings, so this
    /// varies by a few bytes between runs.
    pub artifact_bytes: u64,
    pub crossbar_mvms: u64,
    pub vfu_elems: u64,
    pub noc_bytes: u64,
    pub exec_macs: u64,
    pub reference_runs: u64,
}

impl Work {
    fn add(&mut self, o: &Work) {
        self.points += o.points;
        self.cache_hits += o.cache_hits;
        self.partition_ags += o.partition_ags;
        self.ga_evals += o.ga_evals;
        self.ga_full_evals += o.ga_full_evals;
        self.ga_incremental_evals += o.ga_incremental_evals;
        self.ga_memo_hits += o.ga_memo_hits;
        self.ga_grow_successes += o.ga_grow_successes;
        self.ga_grow_failures += o.ga_grow_failures;
        self.artifacts += o.artifacts;
        self.artifact_bytes += o.artifact_bytes;
        self.crossbar_mvms += o.crossbar_mvms;
        self.vfu_elems += o.vfu_elems;
        self.noc_bytes += o.noc_bytes;
        self.exec_macs += o.exec_macs;
        self.reference_runs += o.reference_runs;
    }

    /// The counts that must repeat exactly.
    pub fn repeatable(&self) -> Work {
        Work {
            artifact_bytes: 0,
            ..self.clone()
        }
    }
}

/// What one traced sweep produced.
pub struct TracedSweep {
    /// Wall time from `SweepPlan::new` to the reduced report.
    pub wall: Duration,
    pub report: SweepReport,
    pub work: Work,
    /// Distinct (graph, seed) pairs among verified points: the
    /// reference runs a sweep needs at least.
    pub distinct_references: u64,
}

/// Resolves every model of `spec` under `ir.resolve` spans, outside the
/// sweep span (the sweep itself resolves them again inside
/// `SweepPlan::new`, as the engine does).
pub fn resolve(
    tracer: &Tracer,
    spec: &SweepSpec,
) -> Result<BTreeMap<String, (Graph, u64)>, String> {
    let mut graphs = BTreeMap::new();
    for name in &spec.models {
        let graph = tracer
            .time("ir.resolve", None, name, || resolve_model(name))
            .map_err(|e| e.to_string())?;
        let fp = graph_fingerprint(&graph);
        graphs.insert(name.clone(), (graph, fp));
    }
    Ok(graphs)
}

/// Runs one traced sweep of `spec` on the timed sweeps' thread count.
pub fn sweep(
    tracer: &Tracer,
    spec: &SweepSpec,
    graphs: &BTreeMap<String, (Graph, u64)>,
    cache_dir: &Path,
) -> Result<TracedSweep, String> {
    let t0 = Instant::now();
    let root = tracer.open("dse.sweep", None, "");
    let plan = tracer
        .time("dse.plan", Some(root.id), "", || SweepPlan::new(spec))
        .map_err(|e| e.to_string())?;
    let evaluated = run_indexed(SWEEP_THREADS, plan.len(), |i| {
        point(tracer, root.id, spec, graphs, &plan.points()[i], cache_dir)
    });
    let mut work = Work::default();
    let mut records = Vec::with_capacity(evaluated.len());
    for result in evaluated {
        let (record, w) = result?;
        work.add(&w);
        records.push(record);
    }
    let report = tracer
        .time("dse.reduce", Some(root.id), "", || plan.reduce(records))
        .map_err(|e| e.to_string())?;
    tracer.close(root, &[("points", work.points)]);
    let wall = t0.elapsed();
    let distinct_references = plan
        .points()
        .iter()
        .filter(|p| p.quant.is_some())
        .map(|p| (p.model.as_str(), p.seq, p.seed))
        .collect::<BTreeSet<_>>()
        .len() as u64;
    Ok(TracedSweep {
        wall,
        report,
        work,
        distinct_references,
    })
}

/// The engine's compile options for an exhaustive point: full GA
/// budget, GA serial inside the point.
fn point_options(point: &SweepPoint, spec: &SweepSpec) -> CompileOptions {
    let ga = GaParams {
        population: spec.ga_population,
        iterations: spec.ga_iterations,
        seed: point.seed,
        parallelism: Some(NonZeroUsize::MIN),
        ..GaParams::default()
    };
    let mut opts = CompileOptions::new(point.mode)
        .with_ga(ga)
        .with_policy(point.policy)
        .with_batch(point.batch)
        .with_ga_budget(spec.ga_iterations);
    if let ReloadSetting::On(budget) = point.reload {
        opts = opts.with_weight_reload(budget);
    }
    if let Some(seq) = point.seq {
        opts = opts.with_seq_len(seq);
    }
    opts
}

/// The engine's cache file name for a point, so the traced run reads
/// the artifacts set-up wrote and writes what a later sweep would read.
fn cache_path(dir: &Path, point: &SweepPoint, opts: &CompileOptions, graph_fp: u64) -> PathBuf {
    let tag: String = point
        .model
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .take(48)
        .collect();
    dir.join(format!(
        "v{}-{}-{:016x}-{:016x}-{:016x}.pimc.json",
        CompiledArtifact::FORMAT_VERSION,
        tag,
        graph_fp,
        hardware_fingerprint(&point.hw),
        options_fingerprint(opts),
    ))
}

/// An MVM backend that counts multiply-accumulates before delegating.
struct CountMacs<B> {
    inner: B,
    macs: u64,
}

impl<B: MvmBackend> MvmBackend for CountMacs<B> {
    fn mvm(&mut self, job: &MvmJob) -> Result<Vec<f32>, ExecError> {
        self.macs += (job.windows * job.width * job.height) as u64;
        self.inner.mvm(job)
    }
}

/// One traced point. Returns the point's report record (failures are
/// recorded, as the engine does) and its work counts.
fn point(
    tracer: &Tracer,
    parent: SpanId,
    spec: &SweepSpec,
    graphs: &BTreeMap<String, (Graph, u64)>,
    point: &SweepPoint,
    cache_dir: &Path,
) -> Result<(PointRecord, Work), String> {
    let key = point.key();
    let span = tracer.open("dse.point", Some(parent), &key);
    let within = Some(span.id);
    let (graph, graph_fp) = graphs
        .get(&point.model)
        .ok_or_else(|| format!("point `{key}` names an unresolved model"))?;
    let mut work = Work {
        points: 1,
        ..Work::default()
    };
    let opts = point_options(point, spec);
    let path = cache_path(cache_dir, point, &opts, *graph_fp);

    let load = tracer.open("core.artifact_load", within, &key);
    let cached = CompiledArtifact::load(&path).ok().and_then(|artifact| {
        artifact.verify_hardware(&point.hw).ok()?;
        Some(artifact.into_model_unchecked())
    });
    let loaded_bytes = if cached.is_some() { file_len(&path) } else { 0 };
    tracer.close(load, &[("bytes", loaded_bytes)]);
    work.artifacts += u64::from(cached.is_some());
    work.artifact_bytes += loaded_bytes;

    // `compiled`: a model was obtained (replayed or compiled), which is
    // when the engine charges the point its GA budget.
    let (compiled, outcome) = match cached {
        Some(model) => {
            work.cache_hits = 1;
            (
                true,
                evaluate(tracer, within, point, &key, model, &mut work),
            )
        }
        None => match compile(tracer, within, point, &key, graph, opts, &mut work) {
            Ok(model) => {
                let save = tracer.open("core.artifact_save", within, &key);
                // Best-effort, like the engine: a failed write costs a
                // recompile next time, never a wrong result.
                let saved = CompiledArtifact::new(model.clone()).save(&path).is_ok();
                let bytes = if saved { file_len(&path) } else { 0 };
                tracer.close(save, &[("bytes", bytes)]);
                work.artifacts += u64::from(saved);
                work.artifact_bytes += bytes;
                (
                    true,
                    evaluate(tracer, within, point, &key, model, &mut work),
                )
            }
            Err(e) => (false, Err(format!("compile: {e}"))),
        },
    };
    let (ok, error, metrics) = match outcome {
        Ok(metrics) => (true, None, Some(metrics)),
        Err(e) => (false, Some(e), None),
    };
    let record = PointRecord {
        model: point.model.clone(),
        mode: point.mode.to_string(),
        hardware: point.hw_label.clone(),
        policy: policy_spec_name(point.policy).to_string(),
        batch: point.batch as u64,
        seed: point.seed,
        weight_reload: point.reload.label(),
        seq_len: point.seq.map(|s| s as u64),
        quantization: point.quant.map(u64::from),
        rung: 0,
        budget: if compiled {
            spec.ga_iterations as u64
        } else {
            0
        },
        pruned_at: None,
        ok,
        error,
        metrics,
        pareto: false,
    };
    tracer.close(span, &[]);
    Ok((record, work))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// `CompileSession::partition` → `optimize` → `schedule`, one span each.
fn compile(
    tracer: &Tracer,
    parent: Option<SpanId>,
    point: &SweepPoint,
    key: &str,
    graph: &Graph,
    opts: CompileOptions,
    work: &mut Work,
) -> Result<CompiledModel, String> {
    let span = tracer.open("core.partition", parent, key);
    let partitioned =
        CompileSession::new(point.hw.clone(), graph, opts).and_then(|s| s.partition());
    let ags = partitioned.as_ref().map_or(0, |p| {
        p.partitioning()
            .entries()
            .iter()
            .map(|e| e.ags_per_replica as u64)
            .sum()
    });
    tracer.close(span, &[("ags", ags)]);
    work.partition_ags += ags;
    let partitioned = partitioned.map_err(|e| e.to_string())?;

    let span = tracer.open("core.ga", parent, key);
    let optimized = partitioned.optimize();
    let stats = optimized.as_ref().ok().and_then(|o| o.ga_stats()).cloned();
    let evals = stats.as_ref().map_or(0, |s| s.evaluations as u64);
    tracer.close(span, &[("evals", evals)]);
    if let Some(s) = stats {
        work.ga_evals += s.evaluations as u64;
        work.ga_full_evals += s.full_evals as u64;
        work.ga_incremental_evals += s.incremental_evals as u64;
        work.ga_memo_hits += s.cache_hits as u64;
        work.ga_grow_successes += s.grow_successes as u64;
        work.ga_grow_failures += s.grow_failures as u64;
    }
    let optimized = optimized.map_err(|e| e.to_string())?;

    tracer
        .time("core.schedule", parent, key, || {
            optimized.schedule().map(|s| s.finish())
        })
        .map_err(|e| e.to_string())
}

/// `Simulator::run`, then — when the point carries a quantization
/// setting — the reference interpreter and the mapped executor.
fn evaluate(
    tracer: &Tracer,
    parent: Option<SpanId>,
    point: &SweepPoint,
    key: &str,
    model: CompiledModel,
    work: &mut Work,
) -> Result<PointMetrics, String> {
    let span = tracer.open("sim.run", parent, key);
    let sim = Simulator::new(point.hw.clone()).run(&model);
    let counts = sim
        .as_ref()
        .map_or([0; 3], |r| [r.crossbar_mvms, r.vfu_elems, r.noc_bytes]);
    tracer.close(
        span,
        &[
            ("crossbar_mvms", counts[0]),
            ("vfu_elems", counts[1]),
            ("noc_bytes", counts[2]),
        ],
    );
    work.crossbar_mvms += counts[0];
    work.vfu_elems += counts[1];
    work.noc_bytes += counts[2];
    let r = sim.map_err(|e| format!("simulate: {e}"))?;

    let (output_rmse, top1_match) = match point.quant {
        None => (None, None),
        Some(bits) => {
            let (rmse, top1) = verify(tracer, parent, point, key, &model, bits, work)
                .map_err(|e| format!("verify: {e}"))?;
            (Some(rmse), Some(top1))
        }
    };
    Ok(PointMetrics {
        cycles: r.total_cycles,
        throughput_inf_per_s: r.throughput_inf_per_s,
        latency_us: r.latency_us,
        energy_uj: r.energy.total_pj() / 1e6,
        dynamic_uj: r.energy.dynamic_pj() / 1e6,
        leakage_uj: r.energy.leakage_pj / 1e6,
        crossbar_utilization: model.report.crossbars_used as f64
            / point.hw.total_crossbars() as f64,
        core_utilization: r.active_cores as f64 / point.hw.total_cores() as f64,
        avg_local_kb: r.memory.avg_local_bytes / 1024.0,
        global_traffic_kb: r.memory.global_traffic_bytes as f64 / 1024.0,
        active_cores: r.active_cores,
        crossbars_used: model.report.crossbars_used,
        reload_stall_cycles: r.reload_stall_cycles,
        output_rmse,
        top1_match,
    })
}

/// The reference interpreter and the mapped executor on the same
/// seed-synthesized inference; returns (RMSE, top-1 agreement).
fn verify(
    tracer: &Tracer,
    parent: Option<SpanId>,
    point: &SweepPoint,
    key: &str,
    model: &CompiledModel,
    bits: u32,
    work: &mut Work,
) -> Result<(f64, bool), String> {
    let quant = match bits {
        0 => None,
        b => Some(QuantConfig::for_hardware(&point.hw, b).map_err(|e| e.to_string())?),
    };

    let span = tracer.open("exec.reference", parent, key);
    let mut backend = CountMacs {
        inner: ReferenceBackend,
        macs: 0,
    };
    let reference = run_graph(&model.graph, point.seed, &mut backend);
    tracer.close(span, &[("macs", backend.macs)]);
    work.exec_macs += backend.macs;
    work.reference_runs += 1;
    let reference = reference.map_err(|e| e.to_string())?;

    let mapped = tracer
        .time("exec.mapped_validate", parent, key, || {
            MappedBackend::new(model, quant)
        })
        .map_err(|e| e.to_string())?;
    let name = if bits == 0 {
        "exec.mapped"
    } else {
        "exec.mapped_quant"
    };
    let span = tracer.open(name, parent, key);
    let mut backend = CountMacs {
        inner: mapped,
        macs: 0,
    };
    let outputs = run_graph(&model.graph, point.seed, &mut backend);
    tracer.close(span, &[("macs", backend.macs)]);
    work.exec_macs += backend.macs;
    let outputs = outputs.map_err(|e| e.to_string())?;
    compare(&reference, &outputs)
}

fn compare(
    reference: &[(String, Tensor)],
    mapped: &[(String, Tensor)],
) -> Result<(f64, bool), String> {
    if reference.len() != mapped.len() {
        return Err(format!(
            "reference produced {} outputs, mapped produced {}",
            reference.len(),
            mapped.len()
        ));
    }
    let mut r_all = Vec::new();
    let mut m_all = Vec::new();
    for ((rn, rt), (mn, mt)) in reference.iter().zip(mapped) {
        if rn != mn || rt.dims != mt.dims {
            return Err(format!("output `{rn}` and `{mn}` disagree in shape"));
        }
        r_all.extend_from_slice(&rt.data);
        m_all.extend_from_slice(&mt.data);
    }
    Ok((rmse(&m_all, &r_all), top1(&m_all) == top1(&r_all)))
}
