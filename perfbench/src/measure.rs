//! Untraced sweeps through the user's entry points: `ExploreEngine::run`
//! with a `ProgressSink`, or an in-process `Coordinator` with one
//! `run_worker` thread.

use pimcomp_dse::{ExploreEngine, PointEvent, ProgressSink, SweepReport, SweepSpec};
use pimcomp_serve::{run_worker, Coordinator, CoordinatorConfig, WorkerConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// One measured sweep.
pub struct Sweep {
    pub wall: Duration,
    pub report: SweepReport,
    pub report_json: String,
    /// Per-point wall seconds, from each sweep thread's completion
    /// times (engine sweeps only; `run_worker` reports no per-point
    /// events).
    pub point_s: Vec<f64>,
    /// Sizes of the compiled artifacts in the cache after the sweep.
    pub artifact_bytes: Vec<u64>,
    pub serve: Option<ServeCounts>,
}

/// Bookkeeping counts of one served sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounts {
    pub leases: usize,
    pub leases_reclaimed: usize,
    pub journal_bytes: u64,
}

/// Runs `spec` through `ExploreEngine::run` with `threads` sweep
/// threads and an artifact cache at `cache_dir`.
pub fn engine_sweep(spec: &SweepSpec, threads: usize, cache_dir: &Path) -> Result<Sweep, String> {
    let log: Arc<Mutex<Vec<(ThreadId, Instant)>>> = Arc::default();
    let sink_log = Arc::clone(&log);
    let sink: ProgressSink = Arc::new(move |_: &PointEvent| {
        let now = Instant::now();
        sink_log
            .lock()
            .expect("progress log poisoned by a panicking sweep thread")
            .push((thread::current().id(), now));
    });
    let engine = ExploreEngine::new()
        .with_threads(threads)
        .with_cache_dir(cache_dir)
        .with_progress(sink);
    let t0 = Instant::now();
    let outcome = engine.run(spec).map_err(|e| format!("explore: {e}"))?;
    let wall = t0.elapsed();
    let events = std::mem::take(
        &mut *log
            .lock()
            .expect("progress log poisoned by a panicking sweep thread"),
    );
    let report_json = outcome.report.to_json().map_err(|e| e.to_string())?;
    Ok(Sweep {
        wall,
        report: outcome.report,
        report_json,
        point_s: per_thread_gaps(t0, &events),
        artifact_bytes: artifact_sizes(cache_dir)?,
        serve: None,
    })
}

/// A point's wall time is the gap between its completion and the
/// previous completion on the same sweep thread (or the sweep start).
fn per_thread_gaps(t0: Instant, events: &[(ThreadId, Instant)]) -> Vec<f64> {
    let mut last: HashMap<ThreadId, Instant> = HashMap::new();
    events
        .iter()
        .map(|&(tid, at)| {
            let prev = last.insert(tid, at).unwrap_or(t0);
            at.duration_since(prev).as_secs_f64()
        })
        .collect()
}

/// Runs `spec_json` through a loopback `Coordinator` journaling to
/// `journal` and one `run_worker` thread caching under `cache_dir`.
/// The wall time runs from `Coordinator::bind` to the report.
pub fn serve_sweep(
    job: &str,
    spec_json: &str,
    cache_dir: &Path,
    journal: &Path,
) -> Result<Sweep, String> {
    let cfg = CoordinatorConfig {
        journal: Some(journal.to_path_buf()),
        job: job.to_string(),
        ..CoordinatorConfig::default()
    };
    let t0 = Instant::now();
    let coordinator = Coordinator::bind(spec_json, cfg).map_err(|e| format!("serve: {e}"))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("serve: {e}"))?;
    let worker_cfg = WorkerConfig {
        cache_dir: Some(cache_dir.to_path_buf()),
        ..WorkerConfig::connect_to(addr.to_string())
    };
    let served = thread::scope(|s| {
        let coordinator = s.spawn(move || coordinator.run());
        let failure = match s.spawn(|| run_worker(&worker_cfg)).join() {
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(e.to_string()),
            Err(_) => Some("worker thread panicked".to_string()),
        };
        if let Some(failure) = failure {
            // The coordinator would wait for another worker forever;
            // end the process instead of hanging.
            eprintln!("perfbench: {failure}");
            std::process::exit(1);
        }
        coordinator
            .join()
            .map_err(|_| "coordinator thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))
    })?;
    let wall = t0.elapsed();
    let journal_bytes = std::fs::metadata(journal)
        .map_err(|e| format!("reading journal size: {e}"))?
        .len();
    let report_json = served.report.to_json().map_err(|e| e.to_string())?;
    Ok(Sweep {
        wall,
        report: served.report,
        report_json,
        point_s: Vec::new(),
        artifact_bytes: artifact_sizes(cache_dir)?,
        serve: Some(ServeCounts {
            leases: served.leases_issued,
            leases_reclaimed: served.leases_reclaimed,
            journal_bytes,
        }),
    })
}

/// Sizes of the compiled artifacts in a cache directory, in bytes,
/// sorted (the cache index file is bookkeeping, not compiled output).
pub fn artifact_sizes(cache_dir: &Path) -> Result<Vec<u64>, String> {
    let entries = std::fs::read_dir(cache_dir)
        .map_err(|e| format!("listing {}: {e}", cache_dir.display()))?;
    let mut sizes = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("listing {}: {e}", cache_dir.display()))?;
        if entry.file_name().to_string_lossy().ends_with(".pimc.json") {
            let meta = entry
                .metadata()
                .map_err(|e| format!("reading {}: {e}", entry.path().display()))?;
            sizes.push(meta.len());
        }
    }
    sizes.sort_unstable();
    Ok(sizes)
}

/// Empties (or creates) a directory.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}
