//! The distributed determinism gate: coordinator + {1, 2, 4} workers —
//! including crash/resume and lease re-issue schedules — must produce
//! reports byte-identical to a single-process `ExploreEngine` run of
//! the same spec. These tests run everything in-process over loopback
//! sockets; the `serve-smoke` CI job repeats the drill across real
//! processes.

use pimcomp_dse::{ExploreEngine, SweepSpec};
use pimcomp_serve::{run_worker, Coordinator, CoordinatorConfig, ServeError, WorkerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// The committed smoke fixture, shared with `pimcomp explore` CI runs.
fn smoke_spec() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../bench/fixtures/smoke_sweep.json");
    std::fs::read_to_string(path).expect("smoke fixture")
}

/// The axes fixture exercises auto hardware, both modes, the policy
/// and batch axes, and an `.onnx` model — whose path must be rebased
/// from the repository root to this test's working directory.
fn axes_spec() -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../bench/fixtures/smoke_sweep_axes.json");
    let onnx = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../bench/fixtures/tiny_mlp.onnx");
    std::fs::read_to_string(path)
        .expect("axes fixture")
        .replace(
            "crates/bench/fixtures/tiny_mlp.onnx",
            &onnx.to_string_lossy(),
        )
}

fn single_process_json(spec_json: &str) -> String {
    let spec = SweepSpec::from_json(spec_json).expect("fixture spec parses");
    let outcome = ExploreEngine::new()
        .with_threads(2)
        .run(&spec)
        .expect("engine run");
    outcome.report.to_json().expect("report serializes")
}

/// Runs a coordinator with `workers` concurrent in-process workers and
/// returns (report JSON, outcome) — the distributed half of the gate.
fn distributed_json(
    spec_json: &str,
    cfg: CoordinatorConfig,
    workers: Vec<WorkerConfig>,
) -> (String, pimcomp_serve::ServeOutcome) {
    let coordinator = Coordinator::bind(spec_json, cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    let coordinator_thread = std::thread::spawn(move || coordinator.run());
    let worker_threads: Vec<_> = workers
        .into_iter()
        .map(|mut wc| {
            wc.connect = addr.to_string();
            std::thread::spawn(move || run_worker(&wc))
        })
        .collect();
    for handle in worker_threads {
        // Workers configured to die early return Ok(stopped_early).
        handle.join().expect("worker thread").expect("worker run");
    }
    let outcome = coordinator_thread
        .join()
        .expect("coordinator thread")
        .expect("coordinator run");
    let json = outcome.report.to_json().expect("report serializes");
    (json, outcome)
}

fn n_workers(n: usize) -> Vec<WorkerConfig> {
    (0..n)
        .map(|i| {
            let mut wc = WorkerConfig::connect_to("placeholder");
            wc.name = format!("w{i}");
            wc
        })
        .collect()
}

#[test]
fn smoke_report_is_byte_identical_for_1_2_4_workers() {
    let spec = smoke_spec();
    let expected = single_process_json(&spec);
    for count in [1, 2, 4] {
        let (json, outcome) =
            distributed_json(&spec, CoordinatorConfig::default(), n_workers(count));
        assert_eq!(
            json, expected,
            "{count}-worker report diverged from single-process bytes"
        );
        assert_eq!(outcome.evaluated_points, 4);
        assert_eq!(outcome.resumed_points, 0);
    }
}

#[test]
fn axes_report_is_byte_identical_for_2_workers_with_lease_size_1() {
    let spec = axes_spec();
    let expected = single_process_json(&spec);
    let cfg = CoordinatorConfig {
        lease_size: 1,
        ..CoordinatorConfig::default()
    };
    let (json, outcome) = distributed_json(&spec, cfg, n_workers(2));
    assert_eq!(json, expected, "axes report diverged under lease_size=1");
    // HT: 2 models x 2 hw x 2 policies x 2 batches = 16; LL collapses
    // the batch axis: 2 x 2 x 2 = 8.
    assert_eq!(outcome.evaluated_points, 24);
}

#[test]
fn killed_worker_leases_are_reissued_and_bytes_survive() {
    let spec = smoke_spec();
    let expected = single_process_json(&spec);
    let cfg = CoordinatorConfig {
        lease_size: 4, // one lease covers the whole grid: death is mid-lease
        ..CoordinatorConfig::default()
    };
    let coordinator = Coordinator::bind(&spec, cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let coordinator_thread = std::thread::spawn(move || coordinator.run());
    // Worker w0 takes the only lease and dies after one point. w1
    // starts only once w0 has returned, so it cannot take the lease
    // first: it must pick up the reclaimed remainder.
    let mut dying = WorkerConfig::connect_to(addr.clone());
    dying.name = "w0-dies".into();
    dying.max_points = Some(1);
    run_worker(&dying).expect("dying worker run");
    let mut survivor = WorkerConfig::connect_to(addr);
    survivor.name = "w1".into();
    run_worker(&survivor).expect("survivor run");
    let outcome = coordinator_thread
        .join()
        .expect("coordinator thread")
        .expect("coordinator run");
    let json = outcome.report.to_json().expect("report serializes");
    assert_eq!(
        json, expected,
        "report diverged after a mid-lease worker death"
    );
    assert!(
        outcome.leases_reclaimed >= 1,
        "the dead worker's lease was never reclaimed: {outcome:?}"
    );
    assert_eq!(outcome.evaluated_points, 4);
}

#[test]
fn crash_resume_from_truncated_journal_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("pimcomp-serve-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.journal.jsonl");
    let spec = smoke_spec();
    let expected = single_process_json(&spec);

    // Uninterrupted journaled run (1 worker, lease_size 1: one journal
    // line per point, so truncation cuts at point granularity).
    let cfg = CoordinatorConfig {
        lease_size: 1,
        journal: Some(journal.clone()),
        ..CoordinatorConfig::default()
    };
    let (full_json, _) = distributed_json(&spec, cfg.clone(), n_workers(1));
    assert_eq!(full_json, expected);

    // Simulate a coordinator crash after 2 of 4 records: keep the
    // header + 2 entries, then a torn partial write.
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 entries expected: {text}");
    let truncated = format!(
        "{}\n{}\n{}\n{{\"index\":2,\"rec",
        lines[0], lines[1], lines[2]
    );
    std::fs::write(&journal, truncated).unwrap();

    // Resume: replay leases only the unfinished points; the final
    // report must still match the uninterrupted bytes.
    let (resumed_json, outcome) = distributed_json(&spec, cfg, n_workers(1));
    assert_eq!(resumed_json, expected, "resumed report diverged");
    assert_eq!(outcome.resumed_points, 2);
    assert_eq!(outcome.evaluated_points, 2);

    // A third run resumes a *complete* journal: nothing to evaluate,
    // no worker needed, same bytes again.
    let cfg_done = CoordinatorConfig {
        lease_size: 1,
        journal: Some(journal.clone()),
        ..CoordinatorConfig::default()
    };
    let coordinator = Coordinator::bind(&spec, cfg_done).expect("bind over complete journal");
    let outcome = coordinator.run().expect("run over complete journal");
    assert_eq!(outcome.report.to_json().unwrap(), expected);
    assert_eq!(outcome.resumed_points, 4);
    assert_eq!(outcome.evaluated_points, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_for_a_different_spec_is_refused() {
    let dir = std::env::temp_dir().join(format!("pimcomp-serve-mismatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.journal.jsonl");
    let cfg = CoordinatorConfig {
        journal: Some(journal.clone()),
        ..CoordinatorConfig::default()
    };
    let (_, _) = distributed_json(&smoke_spec(), cfg.clone(), n_workers(1));
    // Same journal, different spec text: refused, not silently mixed.
    let err = Coordinator::bind(&axes_spec(), cfg)
        .err()
        .expect("bind must fail");
    assert!(matches!(err, ServeError::Journal { .. }), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn halving_specs_are_rejected_with_a_structured_error() {
    let spec = r#"{"models":["tiny_mlp"],"modes":["ht"],
        "hardware":{"base":"small_test","parallelism":[2,4]},
        "ga":{"population":4,"iterations":4},
        "search":{"strategy":"halving","rungs":[1,4],"keep_fraction":0.5}}"#;
    let err = Coordinator::bind(spec, CoordinatorConfig::default())
        .err()
        .expect("halving must be rejected");
    assert!(matches!(err, ServeError::Unsupported { .. }), "{err:?}");
}

#[test]
fn workers_share_a_content_addressed_cache() {
    let dir = std::env::temp_dir().join(format!("pimcomp-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = smoke_spec();
    let expected = single_process_json(&spec);

    let mut cold = n_workers(2);
    for wc in &mut cold {
        wc.cache_dir = Some(dir.clone());
    }
    let (cold_json, _) = distributed_json(&spec, CoordinatorConfig::default(), cold);
    assert_eq!(cold_json, expected);

    // A second fleet replays every point from the shared store.
    let mut warm = n_workers(2);
    for wc in &mut warm {
        wc.cache_dir = Some(dir.clone());
    }
    let coordinator = Coordinator::bind(&spec, CoordinatorConfig::default()).expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    let coordinator_thread = std::thread::spawn(move || coordinator.run());
    let hits: usize = warm
        .into_iter()
        .map(|mut wc| {
            wc.connect = addr.to_string();
            std::thread::spawn(move || run_worker(&wc))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap().unwrap().cache_hits)
        .sum();
    let outcome = coordinator_thread.join().unwrap().unwrap();
    assert_eq!(outcome.report.to_json().unwrap(), expected);
    assert_eq!(hits, 4, "warm fleet must replay every point from cache");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn throttled_workers_interleave_without_byte_drift() {
    // Slow workers + tiny leases force many grant/complete cycles and
    // worker interleavings; bytes must not care.
    let spec = smoke_spec();
    let expected = single_process_json(&spec);
    let cfg = CoordinatorConfig {
        lease_size: 1,
        ..CoordinatorConfig::default()
    };
    let mut workers = n_workers(4);
    for wc in &mut workers {
        wc.throttle = Some(Duration::from_millis(10));
    }
    let (json, _) = distributed_json(&spec, cfg, workers);
    assert_eq!(json, expected);
}
