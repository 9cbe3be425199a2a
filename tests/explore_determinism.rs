//! Design-space exploration determinism guarantees, end to end:
//!
//! * the same sweep spec produces **byte-identical** report JSON at 1
//!   and 4 worker threads,
//! * a cache-hit rerun replays every point and reproduces the identical
//!   frontier,
//! * the report of a fixed tiny sweep matches a committed golden
//!   fixture (`tests/golden/explore_tiny_sweep.json`; regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test explore_determinism`),
//! * the `pimcomp explore` CLI exhibits the same guarantees.

use pimcomp::dse::{ExploreEngine, SearchStrategy, SweepReport, SweepSpec};
use std::path::PathBuf;

/// The acceptance-grade sweep: 2 models × 2 modes × 3 hardware configs
/// × 1 seed = 12 points.
const SPEC: &str = r#"{
  "master_seed": 11,
  "models": ["tiny_cnn", "tiny_mlp"],
  "modes": ["ht", "ll"],
  "hardware": { "base": "small_test", "parallelism": [2, 4, 8] },
  "ga": { "population": 6, "iterations": 4 }
}"#;

/// The same axes under guided (successive-halving) search.
const HALVING_SPEC: &str = r#"{
  "master_seed": 11,
  "models": ["tiny_cnn", "tiny_mlp"],
  "modes": ["ht", "ll"],
  "hardware": { "base": "small_test", "parallelism": [2, 4, 8] },
  "ga": { "population": 6, "iterations": 4 },
  "search": { "strategy": "halving", "rungs": [1, 4],
              "keep_fraction": 0.6, "prune_margin": 0.25 }
}"#;

fn spec() -> SweepSpec {
    SweepSpec::from_json(SPEC).unwrap()
}

/// A spec exercising every new axis at once: memory policies, HT
/// batches, auto-sized hardware, and an `.onnx` model next to a zoo
/// name. 2 models × 2 auto parallelism × 2 policies × (HT: 2 batches +
/// LL: 1) × 1 seed = 24 points.
fn axes_spec(onnx_path: &str) -> String {
    format!(
        r#"{{
  "master_seed": 13,
  "models": ["tiny_mlp", "{onnx_path}"],
  "modes": ["ht", "ll"],
  "hardware": {{ "auto": true, "base": "small_test", "parallelism": [2, 4] }},
  "memory_policies": ["naive", "ag"],
  "ht_batches": [1, 2],
  "seeds": [1],
  "ga": {{ "population": 4, "iterations": 3 }}
}}"#
    )
}

/// Writes a loadable tiny `.onnx` model under `dir` and returns its
/// path (the importer consumes exactly what the exporter emits, so no
/// binary fixture is needed).
fn write_tiny_onnx(dir: &std::path::Path) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("tiny_mlp.onnx");
    let bytes = pimcomp::onnx::export_graph(&pimcomp::ir::models::tiny_mlp()).encode();
    std::fs::write(&path, bytes).unwrap();
    path.to_str().unwrap().to_string()
}

fn halving_spec() -> SweepSpec {
    SweepSpec::from_json(HALVING_SPEC).unwrap()
}

/// Two values on every sweep axis, listed out of sorted order so the
/// expansion must follow the spec's order rather than sort it.
const EVERY_AXIS_SPEC: &str = r#"{
  "models": ["tiny_mlp", "tiny_cnn"],
  "modes": ["ht", "ll"],
  "hardware": { "base": "small_test", "chips": [2, 1] },
  "memory_policies": ["ag", "naive"],
  "ht_batches": [4, 1],
  "seeds": [7, 3],
  "weight_reload": { "budgets": [256], "include_off": true },
  "seq_lens": [16, 8],
  "quantization": [8, 0]
}"#;

#[test]
fn expansion_order_is_pinned_on_every_axis() {
    let spec = SweepSpec::from_json(EVERY_AXIS_SPEC).unwrap();
    // 2 models x (HT: 2 batches + LL: 1) x 2 hardware x 2 policies x
    // 2 seeds x 2 reload settings x 2 sequence lengths x 2 quantizations.
    assert_eq!(spec.len(), 2 * 3 * 2 * 2 * 2 * 2 * 2 * 2);

    // The canonical order, outermost first: models, modes, hardware,
    // policies, batches (LL collapses to batch 1), seeds, reload,
    // sequence length, quantization.
    let mut expected = Vec::new();
    for model in ["tiny_mlp", "tiny_cnn"] {
        for (mode, batches) in [("HT", &[4, 1][..]), ("LL", &[1][..])] {
            for hw in ["small_test+chips2", "small_test+chips1"] {
                for policy in ["ag", "naive"] {
                    for batch in batches {
                        for seed in [7, 3] {
                            for reload in ["", "/reload-256"] {
                                for seq in [16, 8] {
                                    for q in [8, 0] {
                                        expected.push(format!(
                                            "{model}/{mode}/{hw}/{policy}/b{batch}/seed{seed}\
                                             {reload}/seq{seq}/q{q}"
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let keys: Vec<String> = spec.points().unwrap().iter().map(|p| p.key()).collect();
    assert_eq!(keys.len(), spec.len());
    assert_eq!(
        keys[0],
        "tiny_mlp/HT/small_test+chips2/ag/b4/seed7/seq16/q8"
    );
    assert_eq!(
        keys[keys.len() - 1],
        "tiny_cnn/LL/small_test+chips1/naive/b1/seed3/reload-256/seq8/q0"
    );
    assert_eq!(keys, expected);
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pimcomp-explore-{tag}-{}", std::process::id()))
}

#[test]
fn report_json_is_byte_identical_across_thread_counts() {
    let spec = spec();
    let one = ExploreEngine::new().with_threads(1).run(&spec).unwrap();
    let four = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
    assert_eq!(
        one.report.to_json().unwrap(),
        four.report.to_json().unwrap(),
        "1-thread and 4-thread sweeps must emit identical bytes"
    );
    assert_eq!(one.report.points.len(), 12);
    assert_eq!(one.report.failures(), 0);
    assert!(!one.report.frontier.is_empty());
}

#[test]
fn oversized_ht_batch_fails_its_point_with_the_valid_range() {
    // A batch past `MAX_HT_BATCH` would overflow the schedule and
    // simulator arithmetic: it fails its own point, with the valid
    // range, and the sweep's other points still run.
    let spec = SweepSpec::from_json(
        r#"{"models": ["tiny_mlp"], "hardware": {"base": "small_test"},
            "ht_batches": [2, 4611686018427387904],
            "ga": {"population": 4, "iterations": 2}}"#,
    )
    .unwrap();
    let out = ExploreEngine::new().with_threads(1).run(&spec).unwrap();
    let [fine, huge] = &out.report.points[..] else {
        panic!("expected two points, got {}", out.report.points.len());
    };
    assert!(fine.ok, "{:?}", fine.error);
    assert!(!huge.ok);
    let error = huge.error.as_deref().unwrap();
    assert!(
        error.contains("`batch` must be within 1..=65536"),
        "{error}"
    );
}

#[test]
fn cache_hit_rerun_reproduces_the_identical_frontier() {
    let dir = temp_dir("cache");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = spec();
    let engine = ExploreEngine::new().with_threads(2).with_cache_dir(&dir);
    let cold = engine.run(&spec).unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, 12);
    let warm = engine.run(&spec).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(warm.cache_hits > 0, "rerun must reuse cached artifacts");
    assert_eq!(warm.cache_hits, 12);
    assert_eq!(warm.report.frontier, cold.report.frontier);
    assert_eq!(
        warm.report.to_json().unwrap(),
        cold.report.to_json().unwrap(),
        "cache replay must not change a single report byte"
    );
}

#[test]
fn guided_report_is_byte_identical_across_thread_counts() {
    let spec = halving_spec();
    let one = ExploreEngine::new().with_threads(1).run(&spec).unwrap();
    let four = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
    assert_eq!(
        one.report.to_json().unwrap(),
        four.report.to_json().unwrap(),
        "1-thread and 4-thread guided sweeps must emit identical bytes"
    );
    assert_eq!(one.budget, four.budget);
    // Every point keeps a record even when halved or pruned early.
    assert_eq!(one.report.points.len(), 12);
    // Strictly fewer full-budget evaluations than the 12-point grid.
    assert!(one.budget.full_budget_evaluations < 12);
    assert!(one.budget.full_budget_evaluations_saved() > 0);
}

#[test]
fn guided_warm_cache_replay_is_identical() {
    let dir = temp_dir("guided-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = halving_spec();
    let engine = ExploreEngine::new().with_threads(2).with_cache_dir(&dir);
    let cold = engine.run(&spec).unwrap();
    assert_eq!(cold.cache_hits, 0);
    let warm = engine.run(&spec).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(warm.cache_misses, 0, "warm guided rerun must fully replay");
    assert_eq!(warm.cache_hits, cold.cache_misses);
    assert_eq!(
        warm.report.to_json().unwrap(),
        cold.report.to_json().unwrap(),
        "cache replay must not change a single report byte"
    );
    assert_eq!(warm.budget, cold.budget);
}

#[test]
fn guided_final_rung_frontier_is_a_subset_of_the_exhaustive_frontier() {
    let guided = ExploreEngine::new()
        .with_threads(2)
        .run(&halving_spec())
        .unwrap();
    let exhaustive = ExploreEngine::new().with_threads(2).run(&spec()).unwrap();
    let exhaustive_keys: Vec<String> = exhaustive
        .report
        .frontier_records()
        .map(|p| p.key())
        .collect();
    assert!(!guided.report.frontier.is_empty());
    for p in guided.report.frontier_records() {
        assert!(
            exhaustive_keys.contains(&p.key()),
            "guided frontier point {} is not on the exhaustive frontier {exhaustive_keys:?}",
            p.key()
        );
    }
    // This is the acceptance-grade *quality bound* on this committed
    // spec, not a structural invariant: halving guarantees survivors
    // carry exhaustive-identical full-budget metrics (seed streams are
    // prefixes), but a halved point could in principle have dominated a
    // survivor at full budget. Determinism makes the bound stable — if
    // the GA or this spec changes and the bound breaks, that is a real
    // frontier-quality regression to investigate, not flakiness.
    assert!(matches!(halving_spec().search, SearchStrategy::Halving(_)));
}

#[test]
fn new_axes_sweep_is_thread_invariant_and_replays_from_cache() {
    let dir = temp_dir("axes");
    let _ = std::fs::remove_dir_all(&dir);
    let onnx = write_tiny_onnx(&dir);
    let spec = SweepSpec::from_json(&axes_spec(&onnx)).unwrap();
    assert_eq!(spec.len(), 24);

    let cache = dir.join("cache");
    let cold = ExploreEngine::new()
        .with_threads(1)
        .with_cache_dir(&cache)
        .run(&spec)
        .unwrap();
    let four = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
    assert_eq!(
        cold.report.to_json().unwrap(),
        four.report.to_json().unwrap(),
        "new-axes sweep must emit identical bytes at 1 and 4 threads"
    );
    // v6 report: the compiler-knob, weight-reload, seq_len, and
    // quantization axes are in every record.
    assert_eq!(cold.report.format_version, 6);
    assert_eq!(cold.report.points.len(), 24);
    assert_eq!(cold.report.failures(), 0);
    assert!(cold
        .report
        .points
        .iter()
        .all(|p| (p.policy == "naive" || p.policy == "ag") && p.batch >= 1));
    // LL points always run batch 1; the onnx model got its own
    // auto-sized hardware labels.
    for p in &cold.report.points {
        if p.mode == "LL" {
            assert_eq!(p.batch, 1, "{}", p.key());
        }
        assert!(
            p.hardware.starts_with("auto-small_test+chips"),
            "{}",
            p.hardware
        );
    }
    // Warm rerun replays every (point, budget) evaluation byte-for-byte.
    let warm = ExploreEngine::new()
        .with_threads(4)
        .with_cache_dir(&cache)
        .run(&spec)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(warm.cache_misses, 0, "warm rerun must fully replay");
    assert_eq!(warm.cache_hits, cold.cache_misses);
    assert_eq!(
        cold.report.to_json().unwrap(),
        warm.report.to_json().unwrap(),
        "cache replay must not change a single report byte"
    );
}

/// A weight-reload sweep over two crossbar budgets plus the
/// unconstrained baseline of the same point.
const RELOAD_SPEC: &str = r#"{
  "master_seed": 17,
  "models": ["tiny_cnn"],
  "modes": ["ht"],
  "hardware": { "base": "small_test" },
  "seeds": [1],
  "ga": { "population": 6, "iterations": 4 },
  "weight_reload": { "budgets": [32, 64], "include_off": true }
}"#;

#[test]
fn reload_sweep_is_thread_invariant_and_replays_from_cache() {
    let dir = temp_dir("reload");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::from_json(RELOAD_SPEC).unwrap();
    let cold = ExploreEngine::new()
        .with_threads(1)
        .with_cache_dir(&dir)
        .run(&spec)
        .unwrap();
    let four = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
    assert_eq!(
        cold.report.to_json().unwrap(),
        four.report.to_json().unwrap(),
        "reload sweep must emit identical bytes at 1 and 4 threads"
    );
    assert_eq!(cold.report.points.len(), 3);
    assert_eq!(cold.report.failures(), 0);
    // The axis is live: constrained budgets stall on weight rewrites,
    // the unconstrained baseline never does.
    for p in &cold.report.points {
        let m = p.metrics.as_ref().unwrap();
        if p.weight_reload == "off" {
            assert_eq!(m.reload_stall_cycles, 0, "{}", p.key());
        } else {
            assert!(m.reload_stall_cycles > 0, "{}", p.key());
            assert!(p.key().contains("/reload-"), "{}", p.key());
        }
    }
    // Warm rerun replays every budget's entry byte-for-byte.
    let warm = ExploreEngine::new()
        .with_threads(4)
        .with_cache_dir(&dir)
        .run(&spec)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(warm.cache_misses, 0, "warm reload rerun must fully replay");
    assert_eq!(warm.cache_hits, cold.cache_misses);
    assert_eq!(
        cold.report.to_json().unwrap(),
        warm.report.to_json().unwrap(),
        "cache replay must not change a single report byte"
    );
}

#[test]
fn onnx_and_zoo_spellings_of_the_same_model_agree() {
    // tiny_mlp by zoo name and the exported tiny_mlp.onnx are the same
    // network, so identical points must produce identical metrics.
    let dir = temp_dir("onnx-agree");
    let _ = std::fs::remove_dir_all(&dir);
    let onnx = write_tiny_onnx(&dir);
    let spec = SweepSpec::from_json(&format!(
        r#"{{"models":["tiny_mlp","{onnx}"],
             "hardware":{{"base":"small_test","parallelism":[4]}},
             "seeds":[1],"ga":{{"population":4,"iterations":2}}}}"#
    ))
    .unwrap();
    let outcome = ExploreEngine::new().with_threads(2).run(&spec).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(outcome.report.points.len(), 2);
    assert_eq!(outcome.report.failures(), 0);
    assert_eq!(
        outcome.report.points[0].metrics, outcome.report.points[1].metrics,
        "zoo and ONNX spellings of tiny_mlp diverged"
    );
}

#[test]
fn missing_and_malformed_onnx_models_are_structured_errors() {
    use pimcomp::dse::ExploreError;
    // Parse succeeds (the file is only read when the sweep runs) …
    let spec = SweepSpec::from_json(
        r#"{"models":["/definitely/not/here.onnx"],
            "hardware":{"base":"small_test"}}"#,
    )
    .unwrap();
    // … and the run surfaces a structured I/O error naming the path.
    let err = ExploreEngine::new().run(&spec).unwrap_err();
    match &err {
        ExploreError::Io { detail } => {
            assert!(detail.contains("/definitely/not/here.onnx"), "{detail}")
        }
        other => panic!("expected Io, got {other:?}"),
    }
    // A file that exists but is not ONNX yields the importer's error.
    let dir = temp_dir("bad-onnx");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("garbage.onnx");
    std::fs::write(&bad, b"this is not an onnx model").unwrap();
    let spec = SweepSpec::from_json(&format!(
        r#"{{"models":["{}"],"hardware":{{"base":"small_test"}}}}"#,
        bad.to_str().unwrap()
    ))
    .unwrap();
    let err = ExploreEngine::new().run(&spec).unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    match &err {
        ExploreError::Onnx { path, .. } => assert!(path.ends_with("garbage.onnx"), "{path}"),
        other => panic!("expected Onnx, got {other:?}"),
    }
}

#[test]
fn tiny_sweep_matches_golden_fixture() {
    let outcome = ExploreEngine::new().with_threads(2).run(&spec()).unwrap();
    let actual = outcome.report.to_json().unwrap() + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("explore_tiny_sweep.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\nrun `UPDATE_GOLDEN=1 cargo test \
             --test explore_determinism` to create it",
            path.display()
        )
    });
    // Structural check first so version/shape drift fails loudly, then
    // exact bytes.
    let expected_report = SweepReport::from_json(expected.trim()).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} no longer parses ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(expected_report, outcome.report);
    assert_eq!(
        expected.trim(),
        actual.trim(),
        "sweep report drifted from the golden fixture; regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test explore_determinism` if intentional"
    );
}

#[test]
fn cli_explore_is_thread_invariant_and_cache_aware() {
    let bin = env!("CARGO_BIN_EXE_pimcomp");
    let dir = temp_dir("cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("sweep.json");
    std::fs::write(&spec_path, SPEC).unwrap();
    let cache = dir.join("cache");

    let run = |threads: &str, out: &str| {
        let out_path = dir.join(out);
        let status = std::process::Command::new(bin)
            .args([
                "explore",
                spec_path.to_str().unwrap(),
                "--threads",
                threads,
                "--cache",
                cache.to_str().unwrap(),
                "--out",
                out_path.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::piped())
            .output()
            .expect("spawn pimcomp explore");
        assert!(
            status.status.success(),
            "pimcomp explore failed:\n{}",
            String::from_utf8_lossy(&status.stderr)
        );
        (
            std::fs::read_to_string(&out_path).unwrap(),
            String::from_utf8_lossy(&status.stdout).to_string(),
        )
    };

    let (report1, stdout1) = run("1", "report1.json");
    let (report4, stdout4) = run("4", "report4.json");
    assert_eq!(
        report1, report4,
        "CLI reports must be byte-identical across --threads 1 and --threads 4"
    );
    assert!(stdout1.contains("0 cache hits"), "cold run: {stdout1}");
    assert!(stdout4.contains("12 cache hits"), "warm run: {stdout4}");

    // The written report loads and diffs clean against itself.
    let report = SweepReport::from_json(report1.trim()).unwrap();
    assert!(report.diff(&report).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_budget_summary_reports_guided_savings() {
    let bin = env!("CARGO_BIN_EXE_pimcomp");
    let dir = temp_dir("budget");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("halving.json");
    std::fs::write(&spec_path, HALVING_SPEC).unwrap();

    let out = std::process::Command::new(bin)
        .args([
            "explore",
            spec_path.to_str().unwrap(),
            "--threads",
            "2",
            "--cache",
            "off",
            "--budget-summary",
        ])
        .output()
        .expect("spawn pimcomp explore");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "pimcomp explore failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("halving search"), "{stdout}");
    assert!(stdout.contains("search strategy: halving"), "{stdout}");
    assert!(stdout.contains("full-budget evaluations:"), "{stdout}");
    assert!(stdout.contains("saved vs exhaustive"), "{stdout}");
}

#[test]
fn invalid_specs_and_unknown_models_are_structured_cli_errors() {
    let bin = env!("CARGO_BIN_EXE_pimcomp");
    let dir = temp_dir("badspec");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let cases = [
        ("not json at all", "not valid JSON"),
        (
            r#"{"models":["resnet999"],"hardware":{}}"#,
            "available models",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{"base":"tpu"}}"#,
            "unknown hardware preset",
        ),
        // One case per new axis: zero batch, batch > 1 without an HT
        // mode, unknown policy (listing the alternatives), missing
        // ONNX file, and a malformed auto-hardware block.
        (
            r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[0]}"#,
            "`ht_batches` entries must be at least 1",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{},"modes":["ll"],"ht_batches":[2]}"#,
            "only applies to high-throughput mode",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{},"memory_policies":["lru"]}"#,
            "unknown memory policy `lru` (naive | add | ag)",
        ),
        (
            r#"{"models":["/no/such/model.onnx"],"hardware":{}}"#,
            "/no/such/model.onnx",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{"auto":true,"headroom":0}}"#,
            "`hardware.headroom` must be a finite number >= 1",
        ),
    ];
    for (i, (spec, needle)) in cases.iter().enumerate() {
        let path = dir.join(format!("bad{i}.json"));
        std::fs::write(&path, spec).unwrap();
        let out = std::process::Command::new(bin)
            .args(["explore", path.to_str().unwrap(), "--cache", "off"])
            .output()
            .expect("spawn pimcomp explore");
        assert!(!out.status.success(), "bad spec {i} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "bad spec {i}: stderr `{stderr}` should contain `{needle}`"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
