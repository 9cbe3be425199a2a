//! The artifact boundary: a v5 `CompiledArtifact` stores inputs and the
//! replication + placement decision only, and loading rebuilds the rest
//! through the session stages. A rebuilt model must equal the compiled
//! one, equal inputs must give equal bytes, and every hostile edit must
//! fail to load with a structured `ArtifactError`.

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;
use pimcomp_core::{PumaCompiler, ReusePolicy};
use pimcomp_ir::models;
use serde::Value;
use std::num::NonZeroUsize;

fn compile(hw: HardwareConfig, graph: &pimcomp_ir::Graph, opts: CompileOptions) -> CompiledModel {
    CompileSession::new(hw, graph, opts)
        .and_then(CompileSession::run)
        .expect("compiles")
}

fn rebuild(json: &str) -> Result<CompiledModel, ArtifactError> {
    CompiledArtifact::from_json(json).map(CompiledArtifact::into_model_unchecked)
}

/// `from_json(to_json(m))` equals `m` on every field but the stage
/// timings, and re-serializing the rebuilt model gives the same bytes.
fn assert_round_trips(m: &CompiledModel, what: &str) {
    let json = CompiledArtifact::new(m.clone()).to_json().unwrap();
    let back = rebuild(&json).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(back.graph, m.graph, "{what}");
    assert_eq!(back.hw, m.hw, "{what}");
    assert_eq!(back.mode, m.mode, "{what}");
    assert_eq!(back.partitioning, m.partitioning, "{what}");
    assert_eq!(back.mapping, m.mapping, "{what}");
    assert_eq!(back.chromosome, m.chromosome, "{what}");
    assert_eq!(back.dep, m.dep, "{what}");
    assert_eq!(back.schedule, m.schedule, "{what}");
    assert_eq!(back.memory, m.memory, "{what}");
    assert_eq!(back.reload, m.reload, "{what}");
    let mut report = back.report.clone();
    report.timings = m.report.timings;
    assert_eq!(report, m.report, "{what}");
    assert_eq!(
        CompiledArtifact::new(back).to_json().unwrap(),
        json,
        "{what}"
    );
}

#[test]
fn rebuilt_models_equal_compiled_models_in_every_mode() {
    let small = HardwareConfig::small_test();
    let chip = HardwareConfig::puma_with_chips(1);
    let ht = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(5);
    let ll = CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(5);

    let cases = [
        (
            "HT, batch 4, naive policy",
            compile(
                small.clone(),
                &models::tiny_cnn(),
                ht.clone().with_batch(4).with_policy(ReusePolicy::Naive),
            ),
        ),
        (
            "LL",
            compile(small.clone(), &models::two_branch(), ll.clone()),
        ),
        (
            "resident reload",
            compile(
                chip.clone(),
                &models::tiny_cnn(),
                ht.clone().with_weight_reload(None),
            ),
        ),
        (
            "multi-epoch reload on one chip",
            compile(
                chip.clone(),
                &models::resnet18(),
                ht.clone().with_weight_reload(None),
            ),
        ),
        (
            "tiny_bert at 64 tokens",
            compile(chip, &models::tiny_bert(), ht.clone().with_seq_len(64)),
        ),
        (
            "PUMA HT",
            PumaCompiler::new(small.clone())
                .compile(&models::tiny_cnn(), &ht)
                .unwrap(),
        ),
        (
            "PUMA LL",
            PumaCompiler::new(small)
                .compile(&models::two_branch(), &ll)
                .unwrap(),
        ),
    ];
    let single = |m: &CompiledModel| m.reload.as_ref().map(|p| p.is_single_epoch());
    assert_eq!(single(&cases[2].1), Some(true), "precondition: resident");
    assert_eq!(single(&cases[3].1), Some(false), "precondition: epochs");
    assert!(cases[3].1.chromosome.is_none(), "epoch-packed decision");
    assert_eq!(cases[5].1.report.compiler, "PUMA-like");
    for (what, model) in &cases {
        assert_round_trips(model, what);
    }
}

#[test]
fn equal_inputs_give_byte_identical_artifacts_across_ga_threads() {
    let json = |threads: usize| {
        let ga = GaParams {
            population: 12,
            iterations: 16,
            ..GaParams::fast(4)
        };
        let opts = CompileOptions::new(PipelineMode::HighThroughput)
            .with_ga(ga)
            .with_parallelism(NonZeroUsize::new(threads));
        let hw = HardwareConfig::puma_with_chips(1).with_parallelism(8);
        CompiledArtifact::new(compile(hw, &models::tiny_cnn(), opts))
            .to_json()
            .unwrap()
    };
    let serial = json(1);
    assert_eq!(serial, json(4));
    assert_eq!(serial, json(1), "no wall-clock state is persisted");
}

#[test]
fn artifact_json_holds_inputs_and_the_decision_only() {
    let m = compile(
        HardwareConfig::small_test(),
        &models::tiny_cnn(),
        CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1),
    );
    let json = CompiledArtifact::new(m).to_json().unwrap();
    let Value::Map(entries) = serde_json::parse_value(&json).unwrap() else {
        panic!("artifact is not a JSON object");
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "format_version",
            "hw_fingerprint",
            "graph",
            "hw",
            "mode",
            "batch",
            "memory_policy",
            "reload_budget",
            "chromosome",
            "compiler",
            "ga",
        ]
    );
}

/// The value under `path` (object keys) in a parsed artifact.
fn at<'a>(value: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(value, |v, key| match v {
        Value::Map(entries) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no `{key}`"))
                .1
        }
        other => panic!("expected an object holding `{key}`, found {other:?}"),
    })
}

fn slots(value: &mut Value) -> &mut Vec<Value> {
    match at(value, &["chromosome", "slots"]) {
        Value::Seq(slots) => slots,
        other => panic!("slots are not an array: {other:?}"),
    }
}

/// `(slot, mvm, ag_count)` of every occupied chromosome slot.
fn genes(value: &mut Value) -> Vec<(usize, usize, usize)> {
    let int = |v: &Value| match v {
        Value::Int(i) => *i as usize,
        other => panic!("expected an integer, found {other:?}"),
    };
    slots(value)
        .iter()
        .enumerate()
        .filter_map(|(slot, g)| match g {
            Value::Null => None,
            g => Some((slot, int(g.get("mvm")?), int(g.get("ag_count")?))),
        })
        .collect()
}

fn set_gene(value: &mut Value, slot: usize, key: &str, to: usize) {
    *at(&mut slots(value)[slot], &[key]) = Value::Int(to as i128);
}

/// Edits `json` with `edit` and insists loading fails with an error
/// `expected` accepts.
fn probe(
    json: &str,
    what: &str,
    edit: impl FnOnce(&mut Value),
    expected: impl FnOnce(&ArtifactError) -> bool,
) {
    let mut value = serde_json::parse_value(json).unwrap();
    edit(&mut value);
    match rebuild(&serde_json::to_string(&value).unwrap()) {
        Err(e) if expected(&e) => {}
        Err(e) => panic!("{what}: unexpected error {e:?}"),
        Ok(_) => panic!("{what}: the hostile artifact loaded"),
    }
}

fn invariant(fact: impl Into<String>) -> impl FnOnce(&ArtifactError) -> bool {
    let fact = fact.into();
    move |e| {
        matches!(e, ArtifactError::Rebuild(CompileError::MappingInvariant { detail })
            if detail.contains(&fact))
    }
}

#[test]
fn hostile_artifacts_fail_to_load_with_structured_errors() {
    // The CLI's default target for squeezenet, with a small GA.
    let graph = models::squeezenet();
    let hw = HardwareConfig::puma_with_chips(1);
    let ga = GaParams {
        population: 8,
        iterations: 4,
        ..GaParams::fast(1)
    };
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_ga(ga);
    let model = compile(hw.clone(), &graph, opts);
    let nodes = model.partitioning.len();
    let capacity = hw.crossbar_capacity_per_core();
    let entries = model.partitioning.entries().to_vec();
    let json = CompiledArtifact::new(model).to_json().unwrap();
    assert!(rebuild(&json).is_ok(), "the untouched artifact loads");

    // A stale fingerprint: the recorded hardware was edited, the
    // fingerprint left alone.
    probe(
        &json,
        "stale fingerprint",
        |v| *at(v, &["hw", "parallelism"]) = Value::Int(2),
        |e| matches!(e, ArtifactError::Inconsistent { detail } if detail.contains("fingerprint")),
    );
    probe(
        &json,
        "truncated slot list",
        |v| {
            slots(v).pop();
        },
        |e| matches!(e, ArtifactError::Serialization(d) if d.contains("chromosome grid")),
    );
    probe(
        &json,
        "gene naming a foreign node",
        |v| {
            let (slot, ..) = genes(v)[0];
            set_gene(v, slot, "mvm", nodes);
        },
        invariant(format!(
            "AGs of node {nodes} (the partitioning has {nodes} nodes"
        )),
    );
    probe(
        &json,
        "core count differs from the hardware",
        |v| {
            let per_core = match at(v, &["chromosome", "max_nodes_per_core"]) {
                Value::Int(n) => *n as usize,
                other => panic!("{other:?}"),
            };
            slots(v).extend(std::iter::repeat_n(Value::Null, per_core));
            let Value::Int(cores) = at(v, &["chromosome", "cores"]) else {
                panic!("cores is not an integer");
            };
            *cores += 1;
        },
        invariant("placement target has"),
    );
    probe(
        &json,
        "over-capacity core",
        |v| {
            // Every gene stays within `capacity` AGs; the core does not.
            let (slot, ..) = genes(v)
                .into_iter()
                .find(|&(_, mvm, _)| entries[mvm].crossbars_per_ag > 1)
                .expect("a gene of a multi-crossbar AG");
            set_gene(v, slot, "ag_count", capacity);
        },
        invariant(format!("crossbars, its capacity is {capacity}")),
    );
    probe(
        &json,
        "AG total that is not a multiple",
        |v| {
            let (slot, _, ags) = genes(v)
                .into_iter()
                .find(|&(_, mvm, ags)| entries[mvm].ags_per_replica > 1 && ags > 1)
                .expect("a multi-AG gene");
            set_gene(v, slot, "ag_count", ags - 1);
        },
        invariant("not a positive multiple"),
    );
    probe(
        &json,
        "graph with a foreign node id",
        |v| {
            let Value::Seq(nodes) = at(v, &["graph", "nodes"]) else {
                panic!("graph nodes are not an array");
            };
            let node = nodes
                .iter_mut()
                .find(|n| matches!(n.get("inputs"), Some(Value::Seq(ins)) if !ins.is_empty()))
                .expect("a node with inputs");
            *at(node, &["inputs"]) = Value::Seq(vec![Value::Int(999_999)]);
        },
        |e| matches!(e, ArtifactError::Rebuild(CompileError::InvalidGraph { .. })),
    );

    // An epoch-packed artifact with its reload budget removed no longer
    // says it is epoch-packed, and a decision-less model cannot place.
    let packed = compile(
        HardwareConfig::puma_with_chips(1),
        &models::resnet18(),
        CompileOptions::new(PipelineMode::HighThroughput).with_weight_reload(None),
    );
    assert!(packed.chromosome.is_none(), "precondition: epoch-packed");
    let packed = CompiledArtifact::new(packed).to_json().unwrap();
    probe(
        &packed,
        "epoch-packed artifact without its budget",
        |v| *at(v, &["reload_budget"]) = Value::Null,
        invariant("no chromosome"),
    );
}
