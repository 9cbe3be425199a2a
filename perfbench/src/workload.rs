//! The four benchmark workloads. Each is a sweep spec generated from
//! the workload seed plus how the sweep is driven; README.md records
//! why each was chosen and which layer it stresses.

use pimcomp_dse::SweepSpec;

/// Sweep threads of every timed and traced sweep. One thread keeps the
/// peak memory and the per-point times free of the interleaving of two
/// concurrent points, and leaves the second core of a two-core machine
/// to everything else running on it.
pub const SWEEP_THREADS: usize = 1;

/// Every workload name, in the order the documentation lists them.
pub const NAMES: [&str; 4] = ["ga_cold", "sim_warm", "verify_quant", "tiny_many"];

/// The entry point a workload's timed sweeps go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `ExploreEngine::run` in this process.
    Engine,
    /// A `Coordinator` with a journal and one `run_worker` thread over
    /// loopback.
    Serve,
}

/// One workload: the generated spec and how it is run.
pub struct Workload {
    pub name: &'static str,
    /// The spec text the program receives.
    pub spec_json: String,
    pub entry: Entry,
    /// `Some(spec)`: set-up runs `spec` once into the artifact cache and
    /// every timed sweep replays from it. `None`: every sweep starts
    /// from an empty cache.
    pub warm_fill: Option<SweepSpec>,
}

impl Workload {
    /// Builds workload `name` for `seed`, which becomes the spec's
    /// `master_seed` and so every point's GA seed.
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        let (name, spec_json, entry, warm) = match name {
            "ga_cold" => (
                "ga_cold",
                format!(
                    r#"{{"master_seed": {seed},
                    "models": ["vgg16", "resnet34", "googlenet", "resnet18"],
                    "modes": ["ht", "ll"],
                    "hardware": {{"auto": true, "base": "puma", "parallelism": [20]}},
                    "ga": {{"population": 100, "iterations": 200}}}}"#
                ),
                Entry::Engine,
                false,
            ),
            "sim_warm" => (
                "sim_warm",
                format!(
                    r#"{{"master_seed": {seed},
                    "models": ["inception_v3", "squeezenet", "googlenet"],
                    "modes": ["ht"], "ht_batches": [2], "num_seeds": 3,
                    "hardware": {{"auto": true, "base": "puma", "parallelism": [20]}},
                    "ga": {{"population": 30, "iterations": 40}}}}"#
                ),
                Entry::Engine,
                true,
            ),
            "verify_quant" => (
                "verify_quant",
                format!(
                    r#"{{"master_seed": {seed},
                    "models": ["resnet18", "squeezenet", "tiny_bert"],
                    "modes": ["ht"], "seq_lens": [64], "quantization": [0, 8],
                    "hardware": {{"auto": true, "base": "puma", "parallelism": [20]}},
                    "ga": {{"population": 30, "iterations": 40}}}}"#
                ),
                Entry::Engine,
                true,
            ),
            "tiny_many" => (
                "tiny_many",
                format!(
                    r#"{{"master_seed": {seed},
                    "models": ["tiny_cnn", "tiny_mlp", "two_branch", "linear_chain"],
                    "modes": ["ht", "ll"], "ht_batches": [1, 2],
                    "hardware": {{"base": "small_test", "chips": [1, 2],
                                  "parallelism": [2, 4, 8, 16]}},
                    "memory_policies": ["naive", "add", "ag"], "num_seeds": 6,
                    "ga": {{"population": 8, "iterations": 6}}}}"#
                ),
                Entry::Serve,
                false,
            ),
            other => {
                return Err(format!(
                    "unknown workload `{other}`; choose one of {}",
                    NAMES.join(", ")
                ))
            }
        };
        let warm_fill = if warm {
            let mut fill = SweepSpec::from_json(&spec_json).map_err(|e| e.to_string())?;
            // The quantization axis only adds verification: it is not
            // part of the cache key, so the fill compiles and simulates
            // each artifact once without the executor's cost.
            fill.quantization = vec![None];
            Some(fill)
        } else {
            None
        };
        Ok(Workload {
            name,
            spec_json,
            entry,
            warm_fill,
        })
    }
}
