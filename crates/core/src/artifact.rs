//! Versioned, serializable compiled models — the compile-once /
//! serve-many deployment artifact.
//!
//! A [`CompiledArtifact`] wraps a [`CompiledModel`] with a format
//! version and a fingerprint of the hardware configuration it was
//! compiled for. It persists only what cannot be re-derived: the
//! compiled graph, the hardware, the options scheduling reads, and the
//! replication + placement *decision* (the chromosome, or `null` for
//! an epoch-packed model), plus GA provenance. Loading validates the
//! fingerprint, then rebuilds partitioning, mapping, dependencies,
//! schedule and memory plan through the same session stages a compile
//! runs ([`Partitioned::place`](crate::Partitioned::place) checks the
//! decision), so a rebuilt model equals the compiled one field for
//! field except its stage timings, and a tampered artifact fails with
//! a structured [`ArtifactError`] instead of simulating wrongly.
//!
//! # Example
//!
//! ```
//! use pimcomp_arch::{HardwareConfig, PipelineMode};
//! use pimcomp_core::{CompileOptions, CompileSession, CompiledArtifact};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let hw = HardwareConfig::small_test();
//! let model = CompileSession::new(
//!     hw.clone(),
//!     &pimcomp_ir::models::tiny_mlp(),
//!     CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1),
//! )?
//! .run()?;
//!
//! let json = CompiledArtifact::new(model).to_json()?;
//! let artifact = CompiledArtifact::from_json(&json)?;
//! let model = artifact.into_model(&hw)?; // fingerprint-checked
//! assert_eq!(model.hw, hw);
//! # Ok(())
//! # }
//! ```

use crate::compiler::{CompileOptions, CompiledModel};
use crate::ga::GaStats;
use crate::mapping::Chromosome;
use crate::memory::ReusePolicy;
use crate::session::{CompileSession, Optimized, Scheduled};
use crate::CompileError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Errors raised while persisting or loading a [`CompiledArtifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the artifact.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The artifact was compiled for different hardware than the one it
    /// is being loaded against.
    HardwareMismatch {
        /// Fingerprint of the hardware the caller provided.
        expected: u64,
        /// Fingerprint recorded in the artifact.
        found: u64,
    },
    /// The model's parts disagree with each other or with the recorded
    /// hardware fingerprint (a truncated or tampered artifact, or a
    /// model edited in memory); see [`CompiledModel::validate`].
    Inconsistent {
        /// What disagrees.
        detail: String,
    },
    /// Rebuilding the model from the artifact's inputs and decision
    /// failed: invalid hardware, options or graph, or a decision that
    /// breaks a GA constraint.
    Rebuild(CompileError),
    /// JSON (de)serialization failed.
    Serialization(String),
    /// Filesystem I/O failed.
    Io(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads v{supported})"
            ),
            ArtifactError::HardwareMismatch { expected, found } => write!(
                f,
                "artifact was compiled for different hardware \
                 (fingerprint {found:#018x}, target is {expected:#018x})"
            ),
            ArtifactError::Inconsistent { detail } => {
                write!(f, "artifact is inconsistent: {detail}")
            }
            ArtifactError::Rebuild(e) => write!(f, "artifact does not rebuild: {e}"),
            ArtifactError::Serialization(detail) => {
                write!(f, "artifact serialization failed: {detail}")
            }
            ArtifactError::Io(detail) => write!(f, "artifact I/O failed: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// A compiled model packaged for persistence, serialized with the
/// format version and its hardware fingerprint.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    model: CompiledModel,
}

/// The serialized shape: inputs and the decision, nothing derived.
#[derive(Serialize, Deserialize)]
struct ArtifactWire {
    format_version: u32,
    hw_fingerprint: u64,
    /// Already normalized and sequence-bound.
    graph: Graph,
    hw: HardwareConfig,
    mode: PipelineMode,
    batch: usize,
    memory_policy: ReusePolicy,
    /// `Some` for `weight_reload` models (the resolved budget).
    reload_budget: Option<usize>,
    /// `None` for epoch-packed models.
    chromosome: Option<Chromosome>,
    /// Provenance: `report.compiler` and the GA trace.
    compiler: String,
    ga: Option<GaStats>,
}

impl CompiledArtifact {
    /// The artifact format this build writes (and the only one it
    /// reads). Bump on any breaking change to the serialized shape.
    ///
    /// v2–v4 serialized the whole model (v2/v3 grew [`GaStats`]
    /// counters, v4 added `weight_reload`). v5 stores decisions, not
    /// derived state: graph, hardware, mode, batch, memory policy,
    /// reload budget, the chromosome and GA provenance; everything else
    /// is rebuilt on load. No stage timings are written, so equal
    /// inputs give byte-identical artifacts.
    pub const FORMAT_VERSION: u32 = 5;

    /// Packages a compiled model.
    #[must_use]
    pub fn new(model: CompiledModel) -> Self {
        CompiledArtifact { model }
    }

    /// The format version of this artifact (the one this build reads).
    pub fn format_version(&self) -> u32 {
        Self::FORMAT_VERSION
    }

    /// The fingerprint of the hardware the model was compiled for.
    pub fn hw_fingerprint(&self) -> u64 {
        hardware_fingerprint(&self.model.hw)
    }

    /// Read-only view of the packaged model.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Checks that `hw` matches the hardware this artifact was compiled
    /// for.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::HardwareMismatch`] when the fingerprints differ.
    pub fn verify_hardware(&self, hw: &HardwareConfig) -> Result<(), ArtifactError> {
        let (expected, found) = (hardware_fingerprint(hw), self.hw_fingerprint());
        if expected != found {
            return Err(ArtifactError::HardwareMismatch { expected, found });
        }
        Ok(())
    }

    /// Unpacks the model after verifying it was compiled for `hw`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::HardwareMismatch`] when the fingerprints differ.
    pub fn into_model(self, hw: &HardwareConfig) -> Result<CompiledModel, ArtifactError> {
        self.verify_hardware(hw)?;
        Ok(self.model)
    }

    /// Unpacks the model without a hardware check (the model still
    /// carries its own `hw`; use when the artifact's target is the
    /// source of truth).
    #[must_use]
    pub fn into_model_unchecked(self) -> CompiledModel {
        self.model
    }

    /// Serializes the artifact as JSON.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Serialization`] when encoding fails.
    pub fn to_json(&self) -> Result<String, ArtifactError> {
        let m = &self.model;
        let wire = ArtifactWire {
            format_version: Self::FORMAT_VERSION,
            hw_fingerprint: self.hw_fingerprint(),
            graph: m.graph.clone(),
            hw: m.hw.clone(),
            mode: m.mode,
            batch: m.schedule.as_ht().map_or(1, |s| s.batch),
            memory_policy: m.memory.policy,
            reload_budget: m.reload.as_ref().map(|p| p.budget),
            chromosome: m.chromosome.clone(),
            compiler: m.report.compiler.clone(),
            ga: m.report.ga.clone(),
        };
        serde_json::to_string(&wire).map_err(|e| ArtifactError::Serialization(e.to_string()))
    }

    /// Deserializes an artifact from JSON and rebuilds its model.
    ///
    /// The format version is checked *before* decoding the rest, so
    /// version mismatches produce a clean error instead of a shape
    /// mismatch. The recorded hardware fingerprint must match the
    /// recorded hardware; then the model is rebuilt through
    /// [`CompileSession::new`] (validating hardware, options and graph),
    /// `partition`, [`place`](crate::Partitioned::place) (validating the
    /// decision), `schedule` and `finish`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::UnsupportedVersion`] /
    /// [`ArtifactError::Serialization`] / [`ArtifactError::Inconsistent`]
    /// (fingerprint) / [`ArtifactError::Rebuild`].
    pub fn from_json(json: &str) -> Result<Self, ArtifactError> {
        let value = serde_json::parse_value(json)
            .map_err(|e| ArtifactError::Serialization(e.to_string()))?;
        let found = value
            .get("format_version")
            .and_then(|v| match v {
                serde::Value::Int(i) => u32::try_from(*i).ok(),
                _ => None,
            })
            .ok_or_else(|| {
                ArtifactError::Serialization("artifact is missing `format_version`".to_string())
            })?;
        if found != Self::FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found,
                supported: Self::FORMAT_VERSION,
            });
        }
        let wire: ArtifactWire = serde::Deserialize::from_value(&value)
            .map_err(|e| ArtifactError::Serialization(e.to_string()))?;
        let computed = hardware_fingerprint(&wire.hw);
        if computed != wire.hw_fingerprint {
            return Err(ArtifactError::Inconsistent {
                detail: format!(
                    "recorded hardware fingerprint {:#018x} does not match the recorded \
                     hardware ({computed:#018x})",
                    wire.hw_fingerprint
                ),
            });
        }
        let opts = CompileOptions {
            batch: wire.batch,
            memory_policy: wire.memory_policy,
            normalize: false,
            weight_reload: wire.reload_budget.is_some(),
            reload_budget: wire.reload_budget,
            ..CompileOptions::new(wire.mode)
        };
        let mut model = CompileSession::new(wire.hw, &wire.graph, opts)
            .and_then(CompileSession::partition)
            .and_then(|p| p.place(wire.chromosome))
            .and_then(Optimized::schedule)
            .map(Scheduled::finish)
            .map_err(ArtifactError::Rebuild)?;
        model.report.compiler = wire.compiler;
        model.report.ga = wire.ga;
        Ok(CompiledArtifact { model })
    }

    /// Writes the artifact as JSON to `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Serialization`] / [`ArtifactError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let json = self.to_json()?;
        std::fs::write(path.as_ref(), json)
            .map_err(|e| ArtifactError::Io(format!("writing {}: {e}", path.as_ref().display())))
    }

    /// Reads an artifact from a JSON file at `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`], plus the [`CompiledArtifact::from_json`]
    /// errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let json = std::fs::read_to_string(path.as_ref())
            .map_err(|e| ArtifactError::Io(format!("reading {}: {e}", path.as_ref().display())))?;
        Self::from_json(&json)
    }
}

/// Stable 64-bit fingerprint of a hardware configuration: FNV-1a over
/// its canonical JSON serialization. Independent of process, platform,
/// and `HashMap` seeds (the config contains none).
#[must_use]
pub fn hardware_fingerprint(hw: &HardwareConfig) -> u64 {
    fnv1a(serde_json::to_string(hw).unwrap_or_default().as_bytes())
}

/// Stable 64-bit fingerprint of a model graph: FNV-1a over its
/// canonical JSON serialization, like [`hardware_fingerprint`].
/// Combined with the hardware and options fingerprints this keys
/// compiled-point caches — an input graph that changed (e.g. an
/// `.onnx` file edited in place) can then never replay a stale
/// artifact.
#[must_use]
pub fn graph_fingerprint(graph: &pimcomp_ir::Graph) -> u64 {
    fnv1a(serde_json::to_string(graph).unwrap_or_default().as_bytes())
}

/// Stable 64-bit fingerprint of a full set of compile options (GA
/// parameters included, worker-thread count excluded — parallelism
/// never changes the compiled result). Combined with
/// [`hardware_fingerprint`], [`graph_fingerprint`], and a model name
/// this keys compiled-point caches, e.g. the design-space exploration
/// engine's per-point artifact cache.
#[must_use]
pub fn options_fingerprint(opts: &crate::CompileOptions) -> u64 {
    let mut canonical = opts.clone();
    // Thread count is a wall-clock knob, not a result knob; two runs
    // differing only in parallelism must share cache entries.
    canonical.ga.parallelism = None;
    fnv1a(
        serde_json::to_string(&canonical)
            .unwrap_or_default()
            .as_bytes(),
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, CompileSession};
    use pimcomp_arch::PipelineMode;
    use pimcomp_ir::models;

    fn model() -> CompiledModel {
        CompileSession::new(
            HardwareConfig::small_test(),
            &models::tiny_cnn(),
            CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(5),
        )
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn json_round_trip_preserves_the_model() {
        let m = model();
        let artifact = CompiledArtifact::new(m.clone());
        let json = artifact.to_json().unwrap();
        let back = CompiledArtifact::from_json(&json).unwrap();
        assert_eq!(back.format_version(), CompiledArtifact::FORMAT_VERSION);
        assert_eq!(back.hw_fingerprint(), artifact.hw_fingerprint());
        let mut restored = back.into_model(&m.hw).unwrap();
        assert_eq!(restored.graph, m.graph);
        assert_eq!(restored.chromosome, m.chromosome);
        assert_eq!(restored.mapping, m.mapping);
        assert_eq!(restored.schedule, m.schedule);
        assert_eq!(restored.memory, m.memory);
        // Stage timings are the one field a rebuild re-measures.
        restored.report.timings = m.report.timings;
        assert_eq!(restored.report, m.report);
    }

    #[test]
    fn fingerprint_mismatch_fails_cleanly() {
        let artifact = CompiledArtifact::new(model());
        let other = HardwareConfig::small_test().with_parallelism(999);
        assert!(matches!(
            artifact.verify_hardware(&other),
            Err(ArtifactError::HardwareMismatch { .. })
        ));
        assert!(matches!(
            artifact.into_model(&other),
            Err(ArtifactError::HardwareMismatch { .. })
        ));
    }

    #[test]
    fn version_mismatch_fails_before_decoding() {
        let artifact = CompiledArtifact::new(model());
        let json = artifact.to_json().unwrap().replacen(
            &format!("\"format_version\":{}", CompiledArtifact::FORMAT_VERSION),
            "\"format_version\":999",
            1,
        );
        assert!(matches!(
            CompiledArtifact::from_json(&json),
            Err(ArtifactError::UnsupportedVersion {
                found: 999,
                supported: CompiledArtifact::FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn save_and_load_round_trip() {
        let artifact = CompiledArtifact::new(model());
        let dir = std::env::temp_dir().join("pimcomp-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.pimc.json");
        artifact.save(&path).unwrap();
        let back = CompiledArtifact::load(&path).unwrap();
        assert_eq!(back.to_json().unwrap(), artifact.to_json().unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = hardware_fingerprint(&HardwareConfig::small_test());
        let b = hardware_fingerprint(&HardwareConfig::small_test());
        assert_eq!(a, b);
        let c = hardware_fingerprint(&HardwareConfig::small_test().with_parallelism(2));
        assert_ne!(a, c);
    }
}
