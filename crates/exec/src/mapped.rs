//! The mapped MVM strategy: execute a compiled model's per-crossbar
//! layout numerically.
//!
//! Each MVM node's weight matrix is split exactly the way the compiled
//! [`Partitioning`] and [`CoreMapping`] say it is: column groups first,
//! then replicas (each handling a contiguous window range), then Array
//! Groups (crossbar-height row slices), each AG's columns living on
//! physical crossbars. A window's output element is the sum of its
//! per-slice partial sums, accumulated in ascending slice order at the
//! replica's owner core — so a missing, duplicated or misplaced AG in
//! the mapping produces either a structured [`ExecError`] (from
//! [`CompiledModel::validate`]) or a wrong tensor a differential test
//! catches.
//!
//! With a [`QuantConfig`], the executor additionally models the analog
//! datapath: weights are rounded to `weight_bits`-bit integers under a
//! per-node symmetric scale (their base-`2^cell_bits` bit-slice
//! decomposition is value-exact, see [`slice_cells`]), and every
//! per-crossbar column sum passes through an ADC that rounds and clips
//! to a `2^adc_bits`-level grid over a per-node calibrated full scale.
//! ADC grids over one full scale are nested in `adc_bits`, so the
//! per-partial error — and with it the single-layer output RMSE — is
//! monotone non-increasing in ADC resolution.

use crate::engine::{MvmBackend, MvmJob, WeightMatrix};
use crate::error::ExecError;
use crate::reference::dot;
use pimcomp_arch::QuantConfig;
use pimcomp_core::{slice_rows, ArtifactError, CompiledModel, NodePartition};

/// Computes MVM nodes through the compiled per-crossbar layout.
pub struct MappedBackend<'a> {
    model: &'a CompiledModel,
    quant: Option<QuantConfig>,
}

impl<'a> MappedBackend<'a> {
    /// Builds the executor after [`CompiledModel::validate`] has checked
    /// everything it will index.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidModel`] on any inconsistency a tampered
    /// model could exhibit, and [`ExecError::InvalidQuant`] for bad
    /// quantization knobs.
    pub fn new(model: &'a CompiledModel, quant: Option<QuantConfig>) -> Result<Self, ExecError> {
        if let Some(q) = &quant {
            q.validate().map_err(|e| ExecError::InvalidQuant {
                detail: e.to_string(),
            })?;
        }
        model.validate().map_err(ExecError::InvalidModel)?;
        Ok(MappedBackend { model, quant })
    }

    /// The node's partition entries in column-group order, validated
    /// against the job geometry.
    fn node_entries(&self, job: &MvmJob) -> Result<Vec<usize>, ExecError> {
        let mut indices = self.model.partitioning.indices_of(job.node.id);
        if indices.is_empty() {
            return Err(ExecError::MissingPartition {
                node: job.node.name.clone(),
            });
        }
        let entries = self.model.partitioning.entries();
        indices.sort_by_key(|&i| entries[i].col_group);
        let mut width = 0usize;
        for (pos, &i) in indices.iter().enumerate() {
            let e = &entries[i];
            if e.col_group != pos || e.col_groups != indices.len() {
                return Err(ExecError::InvalidModel(ArtifactError::Inconsistent {
                    detail: format!(
                        "column groups of `{}` are not consecutive (group {} of {})",
                        job.node.name, e.col_group, e.col_groups
                    ),
                }));
            }
            if e.weight_height != job.height || e.windows != job.windows {
                return Err(ExecError::ShapeMismatch {
                    node: job.node.name.clone(),
                    detail: format!(
                        "partition entry expects {}×? over {} windows, kernel computes {}×{} \
                         over {} windows",
                        e.weight_height, e.windows, job.height, job.width, job.windows
                    ),
                });
            }
            width += e.weight_width;
        }
        if width != job.width {
            return Err(ExecError::ShapeMismatch {
                node: job.node.name.clone(),
                detail: format!(
                    "column groups cover {width} columns, weight matrix has {}",
                    job.width
                ),
            });
        }
        Ok(indices)
    }

    /// Runs the layout over every `(window, slice, column)` partial,
    /// feeding each partial (and its output cell) to `sink` in the
    /// deterministic accumulation order.
    fn for_each_partial(
        &self,
        job: &MvmJob,
        indices: &[usize],
        weights: &WeightMatrix,
        mut sink: impl FnMut(usize, f32),
    ) {
        let entries = self.model.partitioning.entries();
        let counts = self.model.mapping.replication.counts();
        let hx = self.model.hw.crossbar_rows;
        let mut col_base = 0usize;
        for &idx in indices {
            let e: &NodePartition = &entries[idx];
            let r = counts[idx];
            let wpr = e.windows_per_replica(r);
            for replica in 0..r {
                let w0 = replica * wpr;
                let w1 = (w0 + wpr).min(e.windows);
                if w0 >= w1 {
                    continue;
                }
                // The replica's AGs (validated to exist, one per
                // slice) accumulate at the owner core in ascending
                // slice order.
                for s in 0..e.ags_per_replica {
                    let rows = slice_rows(e.weight_height, hx, s);
                    if rows == 0 {
                        continue;
                    }
                    let r0 = s * hx;
                    for w in w0..w1 {
                        for c in 0..e.weight_width {
                            let gcol = col_base + c;
                            let g = job.group_of(gcol);
                            let row = &job.rows[g][w * job.height + r0..w * job.height + r0 + rows];
                            let wcol = &weights.col(gcol)[r0..r0 + rows];
                            sink(w * job.width + gcol, dot(row, wcol));
                        }
                    }
                }
            }
            col_base += e.weight_width;
        }
    }
}

impl MvmBackend for MappedBackend<'_> {
    fn mvm(&mut self, job: &MvmJob) -> Result<Vec<f32>, ExecError> {
        let indices = self.node_entries(job)?;
        let mut out = vec![0.0f32; job.windows * job.width];
        match &self.quant {
            None => {
                self.for_each_partial(job, &indices, job.weights, |cell, p| out[cell] += p);
            }
            Some(q) if q.is_ideal_adc() => {
                // Ideal converter: weight quantization is the only
                // accuracy effect — the ADC-monotonicity baseline.
                let qw = quantize_weights(job.weights, q);
                self.for_each_partial(job, &indices, &qw, |cell, p| out[cell] += p);
            }
            Some(q) => {
                let qw = quantize_weights(job.weights, q);
                // Calibration pass: the ADC full scale is the largest
                // unclipped partial magnitude of this node — a function
                // of the quantized weights and the input only, NOT of
                // adc_bits, so grids of different resolutions nest.
                let mut full_scale = 0.0f32;
                self.for_each_partial(job, &indices, &qw, |_, p| {
                    full_scale = full_scale.max(p.abs())
                });
                let half = q.adc_half_levels();
                self.for_each_partial(job, &indices, &qw, |cell, p| {
                    out[cell] += adc_quantize(p, full_scale, half)
                });
            }
        }
        Ok(out)
    }
}

/// Rounds weights to `weight_bits`-bit signed integers under a
/// symmetric per-matrix scale, returning the dequantized matrix. The
/// physical bit-slice storage (base-`2^cell_bits` cells) reconstructs
/// these values exactly, so computing with the dequantized matrix is
/// the cell-accurate result — see [`slice_cells`].
fn quantize_weights(w: &WeightMatrix, q: &QuantConfig) -> WeightMatrix {
    let qmax = q.weight_qmax() as f32;
    let max_abs = w.cols.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max_abs == 0.0 {
        return WeightMatrix {
            height: w.height,
            width: w.width,
            cols: w.cols.clone(),
        };
    }
    let scale = max_abs / qmax;
    let cols = w
        .cols
        .iter()
        .map(|&v| (v / scale).round().clamp(-qmax, qmax) * scale)
        .collect();
    WeightMatrix {
        height: w.height,
        width: w.width,
        cols,
    }
}

/// One ADC conversion: round `x` to the signed `2^adc_bits`-level grid
/// of step `full_scale / 2^(adc_bits-1)` and clip to its range. Grids
/// of increasing resolution over one full scale are nested (every
/// coarse level is a fine level and the clip range only widens), so
/// `|x - adc(x)|` is non-increasing in `adc_bits`.
fn adc_quantize(x: f32, full_scale: f32, half_levels: i64) -> f32 {
    if full_scale <= 0.0 {
        return 0.0;
    }
    let step = full_scale / half_levels as f32;
    let q = (x / step)
        .round()
        .clamp(-(half_levels as f32), (half_levels - 1) as f32);
    q * step
}

/// Decomposes a non-negative quantized weight into base-`2^cell_bits`
/// cell conductances, least significant cell first. Exposed for the
/// bit-slicing exactness tests: the decomposition reconstructs the
/// integer exactly, which is why `quantize_weights`'s dequantized
/// matrix equals the cell-level computation.
pub fn slice_cells(value: u64, cell_bits: u32, cells: u32) -> Vec<u64> {
    let base = 1u64 << cell_bits;
    let mut rest = value;
    let mut out = Vec::with_capacity(cells as usize);
    for _ in 0..cells {
        out.push(rest % base);
        rest /= base;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_slice_decomposition_is_exact() {
        // Every 16-bit offset-encoded weight decomposes into 2-bit
        // cells and reconstructs exactly — the cell-level layout
        // computes the same value as the dequantized matrix.
        for value in [0u64, 1, 2, 37, 255, 32767, 65534, 65535] {
            for cell_bits in [1u32, 2, 4, 8] {
                let cells = 16u32.div_ceil(cell_bits);
                let sliced = slice_cells(value, cell_bits, cells);
                let rebuilt: u64 = sliced
                    .iter()
                    .enumerate()
                    .map(|(i, c)| c << (cell_bits * i as u32))
                    .sum();
                assert_eq!(rebuilt, value, "value {value} cell_bits {cell_bits}");
                assert!(sliced.iter().all(|&c| c < (1 << cell_bits)));
            }
        }
    }

    #[test]
    fn adc_grids_nest() {
        // Every representable level of a b-bit ADC is representable by
        // a (b+1)-bit ADC over the same full scale, so the pointwise
        // error is non-increasing in resolution.
        let fs = 3.7f32;
        for x in [-4.0f32, -3.7, -1.234, -0.01, 0.0, 0.5, 1.9999, 3.69, 5.0] {
            let mut prev = f32::INFINITY;
            for bits in 1..=12u32 {
                let half = 1i64 << (bits - 1);
                let err = (x - adc_quantize(x, fs, half)).abs();
                assert!(
                    err <= prev + 1e-9,
                    "x={x} bits={bits}: err {err} > coarser {prev}"
                );
                prev = err;
            }
        }
    }

    #[test]
    fn adc_clips_to_range() {
        let half = 128i64; // 8-bit
        let fs = 1.0f32;
        assert_eq!(
            adc_quantize(10.0, fs, half),
            (half - 1) as f32 / half as f32
        );
        assert_eq!(adc_quantize(-10.0, fs, half), -1.0);
        assert_eq!(adc_quantize(0.0, fs, half), 0.0);
    }
}
