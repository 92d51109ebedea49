//! Program analysis with the pre-trained foundation model
//! (Section VI-B: the loop-tiling study of Figure 8).
//!
//! Given program variants (e.g. a kernel compiled with different tile
//! sizes), the foundation model turns each variant's trace into a
//! representation; a single dot product against a microarchitecture
//! representation predicts its execution time — no per-variant training,
//! negligible inference cost.

use crate::compose::program_representations;
use crate::foundation::Foundation;
use crate::predict::predict_total_tenths;
use perfvec_isa::Trace;
use perfvec_sim::{simulate, MicroArchConfig};
use perfvec_trace::features::{extract_features, FeatureMask, Matrix};

/// One point of a program-variant sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Variant label (e.g. the tile size).
    pub label: String,
    /// Simulator ground-truth time (0.1 ns).
    pub simulated_tenths: f64,
    /// PerfVec-predicted time (0.1 ns).
    pub predicted_tenths: f64,
}

impl SweepPoint {
    /// Relative prediction error.
    pub fn rel_error(&self) -> f64 {
        perfvec_ml::loss::abs_rel_error(self.predicted_tenths, self.simulated_tenths)
    }
}

/// Evaluate a set of program variants on one machine: simulate each for
/// ground truth and predict each with the foundation model + the given
/// microarchitecture representation.
pub fn sweep_variants(
    foundation: &Foundation,
    march_rep: &[f32],
    variants: &[(String, Trace)],
    target: &MicroArchConfig,
) -> Vec<SweepPoint> {
    let feats: Vec<Matrix> = variants
        .iter()
        .map(|(_, trace)| extract_features(trace, FeatureMask::Full))
        .collect();
    let reps = program_representations(foundation, &feats.iter().collect::<Vec<_>>());
    variants
        .iter()
        .zip(&reps)
        .map(|((label, trace), rp)| SweepPoint {
            label: label.clone(),
            simulated_tenths: simulate(trace, target).total_tenths,
            predicted_tenths: predict_total_tenths(rp, march_rep, foundation.target_scale),
        })
        .collect()
}

/// Index of the best (fastest) variant under each of the two series.
/// Returns `(simulated_best, predicted_best)`.
pub fn best_variants(points: &[SweepPoint]) -> (usize, usize) {
    let arg_min = |f: fn(&SweepPoint) -> f64| {
        points
            .iter()
            .enumerate()
            .min_by(|a, b| f(a.1).total_cmp(&f(b.1)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    (
        arg_min(|p| p.simulated_tenths),
        arg_min(|p| p.predicted_tenths),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(label: &str, sim: f64, pred: f64) -> SweepPoint {
        SweepPoint {
            label: label.into(),
            simulated_tenths: sim,
            predicted_tenths: pred,
        }
    }

    #[test]
    fn best_variants_finds_minima() {
        let pts = vec![pt("1", 10.0, 12.0), pt("2", 5.0, 7.0), pt("4", 8.0, 6.0)];
        let (s, p) = best_variants(&pts);
        assert_eq!(s, 1);
        assert_eq!(p, 2);
    }

    #[test]
    fn rel_error_is_symmetric_enough() {
        assert!((pt("x", 100.0, 110.0).rel_error() - 0.1).abs() < 1e-12);
    }
}
