//! Inference windows over a feature matrix, and the layer-0 input
//! projection that overlapping windows share.
//!
//! A window is the `t` consecutive rows of a row-major feature matrix
//! that end at one row; rows before the matrix's first read as zeros
//! (the trace-head padding). Consecutive windows of one trace share
//! `t - 1` of their `t` rows, so a recurrent model's first-layer input
//! pre-activations `b + W_ih·x` need computing once per row, not once
//! per (window, row): [`InputProjection`] does exactly that.

use crate::tensor::{fill_rows_bm, gemm_bm_acc};

/// One window: `(features, end)` is the `t` rows of the row-major
/// matrix `features` that end at row `end` (zero rows before row 0).
pub type Window<'a> = (&'a [f32], usize);

/// Copy `window`'s `t` rows (`in_dim` features each) into `out`
/// (`t x in_dim`, oldest row first), zero-filling rows before row 0:
/// the window every training step and scalar `forward` reads.
pub fn fill_window(window: Window<'_>, t: usize, in_dim: usize, out: &mut [f32]) {
    let (features, end) = window;
    debug_assert_eq!(out.len(), t * in_dim);
    for (slot, row_out) in out.chunks_exact_mut(in_dim).enumerate() {
        // Slot `t - 1` is row `end`; earlier slots are earlier rows.
        match (end + slot + 1).checked_sub(t) {
            Some(r) => row_out.copy_from_slice(&features[r * in_dim..(r + 1) * in_dim]),
            None => row_out.fill(0.0),
        }
    }
}

/// The layer-0 input pre-activations of a block of windows, each row
/// projected once however many windows read it.
///
/// Windows are laid out as runs of projected rows ("slots"): a window
/// that reads the same matrix as the previous one and ends 1 to `t`
/// rows after it extends that run by its new rows, any other window
/// starts a run of its own `t` rows. `B` consecutive windows therefore
/// project `B + t - 1` rows; windows that share no rows project `t`
/// rows each, as a per-window projection would.
///
/// Each slot holds `b + W_ih·x`: the bias first, then one accumulator
/// summing the products in ascending `k`, added once — exactly what a
/// batched step computes with [`gemm_bm_acc`] over a bias-filled `z`,
/// so every lane's pre-activations are bit-identical to the per-window
/// forward's.
pub(crate) struct InputProjection {
    /// Batch-major `rows x slots`: gate row `r` of slot `j` at
    /// `r * slots + j`.
    z: Vec<f32>,
    slots: usize,
    /// Per lane, the slot of its window's oldest row; step `t` of the
    /// lane reads slot `base + t`.
    bases: Vec<usize>,
}

impl InputProjection {
    /// Project the rows of `windows` (each `t` rows of `in_dim`
    /// features) through `w_ih` (`rows x in_dim`, row-major) and the
    /// bias `b` (`rows`).
    pub(crate) fn new(
        w_ih: &[f32],
        b: &[f32],
        in_dim: usize,
        windows: &[Window<'_>],
        t: usize,
    ) -> Self {
        let rows = b.len();
        debug_assert_eq!(w_ih.len(), rows * in_dim);
        // Each window's new rows: the run it extends covers the rest.
        let mut fresh = Vec::with_capacity(windows.len());
        let mut prev: Option<Window<'_>> = None;
        for &(features, end) in windows {
            debug_assert!(features.len() >= (end + 1) * in_dim);
            let n = match prev {
                Some((pf, pend)) if std::ptr::eq(pf, features) && end > pend && end - pend <= t => {
                    end - pend
                }
                _ => t,
            };
            fresh.push(n);
            prev = Some((features, end));
        }
        let slots: usize = fresh.iter().sum();
        // Gather the rows batch-major (`in_dim x slots`); padding rows
        // stay zero and are projected like any other row.
        let mut x = vec![0.0f32; in_dim * slots];
        let mut bases = Vec::with_capacity(windows.len());
        let mut j = 0;
        for (&(features, end), &n) in windows.iter().zip(&fresh) {
            // Rows `end + 1 - n ..= end`, shifted up by `t` so that the
            // padding rows before row 0 stay unsigned.
            for shifted in end + 1 + t - n..=end + t {
                if let Some(r) = shifted.checked_sub(t) {
                    let src = &features[r * in_dim..(r + 1) * in_dim];
                    for (k, &v) in src.iter().enumerate() {
                        x[k * slots + j] = v;
                    }
                }
                j += 1;
            }
            bases.push(j - t);
        }
        let mut z = vec![0.0f32; rows * slots];
        fill_rows_bm(&mut z, b, slots);
        let mut acc = vec![0.0f32; slots];
        gemm_bm_acc(w_ih, &x, &mut z, rows, in_dim, slots, &mut acc);
        InputProjection { z, slots, bases }
    }

    /// Write step `t`'s pre-activations of every lane into `z`
    /// (batch-major `rows x batch`).
    pub(crate) fn load(&self, t: usize, z: &mut [f32]) {
        let batch = self.bases.len();
        debug_assert_eq!(z.len() * self.slots, self.z.len() * batch);
        for (zr, pr) in z
            .chunks_exact_mut(batch)
            .zip(self.z.chunks_exact(self.slots))
        {
            for (zv, &base) in zr.iter_mut().zip(&self.bases) {
                *zv = pr[base + t];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows `0..n` of a 2-feature matrix, row `r` = `[r + 1, -(r + 1)]`.
    fn matrix(n: usize) -> Vec<f32> {
        (0..n)
            .flat_map(|r| [r as f32 + 1.0, -(r as f32) - 1.0])
            .collect()
    }

    #[test]
    fn fill_window_pads_the_trace_head_with_zeros() {
        let m = matrix(5);
        let mut out = vec![9.0f32; 3 * 2];
        fill_window((&m, 1), 3, 2, &mut out);
        assert_eq!(out, [0.0, 0.0, 1.0, -1.0, 2.0, -2.0]);
        fill_window((&m, 4), 3, 2, &mut out);
        assert_eq!(out, [3.0, -3.0, 4.0, -4.0, 5.0, -5.0]);
    }

    #[test]
    fn consecutive_windows_share_projected_rows() {
        let (m, other) = (matrix(40), matrix(40));
        // Identity-like projection: gate row 0 = feature 0, bias 0.5.
        let (w, b) = ([1.0f32, 0.0], [0.5f32]);
        let t = 4;
        let run: Vec<Window<'_>> = (0..16).map(|i| (&m[..], i)).collect();
        let p = InputProjection::new(&w, &b, 2, &run, t);
        assert_eq!(p.slots, 16 + t - 1);
        let mut z = vec![0.0f32; 16];
        for step in 0..t {
            p.load(step, &mut z);
            for (s, &v) in z.iter().enumerate() {
                // Window `s` reads row `s + step + 1 - t` at this step.
                let row = (s + step + 1).checked_sub(t);
                assert_eq!(
                    v,
                    row.map_or(0.5, |r| r as f32 + 1.5),
                    "lane {s} step {step}"
                );
            }
        }
        // Windows that share no rows (a repeat, a step back, another
        // matrix, a gap wider than the window) project `t` rows each.
        let scattered: Vec<Window<'_>> = vec![(&m, 20), (&m, 20), (&m, 3), (&other, 4), (&m, 30)];
        assert_eq!(InputProjection::new(&w, &b, 2, &scattered, t).slots, 5 * t);
    }
}
