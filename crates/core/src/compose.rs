//! Composing program representations from instruction representations
//! (Section III-B).
//!
//! The paper's central theorem: with a bias-free linear predictor and an
//! integrable target (incremental latency), the representation of a
//! program is the **sum** of the representations of its executed
//! instructions, so total time is `R_p . M`.
//!
//! Representation generation is embarrassingly parallel across
//! instructions — the property the paper highlights for GPU/HPC
//! execution. The windowed generator splits every trace into
//! [`SUM_CHUNK`]-instruction chunks; the chunks of all programs in a
//! call run in parallel, and each chunk feeds its windows
//! [`LANE_WIDTH`] at a time through
//! [`perfvec_ml::seq::SeqModel::forward_windows`]. Consecutive windows
//! share all but one of their rows, and the LSTM and GRU project each
//! row through their first layer once per block rather than once per
//! window that reads it; every window's representation stays
//! bit-identical to a scalar `forward` on it. A stateful streaming
//! generator (LSTM and GRU only) is provided as the fast single-pass
//! alternative, with chunk-level parallelism and warmup context.

use crate::foundation::Foundation;
use perfvec_ml::parallel::{parallel_map, LANE_WIDTH};
use perfvec_ml::window::Window;
use perfvec_trace::features::Matrix;
use std::ops::Range;

/// Instructions summed per accumulator before folding into the total.
///
/// Shared by every windowed generator and by the refit's normal
/// equations: identical chunking (and therefore identical
/// floating-point summation order) is what makes their results
/// bit-identical to one another.
pub const SUM_CHUNK: usize = 2_048;

/// The [`SUM_CHUNK`] work items of a set of traces with `lens` rows:
/// `(trace, rows)` in trace order, chunks ascending. Empty traces
/// contribute no item.
pub(crate) fn sum_chunks(lens: impl IntoIterator<Item = usize>) -> Vec<(usize, Range<usize>)> {
    let mut items = Vec::new();
    for (p, n) in lens.into_iter().enumerate() {
        for lo in (0..n).step_by(SUM_CHUNK) {
            items.push((p, lo..(lo + SUM_CHUNK).min(n)));
        }
    }
    items
}

/// Representations of a sequence of instruction windows, in order.
///
/// `windows` yields `(features, instruction)` pairs; they are gathered
/// `block` at a time (at least one) into one
/// [`perfvec_ml::seq::SeqModel::forward_windows`] call, and `visit(n, r)`
/// then sees the `n`-th window's representation, in ascending `n`.
/// Single-threaded: callers parallelize over chunks of windows. Each
/// `r` is bit-identical to [`Foundation::repr_at`] on the same window,
/// for any `block`, because the windowed forward is bit-identical per
/// window to the scalar one. The block size only changes the cost: a
/// recurrent model projects the `block + context` rows of a block of
/// consecutive windows once each. Offline callers use [`LANE_WIDTH`].
pub(crate) fn for_each_representation<'a>(
    foundation: &Foundation,
    block: usize,
    windows: impl IntoIterator<Item = (&'a Matrix, usize)>,
    mut visit: impl FnMut(usize, &[f32]),
) {
    let block = block.max(1);
    let mut buf: Vec<Window<'a>> = Vec::with_capacity(block);
    let mut done = 0;
    for (features, i) in windows {
        buf.push((&features.data, i));
        if buf.len() == block {
            visit_block(foundation, &buf, done, &mut visit);
            done += buf.len();
            buf.clear();
        }
    }
    visit_block(foundation, &buf, done, &mut visit);
}

/// One `forward_windows` over `windows`, visited as windows
/// `done..done + windows.len()`.
fn visit_block(
    foundation: &Foundation,
    windows: &[Window<'_>],
    done: usize,
    visit: &mut impl FnMut(usize, &[f32]),
) {
    if windows.is_empty() {
        return;
    }
    let outs = foundation
        .model
        .forward_windows(windows, foundation.window());
    for (s, r) in outs.chunks_exact(foundation.dim()).enumerate() {
        visit(done + s, r);
    }
}

pub(crate) fn add_into(acc: &mut [f32], v: &[f32]) {
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += x;
    }
}

/// Per-instruction representations for `range` (windowed, exact
/// training-time semantics); returns an `len x d` matrix.
pub fn instruction_representations(
    foundation: &Foundation,
    features: &Matrix,
    range: Range<usize>,
) -> Matrix {
    let d = foundation.dim();
    let items = sum_chunks([range.len()]);
    let blocks = parallel_map(items.len(), |n| {
        let rows = items[n].1.clone();
        let mut out = Vec::with_capacity(rows.len() * d);
        let windows = rows.map(|i| (features, range.start + i));
        for_each_representation(foundation, LANE_WIDTH, windows, |_, r| {
            out.extend_from_slice(r)
        });
        out
    });
    Matrix {
        rows: range.len(),
        cols: d,
        data: blocks.concat(),
    }
}

/// The program representations `R_p = sum_i R_i` of several traces,
/// computed with the exact windowed semantics.
///
/// Every trace is cut into [`SUM_CHUNK`] chunks and the chunks of *all*
/// programs run through one parallel map, so a set of short programs
/// still fills every core. Within a chunk the windows run
/// [`LANE_WIDTH`] at a time through the windowed forward pass and are
/// summed in ascending instruction order; each program's chunk partials
/// are then folded in chunk order.
/// A program's result therefore does not depend on which other programs
/// share the call, and equals the scalar per-window sum bit for bit.
pub fn program_representations(foundation: &Foundation, programs: &[&Matrix]) -> Vec<Vec<f32>> {
    let d = foundation.dim();
    let items = sum_chunks(programs.iter().map(|m| m.rows));
    let partials = parallel_map(items.len(), |n| {
        let (p, rows) = &items[n];
        let mut acc = vec![0.0f32; d];
        let windows = rows.clone().map(|i| (programs[*p], i));
        for_each_representation(foundation, LANE_WIDTH, windows, |_, r| {
            add_into(&mut acc, r)
        });
        acc
    });
    let mut totals = vec![vec![0.0f32; d]; programs.len()];
    for ((p, _), partial) in items.iter().zip(&partials) {
        add_into(&mut totals[*p], partial);
    }
    totals
}

/// The program representation of one trace: the single-program case of
/// [`program_representations`].
pub fn program_representation(foundation: &Foundation, features: &Matrix) -> Vec<f32> {
    program_representations(foundation, &[features])
        .pop()
        .expect("one program in, one representation out")
}

/// Coalesced batched representations for several programs at once: the
/// windows of all `programs` form one stream (program-major,
/// instructions ascending), processed `block` windows at a time through
/// [`perfvec_ml::seq::SeqModel::forward_windows`] — one batched pass can
/// carry windows from several programs, which is the inference server's
/// micro-batching coalescing itself.
///
/// Single-threaded by design (the server's worker pool provides the
/// parallelism). Because each batched window is bit-identical to a
/// `forward` call, per-program windows are visited in ascending order,
/// and the summation replays [`program_representation`]'s exact
/// [`SUM_CHUNK`] structure, every returned representation is
/// **bit-identical** to `program_representation` on that program alone
/// — for any `block` size and any grouping of programs.
pub fn program_representations_coalesced(
    foundation: &Foundation,
    programs: &[&Matrix],
    block: usize,
) -> Vec<Vec<f32>> {
    let d = foundation.dim();
    let mut totals = vec![vec![0.0f32; d]; programs.len()];
    // Programs are visited one after another, so one chunk accumulator
    // serves them all.
    let mut acc = vec![0.0f32; d];
    let owners = || (0..programs.len()).flat_map(|p| (0..programs[p].rows).map(move |i| (p, i)));
    let windows = owners().map(|(p, i)| (programs[p], i));
    let mut owner = owners();
    for_each_representation(foundation, block, windows, |_, r| {
        let (p, i) = owner.next().expect("one visit per window");
        add_into(&mut acc, r);
        // Fold the chunk accumulator into the total at chunk
        // boundaries and at the end of the program's trace.
        if (i + 1) % SUM_CHUNK == 0 || i + 1 == programs[p].rows {
            add_into(&mut totals[p], &acc);
            acc.fill(0.0);
        }
    });
    totals
}

/// Fast single-pass streaming representation (stateful recurrent
/// foundation models — LSTM and GRU): one stateful step per instruction
/// instead of a full window.
///
/// The trace is split into chunks processed in parallel; each chunk
/// replays `warmup` preceding instructions to rebuild recurrent state
/// before contributing, so the result approaches the windowed sum as
/// `warmup` grows past the training context. Returns `None` for
/// window-only architectures (see
/// [`perfvec_ml::seq::SeqModel::supports_streaming`]).
pub fn program_representation_streaming(
    foundation: &Foundation,
    features: &Matrix,
    chunk: usize,
    warmup: usize,
) -> Option<Vec<f32>> {
    let model = &foundation.model;
    model.supports_streaming().then_some(())?;
    let d = foundation.dim();
    let n = features.rows;
    if n == 0 {
        return Some(vec![0.0; d]);
    }
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let partials = parallel_map(n_chunks, |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        let start = lo.saturating_sub(warmup);
        let mut state = model
            .stream_state()
            .expect("streaming support checked above");
        let mut out = vec![0.0f32; d];
        let mut acc = vec![0.0f32; d];
        for i in start..hi {
            model.stream_step(&mut state, features.row(i), &mut out);
            if i >= lo {
                add_into(&mut acc, &out);
            }
        }
        acc
    });
    let mut total = vec![0.0f32; d];
    for p in &partials {
        add_into(&mut total, p);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foundation::{ArchKind, ArchSpec};
    use perfvec_trace::NUM_FEATURES;

    fn toy_features(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, NUM_FEATURES);
        for i in 0..n {
            m.row_mut(i)[i % 7] = 1.0;
            m.row_mut(i)[45] = (i as f32 * 0.01).fract();
        }
        m
    }

    fn lstm_foundation() -> Foundation {
        Foundation::new(ArchSpec::default_lstm(8), 3, 0.1, 11)
    }

    #[test]
    fn program_representation_is_sum_of_instruction_representations() {
        let f = lstm_foundation();
        let feats = toy_features(100);
        let rp = program_representation(&f, &feats);
        let per = instruction_representations(&f, &feats, 0..100);
        let mut sum = vec![0.0f32; 8];
        for i in 0..100 {
            for (s, &v) in sum.iter_mut().zip(per.row(i)) {
                *s += v;
            }
        }
        for (a, b) in rp.iter().zip(&sum) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn empty_trace_has_zero_representation() {
        let f = lstm_foundation();
        let feats = Matrix::zeros(0, NUM_FEATURES);
        assert_eq!(program_representation(&f, &feats), vec![0.0; 8]);
    }

    #[test]
    fn streaming_approaches_windowed_with_enough_warmup() {
        // The window must cover the LSTM's effective memory for the two
        // modes to agree: with the standard forget-gate-bias init the
        // per-step retention is ~sigmoid(1) ≈ 0.73, so a context of 12
        // leaves < 3% of long-range state outside the window, while the
        // module-default context of 3 would leave ~40%.
        let f = Foundation::new(ArchSpec::default_lstm(8), 12, 0.1, 11);
        let feats = toy_features(400);
        let windowed = program_representation(&f, &feats);
        let streamed = program_representation_streaming(&f, &feats, 64, 32).unwrap();
        // Streaming carries longer context than the window, so the two
        // differ, but they must be strongly correlated in scale/sign.
        let dot: f32 = windowed.iter().zip(&streamed).map(|(a, b)| a * b).sum();
        let na: f32 = windowed.iter().map(|a| a * a).sum::<f32>().sqrt();
        let nb: f32 = streamed.iter().map(|b| b * b).sum::<f32>().sqrt();
        assert!(
            dot / (na * nb) > 0.9,
            "cosine similarity too low: {}",
            dot / (na * nb)
        );
    }

    #[test]
    fn streaming_chunking_is_consistent() {
        // With warmup >= the full prefix, chunked == single-chunk.
        let f = lstm_foundation();
        let feats = toy_features(120);
        let one = program_representation_streaming(&f, &feats, 400, 0).unwrap();
        let many = program_representation_streaming(&f, &feats, 30, 120).unwrap();
        for (a, b) in one.iter().zip(&many) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn window_only_models_do_not_stream_but_recurrent_ones_do() {
        for (kind, streams) in [
            (ArchKind::Mlp, false),
            (ArchKind::Transformer, false),
            (ArchKind::BiLstm, false),
            (ArchKind::Lstm, true),
            (ArchKind::Gru, true),
        ] {
            let f = Foundation::new(
                ArchSpec {
                    kind,
                    layers: 1,
                    dim: 8,
                },
                3,
                0.1,
                1,
            );
            assert_eq!(
                program_representation_streaming(&f, &toy_features(10), 4, 2).is_some(),
                streams,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn gru_streaming_chunking_is_consistent() {
        // The GRU fast path must show the same chunk-invariance as the
        // LSTM one: with warmup >= the full prefix, chunked == one pass.
        let f = Foundation::new(
            ArchSpec {
                kind: ArchKind::Gru,
                layers: 2,
                dim: 8,
            },
            3,
            0.1,
            11,
        );
        let feats = toy_features(120);
        let one = program_representation_streaming(&f, &feats, 400, 0).unwrap();
        let many = program_representation_streaming(&f, &feats, 30, 120).unwrap();
        for (a, b) in one.iter().zip(&many) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn gru_streaming_approaches_windowed_with_enough_warmup() {
        let f = Foundation::new(
            ArchSpec {
                kind: ArchKind::Gru,
                layers: 2,
                dim: 8,
            },
            12,
            0.1,
            11,
        );
        let feats = toy_features(400);
        let windowed = program_representation(&f, &feats);
        let streamed = program_representation_streaming(&f, &feats, 64, 48).unwrap();
        let dot: f32 = windowed.iter().zip(&streamed).map(|(a, b)| a * b).sum();
        let na: f32 = windowed.iter().map(|a| a * a).sum::<f32>().sqrt();
        let nb: f32 = streamed.iter().map(|b| b * b).sum::<f32>().sqrt();
        assert!(
            dot / (na * nb) > 0.9,
            "cosine similarity too low: {}",
            dot / (na * nb)
        );
    }

    #[test]
    fn blocked_representation_is_bit_identical_for_every_block_size() {
        // The inference server relies on this exact equality for its
        // served-equals-offline parity guarantee, across architectures
        // (specialized batched paths and the generic fallback alike).
        for kind in [ArchKind::Lstm, ArchKind::Gru, ArchKind::Transformer] {
            let f = Foundation::new(
                ArchSpec {
                    kind,
                    layers: 2,
                    dim: 8,
                },
                3,
                0.1,
                7,
            );
            let feats = toy_features(100);
            let reference = program_representation(&f, &feats);
            for block in [1usize, 7, 32, 256] {
                let blocked = program_representations_coalesced(&f, &[&feats], block);
                assert_eq!(vec![reference.clone()], blocked, "{kind:?} block {block}");
            }
        }
    }

    #[test]
    fn coalesced_representations_are_bit_identical_per_program() {
        // Windows of several programs share forward_windows blocks; each
        // program's representation must still equal the windowed
        // reference exactly — the serving engine's parity foundation.
        for kind in [ArchKind::Lstm, ArchKind::Gru] {
            let f = Foundation::new(
                ArchSpec {
                    kind,
                    layers: 2,
                    dim: 8,
                },
                3,
                0.1,
                7,
            );
            let feats: Vec<Matrix> = (0..5).map(|s| toy_features(40 + 13 * s)).collect();
            let refs: Vec<&Matrix> = feats.iter().collect();
            for block in [1usize, 3, 8, 64] {
                let reps = program_representations_coalesced(&f, &refs, block);
                for (m, rep) in feats.iter().zip(&reps) {
                    assert_eq!(
                        rep,
                        &program_representation(&f, m),
                        "{kind:?} block {block}"
                    );
                }
            }
        }
    }

    #[test]
    fn instruction_representations_match_repr_at_across_chunks() {
        let f = lstm_foundation();
        let feats = toy_features(SUM_CHUNK + 40);
        let range = 5..SUM_CHUNK + 37;
        let per = instruction_representations(&f, &feats, range.clone());
        assert_eq!((per.rows, per.cols), (range.len(), 8));
        for (row, i) in range.enumerate().step_by(97) {
            assert_eq!(per.row(row), &f.repr_at(&feats, i)[..], "instruction {i}");
        }
    }

    #[test]
    fn blocked_representation_spans_chunk_boundaries_exactly() {
        // More instructions than SUM_CHUNK forces the chunk-partial fold
        // to run; a block size that does not divide the chunk exercises
        // ragged block tails.
        let f = lstm_foundation();
        let feats = toy_features(SUM_CHUNK + 513);
        assert_eq!(
            vec![program_representation(&f, &feats)],
            program_representations_coalesced(&f, &[&feats], 30)
        );
    }

    #[test]
    fn blocked_representation_of_empty_trace_is_zero() {
        let f = lstm_foundation();
        let feats = Matrix::zeros(0, NUM_FEATURES);
        assert_eq!(
            program_representations_coalesced(&f, &[&feats], 8),
            vec![vec![0.0; 8]]
        );
    }

    #[test]
    fn representation_is_additive_over_trace_concatenation() {
        // R(ab) == R(a) + R(b) when the window is fully contained (no
        // cross-boundary context): verify with context 0.
        let f = Foundation::new(ArchSpec::default_lstm(8), 0, 0.1, 2);
        let a = toy_features(37);
        let b = toy_features(53);
        let mut ab = Matrix::zeros(90, NUM_FEATURES);
        for i in 0..37 {
            ab.row_mut(i).copy_from_slice(a.row(i));
        }
        for i in 0..53 {
            ab.row_mut(37 + i).copy_from_slice(b.row(i));
        }
        let ra = program_representation(&f, &a);
        let rb = program_representation(&f, &b);
        let rab = program_representation(&f, &ab);
        for i in 0..8 {
            assert!(
                (rab[i] - ra[i] - rb[i]).abs() < 1e-3 * (1.0 + rab[i].abs()),
                "dim {i}: {} vs {} + {}",
                rab[i],
                ra[i],
                rb[i]
            );
        }
    }
}
