//! The two-lane-group training step must reproduce the one-group step
//! bit for bit. These tests pin its composition — group forwards, group
//! deltas, then the parameter accumulation split by gradient rows — to
//! one-group `backward_batch` for the recurrent models, and the whole
//! batched trainer to the scalar trainer, checkpoint byte for byte.

use perfvec::checkpoint::encode;
use perfvec::data::build_program_data;
use perfvec::foundation::{ArchKind, ArchSpec};
use perfvec::trainer::{train_foundation, TrainConfig};
use perfvec_ml::parallel::lane_split;
use perfvec_ml::seq::{LaneGroup, SeqModel};
use perfvec_ml::tensor::TERM_CHUNK;
use perfvec_sim::sample::predefined_configs;
use perfvec_trace::features::FeatureMask;
use perfvec_workloads::training_suite;

const IN_DIM: usize = 7;
const DIM: usize = 6;
/// Long enough that the widest batches have more rank-1 terms
/// (`batch * STEPS`) than one `TERM_CHUNK` of the accumulation.
const STEPS: usize = 17;

fn inputs(batch: usize) -> Vec<f32> {
    (0..batch * STEPS * IN_DIM)
        .map(|i| (((i * 37 + 11) % 23) as f32 - 11.0) * 0.09)
        .collect()
}

/// Upstream gradients with one all-zero lane, so the zero-delta skip of
/// the accumulation is exercised too.
fn douts(batch: usize) -> Vec<f32> {
    (0..batch * DIM)
        .map(|i| {
            if i / DIM == batch / 2 {
                0.0
            } else {
                (((i * 13 + 5) % 17) as f32 - 8.0) * 0.07
            }
        })
        .collect()
}

/// The first entry where `a` and `b` differ in any bit.
fn first_bit_difference(a: &[f32], b: &[f32]) -> Option<usize> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

/// The two-group step's model gradients, composed as the trainer does:
/// each group's forward and deltas on its own (the groups `0..mid` and
/// `mid..batch`, an empty one left out), part 0 of the rows accumulated
/// in place, part 1 into a copy of the buffer that is then copied back
/// over its rows.
fn two_group_grads(m: &SeqModel, xs: &[f32], dy: &[f32], mid: usize, init: &[f32]) -> Vec<f32> {
    let batch = dy.len() / DIM;
    let passes: Vec<_> = [0..mid, mid..batch]
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let xg = &xs[r.start * STEPS * IN_DIM..r.end * STEPS * IN_DIM];
            let (_, cache) = m.forward_batch_cached(xg, STEPS, r.len());
            let deltas = m.backward_deltas(&cache, &dy[r.start * DIM..r.end * DIM]);
            (xg, cache, deltas)
        })
        .collect();
    let lanes: Vec<LaneGroup<'_>> = passes
        .iter()
        .map(|(xs, cache, deltas)| LaneGroup { xs, cache, deltas })
        .collect();
    let mut grads = init.to_vec();
    let mut part1 = init.to_vec();
    m.accumulate_grads(STEPS, &lanes, 1, 2, &mut part1);
    m.accumulate_grads(STEPS, &lanes, 0, 2, &mut grads);
    for r in m.grad_part_ranges(1, 2) {
        grads[r.clone()].copy_from_slice(&part1[r]);
    }
    grads
}

#[test]
fn two_group_composition_matches_one_group_backward_bitwise() {
    const { assert!(32 * STEPS > TERM_CHUNK) };
    for layers in [1, 2] {
        let models = [
            SeqModel::lstm(IN_DIM, DIM, layers, 41),
            SeqModel::gru(IN_DIM, DIM, layers, 43),
        ];
        for m in &models {
            assert!(m.splits_backward(), "{}", m.describe());
            // A nonzero starting buffer: the split must accumulate onto
            // whatever is there exactly as one pass would.
            let init: Vec<f32> = (0..m.num_params())
                .map(|i| ((i % 9) as f32 - 4.0) * 1e-3)
                .collect();
            for batch in [1, 2, 15, 16, 17, 31, 32] {
                let xs = inputs(batch);
                let dy = douts(batch);
                let (_, cache) = m.forward_batch_cached(&xs, STEPS, batch);
                let mut one = init.clone();
                m.backward_batch(&xs, STEPS, batch, &cache, &dy, &mut one);
                // The trainer's split and both edge splits; a
                // one-sequence batch is one group split across two parts.
                let mut mids = vec![lane_split(batch).unwrap_or(batch.div_ceil(2)), 1, batch - 1];
                mids.retain(|&mid| mid >= 1);
                mids.sort_unstable();
                mids.dedup();
                for mid in mids {
                    let two = two_group_grads(m, &xs, &dy, mid, &init);
                    assert_eq!(
                        first_bit_difference(&two, &one),
                        None,
                        "{} batch {batch} split at {mid}: gradient entry differs",
                        m.describe()
                    );
                }
            }
        }
    }
}

#[test]
fn batched_trainer_matches_scalar_checkpoint_bytes_with_a_ragged_batch() {
    let configs = predefined_configs();
    let data: Vec<_> = training_suite()
        .iter()
        .take(2)
        .map(|w| build_program_data(&w.name, &w.trace(800), &configs, FeatureMask::Full))
        .collect();
    for kind in [ArchKind::Lstm, ArchKind::Gru] {
        let mut cfg = TrainConfig {
            arch: ArchSpec {
                kind,
                layers: 2,
                dim: 8,
            },
            context: 4,
            epochs: 2,
            batch_size: 32,
            // Five full 32-window batches, then a ragged one of 19 that
            // still splits into two lane groups.
            windows_per_epoch: 5 * 32 + 19,
            val_windows: 60,
            ..TrainConfig::default()
        };
        cfg.batched = true;
        let batched = train_foundation(&data, &cfg);
        cfg.batched = false;
        let scalar = train_foundation(&data, &cfg);
        assert_eq!(
            batched.report.train_loss, scalar.report.train_loss,
            "{kind:?}"
        );
        assert_eq!(batched.report.val_loss, scalar.report.val_loss, "{kind:?}");
        assert_eq!(
            encode(&batched.foundation, cfg.arch, Some(&batched.march_table)),
            encode(&scalar.foundation, cfg.arch, Some(&scalar.march_table)),
            "{kind:?}: batched and scalar checkpoints differ"
        );
    }
}
