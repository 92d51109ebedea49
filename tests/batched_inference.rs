//! Offline inference runs windows through the windowed batched forward
//! pass; these tests pin it, for every architecture, bit for bit to a
//! scalar oracle: one `forward` per window (`Foundation::repr_at`),
//! summed in the same `SUM_CHUNK` order.

use perfvec::compose::{program_representations, program_representations_coalesced, SUM_CHUNK};
use perfvec::foundation::{ArchKind, ArchSpec, Foundation};
use perfvec::march_table::MarchTable;
use perfvec::refit::{accumulate_normal_equations, accumulate_with_representations, NormalEq};
use perfvec::trainer::validation_loss;
use perfvec_ml::parallel::LANE_WIDTH;
use perfvec_ml::window::Window;
use perfvec_trace::features::{Matrix, NUM_FEATURES};
use perfvec_trace::ProgramData;

const ARCHS: [ArchKind; 6] = [
    ArchKind::Linear,
    ArchKind::Mlp,
    ArchKind::Lstm,
    ArchKind::BiLstm,
    ArchKind::Gru,
    ArchKind::Transformer,
];

/// Machines per target row.
const K: usize = 3;

fn foundation(kind: ArchKind) -> Foundation {
    let spec = ArchSpec {
        kind,
        layers: 2,
        dim: 8,
    };
    Foundation::new(spec, 3, 0.1, 23)
}

/// Deterministic, non-trivial features: every row differs, a few
/// columns are zero as real one-hot features are.
fn features(n: usize, salt: usize) -> Matrix {
    let mut m = Matrix::zeros(n, NUM_FEATURES);
    for i in 0..n {
        let row = m.row_mut(i);
        row[(i + salt) % 7] = 1.0;
        for (c, v) in row.iter_mut().enumerate().skip(7).step_by(3) {
            *v = (((i * 31 + c * 17 + salt) % 101) as f32) / 101.0;
        }
    }
    m
}

fn program(n: usize, salt: usize) -> ProgramData {
    let mut targets = Matrix::zeros(n, K);
    for i in 0..n {
        for j in 0..K {
            targets.row_mut(i)[j] = ((i * 7 + j * 13 + salt) % 50) as f32 + 0.5;
        }
    }
    ProgramData {
        name: format!("p{n}"),
        features: features(n, salt),
        targets,
    }
}

/// Empty, single-row, ragged-block and multi-chunk programs. Three
/// chunks make the order in which partials fold observable.
fn programs() -> Vec<ProgramData> {
    let lens = [0, 1, LANE_WIDTH + 13, SUM_CHUNK + 513, 2 * SUM_CHUNK + 7];
    lens.iter()
        .enumerate()
        .map(|(s, &n)| program(n, s))
        .collect()
}

fn add_into(acc: &mut [f32], v: &[f32]) {
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += x;
    }
}

fn scalar_program_representation(f: &Foundation, m: &Matrix) -> Vec<f32> {
    let mut total = vec![0.0f32; f.dim()];
    for lo in (0..m.rows).step_by(SUM_CHUNK) {
        let mut acc = vec![0.0f32; f.dim()];
        for i in lo..(lo + SUM_CHUNK).min(m.rows) {
            add_into(&mut acc, &f.repr_at(m, i));
        }
        add_into(&mut total, &acc);
    }
    total
}

fn scalar_normal_equations(f: &Foundation, data: &[ProgramData]) -> NormalEq {
    let mut total = NormalEq::zeros(f.dim(), K);
    for d in data {
        for lo in (0..d.len()).step_by(SUM_CHUNK) {
            let mut eq = NormalEq::zeros(f.dim(), K);
            for i in lo..(lo + SUM_CHUNK).min(d.len()) {
                eq.accumulate(&f.repr_at(&d.features, i), d.targets.row(i), f.target_scale);
            }
            add_f64(&mut total.xtx, &eq.xtx);
            add_f64(&mut total.xty, &eq.xty);
            total.count += eq.count;
        }
    }
    total
}

fn add_f64(acc: &mut [f64], v: &[f64]) {
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += x;
    }
}

fn scalar_validation_loss(
    f: &Foundation,
    table: &MarchTable,
    data: &[ProgramData],
    items: &[(usize, usize)],
    inv_scale: &[f32],
) -> f64 {
    let mut preds = vec![0.0f32; table.k];
    let mut total = 0.0f64;
    for chunk in items.chunks(LANE_WIDTH) {
        let mut chunk_loss = 0.0f64;
        for &(p, i) in chunk {
            table.predict_all(&f.repr_at(&data[p].features, i), &mut preds);
            let targets = data[p].targets.row(i);
            let mut item_loss = 0.0f64;
            for j in 0..table.k {
                let err = preds[j] - targets[j] * f.target_scale * inv_scale[j];
                item_loss += (err * err) as f64;
            }
            chunk_loss += item_loss / table.k as f64;
        }
        total += chunk_loss;
    }
    total / items.len() as f64
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn program_representations_match_the_scalar_oracle_bitwise() {
    let data = programs();
    let feats: Vec<&Matrix> = data.iter().map(|d| &d.features).collect();
    for kind in ARCHS {
        let f = foundation(kind);
        assert!(program_representations(&f, &[]).is_empty(), "{kind:?}");
        let reps = program_representations(&f, &feats);
        assert_eq!(reps.len(), feats.len());
        for (m, rep) in feats.iter().zip(&reps) {
            assert_eq!(
                bits(rep),
                bits(&scalar_program_representation(&f, m)),
                "{kind:?}, {} rows",
                m.rows
            );
        }
    }
}

#[test]
fn normal_equations_match_the_scalar_oracle_bitwise() {
    let data = programs();
    for kind in ARCHS {
        let f = foundation(kind);
        let got = accumulate_normal_equations(&f, &data);
        let want = scalar_normal_equations(&f, &data);
        assert_eq!(got.count, want.count, "{kind:?}");
        assert_eq!(bits64(&got.xtx), bits64(&want.xtx), "{kind:?} xtx");
        assert_eq!(bits64(&got.xty), bits64(&want.xty), "{kind:?} xty");
    }
}

#[test]
fn validation_loss_matches_the_scalar_oracle_bitwise() {
    let data = programs();
    // Windows of three programs, interleaved, with a ragged last lane
    // chunk.
    let items: Vec<(usize, usize)> = (0..3 * LANE_WIDTH + 5)
        .map(|n| {
            let p = 1 + n % 3;
            (p, (n * 37) % data[p].len())
        })
        .collect();
    let inv_scale = [1.0, 0.5, 0.25];
    for kind in ARCHS {
        let f = foundation(kind);
        let table = MarchTable::new(K, f.dim(), 5);
        let got = validation_loss(&f, &table, &data, &items, &inv_scale);
        let want = scalar_validation_loss(&f, &table, &data, &items, &inv_scale);
        assert_eq!(got.to_bits(), want.to_bits(), "{kind:?}: {got} vs {want}");
    }
}

/// Block sizes of the windowed tests: one window, ragged, the engine's
/// default, `LANE_WIDTH`, and one past it.
const BLOCKS: [usize; 5] = [1, 7, 16, 32, 33];

/// Every architecture at two layers, plus the recurrent ones (whose
/// windowed forward shares the layer-0 projection) at one.
fn windowed_foundations(context: usize) -> Vec<Foundation> {
    let specs = ARCHS
        .iter()
        .map(|&kind| (kind, 2))
        .chain([(ArchKind::Lstm, 1), (ArchKind::Gru, 1)]);
    specs
        .map(|(kind, layers)| {
            let spec = ArchSpec {
                kind,
                layers,
                dim: 8,
            };
            Foundation::new(spec, context, 0.1, 29)
        })
        .collect()
}

#[test]
fn windowed_forward_matches_the_scalar_oracle_bitwise() {
    let head = features(40, 1);
    let next = features(25, 2);
    let long = features(SUM_CHUNK + 40, 3);
    let mats = [&head, &next, &long];
    // `(matrix, row)`: two whole programs back to back (trace-head
    // padding, blocks that span both), windows across a SUM_CHUNK
    // boundary, then scattered windows that share no rows, with a
    // repeat and a step backwards.
    let mut windows: Vec<(usize, usize)> = (0..40).map(|i| (0, i)).collect();
    windows.extend((0..25).map(|i| (1, i)));
    windows.extend((SUM_CHUNK - 20..SUM_CHUNK + 20).map(|i| (2, i)));
    windows.extend([(2, 900), (2, 900), (0, 30), (0, 2), (2, 17), (1, 24)]);
    for context in [3, 0] {
        for f in windowed_foundations(context) {
            let name = format!("{} c={context}", f.model.describe());
            let want: Vec<Vec<u32>> = windows
                .iter()
                .map(|&(m, i)| bits(&f.repr_at(mats[m], i)))
                .collect();
            for block in BLOCKS {
                for (n, blk) in windows.chunks(block).enumerate() {
                    let ws: Vec<Window<'_>> =
                        blk.iter().map(|&(m, i)| (&mats[m].data[..], i)).collect();
                    let out = f.model.forward_windows(&ws, f.window());
                    assert_eq!(out.len(), blk.len() * f.dim(), "{name}");
                    for (s, r) in out.chunks_exact(f.dim()).enumerate() {
                        let (m, i) = blk[s];
                        assert_eq!(
                            bits(r),
                            want[n * block + s],
                            "{name}, block {block}: window ({m}, {i})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn coalesced_windowed_representations_match_the_scalar_oracle_bitwise() {
    // The server's path: one window stream over several programs, so
    // blocks span program boundaries; the long program crosses a
    // SUM_CHUNK boundary inside one stream.
    let progs = [features(40, 4), features(3, 5), features(SUM_CHUNK + 9, 6)];
    let refs: Vec<&Matrix> = progs.iter().collect();
    for context in [3, 0] {
        for f in windowed_foundations(context) {
            let want: Vec<Vec<u32>> = refs
                .iter()
                .map(|m| bits(&scalar_program_representation(&f, m)))
                .collect();
            for block in BLOCKS {
                let got = program_representations_coalesced(&f, &refs, block);
                let got: Vec<Vec<u32>> = got.iter().map(|r| bits(r)).collect();
                assert_eq!(
                    got,
                    want,
                    "{} c={context}, block {block}",
                    f.model.describe()
                );
            }
        }
    }
}

#[test]
fn refit_representations_match_program_representations_bitwise() {
    let data = programs();
    let feats: Vec<&Matrix> = data.iter().map(|d| &d.features).collect();
    for kind in ARCHS {
        let f = foundation(kind);
        let (eq, reps) = accumulate_with_representations(&f, &data);
        let want = program_representations(&f, &feats);
        assert_eq!(reps.len(), want.len(), "{kind:?}");
        for ((got, want), m) in reps.iter().zip(&want).zip(&feats) {
            assert_eq!(bits(got), bits(want), "{kind:?}, {} rows", m.rows);
        }
        let alone = accumulate_normal_equations(&f, &data);
        assert_eq!(eq.count, alone.count, "{kind:?}");
        assert_eq!(bits64(&eq.xtx), bits64(&alone.xtx), "{kind:?} xtx");
        assert_eq!(bits64(&eq.xty), bits64(&alone.xty), "{kind:?} xty");
    }
}
