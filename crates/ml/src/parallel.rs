//! Deterministic data-parallel gradient accumulation.
//!
//! Training parallelism in this library comes in two shapes, and
//! neither lets the core count into the float arithmetic:
//!
//! * **Lane chunks.** A gradient step's items are split into
//!   fixed-width chunks ([`LANE_WIDTH`]), the chunks run in parallel
//!   (rayon's ordered `chunk_ranges`), and the per-chunk partial
//!   gradients are reduced left-to-right in chunk order. The chunk
//!   boundaries depend only on the lane width, so the accumulation tree
//!   is identical on every machine, and the scalar and batch-major step
//!   implementations (which share the chunking) produce byte-identical
//!   checkpoints. [`BatchStep`] drives this: consumers hand it a
//!   per-item closure ([`BatchStep::accumulate_items`], the scalar
//!   path) or a per-chunk closure ([`BatchStep::accumulate`]) that
//!   drives one batch-major forward/backward pair per lane chunk.
//! * **Lane groups.** A batch that fits one lane chunk (the default
//!   32-window batch) splits into two groups ([`lane_split`]) that run
//!   their forward and BPTT deltas on two cores, through a [`Helper`]
//!   thread that lives for a whole training run ([`with_helper`]) and
//!   whose jobs the caller runs itself when the helper is slow to start. The
//!   parameter accumulation that follows is split by gradient *rows*
//!   ([`part_range`]), never by items, and every row still sums its
//!   terms in item order, so the gradient bits are those of one group
//!   on one core.

use rayon::prelude::*;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

pub use rayon::in_parallel_worker;

/// Canonical lane-chunk width for gradient steps.
///
/// Thirty-two lanes is the batch-major kernels' widest SIMD block
/// (`tensor::lane_block::<32>`), so a default 32-window batch runs as
/// **one** `forward_batch`/`backward_batch` pair at full vector width
/// (measured ~25% faster per step than 8-lane chunking on one core).
/// Batches larger than the lane width split into 32-lane chunks that
/// fan out across cores. A batch of at most one chunk reaches a second
/// core another way: the recurrent models split it into two lane groups
/// on a persistent [`Helper`] (see [`lane_split`]). Neither changes the
/// accumulation tree, which depends only on this constant.
pub const LANE_WIDTH: usize = 32;

/// One deterministic gradient step over a batch of items.
#[derive(Debug, Clone, Copy)]
pub struct BatchStep {
    lane: usize,
}

impl Default for BatchStep {
    fn default() -> BatchStep {
        BatchStep::new()
    }
}

impl BatchStep {
    /// A step with the canonical [`LANE_WIDTH`].
    pub fn new() -> BatchStep {
        BatchStep { lane: LANE_WIDTH }
    }

    /// A step with an explicit lane width (changing it changes the
    /// accumulation tree, so compare runs only at equal widths).
    pub fn with_lane(lane: usize) -> BatchStep {
        assert!(lane >= 1, "lane width must be at least 1");
        BatchStep { lane }
    }

    /// The lane-chunk width.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Run one gradient step over `0..n_items`: `chunk_fn` computes one
    /// lane chunk's summed loss, accumulating its gradients into a
    /// zeroed buffer of `param_len` entries **in ascending item order**.
    /// Chunks run in parallel; their partial losses and gradients are
    /// reduced left-to-right in chunk order, so the result is
    /// bit-deterministic for a given lane width regardless of core
    /// count.
    pub fn accumulate<F>(&self, n_items: usize, param_len: usize, chunk_fn: F) -> (f64, Vec<f32>)
    where
        F: Fn(std::ops::Range<usize>, &mut [f32]) -> f64 + Sync,
    {
        if n_items == 0 {
            return (0.0, vec![0.0; param_len]);
        }
        let partials: Vec<(f64, Vec<f32>)> = (0..n_items)
            .into_par_iter()
            .chunk_ranges(self.lane)
            .map(|range| {
                let mut grads = vec![0.0f32; param_len];
                let loss = chunk_fn(range, &mut grads);
                (loss, grads)
            })
            .collect();
        reduce_in_order(partials)
    }

    /// [`BatchStep::accumulate`] on the calling thread and `helper`
    /// instead of rayon's per-call workers: the same lane chunks, the
    /// first half computed here and the rest on the helper, reduced in
    /// chunk order, so the result is bit-identical. `chunk_fn` reads
    /// per-run state through `shared`, which the helper's half holds by
    /// an `Arc` clone.
    ///
    /// A caller that keeps a helper for a whole run uses this so no
    /// third thread starts beside it: each extra thread takes its own
    /// allocator arena, and memory freed in one arena cannot serve
    /// another, which showed as several MB of extra peak RSS.
    pub fn accumulate_with<'scope, S, F>(
        &self,
        helper: &Helper<'scope, '_>,
        shared: &Arc<S>,
        n_items: usize,
        param_len: usize,
        chunk_fn: F,
    ) -> (f64, Vec<f32>)
    where
        S: Send + Sync + 'scope,
        F: Fn(&S, Range<usize>, &mut [f32]) -> f64 + Copy + Send + 'scope,
    {
        if n_items == 0 {
            return (0.0, vec![0.0; param_len]);
        }
        let chunks: Vec<Range<usize>> = (0..n_items)
            .step_by(self.lane)
            .map(|start| start..(start + self.lane).min(n_items))
            .collect();
        let run = move |shared: &S, chunks: &[Range<usize>]| -> Vec<(f64, Vec<f32>)> {
            chunks
                .iter()
                .map(|range| {
                    let mut grads = vec![0.0f32; param_len];
                    let loss = chunk_fn(shared, range.clone(), &mut grads);
                    (loss, grads)
                })
                .collect()
        };
        let mid = chunks.len().div_ceil(2);
        let (remote, remote_chunks) = (Arc::clone(shared), chunks[mid..].to_vec());
        let (mut partials, rest) = helper.join(
            move || run(&remote, &remote_chunks),
            || run(shared, &chunks[..mid]),
        );
        partials.extend(rest);
        reduce_in_order(partials)
    }

    /// Per-item convenience over [`BatchStep::accumulate`]: the scalar
    /// step. `item_fn(i, grads)` accumulates item `i`'s gradients and
    /// returns its loss; items run in ascending order within each lane
    /// chunk.
    pub fn accumulate_items<F>(
        &self,
        n_items: usize,
        param_len: usize,
        item_fn: F,
    ) -> (f64, Vec<f32>)
    where
        F: Fn(usize, &mut [f32]) -> f64 + Sync,
    {
        self.accumulate(n_items, param_len, |range, grads| {
            let mut loss = 0.0f64;
            for i in range {
                loss += item_fn(i, grads);
            }
            loss
        })
    }
}

/// Sum per-chunk `(loss, grads)` partials left to right in chunk order.
fn reduce_in_order(partials: Vec<(f64, Vec<f32>)>) -> (f64, Vec<f32>) {
    let mut it = partials.into_iter();
    let (mut loss, mut grads) = it.next().expect("at least one chunk");
    for (l, g) in it {
        loss += l;
        for (a, b) in grads.iter_mut().zip(&g) {
            *a += b;
        }
    }
    (loss, grads)
}

/// Where a one-chunk step of `n` items splits into two lane groups,
/// `0..mid` and `mid..n`, or `None` when it stays one group.
///
/// The first group's width is `n / 2` rounded to the nearest multiple
/// of 8, the batch-major kernels' narrowest full vector block, so a
/// 32-item batch runs as two 16-lane groups. Batches of 8 items or
/// fewer stay whole. The split point never changes results, because
/// each sequence's batched arithmetic does not depend on which lanes it
/// shares a group with.
pub fn lane_split(n: usize) -> Option<usize> {
    let mid = (n / 2 + 4) / 8 * 8;
    (mid > 0 && mid < n).then_some(mid)
}

/// Part `part` of `parts` near-equal contiguous slices of `0..n` (the
/// gradient rows one thread accumulates in a row-split step).
pub fn part_range(n: usize, part: usize, parts: usize) -> Range<usize> {
    debug_assert!(part < parts);
    n * part / parts..n * (part + 1) / parts
}

type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// The one-job handoff between a [`Helper`]'s owner and its thread.
struct Slot<'scope> {
    state: Mutex<SlotState<'scope>>,
    wake: Condvar,
}

struct SlotState<'scope> {
    job: Option<Job<'scope>>,
    closed: bool,
}

impl<'scope> Slot<'scope> {
    fn lock(&self) -> MutexGuard<'_, SlotState<'scope>> {
        // Jobs never run under the lock, so a poisoned lock still holds
        // a consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A second thread that runs one closure at a time for the thread that
/// owns it, parked on a condition variable in between. Made by
/// [`with_helper`].
///
/// Each job is handed over by value: whatever it needs from a single
/// step must be moved or `Arc`-shared into it, and only data that
/// outlives the whole [`with_helper`] call may be borrowed.
pub struct Helper<'scope, 'env: 'scope> {
    slot: Arc<Slot<'scope>>,
    _env: PhantomData<&'scope mut &'env ()>,
}

impl<'scope> Helper<'scope, '_> {
    /// Run `remote` on the helper thread while `local` runs on the
    /// calling thread, and return both results once both are done.
    ///
    /// If the helper has not picked `remote` up by the time `local`
    /// returns (its core is busy elsewhere), the calling thread runs it
    /// too, rather than wait for the helper to be scheduled.
    ///
    /// Panics if `remote` panicked on the helper.
    pub fn join<A, B>(
        &self,
        remote: impl FnOnce() -> B + Send + 'scope,
        local: impl FnOnce() -> A,
    ) -> (A, B)
    where
        B: Send + 'scope,
    {
        let (done, result) = mpsc::sync_channel(1);
        self.slot.lock().job = Some(Box::new(move || {
            // The receiver is gone only when `local` panicked.
            let _ = done.send(remote());
        }));
        self.slot.wake.notify_one();
        let a = local();
        let unclaimed = self.slot.lock().job.take();
        if let Some(job) = unclaimed {
            job();
        }
        let b = result.recv().expect("helper thread panicked");
        (a, b)
    }
}

impl Drop for Helper<'_, '_> {
    fn drop(&mut self) {
        self.slot.lock().closed = true;
        self.slot.wake.notify_one();
    }
}

/// Run `body` with a [`Helper`] thread that lives until `body` returns:
/// one thread for a whole training run, so no step pays for a spawn.
///
/// `body` gets `None`, and no thread starts, when the process may use
/// only one core (`available_parallelism` honours the affinity mask) or
/// when the caller is itself a worker of a parallel region.
pub fn with_helper<'env, T>(
    body: impl for<'scope> FnOnce(Option<&Helper<'scope, 'env>>) -> T,
) -> T {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores < 2 || in_parallel_worker() {
        return body(None);
    }
    std::thread::scope(|s| {
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                job: None,
                closed: false,
            }),
            wake: Condvar::new(),
        });
        let queue = Arc::clone(&slot);
        s.spawn(move || loop {
            let job = {
                let mut state = queue.lock();
                loop {
                    if let Some(job) = state.job.take() {
                        break job;
                    }
                    if state.closed {
                        return;
                    }
                    state = queue
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job();
        });
        // Dropping the helper on the way out closes the slot, which ends
        // the thread before the scope joins it.
        let helper = Helper {
            slot,
            _env: PhantomData,
        };
        body(Some(&helper))
    })
}

/// Map each item of `0..n_items` to a vector and collect in order
/// (parallel map preserving indices).
pub fn parallel_map<T: Send, F>(n_items: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync + Send,
{
    (0..n_items).into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_accumulation() {
        let item = |i: usize, g: &mut [f32]| {
            g[i % 4] += i as f32;
            i as f64 * 0.5
        };
        let (loss_p, grads_p) = BatchStep::new().accumulate_items(100, 4, item);
        let mut grads_s = vec![0.0f32; 4];
        let mut loss_s = 0.0f64;
        for i in 0..100 {
            loss_s += item(i, &mut grads_s);
        }
        assert_eq!(loss_p, loss_s);
        assert_eq!(grads_p, grads_s);
    }

    #[test]
    fn empty_batch_is_zero() {
        let (loss, grads) = BatchStep::new().accumulate_items(0, 3, |_, _| 1.0);
        assert_eq!(loss, 0.0);
        assert_eq!(grads, vec![0.0; 3]);
    }

    #[test]
    fn chunk_closure_sees_canonical_lane_ranges() {
        let seen = std::sync::Mutex::new(Vec::new());
        BatchStep::with_lane(8).accumulate(19, 0, |range, _| {
            seen.lock().unwrap().push(range);
            0.0
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_by_key(|r| r.start);
        assert_eq!(got, vec![0..8, 8..16, 16..19]);

        let seen = std::sync::Mutex::new(Vec::new());
        BatchStep::new().accumulate(70, 0, |range, _| {
            seen.lock().unwrap().push(range);
            0.0
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_by_key(|r| r.start);
        assert_eq!(got, vec![0..32, 32..64, 64..70]);
    }

    #[test]
    fn item_and_chunk_forms_agree_bitwise() {
        // The scalar/batched parity contract in miniature: a per-item
        // closure and a per-chunk closure doing the same in-order work
        // must reduce to bit-identical float sums.
        let contribution = |i: usize| ((i * 37 % 19) as f32 - 9.0) * 1e-3;
        let (_, a) = BatchStep::new().accumulate_items(45, 2, |i, g| {
            g[0] += contribution(i);
            g[1] += contribution(i) * 0.5;
            0.0
        });
        let (_, b) = BatchStep::new().accumulate(45, 2, |range, g| {
            for i in range {
                g[0] += contribution(i);
                g[1] += contribution(i) * 0.5;
            }
            0.0
        });
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(a[1].to_bits(), b[1].to_bits());
    }

    #[test]
    fn custom_lane_width_changes_chunking_only() {
        let item = |i: usize, g: &mut [f32]| {
            g[0] += i as f32;
            1.0
        };
        let (l8, g8) = BatchStep::new().accumulate_items(30, 1, item);
        let (l3, g3) = BatchStep::with_lane(3).accumulate_items(30, 1, item);
        assert_eq!(l8, 30.0);
        assert_eq!(l3, 30.0);
        // Integer-valued sums are exact at any tree shape.
        assert_eq!(g8, g3);
    }

    #[test]
    fn lane_split_makes_two_vector_wide_groups() {
        assert_eq!(lane_split(32), Some(16));
        assert_eq!(lane_split(20), Some(8));
        assert_eq!(lane_split(17), Some(8));
        assert_eq!(lane_split(9), Some(8));
        for n in [0, 1, 2, 7, 8] {
            assert_eq!(lane_split(n), None, "{n}");
        }
    }

    #[test]
    fn part_ranges_tile_the_rows() {
        for (n, parts) in [(128, 2), (96, 2), (7, 3), (5, 1)] {
            let tiles: Vec<_> = (0..parts).map(|p| part_range(n, p, parts)).collect();
            assert_eq!(tiles[0].start, 0);
            assert_eq!(tiles[parts - 1].end, n);
            assert!(tiles.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn helper_runs_jobs_beside_the_caller_and_returns_owned_results() {
        let shared = vec![1u64, 2, 3];
        let shared = &shared;
        let total = with_helper(|helper| {
            let mut total = 0;
            for step in 0..50u64 {
                let owned = [step; 4];
                let (mine, theirs) = match helper {
                    Some(h) => h.join(
                        move || shared.iter().sum::<u64>() + owned.iter().sum::<u64>(),
                        || step,
                    ),
                    None => (step, shared.iter().sum::<u64>() + owned.iter().sum::<u64>()),
                };
                total += mine + theirs;
            }
            total
        });
        assert_eq!(total, (0..50).map(|s| s + 6 + 4 * s).sum::<u64>());
    }

    #[test]
    fn helper_accumulation_matches_rayon_accumulation_bitwise() {
        let contribution = |i: usize| ((i * 37 % 19) as f32 - 9.0) * 1e-3;
        let chunk = |scale: &f32, range: Range<usize>, g: &mut [f32]| {
            let mut loss = 0.0f64;
            for i in range {
                g[i % 3] += contribution(i) * scale;
                loss += contribution(i) as f64;
            }
            loss
        };
        let scale = Arc::new(0.5f32);
        with_helper(|helper| {
            let Some(h) = helper else { return };
            for n in [0, 1, 31, 32, 33, 95, 200] {
                let want = BatchStep::new().accumulate(n, 3, |r, g| chunk(&scale, r, g));
                let got = BatchStep::new().accumulate_with(h, &scale, n, 3, chunk);
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "{n}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.1), bits(&want.1), "{n}");
            }
        });
    }

    #[test]
    fn parallel_map_preserves_order() {
        let v = parallel_map(10, |i| i * i);
        assert_eq!(v, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }
}
