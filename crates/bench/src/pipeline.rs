//! Shared experiment pipeline: dataset generation over the Table II
//! suite, foundation evaluation, and report assembly.

use crate::cache::{workload_datasets, CacheStats, DatasetCache};
use crate::scale::Scale;
use crate::shard::ShardPlan;
use perfvec::compose::program_representations;
use perfvec::predict::{evaluate_program, EvalRow};
use perfvec::refit::{accumulate_with_representations, solve_table};
use perfvec::trainer::{train_foundation, TrainConfig, TrainedFoundation};
use perfvec::{Foundation, MarchTable};
use perfvec_sim::MicroArchConfig;
use perfvec_trace::features::{FeatureMask, Matrix};
use perfvec_trace::ProgramData;
use perfvec_workloads::suite;

pub use perfvec::data::SuiteData;

/// Generate datasets for all 17 workloads on `configs`, serving each
/// program from the content-addressed dataset cache when possible (see
/// [`crate::cache`]; `--no-cache` bypasses it).
pub fn suite_datasets(configs: &[MicroArchConfig], scale: Scale, mask: FeatureMask) -> SuiteData {
    suite_datasets_stats(configs, scale, mask).0
}

/// [`suite_datasets`] plus the cache hit/miss stats for progress lines.
/// The scale picks the generation [`ShardPlan`] (`auto` adapts to the
/// machine; `quick`/`full` keep the historical policy).
pub fn suite_datasets_stats(
    configs: &[MicroArchConfig],
    scale: Scale,
    mask: FeatureMask,
) -> (SuiteData, CacheStats) {
    suite_datasets_with(
        &DatasetCache::from_env_and_args(),
        configs,
        scale.trace_len(),
        mask,
        ShardPlan::for_scale(scale, configs.len()),
    )
}

/// Suite datasets at an explicit trace length (the ablation binaries
/// run at `trace_len() / 2`), cached like [`suite_datasets`], with the
/// historical generation schedule.
pub fn suite_datasets_at(
    configs: &[MicroArchConfig],
    trace_len: u64,
    mask: FeatureMask,
) -> (SuiteData, CacheStats) {
    suite_datasets_with(
        &DatasetCache::from_env_and_args(),
        configs,
        trace_len,
        mask,
        ShardPlan::legacy(),
    )
}

/// Suite datasets through an explicit [`DatasetCache`] and generation
/// [`ShardPlan`] — what the spec-driven runner uses (cache policy and
/// plan come from the [`crate::spec::ExperimentSpec`], not from process
/// args).
pub fn suite_datasets_with(
    cache: &DatasetCache,
    configs: &[MicroArchConfig],
    trace_len: u64,
    mask: FeatureMask,
    plan: ShardPlan,
) -> (SuiteData, CacheStats) {
    datasets_for(cache, &suite(), configs, trace_len, mask, plan)
}

/// Datasets for an explicit workload list — built-in subsets or suites
/// mixing in external `.pasm` programs (see [`crate::programs`]) — each
/// served from the content-addressed cache when possible. External
/// workloads are keyed by program content, so the same `.pasm` file
/// under any name hits the same entry.
pub fn datasets_for(
    cache: &DatasetCache,
    workloads: &[perfvec_workloads::Workload],
    configs: &[MicroArchConfig],
    trace_len: u64,
    mask: FeatureMask,
    plan: ShardPlan,
) -> (SuiteData, CacheStats) {
    let (parts, stats) = workload_datasets(cache, workloads, trace_len, configs, mask, plan);
    (SuiteData::assemble_from(workloads, parts), stats)
}

/// Ridge of the closed-form table refit ([`refit`]).
pub const REFIT_RIDGE: f64 = 3e-3;

/// Train the foundation on the training programs and [`refit`] its
/// microarchitecture table.
pub fn train_and_refit(data: &SuiteData, cfg: &TrainConfig) -> TrainedFoundation {
    let mut trained = train_foundation(&data.train, cfg);
    refit(&mut trained, data);
    trained
}

/// Refit the trained microarchitecture table in closed form over all
/// training instructions (the converged fixed point of the paper's long
/// table-SGD schedule). Returns the training programs' representations,
/// folded from the same pass ([`accumulate_with_representations`]) for
/// [`eval_seen_unseen`].
pub fn refit(trained: &mut TrainedFoundation, data: &SuiteData) -> Vec<Vec<f32>> {
    let (eq, seen_reps) = accumulate_with_representations(&trained.foundation, &data.train);
    trained.march_table = solve_table(&eq, REFIT_RIDGE);
    seen_reps
}

/// Evaluate a trained foundation on seen (training) and unseen (testing)
/// programs against the machines of its own table; ground truth is the
/// column sums of each dataset (identical to the simulator totals).
///
/// `seen_reps` are the training programs' representations that
/// [`refit`] returned, so only the unseen programs run through the
/// foundation here.
pub fn eval_seen_unseen(
    trained: &TrainedFoundation,
    data: &SuiteData,
    seen_reps: &[Vec<f32>],
) -> Vec<EvalRow> {
    assert_eq!(
        seen_reps.len(),
        data.train.len(),
        "one representation per seen program"
    );
    let unseen: Vec<&Matrix> = data.test.iter().map(|d| &d.features).collect();
    let unseen_reps = program_representations(&trained.foundation, &unseen);
    let programs = data.train.iter().map(|d| (true, d)).zip(seen_reps);
    let unseen = data.test.iter().map(|d| (false, d)).zip(&unseen_reps);
    eval_rows(
        &trained.foundation,
        &trained.march_table,
        programs.chain(unseen),
    )
}

/// Evaluate `programs`, each flagged seen or unseen, against every
/// machine of `table`. All representations come from one batched,
/// chunk-parallel pass ([`program_representations`]), so the programs
/// share every core.
pub fn eval_programs(
    foundation: &Foundation,
    table: &MarchTable,
    programs: &[(bool, &ProgramData)],
) -> Vec<EvalRow> {
    let feats: Vec<&Matrix> = programs.iter().map(|(_, d)| &d.features).collect();
    let reps = program_representations(foundation, &feats);
    eval_rows(foundation, table, programs.iter().copied().zip(&reps))
}

/// One [`EvalRow`] per `((seen, program), R_p)`.
fn eval_rows<'a>(
    foundation: &Foundation,
    table: &MarchTable,
    programs: impl Iterator<Item = ((bool, &'a ProgramData), &'a Vec<f32>)>,
) -> Vec<EvalRow> {
    programs
        .map(|((seen, d), rp)| {
            let truths: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
            evaluate_program(&d.name, seen, rp, foundation, table, &truths)
        })
        .collect()
}

/// Mean error over the seen or unseen subset of rows.
pub fn subset_mean(rows: &[EvalRow], seen: bool) -> f64 {
    let sel: Vec<f64> = rows
        .iter()
        .filter(|r| r.seen == seen)
        .map(|r| r.mean)
        .collect();
    if sel.is_empty() {
        0.0
    } else {
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, seen: bool, mean: f64) -> EvalRow {
        EvalRow {
            program: name.into(),
            seen,
            mean,
            std: 0.0,
            min: 0.0,
            max: mean,
        }
    }

    #[test]
    fn subset_mean_separates_seen_and_unseen() {
        let rows = vec![
            row("a", true, 0.1),
            row("b", true, 0.3),
            row("c", false, 0.5),
        ];
        assert!((subset_mean(&rows, true) - 0.2).abs() < 1e-12);
        assert!((subset_mean(&rows, false) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn subset_mean_of_empty_subset_is_zero() {
        let rows = vec![row("a", true, 0.1)];
        assert_eq!(subset_mean(&rows, false), 0.0);
    }
}
