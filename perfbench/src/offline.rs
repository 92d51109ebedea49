//! The offline workloads: `fig3_cold` (the paper's Figure-3 pipeline
//! from an empty dataset cache) and `datasets_grid` (cold generation
//! and warm reload of the 17-program x 77-machine dataset grid).
//!
//! Untraced passes run the repository's own entry points
//! (`perfvec_bench::runner::run`, `perfvec_bench::workload_datasets`).
//! Traced passes compute the same outputs by calling each layer's
//! public functions inside spans, and must reproduce the untraced
//! outputs bit for bit.

use crate::span::{layer_times, spans_json, Span, Tracer};
use crate::stats::{hash_words, median};
use crate::{
    fmt_secs, fresh_dir, peak_rss_mb, repeat_units, reset_peak_rss, tracing_overhead, Args, Outcome,
};
use perfvec::compose::program_representation;
use perfvec::predict::evaluate_program;
use perfvec::refit::{accumulate_normal_equations, solve_table};
use perfvec::trainer::{train_foundation, TrainConfig};
use perfvec_bench::pipeline::subset_mean;
use perfvec_bench::{
    report, runner, workload_datasets, DatasetCache, ExperimentKind, ExperimentSpec, Scale,
    ShardPlan,
};
use perfvec_isa::Trace;
use perfvec_json::Json;
use perfvec_ml::parallel::{in_parallel_worker, parallel_map};
use perfvec_sim::{simulate_column, MicroArchConfig};
use perfvec_trace::features::{extract_features, FeatureMask, Matrix};
use perfvec_trace::ProgramData;
use perfvec_workloads::Workload;
use std::path::Path;
use std::time::Instant;

/// Figure-3 protocol (17 programs x 77 machines, LSTM-2-32, context 12)
/// with the trace length and training budget cut to about 2 s a cold
/// pass on a 2-vCPU host, so a 30 s run takes the median of a dozen
/// passes. With 6 s passes a run had only five, and the median of
/// those spread past the bound between runs.
const FIG3_TRACE_LEN: u64 = 500;
const FIG3_EPOCHS: usize = 2;
const FIG3_WINDOWS_PER_EPOCH: usize = 1_200;
const FIG3_VAL_WINDOWS: usize = 400;
/// Ridge of the closed-form table refit (`pipeline::train_and_refit`).
const REFIT_RIDGE: f64 = 3e-3;
/// Trace length of the dataset grid: half of quick scale's 20 000. At
/// 20 000 the cold pass's run-to-run spread reached 26%, more than
/// the benchmark's bound allows.
const GRID_TRACE_LEN: u64 = 10_000;
/// The offline set-up takes microseconds, too little to time one at a
/// time: it is timed in batches of [`SETUP_BATCH`]. [`SETUP_BATCHES`]
/// batches run before the first pass and one more before every pass,
/// so the reported median batch mean spans the whole run rather than
/// the host's speed in its first tenth of a second.
const SETUP_BATCH: usize = 200;
const SETUP_BATCHES: usize = 5;

fn fig3_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(ExperimentKind::Custom);
    spec.seed = seed;
    spec.trace_len = Some(FIG3_TRACE_LEN);
    spec.params = vec![
        ("epochs".into(), Json::Num(FIG3_EPOCHS as f64)),
        (
            "windows_per_epoch".into(),
            Json::Num(FIG3_WINDOWS_PER_EPOCH as f64),
        ),
        ("val_windows".into(), Json::Num(FIG3_VAL_WINDOWS as f64)),
    ];
    spec
}

/// The training configuration `runner::run` derives from [`fig3_spec`].
fn fig3_train_config() -> TrainConfig {
    let mut cfg = Scale::Quick.train_config();
    cfg.epochs = FIG3_EPOCHS as u32;
    cfg.windows_per_epoch = FIG3_WINDOWS_PER_EPOCH;
    cfg.val_windows = FIG3_VAL_WINDOWS;
    cfg
}

fn grid_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(ExperimentKind::Custom);
    spec.seed = seed;
    spec.trace_len = Some(GRID_TRACE_LEN);
    spec
}

/// Machine-population seed of a run's `k`-th untraced pass: the run's
/// seed for the first, then a fixed stride from it. Each pass samples
/// its own 77 machines, so a run's medians cover many populations
/// instead of resting on one. Peak RSS and simulation time follow the
/// sampled machines; the peak RSS of single Figure-3 passes differed by
/// a third between populations.
fn population_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Spec resolution and preflight: everything before the first timed
/// operation. Returns the resolved machines and programs.
fn offline_setup(spec: &ExperimentSpec) -> Result<(Vec<MicroArchConfig>, Vec<Workload>), String> {
    spec.validate()?;
    let configs = spec.march_configs();
    let suite = perfvec_bench::programs::resolve_suite(spec)?;
    let trace_len = spec.trace_len.expect("benchmark specs set a trace length");
    perfvec_bench::programs::preflight(&suite, trace_len)?;
    Ok((configs, suite.workloads))
}

/// Mean time of one set-up over a batch of [`SETUP_BATCH`].
fn time_setup_batch(spec: &ExperimentSpec) -> Result<f64, String> {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        std::hint::black_box(offline_setup(spec)?);
    }
    Ok(t.elapsed().as_secs_f64() / SETUP_BATCH as f64)
}

/// The [`SETUP_BATCHES`] set-up batches timed before the first pass.
fn first_setups(spec: &ExperimentSpec) -> Result<Vec<f64>, String> {
    (0..SETUP_BATCHES).map(|_| time_setup_batch(spec)).collect()
}

/// Point the repository's dataset cache at a fresh directory of the
/// benchmark's scratch space, so a cold pass is really cold.
fn fresh_cache_dir(tag: &str) -> Result<std::path::PathBuf, String> {
    let dir = fresh_dir(tag).map_err(|e| format!("creating cache dir: {e}"))?;
    std::env::set_var("PERFVEC_CACHE_DIR", &dir);
    Ok(dir)
}

fn dataset_hash(data: &[ProgramData]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in data {
        h = hash_words(h, d.name.bytes().map(u32::from));
        for m in [&d.features, &d.targets] {
            h = hash_words(h, [m.rows as u32, m.cols as u32]);
            h = hash_words(h, m.data.iter().map(|v| v.to_bits()));
        }
    }
    h
}

/// The simulation step of `perfvec::data::build_program_data`:
/// lockstep `simulate_column` over the same contiguous machine chunks,
/// one chunk inside a program-parallel wave and one per core outside.
fn simulate_chunks(trace: &Trace, configs: &[MicroArchConfig]) -> Vec<Vec<f32>> {
    let k = configs.len();
    let threads = if in_parallel_worker() {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |c| c.get())
    };
    let n_chunks = threads.clamp(1, k.max(1));
    let (base, extra) = (k / n_chunks, k % n_chunks);
    parallel_map(n_chunks, |c| {
        let lo = c * base + c.min(extra);
        let hi = lo + base + usize::from(c < extra);
        simulate_column(trace, &configs[lo..hi])
            .into_iter()
            .map(|r| r.inc_latency_tenths)
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Cold dataset generation through each layer's public functions, in
/// spans, on `workload_datasets`' schedule for a cold cache: the
/// programs run in parallel waves (per `plan`), and each one is
/// emulated (`workloads.trace`), featurized (`trace.features`) and
/// simulated on every machine (`sim.simulate`) on a worker thread.
/// After each wave the entries are published in program order
/// (`bench_cache.write`). Returns the datasets and the bytes written.
fn generate_traced(
    t: &Tracer,
    cache: &DatasetCache,
    workloads: &[Workload],
    trace_len: u64,
    configs: &[MicroArchConfig],
    plan: ShardPlan,
) -> Result<(Vec<ProgramData>, u64), String> {
    let mask = FeatureMask::Full;
    let parent = t.current();
    let generate = |w: &Workload| {
        let trace = t.span_under(parent, "workloads.trace", || w.trace(trace_len));
        let features = t.span_under(parent, "trace.features", || extract_features(&trace, mask));
        let columns = t.span_under(parent, "sim.simulate", || simulate_chunks(&trace, configs));
        let mut targets = Matrix::zeros(trace.len(), configs.len());
        for (j, col) in columns.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                targets.row_mut(i)[j] = v;
            }
        }
        ProgramData {
            name: w.name.clone(),
            features,
            targets,
        }
    };
    let go_parallel = workloads.len() >= plan.min_parallel_misses.max(2);
    let wave_size = if go_parallel {
        plan.max_in_flight.max(1)
    } else {
        1
    };
    let mut out = Vec::with_capacity(workloads.len());
    let mut bytes = 0u64;
    for wave in workloads.chunks(wave_size) {
        let generated = if go_parallel && wave.len() > 1 {
            parallel_map(wave.len(), |i| generate(&wave[i]))
        } else {
            wave.iter().map(generate).collect()
        };
        for (w, d) in wave.iter().zip(generated) {
            let key = DatasetCache::workload_key(w, trace_len, configs, mask);
            let path = cache
                .path_for_key(&w.name, key)
                .ok_or("the benchmark's dataset cache is enabled")?;
            t.span("bench_cache.write", || cache.publish(&path, &d))
                .map_err(|e| format!("publishing {}: {e}", path.display()))?;
            bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            out.push(d);
        }
    }
    Ok((out, bytes))
}

/// Per-layer busy time of the traced passes, averaged per pass, plus
/// the simulator's throughput figures.
fn record_layers(
    out: &mut Outcome,
    spans: &[Span],
    passes: usize,
    instrs_per_pass: u64,
    cells_per_pass: u64,
) {
    let times = layer_times(spans);
    let per = |name: &str| times.get(name).map_or(0.0, |t| t.busy_s) / passes as f64;
    let self_per = |name: &str| times.get(name).map_or(0.0, |t| t.self_s) / passes as f64;
    out.layer("workloads.trace_s", Some(per("workloads.trace")));
    out.layer("trace.features_s", Some(per("trace.features")));
    let sim_s = per("sim.simulate");
    out.layer("sim.simulate_s", Some(sim_s));
    out.layer("sim.cells", Some(cells_per_pass as f64));
    if sim_s > 0.0 {
        out.layer(
            "sim.minstr_per_s",
            Some(instrs_per_pass as f64 * 1e-6 / sim_s),
        );
    }
    out.layer("bench_cache.write_s", Some(per("bench_cache.write")));
    out.layer("bench_cache.read_s", Some(per("bench_cache.read")));
    for (layer, name) in [
        ("datasets.self_s", "datasets"),
        ("trainer.self_s", "trainer"),
        ("refit.self_s", "refit"),
        ("eval.self_s", "eval"),
    ] {
        out.layer(layer, Some(self_per(name)));
    }
    out.layer("fig3.unaccounted_s", Some(self_per("fig3")));
    out.layer("refit.accumulate_s", Some(per("refit.accumulate")));
    out.layer("refit.solve_s", Some(per("refit.solve")));
    out.layer("compose.represent_s", Some(per("compose.represent")));
    out.layer("predict.eval_s", Some(per("predict.eval")));
}

fn finish_e2e(
    out: &mut Outcome,
    setups: &[f64],
    walls: &[f64],
    warm_walls: &[f64],
    peak_rss_mb: f64,
) -> Result<(), String> {
    out.e2e
        .insert("setup_s", median(setups).ok_or("no set-up was timed")?);
    out.e2e
        .insert("wall_s", median(walls).ok_or("no untraced pass ran")?);
    out.e2e.insert(
        "warm_wall_s",
        median(warm_walls).ok_or("no untraced pass ran")?,
    );
    out.e2e.insert("peak_rss_mb", peak_rss_mb);
    Ok(())
}

fn rss_line(rss: &[f64]) -> String {
    let mb: Vec<String> = rss.iter().map(|m| format!("{m:.1}")).collect();
    format!("peak RSS of each untraced pass [{}] MB", mb.join(", "))
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Results of one Figure-3 pass that must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fig3Result {
    seen: u64,
    unseen: u64,
}

impl Fig3Result {
    fn new(seen: f64, unseen: f64) -> Fig3Result {
        Fig3Result {
            seen: seen.to_bits(),
            unseen: unseen.to_bits(),
        }
    }
}

/// One untraced pass: `perfvec run custom` through the runner, with the
/// dataset cache in a fresh directory. Returns (wall, eval phase, result).
fn fig3_untraced(
    spec: &ExperimentSpec,
    out: &mut Outcome,
    n_programs: usize,
) -> Result<(f64, f64, Fig3Result), String> {
    let dir = fresh_cache_dir("fig3")?;
    let t = Instant::now();
    let report = runner::run(spec).map_err(|e| format!("fig3 pass failed: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    remove_dir(&dir);
    let json = report.to_json(spec);
    if let Err(e) = report::validate(&json) {
        out.check(false, || format!("fig3 report does not validate: {e}"));
    }
    let num = |path: &[&str]| -> Option<f64> {
        path.iter()
            .try_fold(&json, |v, k| v.get(k))
            .and_then(Json::as_f64)
    };
    let misses = num(&["cache", "misses"]).unwrap_or(-1.0);
    let hits = num(&["cache", "hits"]).unwrap_or(-1.0);
    out.check(misses == n_programs as f64 && hits == 0.0, || {
        format!(
            "cold fig3 pass saw {hits} cache hits and {misses} misses; expected 0 and {n_programs}"
        )
    });
    let eval_s = num(&["phases", "eval"]).ok_or("fig3 report has no eval phase")?;
    let seen = num(&["metrics", "seen_mean_error"]).ok_or("fig3 report has no seen_mean_error")?;
    let unseen =
        num(&["metrics", "unseen_mean_error"]).ok_or("fig3 report has no unseen_mean_error")?;
    Ok((wall, eval_s, Fig3Result::new(seen, unseen)))
}

/// One traced pass: the same pipeline through each layer's public
/// functions, every call in a span. Returns (wall, result).
/// Also returns the windows refit and composed in the pass.
fn fig3_traced(
    t: &Tracer,
    out: &mut Outcome,
    configs: &[MicroArchConfig],
    workloads: &[Workload],
    plan: ShardPlan,
) -> Result<(f64, Fig3Result, usize, usize), String> {
    let dir = fresh_cache_dir("fig3-traced")?;
    let cache = DatasetCache::from_env_and_args();
    let cfg = fig3_train_config();
    let start = Instant::now();
    let rows = t.span("fig3", || -> Result<_, String> {
        let (parts, bytes) = t.span("datasets", || {
            generate_traced(t, &cache, workloads, FIG3_TRACE_LEN, configs, plan)
        })?;
        let data = perfvec::data::SuiteData::assemble_from(workloads, parts);
        let trained = t.span("trainer", || train_foundation(&data.train, &cfg));
        let table = t.span("refit", || {
            let eq = t.span("refit.accumulate", || {
                accumulate_normal_equations(&trained.foundation, &data.train)
            });
            t.span("refit.solve", || solve_table(&eq, REFIT_RIDGE))
        });
        let rows = t.span("eval", || {
            let mut rows = Vec::new();
            for (seen, set) in [(true, &data.train), (false, &data.test)] {
                for d in set {
                    let rp = t.span("compose.represent", || {
                        program_representation(&trained.foundation, &d.features)
                    });
                    let truths: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
                    rows.push(t.span("predict.eval", || {
                        evaluate_program(&d.name, seen, &rp, &trained.foundation, &table, &truths)
                    }));
                }
            }
            rows
        });
        let windows: usize = data.train.iter().map(ProgramData::len).sum();
        let all_windows: usize = windows + data.test.iter().map(ProgramData::len).sum::<usize>();
        Ok((rows, trained.report, windows, all_windows, bytes))
    })?;
    let wall = start.elapsed().as_secs_f64();
    remove_dir(&dir);
    let (rows, report, train_windows, all_windows, bytes) = rows;
    out.layer("bench_cache.bytes", Some(bytes as f64));
    let steps = report.step_time_us.count;
    out.layer("trainer.train_s", Some(report.wall_seconds));
    out.layer("trainer.steps", Some(steps as f64));
    out.layer("trainer.step_us_p50", Some(report.step_time_us.p50 as f64));
    out.layer("trainer.step_us_p99", Some(report.step_time_us.p99 as f64));
    out.layer(
        "trainer.nonstep_s",
        Some(report.wall_seconds - report.step_time_us.sum as f64 * 1e-6),
    );
    let result = Fig3Result::new(subset_mean(&rows, true), subset_mean(&rows, false));
    Ok((wall, result, train_windows, all_windows))
}

pub fn fig3_cold(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = fig3_spec(args.seed);
    let mut setups = first_setups(&spec)?;
    let (configs, workloads) = offline_setup(&spec)?;
    let tracer = Tracer::new(args.trace);
    let (mut walls, mut evals, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let mut first: Option<Fig3Result> = None;
    let mut previous: Option<(ExperimentSpec, Fig3Result)> = None;
    let mut windows = (0usize, 0usize);
    // Traced runs alternate untraced and traced passes, so overhead and
    // bit-identity are measured within one run.
    repeat_units(args.seconds, if args.trace { 2 } else { 1 }, |i| {
        setups.push(time_setup_batch(&spec)?);
        let wall = if args.trace && i % 2 == 1 {
            // The traced pass repeats the previous pass's population and
            // must reproduce its errors bit for bit.
            let (pass_spec, reference) = previous.clone().expect("an untraced pass came first");
            let (configs, workloads) = offline_setup(&pass_spec)?;
            let (wall, r, refit_windows, compose_windows) = fig3_traced(
                &tracer,
                &mut out,
                &configs,
                &workloads,
                pass_spec.shard_plan(),
            )?;
            out.check(r == reference, || {
                format!("traced fig3 pass {i} errors {r:?} differ from the untraced {reference:?}")
            });
            traced_walls.push(wall);
            windows = (refit_windows, compose_windows);
            wall
        } else {
            let pass_spec = fig3_spec(population_seed(args.seed, walls.len()));
            reset_peak_rss()?;
            let (wall, eval_s, r) = fig3_untraced(&pass_spec, &mut out, workloads.len())?;
            rss.push(peak_rss_mb("self").ok_or("cannot read VmHWM from /proc/self/status")?);
            walls.push(wall);
            evals.push(eval_s);
            first.get_or_insert(r);
            previous = Some((pass_spec, r));
            wall
        };
        out.attempted += 1;
        Ok(wall)
    })?;
    finish_e2e(
        &mut out,
        &setups,
        &walls,
        &evals,
        median(&rss).expect("a pass ran"),
    )?;
    let r = first.expect("a pass ran");
    let (seen, unseen) = (
        f64::from_bits(r.seen) * 100.0,
        f64::from_bits(r.unseen) * 100.0,
    );
    out.layer("seen_err_pct", Some(seen));
    out.layer("unseen_err_pct", Some(unseen));
    out.report.push(format!(
        "fig3_cold: {} programs x {} machines, trace {FIG3_TRACE_LEN}, {FIG3_EPOCHS} epochs x {FIG3_WINDOWS_PER_EPOCH} windows",
        workloads.len(),
        configs.len()
    ));
    out.report.push(format!(
        "cold passes {}; eval phases {}",
        fmt_secs(&walls),
        fmt_secs(&evals)
    ));
    out.report.push(rss_line(&rss));
    out.report
        .push(format!("seen_err_pct {seen} %   unseen_err_pct {unseen} %"));
    if args.trace {
        let spans = tracer.spans();
        let passes = traced_walls.len();
        let instrs: u64 = FIG3_TRACE_LEN * workloads.len() as u64;
        record_layers(
            &mut out,
            &spans,
            passes,
            instrs * configs.len() as u64,
            (workloads.len() * configs.len()) as u64,
        );
        let per_window = |busy: &str, windows: usize| out.layers[busy] * 1e9 / windows as f64;
        let refit = per_window("refit.accumulate_s", windows.0);
        let compose = per_window("compose.represent_s", windows.1);
        out.layer("refit.ns_per_window", Some(refit));
        out.layer("compose.ns_per_window", Some(compose));
        tracing_overhead(&mut out, &walls, &traced_walls);
        out.spans = Some(spans_json(&spans));
    }
    Ok(out)
}

pub fn datasets_grid(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = grid_spec(args.seed);
    let mut setups = first_setups(&spec)?;
    let (configs, workloads) = offline_setup(&spec)?;
    let plan = spec.shard_plan();
    let n = workloads.len();
    let tracer = Tracer::new(args.trace);
    let (mut colds, mut warms, mut traced_colds) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let mut bytes_per_pass = 0u64;
    let mut warm_lookups = (0usize, 0usize);
    // The previous untraced pass's machines and datasets: a traced pass
    // repeats them and must reproduce the datasets bit for bit.
    let mut previous: Option<(Vec<MicroArchConfig>, u64)> = None;
    repeat_units(args.seconds, if args.trace { 2 } else { 3 }, |i| {
        setups.push(time_setup_batch(&spec)?);
        let traced = args.trace && i % 2 == 1;
        let configs = match &previous {
            Some((configs, _)) if traced => configs.clone(),
            _ => offline_setup(&grid_spec(population_seed(args.seed, colds.len())))?.0,
        };
        let configs = &configs[..];
        let dir = fresh_cache_dir("grid")?;
        let cache = DatasetCache::from_env_and_args();
        if !traced {
            reset_peak_rss()?;
        }
        let t = Instant::now();
        let (cold_hash, cold_s) = if traced {
            let (parts, bytes) = tracer.span("grid.cold", || {
                generate_traced(&tracer, &cache, &workloads, GRID_TRACE_LEN, configs, plan)
            })?;
            let cold_s = t.elapsed().as_secs_f64();
            bytes_per_pass = bytes;
            traced_colds.push(cold_s);
            (dataset_hash(&parts), cold_s)
        } else {
            let (parts, stats) = workload_datasets(
                &cache,
                &workloads,
                GRID_TRACE_LEN,
                configs,
                FeatureMask::Full,
                plan,
            );
            let cold_s = t.elapsed().as_secs_f64();
            out.check(stats.misses == n && stats.hits == 0, || {
                format!(
                    "cold grid pass: {} hits, {} misses; expected 0 and {n}",
                    stats.hits, stats.misses
                )
            });
            colds.push(cold_s);
            (dataset_hash(&parts), cold_s)
        };
        let warm = || {
            workload_datasets(
                &cache,
                &workloads,
                GRID_TRACE_LEN,
                configs,
                FeatureMask::Full,
                plan,
            )
        };
        let t = Instant::now();
        let (parts, stats) = if traced {
            tracer.span("grid.warm", || tracer.span("bench_cache.read", warm))
        } else {
            warm()
        };
        let warm_s = t.elapsed().as_secs_f64();
        if traced {
            warm_lookups.0 += stats.hits;
            warm_lookups.1 += stats.hits + stats.misses;
        } else {
            warms.push(warm_s);
            rss.push(peak_rss_mb("self").ok_or("cannot read VmHWM from /proc/self/status")?);
        }
        out.check(stats.hits == n && stats.misses == 0, || {
            format!(
                "warm grid pass: {} hits, {} misses; expected {n} and 0",
                stats.hits, stats.misses
            )
        });
        let warm_hash = dataset_hash(&parts);
        drop(parts);
        remove_dir(&dir);
        out.check(warm_hash == cold_hash, || {
            format!("pass {i}: reloaded datasets differ from the generated ones")
        });
        if traced {
            let reference = previous.as_ref().expect("an untraced pass came first").1;
            out.check(cold_hash == reference, || {
                format!("traced pass {i}: generated datasets differ from the untraced pass's")
            });
        } else {
            previous = Some((configs.to_vec(), cold_hash));
        }
        out.attempted += 2 * n as u64;
        Ok(cold_s + warm_s)
    })?;
    finish_e2e(
        &mut out,
        &setups,
        &colds,
        &warms,
        median(&rss).expect("a pass ran"),
    )?;
    out.report.push(format!(
        "datasets_grid: {n} programs x {} machines, trace {GRID_TRACE_LEN}; cold passes {}; warm passes {}",
        configs.len(),
        fmt_secs(&colds),
        fmt_secs(&warms)
    ));
    out.report.push(rss_line(&rss));
    if args.trace {
        let spans = tracer.spans();
        let passes = traced_colds.len();
        let instrs = GRID_TRACE_LEN * n as u64 * configs.len() as u64;
        record_layers(&mut out, &spans, passes, instrs, (n * configs.len()) as u64);
        out.layer("bench_cache.bytes", Some(bytes_per_pass as f64));
        out.layer(
            "bench_cache.hit_ratio",
            Some(warm_lookups.0 as f64 / warm_lookups.1 as f64),
        );
        tracing_overhead(&mut out, &colds, &traced_colds);
        out.spans = Some(spans_json(&spans));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pass_samples_its_own_population_from_the_seed() {
        assert_eq!(population_seed(7, 0), 7);
        let mut seeds: Vec<u64> = (1..4)
            .flat_map(|seed| (0..50).map(move |k| population_seed(seed, k)))
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "passes of nearby seeds share a population");
        let a = fig3_spec(population_seed(7, 0)).march_configs();
        let b = fig3_spec(population_seed(7, 1)).march_configs();
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }
}
