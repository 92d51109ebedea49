//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig3_cold|datasets_grid|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run makes its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs, and prints one JSON object
//! as the last line of stdout: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end set
//! ([`E2E`]); with `--trace 1` they are the per-layer set ([`LAYERS`]),
//! timed from spans the benchmark records around each call it makes into
//! a layer's public functions. A run whose checks fail prints its result
//! with `"correct": false` and exits with status 1. See `README.md` for
//! what each workload and metric means.

mod offline;
mod serving;
mod span;
mod stats;

use perfvec_json::{obj, Json};
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every workload reports each one.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for it; -1 marks a figure the sample
/// cannot support (a tail percentile with fewer than ten samples
/// beyond it).
pub const LAYERS: [(&str, &str); 52] = [
    // Tracing itself.
    ("trace.overhead_s", "s"),
    // Offline pipeline: emulate, features, simulate, dataset cache.
    ("workloads.trace_s", "s"),
    ("trace.features_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.cells", "count"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("bench_cache.write_s", "s"),
    ("bench_cache.bytes", "bytes"),
    ("bench_cache.read_s", "s"),
    ("bench_cache.hit_ratio", "ratio"),
    // Figure-3 pipeline: top-level self times, then the layers.
    ("datasets.self_s", "s"),
    ("trainer.self_s", "s"),
    ("refit.self_s", "s"),
    ("eval.self_s", "s"),
    ("fig3.unaccounted_s", "s"),
    ("trainer.train_s", "s"),
    ("trainer.steps", "count"),
    ("trainer.step_us_p50", "us"),
    ("trainer.step_us_p99", "us"),
    ("trainer.nonstep_s", "s"),
    ("refit.accumulate_s", "s"),
    ("refit.solve_s", "s"),
    ("refit.ns_per_window", "ns"),
    ("compose.represent_s", "s"),
    ("compose.ns_per_window", "ns"),
    ("predict.eval_s", "s"),
    ("seen_err_pct", "%"),
    ("unseen_err_pct", "%"),
    // Serving: open-loop figures at the frozen rates and ladder.
    ("p50_ms.low", "ms"),
    ("p95_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("p95_ms.high", "ms"),
    ("max_rps_at_slo", "1/s"),
    ("failed_frac", "ratio"),
    ("class.hit.p50_ms", "ms"),
    ("class.miss.p50_ms", "ms"),
    ("class.inline.p50_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("gen.lag_ms_max", "ms"),
    // Serving: layers timed in-process and scraped from the server.
    ("http.parse_us_p50", "us"),
    ("server.features_ms_p50", "ms"),
    ("compose.forward_batch_ms_p50", "ms"),
    ("engine.predict_us_p50", "us"),
    ("engine.predict_us_p95", "us"),
    ("batcher.batch_mean", "count"),
    ("batcher.queue_depth_max", "count"),
    ("batcher.queue_wait_us_p50", "us"),
    ("engine.shed", "count"),
    ("serve_cache.hit_ratio", "ratio"),
    ("serve.offline_checked", "count"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Check failures; empty means every output matched.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values by name (all of [`E2E`] must be present).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (absent ones print as 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
    /// Spans of the traced passes, written out at the end of the run.
    pub spans: Option<Json>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Record a per-layer value; `None` (an unsupported tail) prints -1.
    pub fn layer(&mut self, name: &'static str, v: Option<f64>) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.layers.insert(name, v.unwrap_or(-1.0));
    }
}

fn usage() -> String {
    "usage: perfbench --workload fig3_cold|datasets_grid|serve_mixed --seed N --seconds S --trace 0|1"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    })
}

/// The benchmark's own scratch space inside the checkout.
pub fn work_root() -> PathBuf {
    Path::new("perfbench").join(".work")
}

/// A fresh, empty directory for one run (or one pass of a run).
pub fn fresh_dir(tag: &str) -> std::io::Result<PathBuf> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = work_root().join(format!("{tag}-{}-{nanos}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    /// glibc: hand the heap's free memory back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Start a fresh peak-RSS window: return the memory earlier work freed
/// to the kernel, then reset this process's VmHWM to its resident set,
/// so the next reading is the peak of what runs in between. Without
/// the trim, memory a large pass had freed stayed resident and set the
/// floor of every later pass's peak.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim takes no pointers and only releases free
    // allocator memory; it is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// Run units of work until about `seconds` have passed: another unit
/// starts only if the median unit so far still fits, and at least
/// `min_units` always run. `unit(i)` returns the unit's wall time.
pub fn repeat_units(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut(usize) -> Result<f64, String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let i = times.len();
        if i >= min_units {
            let typical = median(&times).unwrap_or(0.0);
            if start.elapsed().as_secs_f64() + typical > seconds {
                return Ok(i);
            }
        }
        times.push(unit(i)?);
    }
}

/// Record the median traced wall minus the median untraced wall.
pub fn tracing_overhead(out: &mut Outcome, untraced: &[f64], traced: &[f64]) {
    if let (Some(u), Some(t)) = (median(untraced), median(traced)) {
        out.layer("trace.overhead_s", Some(t - u));
        out.report.push(format!(
            "tracing overhead: traced {t:.3} s - untraced {u:.3} s = {:.3} s ({:+.1}%)",
            t - u,
            (t - u) / u * 100.0
        ));
    }
}

/// Seconds of each pass, for the human-readable report.
pub fn fmt_secs(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}] s", parts.join(", "))
}

fn result_json(out: &Outcome, trace: bool) -> Json {
    let fields: Vec<(&str, Json)> = if trace {
        LAYERS
            .iter()
            .map(|(name, unit)| {
                let v = out.layers.get(name).copied().unwrap_or(0.0);
                (*name, metric(v, unit))
            })
            .collect()
    } else {
        E2E.iter()
            .map(|(name, unit)| (*name, metric(out.e2e[name], unit)))
            .collect()
    };
    obj(vec![
        ("correct", Json::Bool(out.errors.is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", obj(fields)),
    ])
}

fn metric(v: f64, unit: &str) -> Json {
    obj(vec![
        ("value", Json::Num(if v.is_finite() { v } else { -1.0 })),
        ("unit", Json::Str(unit.to_string())),
    ])
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(work_root()).map_err(|e| format!("creating scratch space: {e}"))?;
    let out = match args.workload.as_str() {
        "fig3_cold" => offline::fig3_cold(args),
        "datasets_grid" => offline::datasets_grid(args),
        "serve_mixed" => serving::serve_mixed(args),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    }?;
    for (name, _) in E2E {
        if !out.e2e.contains_key(name) {
            return Err(format!("workload did not measure {name}"));
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serving::CHILD_FLAG) {
        return serving::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    // Scratch datasets and caches are large; nothing in them outlives the run.
    let _ = std::fs::remove_dir_all(work_root());
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &out.report {
        println!("{line}");
    }
    if let Some(spans) = &out.spans {
        let path = Path::new("perfbench")
            .join(".out")
            .join(format!("{}-seed{}-spans.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("path has a parent"))
            .and_then(|()| std::fs::write(&path, spans.pretty()));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{}", result_json(&out, args.trace));
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_mixed");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 5")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 5 --trace 2")).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = E2E.iter().chain(LAYERS.iter()).map(|(n, _)| *n).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn repeat_units_runs_the_minimum_then_stops_when_out_of_time() {
        let n = repeat_units(0.0, 3, |_| Ok(1.0)).unwrap();
        assert_eq!(n, 3);
    }
}
