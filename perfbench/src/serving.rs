//! The `serve_mixed` workload: a `perfvec-serve` instance in its own
//! process, driven by one client process with at most [`CONNECTIONS`]
//! threads and connections.
//!
//! Load is a mix of three request classes: named-program misses
//! (traced and featurized server-side, then a batched forward), repeats
//! of a hot set (representation-cache hits), and inline-feature bodies
//! (JSON-parse heavy). A run measures
//!
//! * closed-loop drains of a fresh mix (`wall_s`) and of the same
//!   requests again once the server's caches hold them (`warm_wall_s`);
//! * an open-loop, seeded Poisson schedule at the frozen rates
//!   [`RATE_LOW`] and [`RATE_HIGH`] and up the rate [`LADDER`], each
//!   request timed from its due time, to find the highest rate whose
//!   p95 stays within [`SLO_P95_MS`] without failures or a growing
//!   backlog.
//!
//! Every run checks a seeded sample of responses against the offline
//! path (`program_representation` + `predict_total_tenths`), bit for bit.

use crate::span::{spans_json, Tracer};
use crate::stats::{median, tail_percentile};
use crate::{fmt_secs, fresh_dir, peak_rss_mb, repeat_units, tracing_overhead, Args, Outcome};
use perfvec::checkpoint;
use perfvec::compose::{program_representation, program_representations_coalesced};
use perfvec::foundation::{ArchSpec, Foundation};
use perfvec::predict::predict_total_tenths;
use perfvec::trainer::TrainConfig;
use perfvec::MarchTable;
use perfvec_json::{obj, Json};
use perfvec_serve::client::{roundtrip, roundtrip_raw};
use perfvec_serve::http::read_request;
use perfvec_serve::protocol::{f64_from_bits_hex, parse_predict_request};
use perfvec_serve::server::named_workload_features;
use perfvec_serve::{start, EngineConfig, ModelRegistry, ServerConfig};
use perfvec_sim::sample::{DEFAULT_MARCH_SEED, DEFAULT_POPULATION};
use perfvec_trace::features::Matrix;
use perfvec_workloads::suite;
use std::io::{BufRead, BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// First argument that turns the benchmark binary into the server child.
pub const CHILD_FLAG: &str = "__serve";

/// Server start-ups timed per run; the median is reported. The first
/// [`SETUPS_FIRST`] open the run (the last of them serves the first
/// drains and the open loop), the next serves the second drains, and
/// the rest close the run.
const SETUP_REPEATS: usize = 5;
const SETUPS_FIRST: usize = 3;
/// Client threads and connections: the machine's two cores.
const CONNECTIONS: usize = 2;
/// Frozen open-loop arrival rates (requests per second), below
/// saturation: on a 2-vCPU host the limit held at 40/s for every seed
/// tried, while 80/s missed it for some.
pub const RATE_LOW: f64 = 20.0;
pub const RATE_HIGH: f64 = 40.0;
/// Rates tried, in order, for `max_rps_at_slo`; the first rung that
/// misses the limit ends the climb.
pub const LADDER: [f64; 7] = [40.0, 60.0, 80.0, 120.0, 160.0, 200.0, 240.0];
/// Latency limit on the p95 of every rate (failed requests miss it).
pub const SLO_P95_MS: f64 = 250.0;
/// Largest share of failed requests a rate may have and still pass.
const MAX_FAILED_FRAC: f64 = 0.01;
/// Requests per open-loop phase: enough for ten samples beyond p95 —
/// and at least [`MIN_PHASE_S`] of arrivals, so a backlog has time to show.
const PHASE_REQUESTS: usize = 220;
const MIN_PHASE_S: f64 = 2.0;
/// Request mix: shares of hot-set hits and named misses; the rest are
/// inline-feature bodies.
const SHARE_HIT: f64 = 0.7;
const SHARE_MISS: f64 = 0.1;
/// Hot set: these many suite programs at a trace length no miss uses.
const HOT_PROGRAMS: usize = 8;
const HOT_TRACE_LEN: u64 = 2_048;
/// Named misses trace between 500 and 2000 instructions.
const MISS_MIN_LEN: u64 = 500;
const MISS_LENGTHS: u64 = 1_501;
/// Inline bodies carry this many feature rows; the open loop cycles
/// through a warmed pool of them, so they cost parsing, not forwards.
const INLINE_ROWS: usize = 200;
const INLINE_POOL: usize = 8;
/// One closed-loop drain unit: fresh misses, then fresh inline bodies,
/// then hot-set hits — longest first, so the two connections finish
/// together; the warm drain repeats the unit this many times.
const DRAIN_MISSES: usize = 12;
const DRAIN_INLINE: usize = 12;
const DRAIN_HITS: usize = 48;
const WARM_REPEATS: usize = 5;
/// Share of `--seconds` spent on drains, half before the open loop and
/// half after it; the open loop's length is set by its rates.
const DRAIN_SHARE: f64 = 0.3;
/// Open-loop lag beyond which a phase whose lag keeps rising counts as
/// a growing backlog.
const BACKLOG_LAG_MS: f64 = 50.0;

/// Model served: LSTM-2-32, context 12, like the Figure-3 foundation.
/// The weights are untrained; the forward cost does not depend on them.
fn served_model() -> (Foundation, ArchSpec, MarchTable) {
    let spec = ArchSpec::default_lstm(32);
    let foundation = Foundation::new(spec, 12, TrainConfig::default().target_scale, 42);
    let table = MarchTable::new(DEFAULT_POPULATION, 32, 7);
    (foundation, spec, table)
}

/// SplitMix64: the schedule's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Miss,
    Inline,
}

/// What a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    Named { program: String, trace_len: u64 },
    Inline(usize),
}

/// One planned request: due `due_us` after its phase starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub due_us: u64,
    pub class: Class,
    pub source: Source,
    pub march: usize,
}

/// Hands out (program, trace length) pairs that no earlier request of
/// the run used, so every named miss really misses. Lengths walk a
/// seeded stride through [`MISS_LENGTHS`] values, so any run of
/// consecutive misses spreads evenly over the range.
pub struct MissKeys {
    programs: Vec<String>,
    issued: u64,
    offset: u64,
}

impl MissKeys {
    pub fn new(seed: u64) -> MissKeys {
        let mut rng = Rng(seed ^ 0x6d69_7373);
        MissKeys {
            programs: suite().into_iter().map(|w| w.name).collect(),
            issued: 0,
            offset: rng.below(MISS_LENGTHS),
        }
    }

    fn next(&mut self) -> Source {
        let i = self.issued;
        let k = i % self.programs.len() as u64;
        self.issued += 1;
        // 610 is coprime to 1501, so key `i` repeats only after
        // 17 * 1501 issues; consecutive keys spread over the range.
        let idx = (self.offset + i * 610) % MISS_LENGTHS;
        Source::Named {
            program: self.programs[k as usize].clone(),
            trace_len: MISS_MIN_LEN + idx,
        }
    }
}

fn hot_source(i: usize) -> Source {
    let programs = suite();
    Source::Named {
        program: programs[i % HOT_PROGRAMS].name.clone(),
        trace_len: HOT_TRACE_LEN,
    }
}

/// The open-loop schedule of one phase: `n` Poisson arrivals at `rate`
/// per second, each drawn into a class by the mix shares. A pure
/// function of `seed`, `rate`, `n` and the miss keys issued so far.
pub fn schedule(seed: u64, rate: f64, n: usize, misses: &mut MissKeys) -> Vec<Planned> {
    let mut rng = Rng(seed ^ rate.to_bits());
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            let u = rng.unit();
            let (class, source) = if u < SHARE_HIT {
                (
                    Class::Hit,
                    hot_source(rng.below(HOT_PROGRAMS as u64) as usize),
                )
            } else if u < SHARE_HIT + SHARE_MISS {
                (Class::Miss, misses.next())
            } else {
                (
                    Class::Inline,
                    Source::Inline(rng.below(INLINE_POOL as u64) as usize),
                )
            };
            Planned {
                due_us: (t * 1e6) as u64,
                class,
                source,
                march: rng.below(DEFAULT_POPULATION as u64) as usize,
            }
        })
        .collect()
}

/// Inline feature bodies: rows of suite programs, each body distinct.
struct InlineBodies {
    matrices: Vec<Matrix>,
    json: Vec<String>,
}

impl InlineBodies {
    /// Body `k`: the last [`INLINE_ROWS`] feature rows of a suite
    /// program traced for `INLINE_ROWS + k` instructions, so every body
    /// is new to the server yet all cost the same to parse and forward.
    fn push(&mut self, k: usize) -> usize {
        let programs = suite();
        let name = &programs[k % programs.len()].name;
        let full = named_workload_features(name, INLINE_ROWS as u64 + k as u64)
            .expect("suite programs have features");
        let skip = full.rows.saturating_sub(INLINE_ROWS);
        let m = Matrix {
            rows: full.rows - skip,
            cols: full.cols,
            data: full.data[skip * full.cols..].to_vec(),
        };
        let rows: Vec<Json> = (0..m.rows)
            .map(|i| Json::Arr(m.row(i).iter().map(|&v| Json::Num(f64::from(v))).collect()))
            .collect();
        self.json.push(Json::Arr(rows).to_string());
        self.matrices.push(m);
        self.matrices.len() - 1
    }
}

fn body(src: &Source, march: usize, inline: &InlineBodies) -> String {
    match src {
        Source::Named { program, trace_len } => obj(vec![
            ("program", Json::Str(program.clone())),
            ("trace_len", Json::Num(*trace_len as f64)),
            ("march_index", Json::Num(march as f64)),
        ])
        .to_string(),
        Source::Inline(i) => format!(
            "{{\"features\":{},\"march_index\":{march}}}",
            inline.json[*i]
        ),
    }
}

/// The server child: load the checkpoint, serve on an ephemeral
/// loopback port, print the address, and stop when stdin closes.
pub fn child_main(args: &[String]) -> ExitCode {
    let Some(ckpt) = args.first() else {
        eprintln!("usage: perfbench {CHILD_FLAG} CHECKPOINT");
        return ExitCode::from(2);
    };
    let registry = match ModelRegistry::load(
        &[("default".into(), PathBuf::from(ckpt))],
        DEFAULT_MARCH_SEED,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench server: loading {ckpt}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workers = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .min(8);
    let cfg = ServerConfig {
        host: IpAddr::V4(Ipv4Addr::LOCALHOST),
        port: 0,
        engine: EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    };
    let handle = match start(registry, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", handle.addr);
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    ExitCode::SUCCESS
}

/// A running server child; dropping it closes its stdin and waits for
/// it to exit (killing it if it does not).
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawn and wait until `/healthz` answers 200.
    fn start(ckpt: &Path) -> Result<ServerProc, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
        let t = Instant::now();
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .arg(ckpt)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = ServerProc {
            child,
            stdin,
            addr: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server address: {e}"))?;
        proc.addr = line
            .trim()
            .parse()
            .map_err(|_| format!("server did not report an address (got {line:?})"))?;
        let deadline = t + Duration::from_secs(60);
        loop {
            let healthy = TcpStream::connect(proc.addr)
                .and_then(|mut s| roundtrip_raw(&mut s, "GET", "/healthz", ""))
                .is_ok_and(|(status, _)| status == 200);
            if healthy {
                return Ok(proc);
            }
            if Instant::now() > deadline {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn get(&self, path: &str) -> Result<String, String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| format!("connecting: {e}"))?;
        match roundtrip_raw(&mut s, "GET", path, "") {
            Ok((200, text)) => Ok(text),
            Ok((status, _)) => Err(format!("GET {path}: status {status}")),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Done {
    index: usize,
    class: Class,
    /// Milliseconds from due time (or send, when closed-loop) to reply;
    /// `+inf` for a failed request.
    latency_ms: f64,
    /// Milliseconds the send started after its due time.
    lag_ms: f64,
    bits: Option<f64>,
}

/// Send `plan` over [`CONNECTIONS`] keep-alive connections. Open loop
/// (`open = true`): each request waits for its due time and is timed
/// from it. Closed loop: requests go out back to back.
fn send_all(
    addr: SocketAddr,
    plan: &[Planned],
    inline: &InlineBodies,
    open: bool,
) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(plan.len()));
    let bodies: Vec<String> = plan
        .iter()
        .map(|p| body(&p.source, p.march, inline))
        .collect();
    // The open loop's clock starts a moment ahead, once the threads are up.
    let lead = Duration::from_millis(if open { 5 } else { 0 });
    let start = Instant::now() + lead;
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS.min(plan.len()) {
            s.spawn(|| {
                let mut conn: Option<TcpStream> = None;
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = plan.get(i) else { break };
                    let due = if open {
                        start + Duration::from_micros(p.due_us)
                    } else {
                        Instant::now()
                    };
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let stream = match conn.take().map_or_else(|| TcpStream::connect(addr), Ok) {
                        Ok(s) => conn.insert(s),
                        Err(_) => {
                            mine.push(failed(i, p.class, sent, due));
                            continue;
                        }
                    };
                    let reply = roundtrip(stream, "POST", "/v1/predict", &bodies[i]);
                    let end = Instant::now();
                    let bits = match &reply {
                        Ok((200, json)) => json
                            .get("predicted_bits")
                            .and_then(Json::as_str)
                            .and_then(f64_from_bits_hex),
                        _ => None,
                    };
                    if reply.is_err() {
                        conn = None;
                    }
                    mine.push(match bits {
                        Some(_) => Done {
                            index: i,
                            class: p.class,
                            latency_ms: (end - due).as_secs_f64() * 1e3,
                            lag_ms: (sent.saturating_duration_since(due)).as_secs_f64() * 1e3,
                            bits,
                        },
                        None => failed(i, p.class, sent, due),
                    });
                }
                done.lock()
                    .expect("no client thread panics holding the lock")
                    .extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("client threads joined");
    done.sort_by_key(|d| d.index);
    (done, wall)
}

fn failed(index: usize, class: Class, sent: Instant, due: Instant) -> Done {
    Done {
        index,
        class,
        latency_ms: f64::INFINITY,
        lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
        bits: None,
    }
}

/// Verdict on one open-loop rate.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub rate: f64,
    pub p50_ms: Option<f64>,
    pub p95_ms: Option<f64>,
    pub failed: usize,
    pub sent: usize,
    pub lag_ms_max: f64,
    pub backlog_grows: bool,
}

impl PhaseResult {
    /// The latency limit holds: a supported p95 within [`SLO_P95_MS`],
    /// failures at most [`MAX_FAILED_FRAC`], and no growing backlog.
    pub fn meets_slo(&self) -> bool {
        self.p95_ms.is_some_and(|p| p <= SLO_P95_MS)
            && self.failed as f64 <= MAX_FAILED_FRAC * self.sent as f64
            && !self.backlog_grows
    }
}

/// Judge one phase. Failed requests carry `+inf` latency, so they miss
/// any limit. The backlog grows when the generator's lag over the last
/// quarter of the phase exceeds [`BACKLOG_LAG_MS`] and twice the lag of
/// the first quarter.
fn judge(rate: f64, done: &[Done]) -> PhaseResult {
    let lat: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    let lags: Vec<f64> = done.iter().map(|d| d.lag_ms).collect();
    let q = lags.len() / 4;
    let first = median(&lags[..q.max(1).min(lags.len())]).unwrap_or(0.0);
    let last = median(&lags[lags.len() - q.max(1).min(lags.len())..]).unwrap_or(0.0);
    PhaseResult {
        rate,
        p50_ms: tail_percentile(&lat, 0.5),
        p95_ms: tail_percentile(&lat, 0.95),
        failed: done.iter().filter(|d| d.bits.is_none()).count(),
        sent: done.len(),
        lag_ms_max: lags.iter().copied().fold(0.0, f64::max),
        backlog_grows: last > BACKLOG_LAG_MS && last > 2.0 * first,
    }
}

/// Cumulative bucket counts of one histogram series in a Prometheus
/// text page, keyed by upper bound (`+Inf` excluded).
fn prom_buckets(text: &str, family: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{family}_bucket{{");
    text.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let le = rest.split("le=\"").nth(1)?.split('"').next()?;
            let count: f64 = rest.rsplit(' ').next()?.parse().ok()?;
            Some((le.parse::<f64>().ok().filter(|le| le.is_finite())?, count))
        })
        .collect()
}

/// Quantile `q` of the observations a histogram gained between two
/// scrapes, as the upper bound of the bucket it falls in.
fn prom_delta_quantile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> Option<f64> {
    let cum_before = |le: f64| {
        before
            .iter()
            .filter(|(b, _)| *b <= le)
            .map(|(_, c)| *c)
            .fold(0.0, f64::max)
    };
    let deltas: Vec<(f64, f64)> = after
        .iter()
        .map(|&(le, c)| (le, c - cum_before(le)))
        .collect();
    let total = deltas.last()?.1;
    if total <= 0.0 {
        return None;
    }
    deltas
        .iter()
        .find(|(_, c)| *c >= q * total)
        .map(|(le, _)| *le)
}

fn stats_num(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Scrapes taken around the open-loop phases.
struct Scrape {
    metrics: String,
    stats: Json,
}

fn scrape(server: &ServerProc, out: &mut Outcome) -> Result<Scrape, String> {
    let metrics = server.get("/metrics")?;
    out.check(perfvec_obs::prom::validate(&metrics).is_ok(), || {
        "/metrics is not valid Prometheus text".to_string()
    });
    let stats = Json::parse(&server.get("/v1/stats")?).map_err(|e| format!("/v1/stats: {e}"))?;
    Ok(Scrape { metrics, stats })
}

/// Compare sampled responses with the offline path, bit for bit.
fn check_parity(
    out: &mut Outcome,
    samples: &[(Planned, f64)],
    foundation: &Foundation,
    table: &MarchTable,
    inline: &InlineBodies,
) {
    for (p, served) in samples {
        let features = match &p.source {
            Source::Named { program, trace_len } => {
                match named_workload_features(program, *trace_len) {
                    Some(f) => f,
                    None => {
                        out.check(false, || format!("no offline features for {program}"));
                        continue;
                    }
                }
            }
            Source::Inline(i) => inline.matrices[*i].clone(),
        };
        let rep = program_representation(foundation, &features);
        let offline = predict_total_tenths(&rep, table.rep(p.march), foundation.target_scale);
        out.check(offline.to_bits() == served.to_bits(), || {
            format!(
                "served {served} != offline {offline} for {:?} on machine {}",
                p.source, p.march
            )
        });
    }
}

/// Pick `k` answered requests with a seeded draw, at most one per index.
fn sample_answers(seed: u64, plan: &[Planned], done: &[Done], k: usize) -> Vec<(Planned, f64)> {
    let answered: Vec<&Done> = done.iter().filter(|d| d.bits.is_some()).collect();
    let mut rng = Rng(seed ^ 0x7061_7269);
    let mut picked: Vec<(Planned, f64)> = Vec::new();
    for _ in 0..k.min(answered.len()) {
        let d = answered[rng.below(answered.len() as u64) as usize];
        picked.push((plan[d.index].clone(), d.bits.expect("answered")));
    }
    picked
}

/// One timed set-up: spawn the server, load the model, wait for
/// `/healthz`, then warm the hot set and the inline pool (`warm`).
fn timed_start(
    ckpt: &Path,
    warm: &[Planned],
    inline: &InlineBodies,
    out: &mut Outcome,
) -> Result<(ServerProc, f64), String> {
    let t = Instant::now();
    let s = ServerProc::start(ckpt)?;
    let (warmed, _) = send_all(s.addr, warm, inline, false);
    let secs = t.elapsed().as_secs_f64();
    out.check(warmed.iter().all(|d| d.bits.is_some()), || {
        "warm-up requests failed".to_string()
    });
    Ok((s, secs))
}

/// State of the closed-loop drains, which run in two halves around the
/// open loop (the second on a fresh server) and share its miss keys and
/// parity sample.
struct Drains {
    misses: MissKeys,
    rng: Rng,
    parity: Vec<(Planned, f64)>,
    colds: Vec<f64>,
    warms: Vec<f64>,
    traced_colds: Vec<f64>,
    units: usize,
}

impl Drains {
    /// One drain unit: fresh misses, fresh inline bodies and hot-set
    /// hits (cold), then the same requests [`WARM_REPEATS`] times
    /// (warm). Returns the unit's wall time.
    fn unit(
        &mut self,
        addr: SocketAddr,
        inline: &mut InlineBodies,
        tracer: &Tracer,
        args: &Args,
        out: &mut Outcome,
    ) -> Result<f64, String> {
        let u = self.units;
        self.units += 1;
        let mut unit: Vec<Planned> = Vec::new();
        for _ in 0..DRAIN_MISSES {
            unit.push(Planned {
                due_us: 0,
                class: Class::Miss,
                source: self.misses.next(),
                march: self.rng.below(DEFAULT_POPULATION as u64) as usize,
            });
        }
        for _ in 0..DRAIN_INLINE {
            let i = inline.push(inline.json.len());
            unit.push(Planned {
                due_us: 0,
                class: Class::Inline,
                source: Source::Inline(i),
                march: self.rng.below(DEFAULT_POPULATION as u64) as usize,
            });
        }
        for h in 0..DRAIN_HITS {
            unit.push(Planned {
                due_us: 0,
                class: Class::Hit,
                source: hot_source(h),
                march: self.rng.below(DEFAULT_POPULATION as u64) as usize,
            });
        }
        let warm_plan: Vec<Planned> = (0..WARM_REPEATS)
            .flat_map(|_| unit.iter().cloned())
            .collect();
        let traced = args.trace && u % 2 == 1;
        let inline = &*inline;
        let drain = |name: &'static str, plan: &[Planned]| {
            if traced {
                tracer.span(name, || send_all(addr, plan, inline, false))
            } else {
                send_all(addr, plan, inline, false)
            }
        };
        let (cold_done, cold_s) = drain("drain.cold", &unit);
        let (warm_done, warm_s) = drain("drain.warm", &warm_plan);
        for (plan, done) in [(&unit, &cold_done), (&warm_plan, &warm_done)] {
            out.attempted += done.len() as u64;
            out.failed += done.iter().filter(|d| d.bits.is_none()).count() as u64;
            // A warm answer must equal the cold answer to the same request.
            for d in done {
                let first = &cold_done[d.index % unit.len()];
                out.check(
                    d.bits.map(f64::to_bits) == first.bits.map(f64::to_bits),
                    || format!("drain {u}: answers to {:?} differ", plan[d.index].source),
                );
            }
        }
        if u == 0 {
            self.parity
                .extend(sample_answers(args.seed ^ 0xd7a1, &unit, &cold_done, 2));
        }
        if traced {
            self.traced_colds.push(cold_s);
        } else {
            self.colds.push(cold_s);
            self.warms.push(warm_s);
        }
        Ok(cold_s + warm_s)
    }
}

pub fn serve_mixed(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = fresh_dir("serve").map_err(|e| format!("creating scratch dir: {e}"))?;
    let ckpt = dir.join("lstm-2-32-c12.pfm");
    let (foundation, arch, table) = served_model();
    checkpoint::save(&foundation, arch, Some(&table), &ckpt)
        .map_err(|e| format!("writing checkpoint: {e}"))?;
    let offline = checkpoint::load(&ckpt).map_err(|e| format!("reading checkpoint: {e}"))?;
    let (foundation, table) = (offline.0, offline.2.ok_or("checkpoint lost its table")?);

    let mut inline = InlineBodies {
        matrices: Vec::new(),
        json: Vec::new(),
    };
    for k in 0..INLINE_POOL {
        inline.push(k);
    }

    // Set-up, timed until the first measured request can go out: spawn
    // the server, load the model, wait for `/healthz`, then warm the hot
    // set and the inline pool. Done several times, at the start and at
    // the end of the run; the last of the first ones serves the run.
    let warm: Vec<Planned> = (0..HOT_PROGRAMS)
        .map(hot_source)
        .chain((0..INLINE_POOL).map(Source::Inline))
        .map(|source| Planned {
            due_us: 0,
            class: Class::Hit,
            source,
            march: 0,
        })
        .collect();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS_FIRST {
        drop(server.take());
        let (s, secs) = timed_start(&ckpt, &warm, &inline, &mut out)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("a server started");

    // Closed-loop drains for a share of the run, half before the open
    // loop and half after it: a fresh mix (cold), then the same requests
    // again (warm). Traced runs alternate untraced and traced drains.
    let tracer = Tracer::new(args.trace);
    let mut drains = Drains {
        misses: MissKeys::new(args.seed),
        rng: Rng(args.seed ^ 0x6472_6169),
        parity: Vec::new(),
        colds: Vec::new(),
        warms: Vec::new(),
        traced_colds: Vec::new(),
        units: 0,
    };
    let drain_seconds = args.seconds * DRAIN_SHARE / 2.0;
    repeat_units(drain_seconds, 2, |_| {
        drains.unit(server.addr, &mut inline, &tracer, args, &mut out)
    })?;
    // Open loop: the two frozen rates, then the ladder.
    let before = scrape(&server, &mut out)?;
    let mut by_class: Vec<(Class, f64)> = Vec::new();
    let mut phases = Vec::new();
    let run_phase = |rate: f64, drains: &mut Drains, out: &mut Outcome| {
        let plan = schedule(args.seed, rate, phase_requests(rate), &mut drains.misses);
        let (done, _) = send_all(server.addr, &plan, &inline, true);
        out.attempted += done.len() as u64;
        out.failed += done.iter().filter(|d| d.bits.is_none()).count() as u64;
        let sample = sample_answers(args.seed ^ rate.to_bits(), &plan, &done, 1);
        drains.parity.extend(sample);
        let r = judge(rate, &done);
        (r, done, plan)
    };
    let mut high_plan = Vec::new();
    for rate in [RATE_LOW, RATE_HIGH] {
        let (r, done, plan) = run_phase(rate, &mut drains, &mut out);
        by_class.extend(done.iter().map(|d| (d.class, d.latency_ms)));
        phases.push(r);
        high_plan = plan;
    }
    let after = scrape(&server, &mut out)?;
    let mut max_rps = 0.0;
    for rate in LADDER {
        let r = match phases.iter().find(|p| p.rate == rate) {
            Some(p) => p.clone(),
            None => {
                let (r, ..) = run_phase(rate, &mut drains, &mut out);
                phases.push(r.clone());
                r
            }
        };
        if !r.meets_slo() {
            break;
        }
        max_rps = rate;
    }

    let rss =
        peak_rss_mb(&server.child.id().to_string()).ok_or("cannot read the server's VmHWM")?;
    out.e2e.insert("peak_rss_mb", rss);
    drop(server);
    // The second half of the drains runs on a freshly set-up server: the
    // open loop leaves the first one's representation cache fuller, and
    // warm drains on it took twice as long after a ladder that climbed
    // to 120/s or more. The remaining set-ups come at
    // the end of the run, so the set-up median spans it too.
    let (second, secs) = timed_start(&ckpt, &warm, &inline, &mut out)?;
    setups.push(secs);
    repeat_units(drain_seconds, 2, |_| {
        drains.unit(second.addr, &mut inline, &tracer, args, &mut out)
    })?;
    drop(second);
    for _ in SETUPS_FIRST + 1..SETUP_REPEATS {
        let (s, secs) = timed_start(&ckpt, &warm, &inline, &mut out)?;
        setups.push(secs);
        drop(s);
    }
    out.e2e
        .insert("setup_s", median(&setups).expect("set-up times"));
    let Drains {
        parity,
        colds,
        warms,
        traced_colds,
        ..
    } = drains;
    out.e2e
        .insert("wall_s", median(&colds).expect("drains ran"));
    out.e2e
        .insert("warm_wall_s", median(&warms).expect("drains ran"));

    // Served == offline on a seeded sample of answers.
    check_parity(&mut out, &parity, &foundation, &table, &inline);
    out.layer("serve.offline_checked", Some(parity.len() as f64));
    let _ = std::fs::remove_dir_all(&dir);

    // Open-loop figures (printed always, reported as layers when traced).
    let low = &phases[0];
    let high = &phases[1];
    let sent: usize = phases.iter().map(|p| p.sent).sum();
    let failed: usize = phases.iter().map(|p| p.failed).sum();
    out.layer("p50_ms.low", low.p50_ms);
    out.layer("p95_ms.low", low.p95_ms);
    out.layer("p50_ms.high", high.p50_ms);
    out.layer("p95_ms.high", high.p95_ms);
    out.layer("max_rps_at_slo", Some(max_rps));
    out.layer("failed_frac", Some(failed as f64 / sent.max(1) as f64));
    out.layer("gen.sent", Some(sent as f64));
    out.layer("gen.ok", Some((sent - failed) as f64));
    out.layer("gen.failed", Some(failed as f64));
    out.layer(
        "gen.lag_ms_max",
        Some(phases.iter().map(|p| p.lag_ms_max).fold(0.0, f64::max)),
    );
    let class_p50 = |c: Class| {
        let v: Vec<f64> = by_class
            .iter()
            .filter(|(k, _)| *k == c)
            .map(|(_, l)| *l)
            .collect();
        tail_percentile(&v, 0.5)
    };
    out.layer("class.hit.p50_ms", class_p50(Class::Hit));
    out.layer("class.miss.p50_ms", class_p50(Class::Miss));
    out.layer("class.inline.p50_ms", class_p50(Class::Inline));

    let hist = "perfvec_engine_predict_duration_us";
    let (b, a) = (
        prom_buckets(&before.metrics, hist),
        prom_buckets(&after.metrics, hist),
    );
    out.layer("engine.predict_us_p50", prom_delta_quantile(&b, &a, 0.5));
    out.layer("engine.predict_us_p95", prom_delta_quantile(&b, &a, 0.95));
    let delta = |k: &str| stats_num(&after.stats, k) - stats_num(&before.stats, k);
    let batches = delta("batches");
    out.layer(
        "batcher.batch_mean",
        (batches > 0.0).then(|| delta("batched_jobs") / batches),
    );
    out.layer(
        "batcher.queue_depth_max",
        Some(stats_num(&before.stats, "queue_depth").max(stats_num(&after.stats, "queue_depth"))),
    );
    out.layer("engine.shed", Some(delta("shed")));
    let lookups = delta("cache_hits") + delta("cache_misses");
    out.layer(
        "serve_cache.hit_ratio",
        (lookups > 0.0).then(|| delta("cache_hits") / lookups),
    );

    for p in &phases {
        out.report.push(format!(
            "open loop {:>5.0}/s: p50 {} ms, p95 {} ms, failed {}/{}, lag max {:.1} ms{}{}",
            p.rate,
            fmt_opt(p.p50_ms),
            fmt_opt(p.p95_ms),
            p.failed,
            p.sent,
            p.lag_ms_max,
            if p.backlog_grows {
                ", backlog grows"
            } else {
                ""
            },
            if p.meets_slo() {
                ""
            } else {
                "  -> misses the limit"
            }
        ));
    }
    out.report.push(format!(
        "max_rps_at_slo {max_rps} 1/s (p95 <= {SLO_P95_MS} ms, failed <= {}%)",
        MAX_FAILED_FRAC * 100.0
    ));
    out.report.push(format!("set-ups {}", fmt_secs(&setups)));
    out.report.push(format!(
        "drains: cold {}; warm {}",
        fmt_secs(&colds),
        fmt_secs(&warms)
    ));

    if args.trace {
        layer_probes(&mut out, &tracer, &foundation, &high_plan, &inline);
        tracing_overhead(&mut out, &colds, &traced_colds);
        out.spans = Some(spans_json(&tracer.spans()));
    }
    Ok(out)
}

fn phase_requests(rate: f64) -> usize {
    PHASE_REQUESTS.max((rate * MIN_PHASE_S).ceil() as usize)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("n/a".to_string(), |v| format!("{v:.2}"))
}

/// Time the server's layers in-process on the high-rate phase's requests:
/// request parsing (`read_request` + `parse_predict_request`), feature
/// building for named misses (`named_workload_features`) and the
/// batched forward on those features (`program_representations_coalesced`).
fn layer_probes(
    out: &mut Outcome,
    t: &Tracer,
    foundation: &Foundation,
    plan: &[Planned],
    inline: &InlineBodies,
) {
    let mut parse_us = Vec::new();
    for p in plan {
        let b = body(&p.source, p.march, inline);
        let raw = format!(
            "POST /v1/predict HTTP/1.1\r\nhost: perfvec\r\ncontent-length: {}\r\n\r\n{b}",
            b.len()
        );
        let start = Instant::now();
        let ok = t.span("http.parse", || {
            let req = read_request(&mut std::io::Cursor::new(raw.as_bytes()))
                .ok()
                .flatten()?;
            let text = std::str::from_utf8(&req.body).ok()?;
            let json = Json::parse(text).ok()?;
            parse_predict_request(&json).ok()
        });
        parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        out.check(ok.is_some(), || {
            format!("recorded request {:?} does not parse", p.source)
        });
    }
    let (mut feat_ms, mut fwd_ms) = (Vec::new(), Vec::new());
    for p in plan.iter().filter(|p| p.class == Class::Miss) {
        let Source::Named { program, trace_len } = &p.source else {
            continue;
        };
        let start = Instant::now();
        let features = t.span("server.features", || {
            named_workload_features(program, *trace_len)
        });
        feat_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let Some(features) = features else { continue };
        let start = Instant::now();
        t.span("compose.forward_batch", || {
            program_representations_coalesced(
                foundation,
                &[&features],
                EngineConfig::default().batch,
            )
        });
        fwd_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let parse = median(&parse_us);
    let feat = median(&feat_ms);
    let fwd = median(&fwd_ms);
    out.layer("http.parse_us_p50", parse);
    out.layer("server.features_ms_p50", feat);
    out.layer("compose.forward_batch_ms_p50", fwd);
    // No queue-wait histogram exists inside the server yet: derive it as
    // the client's miss latency minus the layers a miss passes through.
    let miss = out
        .layers
        .get("class.miss.p50_ms")
        .copied()
        .filter(|v| *v >= 0.0);
    if let (Some(miss), Some(parse), Some(feat), Some(fwd)) = (miss, parse, feat, fwd) {
        out.layer(
            "batcher.queue_wait_us_p50",
            Some(((miss - feat - fwd) * 1e3 - parse).max(0.0)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(7, 80.0, 500, &mut MissKeys::new(7));
        let b = schedule(7, 80.0, 500, &mut MissKeys::new(7));
        let c = schedule(8, 80.0, 500, &mut MissKeys::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_the_rate_and_mix_it_promises() {
        let n = 20_000;
        let plan = schedule(3, 80.0, n, &mut MissKeys::new(3));
        let span_s = plan.last().unwrap().due_us as f64 * 1e-6;
        let rate = n as f64 / span_s;
        assert!((rate - 80.0).abs() < 80.0 * 0.03, "rate {rate}");
        assert!(plan.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        let share = |c: Class| plan.iter().filter(|p| p.class == c).count() as f64 / n as f64;
        assert!((share(Class::Hit) - SHARE_HIT).abs() < 0.02);
        assert!((share(Class::Miss) - SHARE_MISS).abs() < 0.02);
        assert!(plan.iter().all(|p| p.march < DEFAULT_POPULATION));
    }

    #[test]
    fn miss_keys_never_repeat_and_stay_in_range() {
        let mut keys = MissKeys::new(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..17 * 200 {
            let Source::Named { program, trace_len } = keys.next() else {
                unreachable!()
            };
            assert!((MISS_MIN_LEN..MISS_MIN_LEN + MISS_LENGTHS).contains(&trace_len));
            assert_ne!(trace_len, HOT_TRACE_LEN);
            assert!(seen.insert((program, trace_len)));
        }
    }

    fn done(latency_ms: f64, lag_ms: f64) -> Done {
        Done {
            index: 0,
            class: Class::Hit,
            latency_ms,
            lag_ms,
            bits: latency_ms.is_finite().then_some(1.0),
        }
    }

    #[test]
    fn failed_requests_miss_the_limit() {
        let ok: Vec<Done> = (0..220).map(|_| done(1.0, 0.0)).collect();
        assert!(judge(80.0, &ok).meets_slo());
        let mut some_failed = ok.clone();
        for d in some_failed.iter_mut().take(3) {
            *d = done(f64::INFINITY, 0.0);
        }
        let r = judge(80.0, &some_failed);
        assert_eq!(r.failed, 3);
        assert!(!r.meets_slo(), "3/220 failed is over 1%");
    }

    #[test]
    fn a_growing_backlog_fails_the_rate() {
        let growing: Vec<Done> = (0..220).map(|i| done(1.0, i as f64)).collect();
        let r = judge(80.0, &growing);
        assert!(r.backlog_grows);
        assert!(!r.meets_slo());
        let steady: Vec<Done> = (0..220).map(|i| done(1.0, (i % 5) as f64)).collect();
        assert!(!judge(80.0, &steady).backlog_grows);
    }

    #[test]
    fn too_few_samples_leave_p95_unsupported_and_fail() {
        let few: Vec<Done> = (0..150).map(|_| done(1.0, 0.0)).collect();
        let r = judge(80.0, &few);
        assert_eq!(r.p95_ms, None);
        assert!(!r.meets_slo());
    }

    #[test]
    fn histogram_deltas_give_bucket_quantiles() {
        let text = "# TYPE h histogram\nh_bucket{model=\"d\",le=\"8\"} 2\nh_bucket{model=\"d\",le=\"64\"} 5\nh_bucket{model=\"d\",le=\"+Inf\"} 5\n";
        let before = prom_buckets(text, "h");
        assert_eq!(before, vec![(8.0, 2.0), (64.0, 5.0)]);
        let after = vec![(8.0, 12.0), (64.0, 15.0), (512.0, 25.0)];
        // Gained 10 at <=8, 0 in (8,64], 10 in (64,512].
        assert_eq!(prom_delta_quantile(&before, &after, 0.5), Some(8.0));
        assert_eq!(prom_delta_quantile(&before, &after, 0.95), Some(512.0));
        assert_eq!(prom_delta_quantile(&after, &after, 0.5), None);
    }
}
