//! The `serve-mixed` workload: a single-node `dvs-serve` daemon with a
//! result store and one campaign executor, driven over two client
//! connections.
//!
//! * A closed-loop client keeps [`IN_FLIGHT`] seeded small grids
//!   (FFW+BBR and defect-free, 25 k instructions, two maps) submitted and
//!   polls each one to completion. Every [`REPEAT_EVERY`]th campaign repeats a catalog
//!   grid that is already in the store; the rest are fresh, so the run
//!   exercises both store hits and fresh evaluators with their
//!   per-campaign artifact rebuilds.
//! * A second connection sends open-loop `GET /v1/results` point
//!   queries for catalog cells at [`QUERY_RATE`] per second, timed from
//!   when each one was due.
//!
//! The daemon is this binary re-executed with `--daemon`, which wires the
//! same library pieces the `dvs-serve` binary wires for a single node
//! (`ResultStore::open`, `JobManager::start`, `Server::bind`,
//! `Server::run`).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dvs_cluster::HttpClient;
use dvs_core::{EvalConfig, Evaluator, ResultStore};
use dvs_obs::MetricsRegistry;
use dvs_serve::api::{cell_json, results_json, CampaignSpec};
use dvs_serve::jobs::{JobConfig, JobManager};
use dvs_serve::{Server, ServerConfig};
use dvs_workloads::Benchmark;

use crate::stats::{OpenLoop, Timed};
use crate::workload::{nproc, root_seed, Digest, DigestTable, ResolvePath, Workload, POOL};
use crate::{
    idle_cpu_seconds, peak_rss_mb, setup_median, spawn_self, user_cpu_seconds, work_dir, Metric,
    Outcome, Rng,
};

/// Dynamic instructions per serve trial (on the template path).
pub const TRACE_INSTRS: usize = 25_000;

// The traffic shape below (maps, catalog size, repeat share, rungs) is
// an assumption: no trace of real campaign traffic exists to derive it
// from. It is chosen so a run sees both store hits and fresh evaluators;
// see the README.

/// Fault maps per faulty serve cell.
pub const MAPS: u64 = 2;

/// Grids pre-computed into the store before the daemon starts; repeats
/// and point queries draw from them.
pub const CATALOG: usize = 12;

/// Every `REPEAT_EVERY`th campaign repeats a catalog grid.
pub const REPEAT_EVERY: usize = 4;

/// Point queries per second on the query connection.
pub const QUERY_RATE: f64 = 100.0;

/// The share of the measured closed-loop query capacity the open loop
/// may use; a run above it warns.
pub const MAX_QUERY_LOAD: f64 = 0.1;

/// How long the closed-loop query capacity is measured after the window.
pub const CAPACITY_PROBE: Duration = Duration::from_millis(500);

/// Campaigns the closed-loop client keeps submitted. Two keep the one
/// executor busy (the next campaign is queued when one completes) and
/// stay far below the daemon's queue depth of 8, so no submission is
/// ever refused with a 429.
pub const IN_FLIGHT: usize = 2;

/// Campaigns covered by the checked-in digest of a run.
pub const DIGEST_CAMPAIGNS: usize = 100;

/// Every `COMPARE_EVERY`th fresh campaign is byte-compared against an
/// in-process evaluator run of the same spec.
pub const COMPARE_EVERY: usize = 8;

/// Daemon starts measured for `setup_s`: the measured daemon's and
/// probes spread over the window.
pub const SETUP_SAMPLES: usize = 15;

/// Campaigns a session must complete so its campaign p90 has ten samples
/// beyond it.
pub const MIN_CAMPAIGNS: usize = 100;

/// Point queries a session must send so its p99 has ten samples beyond
/// it.
pub const MIN_QUERIES: usize = 1000;

/// A session stops submitting after this long, whatever it reached.
pub const HARD_CAP: Duration = Duration::from_secs(150);

/// Pause between status polls of a running campaign.
const POLL_PAUSE: Duration = Duration::from_millis(10);

const LADDER: [u32; 5] = [560, 540, 520, 500, 480];

/// The daemon's engine configuration; specs override maps, trace length
/// and seed.
pub fn base_config() -> EvalConfig {
    EvalConfig {
        threads: nproc(),
        ..EvalConfig::standard()
    }
}

/// One seeded grid: a benchmark under FFW+BBR and defect-free at two
/// voltages.
pub fn grid_json(pool: u64, catalog: bool, index: usize) -> String {
    // Engine seeds stay below 2^53 so they survive the JSON number path.
    let seed = ((root_seed(pool) << 24) % (1 << 52)) | (u64::from(catalog) << 20) | index as u64;
    let mut rng = Rng::new(seed);
    let bench = Benchmark::ALL[rng.below(Benchmark::ALL.len() as u64) as usize];
    let a = rng.below(LADDER.len() as u64) as usize;
    let b = (a + 1 + rng.below(LADDER.len() as u64 - 1) as usize) % LADDER.len();
    format!(
        "{{\"benchmarks\":[\"{}\"],\"schemes\":[\"FFW+BBR\",\"defect-free\"],\
         \"voltages_mv\":[{},{}],\"maps\":{MAPS},\"trace_instrs\":{TRACE_INSTRS},\"seed\":{}}}",
        bench.name(),
        LADDER[a],
        LADDER[b],
        seed,
    )
}

/// The spec of campaign `i` of a run on pool entry `pool`: a catalog
/// repeat every [`REPEAT_EVERY`]th campaign, otherwise the next fresh
/// grid. Returns the spec and, for repeats, the catalog index.
pub fn campaign_spec(pool: u64, i: usize, rng: &mut Rng) -> (String, Option<usize>) {
    if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
        let c = rng.below(CATALOG as u64) as usize;
        (grid_json(pool, true, c), Some(c))
    } else {
        (grid_json(pool, false, i - i / REPEAT_EVERY), None)
    }
}

/// The client-side generator of a run on pool entry `pool`.
pub fn campaign_rng(pool: u64) -> Rng {
    Rng::new(root_seed(pool) ^ 0x00c0_ffee)
}

/// Renders `spec` the way `GET /v1/campaigns/{id}` renders its results,
/// from a store-less in-process evaluator.
pub fn render_in_process(spec: &str) -> Result<String, String> {
    let spec = CampaignSpec::from_json(spec)?;
    let mut e = Evaluator::new(spec.config(&base_config()));
    Ok(results_json(&e.run_plan(&spec.plan())))
}

/// `--daemon --store DIR`: a single-node daemon with one executor.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let Some(dir) = args
        .iter()
        .position(|a| a == "--store")
        .and_then(|i| args.get(i + 1))
    else {
        eprintln!("usage: --daemon --store DIR");
        return ExitCode::FAILURE;
    };
    let store = match ResultStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench daemon: cannot open result store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = Arc::new(MetricsRegistry::new());
    let jobs = JobManager::start(
        JobConfig {
            queue_depth: 8,
            executors: 1,
            base: base_config(),
        },
        Some(store),
        registry.clone(),
    );
    let server = match Server::bind("127.0.0.1:0", ServerConfig::default(), jobs, registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench daemon: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("dvs-serve listening on http://{}", server.local_addr());
    std::io::stdout().flush().ok();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A keep-alive client connection to `addr`.
pub fn client(addr: SocketAddr) -> HttpClient {
    HttpClient::new(addr.to_string(), Duration::from_secs(30))
}

/// A started daemon.
pub struct Daemon {
    child: Child,
    /// Its bound address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts a daemon over `store` and waits for its first healthy
    /// `/v1/healthz`. Returns it with the CPU seconds it spent from its
    /// start until that answer, and the latency of the answering health
    /// request.
    ///
    /// # Errors
    ///
    /// The daemon failed to start or never became healthy.
    pub fn start(store: &std::path::Path) -> Result<(Daemon, f64, f64), String> {
        let start = Instant::now();
        let mut child = spawn_self(&[
            "--daemon".into(),
            "--store".into(),
            store.display().to_string(),
        ])?;
        let mut line = String::new();
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        out.read_line(&mut line)
            .map_err(|e| format!("daemon: {e}"))?;
        let addr: SocketAddr = match line.trim().rsplit_once("http://").map(|(_, a)| a.parse()) {
            Some(Ok(a)) => a,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not report its address: {line:?}"));
            }
        };
        let mut daemon = Daemon { child, addr };
        let mut client = client(addr);
        loop {
            let t = Instant::now();
            if let Ok((status, _)) = client.request("GET", "/v1/healthz", None) {
                if status == 200 {
                    let healthz_us = t.elapsed().as_secs_f64() * 1e6;
                    let cpu = idle_cpu_seconds(daemon.child.id())?;
                    return Ok((daemon, cpu, healthz_us));
                }
            }
            if start.elapsed() > Duration::from_secs(30) {
                daemon.kill();
                return Err("daemon never answered /v1/healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drains the daemon and waits for it to exit.
    ///
    /// # Errors
    ///
    /// The drain request failed or the daemon exited non-zero.
    pub fn shutdown(mut self) -> Result<(), String> {
        let r = client(self.addr).request("POST", "/v1/admin/shutdown", None);
        if r.is_err() {
            self.kill();
            return Err("daemon refused the shutdown request".into());
        }
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// User CPU seconds the daemon process has consumed.
    ///
    /// # Errors
    ///
    /// See [`user_cpu_seconds`].
    pub fn user_cpu_seconds(&self) -> Result<f64, String> {
        user_cpu_seconds(&self.child.id().to_string())
    }

    /// Peak resident memory of the daemon process, in MiB.
    ///
    /// # Errors
    ///
    /// See [`peak_rss_mb`].
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

/// A daemon that was never shut down (an error path) is killed, so a
/// failed run leaves no process behind.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Everything one serve session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// CPU seconds from daemon start to its first healthy
    /// `/v1/healthz`, per start.
    pub setup_s: Vec<f64>,
    /// Latency of the answering health request, per start.
    pub healthz_us: Vec<f64>,
    /// Submit-to-complete latency per campaign.
    pub campaign_ms: Vec<f64>,
    /// `POST /v1/campaigns` latency.
    pub submit_us: Vec<f64>,
    /// `GET /v1/campaigns/{id}` latency.
    pub poll_us: Vec<f64>,
    /// Submit to first poll that saw the campaign leave the queue.
    pub queue_wait_ms: Vec<f64>,
    /// First poll out of the queue to completion.
    pub run_ms: Vec<f64>,
    /// Open-loop point queries.
    pub queries: Vec<Timed>,
    /// Trials the daemon computed (store hits excluded).
    pub trials_computed: u64,
    /// Trials of completed campaigns, store hits included.
    pub trials_total: u64,
    /// 429 answers to submissions. With [`IN_FLIGHT`] campaigns
    /// outstanding and a queue of 8 none can occur, so each one counts as
    /// a failure rather than being retried.
    pub throttled: u64,
    /// Submissions sent.
    pub submits: u64,
    /// Closed-loop point queries per second one connection got served
    /// after the window (see [`query_capacity`]).
    pub query_capacity_per_s: f64,
    /// Measurement window in seconds.
    pub window_s: f64,
    /// User CPU seconds the daemon spent during the window.
    pub daemon_cpu_s: f64,
    /// Daemon peak resident memory in MiB.
    pub rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

struct Catalog {
    /// Results array per catalog grid.
    results: Vec<String>,
    /// (query path, expected body) per catalog cell.
    cells: Vec<(String, String)>,
}

fn fill_catalog(pool: u64, store: &ResultStore) -> Result<Catalog, String> {
    let mut results = Vec::new();
    let mut cells = Vec::new();
    for c in 0..CATALOG {
        let spec_text = grid_json(pool, true, c);
        let spec = CampaignSpec::from_json(&spec_text)?;
        let cfg = spec.config(&base_config());
        let mut e = Evaluator::new(cfg).with_store(store.clone());
        let out = e.run_plan(&spec.plan());
        for (key, r) in &out {
            let path = format!(
                "/v1/results?benchmark={}&scheme={}&vcc_mv={}&maps={}&trace_instrs={}&seed={}",
                key.benchmark.name(),
                key.scheme.name().replace('+', "%2B"),
                key.vcc_mv,
                cfg.maps,
                cfg.trace_instrs,
                cfg.seed
            );
            cells.push((path, cell_json(key, r)));
        }
        results.push(results_json(&out));
    }
    Ok(Catalog { results, cells })
}

fn query_loop(
    addr: SocketAddr,
    cells: &[(String, String)],
    stop: &AtomicBool,
    seed: u64,
) -> (Vec<Timed>, u64) {
    let mut client = client(addr);
    let mut rng = Rng::new(seed ^ 0x0051_ea5e);
    let sched = OpenLoop::new(Instant::now(), QUERY_RATE);
    let mut out = Vec::new();
    let mut failed = 0u64;
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = sched.due(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (path, want) = &cells[rng.below(cells.len() as u64) as usize];
        let sent = Instant::now();
        let ok = matches!(client.request("GET", path, None), Ok((200, body)) if body == *want);
        out.push(Timed {
            due,
            sent,
            done: Instant::now(),
        });
        if !ok {
            failed += 1;
        }
        i += 1;
    }
    (out, failed)
}

/// Closed-loop point queries on one connection for [`CAPACITY_PROBE`]:
/// what the daemon serves when nothing waits between requests. Returns
/// queries per second, queries sent, and the number of wrong or failed
/// answers.
fn query_capacity(addr: SocketAddr, cells: &[(String, String)], seed: u64) -> (f64, u64, u64) {
    let mut client = client(addr);
    let mut rng = Rng::new(seed ^ 0x00ca_9ac1);
    let (start, mut n, mut failed) = (Instant::now(), 0u64, 0u64);
    while start.elapsed() < CAPACITY_PROBE {
        let (path, want) = &cells[rng.below(cells.len() as u64) as usize];
        if !matches!(client.request("GET", path, None), Ok((200, body)) if body == *want) {
            failed += 1;
        }
        n += 1;
    }
    (n as f64 / start.elapsed().as_secs_f64(), n, failed)
}

fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{name}\":"))? + name.len() + 3;
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Copies the flat store directory `from` to `to`.
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if !path.is_file() {
            return Err(format!("store holds a non-file {}", path.display()));
        }
        std::fs::copy(&path, to.join(path.file_name().expect("file name")))
            .map_err(|e| format!("copy {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Starts a daemon over `store`, records its set-up, and drains it.
fn probe_setup(s: &mut Session, store: &Path) -> Result<(), String> {
    let (d, setup, healthz) = Daemon::start(store)?;
    s.setup_s.push(setup);
    s.healthz_us.push(healthz);
    d.shutdown()
}

/// A submitted campaign the client has not yet seen complete.
struct InFlight {
    /// Campaign id, `None` when the submission failed.
    id: Option<String>,
    /// When the submission was sent.
    submitted: Instant,
}

/// Polls campaign `c` to completion and records its latencies and
/// trials. Returns its results array, or `None` if it failed.
fn await_campaign(s: &mut Session, client: &mut HttpClient, c: InFlight) -> Option<String> {
    let id = c.id?;
    let path = format!("/v1/campaigns/{id}");
    let mut left_queue = None;
    let body = loop {
        std::thread::sleep(POLL_PAUSE);
        let t = Instant::now();
        let r = client.request("GET", &path, None);
        s.poll_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok((200, body)) = r else { break None };
        let state = field(&body, "state").unwrap_or("");
        if state != "queued" && left_queue.is_none() {
            left_queue = Some(Instant::now());
        }
        if state != "queued" && state != "running" {
            break Some(body);
        }
    };
    let done = Instant::now();
    s.campaign_ms.push((done - c.submitted).as_secs_f64() * 1e3);
    let lq = left_queue.unwrap_or(done);
    s.queue_wait_ms.push((lq - c.submitted).as_secs_f64() * 1e3);
    s.run_ms.push((done - lq).as_secs_f64() * 1e3);
    let b = body.filter(|b| field(b, "state") == Some("complete"))?;
    let count = |name| field(&b, name).and_then(|v| v.parse::<u64>().ok());
    s.trials_computed += count("trials_computed").unwrap_or(0);
    s.trials_total += count("trials_total").unwrap_or(0);
    b.find("\"results\":")
        .map(|at| b[at + 10..b.len() - 1].to_string())
}

/// Runs one serve session for `seconds` (and at least
/// [`MIN_CAMPAIGNS`] campaigns), checks every output, and stops the
/// daemon.
///
/// # Errors
///
/// The daemon could not be started or stopped.
pub fn session(seed: u64, seconds: f64, table: &DigestTable) -> Result<Session, String> {
    let pool = seed % POOL;
    let cfg = CampaignSpec::from_json(&grid_json(pool, false, 0))?.config(&base_config());
    ResolvePath::Template.guard(&cfg)?;
    eprintln!("perfbench: serve-mixed resolves traces on the template path");
    let dir = work_dir().join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.join("store");
    let store = ResultStore::open(&store_dir).map_err(|e| format!("open store: {e}"))?;
    let catalog = fill_catalog(pool, &store)?;
    drop(store);
    // Set-up probes start their daemons over a copy, so they never touch
    // the store the measured daemon is writing.
    let probe_dir = dir.join("probe-store");
    copy_store(&store_dir, &probe_dir)?;

    let mut s = Session::default();
    let (daemon, setup, healthz) = Daemon::start(&store_dir)?;
    s.setup_s.push(setup);
    s.healthz_us.push(healthz);

    let stop = AtomicBool::new(false);
    let mut rng = campaign_rng(pool);
    let mut client = client(daemon.addr);
    let mut got_results: Vec<String> = Vec::new();
    let (queries, query_failed) = std::thread::scope(|scope| {
        let q = scope.spawn(|| query_loop(daemon.addr, &catalog.cells, &stop, seed));
        let start = Instant::now();
        let cpu0 = daemon.user_cpu_seconds();
        let budget = Duration::from_secs_f64(seconds.max(1.1 * MIN_QUERIES as f64 / QUERY_RATE));
        // Set-up probes are spread over the window, so one slow phase of
        // the host cannot move them all. A due probe waits until the
        // campaigns in flight are done, so it does not compete with them.
        let probe_every = budget / SETUP_SAMPLES as u32;
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let mut i = 0usize;
        loop {
            let elapsed = start.elapsed();
            let probe_due = s.setup_s.len() < SETUP_SAMPLES
                && elapsed < budget
                && elapsed >= probe_every * s.setup_s.len() as u32;
            if probe_due && inflight.is_empty() {
                if let Err(e) = probe_setup(&mut s, &probe_dir) {
                    stop.store(true, Ordering::Relaxed);
                    return Err(e);
                }
                continue;
            }
            while !probe_due
                && inflight.len() < IN_FLIGHT
                && (start.elapsed() < budget || i < MIN_CAMPAIGNS)
                && start.elapsed() < HARD_CAP
            {
                let (spec, _) = campaign_spec(pool, i, &mut rng);
                i += 1;
                s.attempted += 1;
                s.submits += 1;
                let t = Instant::now();
                let r = client.request("POST", "/v1/campaigns", Some(&spec));
                s.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                if matches!(r, Ok((429, _))) {
                    s.throttled += 1;
                }
                let id = match r {
                    Ok((202, body)) => field(&body, "id").map(str::to_string),
                    _ => None,
                };
                inflight.push_back(InFlight { id, submitted: t });
            }
            let Some(c) = inflight.pop_front() else { break };
            let results = await_campaign(&mut s, &mut client, c);
            if results.is_none() {
                s.failed += 1;
            }
            got_results.push(results.unwrap_or_default());
        }
        s.window_s = start.elapsed().as_secs_f64();
        s.daemon_cpu_s = match (cpu0, daemon.user_cpu_seconds()) {
            (Ok(a), Ok(b)) => b - a,
            _ => f64::NAN,
        };
        stop.store(true, Ordering::Relaxed);
        Ok(q.join().expect("query thread"))
    })?;
    s.attempted += queries.len() as u64;
    s.failed += query_failed;
    s.queries = queries;
    s.rss_mb = daemon.peak_rss_mb()?;
    let (capacity, sent, capacity_failed) = query_capacity(daemon.addr, &catalog.cells, seed);
    s.query_capacity_per_s = capacity;
    s.attempted += sent;
    s.failed += capacity_failed;
    // The daemon's drain waits for open keep-alive peers, so close ours.
    drop(client);
    daemon.shutdown()?;
    while s.setup_s.len() < SETUP_SAMPLES {
        probe_setup(&mut s, &probe_dir)?;
    }
    if QUERY_RATE > MAX_QUERY_LOAD * capacity {
        eprintln!(
            "perfbench: warning: {QUERY_RATE} point queries/s is above {MAX_QUERY_LOAD} of the \
             measured capacity ({capacity:.0}/s)"
        );
    }

    // Output checks, after the timed window.
    let mut rng = campaign_rng(pool);
    let mut digest = Digest::default();
    for (i, got) in got_results.iter().enumerate() {
        let (spec, repeat) = campaign_spec(pool, i, &mut rng);
        if i < DIGEST_CAMPAIGNS {
            digest.bytes(got.as_bytes());
        }
        let want = match repeat {
            Some(c) => Some(catalog.results[c].clone()),
            None if (i - i / REPEAT_EVERY).is_multiple_of(COMPARE_EVERY) => {
                Some(render_in_process(&spec)?)
            }
            None => None,
        };
        if want.is_some_and(|w| !got.is_empty() && w != *got) {
            eprintln!("perfbench: serve campaign {i} differs from the in-process run of {spec}");
            s.failed += 1;
        }
    }
    match table.get(Workload::ServeMixed, pool, 0) {
        Some(want) if got_results.len() >= DIGEST_CAMPAIGNS && want == digest.value() => {}
        other => {
            eprintln!(
                "perfbench: serve pool {pool}: digest of the first {DIGEST_CAMPAIGNS} campaigns \
                 {:016x} does not match the checked-in {other:?}",
                digest.value()
            );
            s.failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(s)
}

/// The digest of the first [`DIGEST_CAMPAIGNS`] campaigns on pool entry
/// `pool`, from in-process runs.
///
/// # Errors
///
/// A spec failed to parse.
pub fn bless_digest(pool: u64) -> Result<u64, String> {
    let mut rng = campaign_rng(pool);
    let mut digest = Digest::default();
    for i in 0..DIGEST_CAMPAIGNS {
        let (spec, _) = campaign_spec(pool, i, &mut rng);
        digest.bytes(render_in_process(&spec)?.as_bytes());
    }
    Ok(digest.value())
}

/// Runs the serve workload untraced and returns its end-to-end metrics.
///
/// # Errors
///
/// See [`session`].
pub fn run(seed: u64, seconds: f64, table: &DigestTable) -> Result<Outcome, String> {
    let s = session(seed, seconds, table)?;
    eprintln!(
        "perfbench: serve-mixed ran {} campaigns and {} queries in {:.2} s ({:.2} daemon user CPU-s); \
         closed-loop query capacity {:.0}/s",
        s.campaign_ms.len(),
        s.queries.len(),
        s.window_s,
        s.daemon_cpu_s,
        s.query_capacity_per_s
    );
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        metrics: vec![
            Metric::new(
                "trials_per_user_cpu_s",
                s.trials_computed as f64 / s.daemon_cpu_s,
                "1/cpu-s",
            ),
            Metric::new("setup_s", setup_median(&s.setup_s), "s"),
            Metric::new("peak_rss_mb", s.rss_mb, "MB"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_sequence_is_seeded_and_repeats_the_catalog() {
        let (mut a, mut b) = (campaign_rng(3), campaign_rng(3));
        let seq_a: Vec<_> = (0..40).map(|i| campaign_spec(3, i, &mut a)).collect();
        let seq_b: Vec<_> = (0..40).map(|i| campaign_spec(3, i, &mut b)).collect();
        assert_eq!(seq_a, seq_b);
        let repeats = seq_a.iter().filter(|(_, r)| r.is_some()).count();
        assert_eq!(repeats, 40 / REPEAT_EVERY);
        // Fresh grids never repeat each other or the catalog.
        let mut fresh: Vec<&String> = seq_a
            .iter()
            .filter(|(_, r)| r.is_none())
            .map(|(s, _)| s)
            .collect();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), 40 - repeats);
        for (spec, _) in &seq_a {
            CampaignSpec::from_json(spec).expect("generated specs parse");
        }
    }

    #[test]
    fn status_fields_parse() {
        let body = r#"{"id":7,"state":"complete","trials_computed":6,"results":[]}"#;
        assert_eq!(field(body, "id"), Some("7"));
        assert_eq!(field(body, "state"), Some("complete"));
        assert_eq!(field(body, "trials_computed"), Some("6"));
        assert_eq!(field(body, "nope"), None);
    }
}
