//! `server-mix`: open-loop job traffic against the `abs-server` binary.
//!
//! Independent clients are modelled by one generator process with two
//! threads (a sender that posts each job at its scheduled time whatever
//! the server is doing, and a poller that watches outstanding jobs), so
//! the queue can grow. Jobs come at three fixed arrival rates, 0.2, 0.7
//! and 1.5 times the server's measured capacity, drawn from a fixed
//! problem set:
//! mostly small dense-upper JSON jobs (n = 256), G22-like edge lists and
//! a small share of G55-like edge lists. Every job has a calibrated
//! target and a timeout cap; about one in four is a warm repeat.
//!
//! HTTP, `parse_spec`/JSON decode, lease, cache and queueing do most of
//! the work here and the kernel little. Dense and edge-list decode, and
//! cache hits and misses, use the same layers in different ways.

use crate::common::{
    check_result, mix, quartile_note, require_samples, secs, timed_setup, Metric, Outcome, RunArgs,
};
use crate::http::{self, Reply};
use crate::stats;
use crate::targets::{target_for, Fixed, DENSE, DENSE_N, G55, GSET_TTS};
use crate::trace::{self, Layer};
use qubo::{BitVec, Qubo};
use qubo_problems::graph::Graph;
use qubo_problems::{gset, maxcut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `abs-server` flags of every run: the default four HTTP workers and two
/// solver sessions, and a queue deeper than the jobs of a run, so that
/// the overload phase admits every job. Its goodput is then the time
/// the server takes to work through the same job set, not a count that
/// depends on which jobs the admission control happened to refuse.
pub const SERVER_FLAGS: &[&str] = &[
    "--port",
    "0",
    "--queue-depth",
    "1000",
    "--http-workers",
    "4",
    "--solver-workers",
    "2",
];
/// Jobs/s of this mix the server completes when saturated, measured on
/// the 2-core reference host: the median overload-phase goodput of 32
/// runs at 64 jobs/s was 29 jobs/s (quartiles 27 and 31). The arrival
/// rates are fixed multiples of it; re-measure it
/// (`saturation_goodput_per_s`) and re-derive them on another host.
pub const CAPACITY_JOBS_PER_S: f64 = 29.0;
/// Arrival rates in jobs/s: light (0.2 of capacity), loaded (0.7) and
/// overload (1.5). At the light rate a large job is running about a
/// quarter of the time, so most jobs meet none; at 0.3 (about 40 %)
/// the median job latency moved by a fifth between runs. The overload rate is far enough past saturation that the
/// queue stays full although capacity moves by about 15 % from run to
/// run, so its goodput is the server's capacity rather than the offered
/// rate.
pub const RATES: [f64; 3] = [
    0.2 * CAPACITY_JOBS_PER_S,
    0.7 * CAPACITY_JOBS_PER_S,
    1.5 * CAPACITY_JOBS_PER_S,
];
/// Index of the nominal rate in [`RATES`], where the gated latencies
/// are taken: the light rate, where queueing is short and the figure
/// steady. The loaded rate's latencies are printed, not gated.
pub const NOMINAL: usize = 0;
/// Index of the overload rate in [`RATES`], whose goodput is gated.
pub const OVERLOAD: usize = 2;
/// Share of the measurement window spent at each rate. A phase sends
/// whole mix blocks, the number nearest its share: in a 30-second window
/// 100 jobs at the nominal rate (the fewest a p90 needs), 100 loaded
/// and 300 in overload, about 17, 5 and 7 seconds.
const PHASE_SHARE: [f64; 3] = [0.58, 0.17, 0.23];
/// p90 job latency a rate must meet to count toward the maximum rate.
pub const LATENCY_LIMIT_S: f64 = 2.0;
/// Jobs still in the server at a phase's last send beyond which its
/// backlog counts as growing: two per solver session.
const MAX_BACKLOG: usize = 4;
/// Per-job solve cap; a job that ends without its target failed.
pub const JOB_TIMEOUT_MS: u64 = 5_000;
/// Table 1 (a) fraction of the calibration best that edge-list jobs
/// must reach: the loosest, so that decode, lease and set-up rather than
/// the search set their latency, as this workload intends.
const EDGE_LIST_FRACTION: f64 = 0.95;
/// Every this-many-th send of each problem is a warm repeat. Counting
/// per problem keeps the share of warm jobs of each kind in a phase the
/// same whatever the seed.
const WARM_EVERY: usize = 4;
/// Pause between sweeps of the poller over outstanding jobs.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// A job is polled again after this share of its age so far: young jobs
/// every sweep, long ones less often, so that a few long jobs do not
/// slow the sweep that observes the short ones. The observation error
/// of a job's latency is at most this share of it, or one sweep.
const POLL_AGE_SHARE: f64 = 0.1;
/// Outstanding jobs the poller watches, oldest first. The server starts
/// jobs in arrival order on two solver sessions, so a job can end only
/// when at most one older job is still open; this leaves a margin. The
/// others are queued, and polling them would only load the server's
/// accept loop (one connection per 5 ms tick) while it is saturated.
const POLL_OLDEST: usize = 8;
/// Longest wait for outstanding jobs after a phase's last send.
const DRAIN_CAP: Duration = Duration::from_secs(30);
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 7;

/// Builds one dense instance of the problem set.
#[must_use]
pub fn dense_instance(f: &Fixed) -> Qubo {
    qubo_problems::random::generate(DENSE_N, f.seed)
}

/// Builds one G-set stand-in graph.
///
/// # Panics
/// Panics on a name missing from the catalog (a constant here).
#[must_use]
pub fn graph(f: &Fixed) -> Graph {
    gset::generate_instance(gset::instance(f.name).expect("catalog instance"), f.seed)
}

/// `{"format":"dense",...}`: the row-major upper triangle of `W`.
#[must_use]
pub fn dense_problem_json(q: &Qubo) -> String {
    let n = q.n();
    let mut s = format!("{{\"format\":\"dense\",\"n\":{n},\"upper\":[");
    let mut first = true;
    for i in 0..n {
        for j in i..n {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&q.get(i, j).to_string());
        }
    }
    s.push_str("]}");
    s
}

/// `{"format":"edge-list",...}` with 1-indexed vertices.
#[must_use]
pub fn edge_list_json(g: &Graph) -> String {
    let mut s = format!("{{\"format\":\"edge-list\",\"n\":{},\"edges\":[", g.n());
    for (k, (u, v, w)) in g.edges().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{},{},{w}]", u + 1, v + 1));
    }
    s.push_str("]}");
    s
}

/// A `POST /jobs` body.
#[must_use]
pub fn job_body(problem: &str, seed: u64, target: i64, timeout_ms: u64, warm: bool) -> String {
    format!(
        "{{\"problem\":{problem},\"config\":{{\"seed\":{seed},\"timeout_ms\":{timeout_ms},\"target\":{target},\"warm_start\":{warm}}}}}"
    )
}

/// One problem of the fixed set.
pub struct Problem {
    /// Payload kind: `dense`, `g22` or `g55`.
    pub kind: &'static str,
    /// The benchmark's own copy, built through the public constructors.
    pub q: Qubo,
    /// The JSON problem object sent to the server.
    pub json: String,
    /// Calibrated target energy.
    pub target: i64,
}

/// Builds the fixed problem set.
///
/// # Panics
/// Panics if a G-set stand-in does not fit the QUBO limits.
#[must_use]
pub fn problem_set() -> Vec<Problem> {
    let mut set: Vec<Problem> = DENSE
        .iter()
        .map(|f| {
            let q = dense_instance(f);
            Problem {
                kind: "dense",
                json: dense_problem_json(&q),
                q,
                target: f.target,
            }
        })
        .collect();
    for (kind, f) in [("g22", &GSET_TTS[1]), ("g55", &G55)] {
        let g = graph(f);
        set.push(Problem {
            kind,
            q: maxcut::to_qubo(&g).expect("G-set stand-ins fit the QUBO limits"),
            json: edge_list_json(&g),
            target: target_for(f.best, EDGE_LIST_FRACTION),
        });
    }
    set
}

/// One block of the job mix, in problem-set indices: 40 dense jobs
/// over the four dense instances, 9 G22 and 1 G55 per 50 jobs (80 %,
/// 18 %, 2 %), so the proportions hold exactly in every phase whatever
/// the seed. The block is stratified: each run of five jobs holds one
/// large job (a G22, or the G55 in stratum `g55_stratum`, the same in
/// every block of a run) at a seed-chosen place, and the dense
/// instances come in seed-shuffled order. Large jobs therefore never
/// bunch up, G55 jobs come about 50 jobs apart, and the median job
/// latency falls well inside the dense jobs and the p90 near the middle
/// of the G22 jobs, rather than on a boundary between two kinds of job.
const MIX_BLOCK: usize = 50;
/// Jobs per stratum of a mix block; each holds one large job.
const STRATUM: usize = 5;

fn mix_block(rng: &mut StdRng, g55_stratum: usize) -> Vec<usize> {
    let mut dense: Vec<usize> = (0..MIX_BLOCK - MIX_BLOCK / STRATUM)
        .map(|i| i % DENSE.len())
        .collect();
    for i in (1..dense.len()).rev() {
        dense.swap(i, rng.gen_range(0..=i));
    }
    let mut block = Vec::with_capacity(MIX_BLOCK);
    for stratum in 0..MIX_BLOCK / STRATUM {
        let large = if stratum == g55_stratum {
            DENSE.len() + 1
        } else {
            DENSE.len()
        };
        let at = rng.gen_range(0..STRATUM);
        for k in 0..STRATUM {
            block.push(if k == at {
                large
            } else {
                dense.pop().expect("four dense jobs per stratum")
            });
        }
    }
    block
}

/// A running `abs-server` child.
pub struct Server {
    child: Child,
    /// Listening address.
    pub addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the binary and waits for its `listening` line.
    ///
    /// # Errors
    /// Spawn failure, or the server exiting before it listens.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(SERVER_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix("abs-server listening on http://") {
                        break rest
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad address {rest}: {e}"));
                    }
                }
                _ => break Err("abs-server exited before listening".to_string()),
            }
        };
        let addr = match addr {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // Keep reading stdout so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        Ok(Self {
            child,
            addr,
            drain: Some(drain),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One scheduled job and what became of it.
#[derive(Clone, Debug, Default)]
struct Job {
    phase: usize,
    problem: usize,
    warm: bool,
    traced: bool,
    /// Due time, from the start of the run.
    due: f64,
    sent: f64,
    replied: f64,
    status: u16,
    id: Option<u64>,
    terminal: Option<f64>,
    state: String,
    reached: bool,
    /// Solve wall the server reports (`result.elapsed_ms`).
    elapsed_ms: Option<f64>,
    warm_started: bool,
    wrong: Option<String>,
}

impl Job {
    fn refused(&self) -> bool {
        matches!(self.status, 429 | 503)
    }

    /// Done, with its target, and a correct solution.
    fn succeeded(&self) -> bool {
        self.state == "done" && self.reached && self.wrong.is_none()
    }

    fn latency(&self) -> Option<f64> {
        self.terminal.map(|t| t - self.due)
    }
}

/// Everything one open-loop run measured.
#[derive(Default)]
pub struct MixResult {
    jobs: Vec<Job>,
    status_rtt_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    /// Gaps between two polls of one outstanding job.
    resolution_ms: Vec<f64>,
    /// The server's peak resident set after each phase's jobs ended.
    phase_peak_rss_mb: Vec<Option<f64>>,
}

fn parse_id(body: &str) -> Option<u64> {
    serde_json::from_str(body).ok()?.get("id")?.as_u64()
}

/// Observes one status reply; returns whether the job is terminal.
fn observe(job: &mut Job, reply: &Reply, now: f64, set: &[Problem]) -> bool {
    let Ok(v) = serde_json::from_str(&reply.body) else {
        return false;
    };
    let state = v
        .get("state")
        .and_then(|s| s.as_str())
        .unwrap_or("")
        .to_string();
    let terminal = matches!(
        state.as_str(),
        "done" | "failed" | "cancelled" | "interrupted"
    );
    if terminal {
        job.terminal = Some(now);
        job.warm_started = v
            .get("warm_started")
            .and_then(|b| b.as_bool())
            .unwrap_or(false);
        if let Some(r) = v.get("result") {
            job.reached = r
                .get("reached_target")
                .and_then(|b| b.as_bool())
                .unwrap_or(false);
            job.elapsed_ms = r
                .get("elapsed_ms")
                .and_then(|e| e.as_u64())
                .map(|e| e as f64);
            let p = &set[job.problem];
            let best = r.get("best_energy").and_then(|e| e.as_i64());
            let x = r
                .get("solution")
                .and_then(|s| s.as_str())
                .and_then(BitVec::from_bit_str);
            job.wrong = match (best, x) {
                (Some(e), Some(x)) => check_result(&p.q, &x, e, job.reached, Some(p.target)).err(),
                _ => Some("result without best_energy or solution".into()),
            };
        }
        job.state = state;
    }
    terminal
}

/// Runs the open loop: each `(rate, jobs)` phase in turn, waiting for
/// the previous phase's jobs to end before the next begins. Each phase
/// starts a fresh mix block, so a phase of whole blocks holds exactly
/// the block's proportions of each kind of job.
///
/// # Errors
/// HTTP failures talking to the server.
pub fn open_loop(
    server: &Server,
    set: &[Problem],
    phases: &[(f64, usize)],
    seed: u64,
    traced: bool,
) -> Result<MixResult, String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 200));
    let mut jobs = Vec::new();
    let mut sends = vec![0usize; set.len()];
    let mut pending: Vec<usize> = Vec::new();
    let g55_stratum = rng.gen_range(0..MIX_BLOCK / STRATUM);
    for (phase, &(rate, count)) in phases.iter().enumerate() {
        pending.clear();
        for k in 0..count {
            if pending.is_empty() {
                pending = mix_block(&mut rng, g55_stratum);
            }
            let problem = pending.pop().expect("refilled above");
            let warm = sends[problem] % WARM_EVERY == WARM_EVERY - 1;
            sends[problem] += 1;
            jobs.push(Job {
                phase,
                problem,
                warm,
                traced: traced && jobs.len() % 2 == 0,
                due: k as f64 / rate,
                ..Job::default()
            });
        }
    }
    let bodies: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let p = &set[j.problem];
            job_body(
                &p.json,
                mix(seed, 300 + i as u64),
                p.target,
                JOB_TIMEOUT_MS,
                j.warm,
            )
        })
        .collect();

    let shared = Shared {
        jobs: Mutex::new(jobs),
        outstanding: AtomicUsize::new(0),
        sending_done: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        t0: Instant::now(),
        addr: server.addr,
    };
    let pid = server.child.id();
    let mut result = MixResult::default();
    // Traced runs record spans for every other job (see `span_if`).
    trace::set_enabled(traced);
    // The sender posts on schedule while this thread polls; the scope
    // joins the sender on every path.
    let (sent, polled) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let sent = send_all(&shared, &bodies, pid);
            shared.sending_done.store(true, Ordering::SeqCst);
            sent
        });
        let polled = poll_all(&shared, &mut result, set, traced);
        if polled.is_err() {
            shared.abort.store(true, Ordering::SeqCst);
        }
        (sender.join(), polled)
    });
    trace::set_enabled(false);
    polled?;
    result.phase_peak_rss_mb = sent.map_err(|_| "sender thread panicked".to_string())??;
    result.jobs = shared
        .jobs
        .into_inner()
        .map_err(|_| "jobs lock poisoned".to_string())?;
    Ok(result)
}

/// State the sender and the poller share.
struct Shared {
    jobs: Mutex<Vec<Job>>,
    /// Jobs admitted and not yet seen terminal.
    outstanding: AtomicUsize,
    sending_done: AtomicBool,
    /// Set when the poller fails, so the sender stops too.
    abort: AtomicBool,
    t0: Instant,
    addr: SocketAddr,
}

impl Shared {
    fn now(&self) -> f64 {
        secs(self.t0.elapsed())
    }

    /// Waits until every admitted job has ended (or the cap passes).
    fn drain(&self) {
        let wait = Instant::now();
        while self.outstanding.load(Ordering::SeqCst) > 0
            && wait.elapsed() < DRAIN_CAP
            && !self.abort.load(Ordering::SeqCst)
        {
            std::thread::sleep(POLL_PAUSE);
        }
    }
}

/// The sender: posts each job at its due time, phase after phase, and
/// reads the server's peak memory after each phase's jobs have ended.
fn send_all(sh: &Shared, bodies: &[String], pid: u32) -> Result<Vec<Option<f64>>, String> {
    let mut peaks = Vec::new();
    let mut phase_start = sh.now();
    let mut current = 0;
    for (i, body) in bodies.iter().enumerate() {
        if sh.abort.load(Ordering::SeqCst) {
            return Err("aborted".into());
        }
        let (phase, due, is_traced) = {
            let j = &sh.jobs.lock().expect("jobs lock")[i];
            (j.phase, j.due, j.traced)
        };
        if phase != current {
            // Let the previous phase's jobs end first.
            sh.drain();
            peaks.push(crate::host::peak_rss_mb(Some(pid)));
            phase_start = sh.now();
            current = phase;
        }
        let at = phase_start + due;
        let wait = at - sh.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        trace::set_op(i as u64 + 1);
        let sent = sh.now();
        let reply = {
            let _s = trace::span_if(is_traced, Layer::Server, "POST /jobs");
            http::request(sh.addr, "POST", "/jobs", body)
        };
        let replied = sh.now();
        let reply = reply.map_err(|e| format!("POST /jobs: {e}"))?;
        let mut j = sh.jobs.lock().expect("jobs lock");
        let job = &mut j[i];
        job.due = at;
        job.sent = sent;
        job.replied = replied;
        job.status = reply.status;
        if reply.status == 201 {
            job.id = parse_id(&reply.body);
            sh.outstanding.fetch_add(1, Ordering::SeqCst);
        }
    }
    sh.drain();
    peaks.push(crate::host::peak_rss_mb(Some(pid)));
    Ok(peaks)
}

/// The poller: sweeps outstanding jobs until the sender is done and
/// every job has ended, and scrapes `/metrics` once a second.
fn poll_all(
    sh: &Shared,
    result: &mut MixResult,
    set: &[Problem],
    traced: bool,
) -> Result<(), String> {
    let mut last_poll: Vec<Option<f64>> = Vec::new();
    let mut next_poll: Vec<f64> = Vec::new();
    let mut next_scrape = 1.0;
    loop {
        let done_sending = sh.sending_done.load(Ordering::SeqCst);
        let now = sh.now();
        let (pending, any): (Vec<(usize, u64, bool, f64)>, bool) = {
            let j = sh.jobs.lock().expect("jobs lock");
            last_poll.resize(j.len(), None);
            next_poll.resize(j.len(), 0.0);
            let open: Vec<_> = j
                .iter()
                .enumerate()
                .filter(|(_, j)| j.terminal.is_none())
                .filter_map(|(i, j)| j.id.map(|id| (i, id, j.traced, j.replied)))
                .collect();
            let any = !open.is_empty();
            let due = open
                .into_iter()
                .take(POLL_OLDEST)
                .filter(|&(i, ..)| next_poll[i] <= now)
                .collect();
            (due, any)
        };
        if done_sending && !any {
            return Ok(());
        }
        for (i, id, is_traced, replied) in pending {
            trace::set_op(i as u64 + 1);
            let t = sh.now();
            let reply = {
                let _s = trace::span_if(is_traced, Layer::Server, "GET /jobs/{id}");
                http::request(sh.addr, "GET", &format!("/jobs/{id}"), "")
            };
            let at = sh.now();
            let reply = reply.map_err(|e| format!("GET /jobs/{id}: {e}"))?;
            result.status_rtt_ms.push((at - t) * 1e3);
            if let Some(prev) = last_poll[i] {
                result.resolution_ms.push((at - prev) * 1e3);
            }
            last_poll[i] = Some(at);
            next_poll[i] = at + (at - replied) * POLL_AGE_SHARE;
            let terminal = {
                let mut j = sh.jobs.lock().expect("jobs lock");
                observe(&mut j[i], &reply, at, set)
            };
            if terminal {
                sh.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
        }
        if sh.now() >= next_scrape {
            next_scrape += 1.0;
            let t = sh.now();
            let _s = trace::span_if(traced, Layer::Server, "GET /metrics");
            let reply = http::request(sh.addr, "GET", "/metrics", "")
                .map_err(|e| format!("GET /metrics: {e}"))?;
            if reply.status == 200 {
                result.scrape_ms.push((sh.now() - t) * 1e3);
            }
        }
        std::thread::sleep(POLL_PAUSE);
    }
}

/// Per-phase accounting.
struct PhaseStats {
    rate: f64,
    sent: usize,
    succeeded: usize,
    failed: usize,
    refused: usize,
    /// Latency of every job sent; failed and refused jobs at the cap.
    latencies: Vec<f64>,
    p90: Option<f64>,
    /// Jobs still outstanding when the phase's last job was sent.
    backlog: usize,
    goodput: f64,
    meets_limit: bool,
    /// How late the generator sent this phase's jobs, in milliseconds.
    lateness_ms: Vec<f64>,
}

fn phase_stats(r: &MixResult, phase: usize, rate: f64) -> PhaseStats {
    let jobs: Vec<&Job> = r.jobs.iter().filter(|j| j.phase == phase).collect();
    let last_send = jobs.iter().map(|j| j.sent).fold(0.0, f64::max);
    let backlog = jobs
        .iter()
        .filter(|j| j.id.is_some() && j.terminal.is_some_and(|t| t > last_send))
        .count();
    // Every job sent counts. One that failed or was refused counts at
    // the job cap or later, so a failure raises the latency figures
    // instead of dropping a slow sample.
    let cap = JOB_TIMEOUT_MS as f64 / 1e3;
    let latencies: Vec<f64> = jobs
        .iter()
        .map(|j| match j.latency() {
            Some(l) if j.succeeded() => l,
            Some(l) => l.max(cap),
            None => cap,
        })
        .collect();
    let p90 =
        stats::percentile(&latencies, 0.9).or_else(|| latencies.iter().copied().reduce(f64::max));
    let succeeded = jobs.iter().filter(|j| j.succeeded()).count();
    let refused = jobs.iter().filter(|j| j.refused()).count();
    let first_due = jobs.iter().map(|j| j.due).fold(f64::INFINITY, f64::min);
    let last_end = jobs.iter().filter_map(|j| j.terminal).fold(0.0, f64::max);
    let goodput = if last_end > first_due {
        succeeded as f64 / (last_end - first_due)
    } else {
        0.0
    };
    let lateness_ms = jobs
        .iter()
        .filter(|j| j.status != 0)
        .map(|j| (j.sent - j.due) * 1e3)
        .collect();
    PhaseStats {
        rate,
        lateness_ms,
        sent: jobs.len(),
        succeeded,
        failed: jobs.len() - succeeded - refused,
        refused,
        p90,
        latencies,
        backlog,
        goodput,
        meets_limit: p90.is_some_and(|p| p <= LATENCY_LIMIT_S)
            && refused == 0
            && backlog <= MAX_BACKLOG,
    }
}

fn max(v: &[f64]) -> Option<f64> {
    v.iter().copied().reduce(f64::max)
}

/// Server-layer figures of one open-loop run.
pub fn server_metrics(list: &mut Vec<Metric>, r: &MixResult, set: &[Problem]) {
    for kind in ["dense", "g22", "g55"] {
        let v: Vec<f64> = r
            .jobs
            .iter()
            .filter(|j| set[j.problem].kind == kind && j.status != 0)
            .map(|j| (j.replied - j.sent) * 1e3)
            .collect();
        Outcome::push(
            list,
            &format!("server.submit_ms_p50.{kind}"),
            stats::median(&v),
            "ms",
            v.len(),
        );
    }
    // Tails as maxima: a short probe has too few jobs for a percentile
    // with ten samples beyond it, and every traced run reports the same
    // names.
    let submits: Vec<f64> = r
        .jobs
        .iter()
        .filter(|j| j.status != 0)
        .map(|j| (j.replied - j.sent) * 1e3)
        .collect();
    Outcome::push(
        list,
        "server.submit_ms_max",
        max(&submits),
        "ms",
        submits.len(),
    );
    // Time a job spent in the server but not solving: queueing, lease,
    // decode and session set-up, plus up to one status interval.
    let waits: Vec<f64> = r
        .jobs
        .iter()
        .filter_map(|j| {
            j.terminal
                .zip(j.elapsed_ms)
                .map(|(t, e)| (t - j.replied) * 1e3 - e)
        })
        .collect();
    Outcome::push(
        list,
        "server.queue_wait_ms_p50",
        stats::median(&waits),
        "ms",
        waits.len(),
    );
    Outcome::push(
        list,
        "server.queue_wait_ms_max",
        max(&waits),
        "ms",
        waits.len(),
    );
    let runs: Vec<f64> = r.jobs.iter().filter_map(|j| j.elapsed_ms).collect();
    Outcome::push(
        list,
        "server.run_ms_p50",
        stats::median(&runs),
        "ms",
        runs.len(),
    );
    Outcome::push(
        list,
        "server.status_rtt_ms",
        stats::median(&r.status_rtt_ms),
        "ms",
        r.status_rtt_ms.len(),
    );
    Outcome::push(
        list,
        "server.metrics_scrape_ms",
        stats::median(&r.scrape_ms),
        "ms",
        r.scrape_ms.len(),
    );
    let sent = r.jobs.len();
    let refused = r.jobs.iter().filter(|j| j.refused()).count();
    Outcome::push(
        list,
        "server.refused_ratio",
        Some(refused as f64 / sent.max(1) as f64),
        "ratio",
        sent,
    );
    let lags: Vec<f64> = r
        .jobs
        .iter()
        .filter(|j| j.status != 0)
        .map(|j| (j.sent - j.due) * 1e3)
        .collect();
    Outcome::push(list, "server.gen_lag_ms_max", max(&lags), "ms", lags.len());
    let warm: Vec<&Job> = r
        .jobs
        .iter()
        .filter(|j| j.warm && j.terminal.is_some())
        .collect();
    Outcome::push(
        list,
        "core.cache.warm_hit_ratio",
        (!warm.is_empty())
            .then(|| warm.iter().filter(|j| j.warm_started).count() as f64 / warm.len() as f64),
        "ratio",
        warm.len(),
    );
}

/// A short light-load run for traced runs of the other workloads, so
/// that every traced run reports the server layer.
///
/// # Errors
/// Server spawn or HTTP failures.
pub fn probe(args: &RunArgs, list: &mut Vec<Metric>) -> Result<(), String> {
    let bin = args
        .server_bin
        .as_deref()
        .ok_or("--server-bin is required")?;
    let set = problem_set();
    let server = Server::spawn(bin)?;
    // One full mix block, so every job kind and warm repeats appear.
    let r = open_loop(&server, &set, &[(10.0, MIX_BLOCK)], args.seed, true)?;
    server_metrics(list, &r, &set);
    Ok(())
}

/// A tiny dense problem with its exact optimum as the target must come
/// back done, at the optimum, with a solution that recomputes to it.
fn tiny_check(addr: SocketAddr, seed: u64) -> Result<(), String> {
    let q = qubo_problems::random::generate(20, mix(seed, 2));
    let opt = crate::common::exact_optimum(&q);
    let set = vec![Problem {
        kind: "dense",
        json: dense_problem_json(&q),
        q,
        target: opt,
    }];
    let body = job_body(&set[0].json, mix(seed, 3), opt, 10_000, false);
    let reply = http::request(addr, "POST", "/jobs", &body).map_err(|e| e.to_string())?;
    let id = parse_id(&reply.body)
        .ok_or(format!("tiny job refused: {} {}", reply.status, reply.body))?;
    let mut job = Job::default();
    let t0 = Instant::now();
    loop {
        let r =
            http::request(addr, "GET", &format!("/jobs/{id}"), "").map_err(|e| e.to_string())?;
        if observe(&mut job, &r, 0.0, &set) {
            break;
        }
        if t0.elapsed() > Duration::from_secs(20) {
            return Err("tiny job did not finish".into());
        }
        std::thread::sleep(POLL_PAUSE);
    }
    if let Some(w) = job.wrong {
        return Err(format!("tiny job: {w}"));
    }
    if !job.succeeded() {
        return Err(format!(
            "tiny job ended {} without its exact optimum {opt}",
            job.state
        ));
    }
    Ok(())
}

/// Sends every problem of the set once and waits for each job to end.
fn warm_up(addr: SocketAddr, set: &[Problem], seed: u64) -> Result<(), String> {
    for (i, p) in set.iter().enumerate() {
        let body = job_body(
            &p.json,
            mix(seed, 5 + i as u64),
            p.target,
            JOB_TIMEOUT_MS,
            false,
        );
        let reply = http::request(addr, "POST", "/jobs", &body).map_err(|e| e.to_string())?;
        let id = parse_id(&reply.body).ok_or(format!("warm-up job refused: {}", reply.status))?;
        let mut job = Job {
            problem: i,
            ..Job::default()
        };
        let t0 = Instant::now();
        while t0.elapsed() < DRAIN_CAP {
            let r = http::request(addr, "GET", &format!("/jobs/{id}"), "")
                .map_err(|e| e.to_string())?;
            if observe(&mut job, &r, 0.0, set) {
                break;
            }
            std::thread::sleep(POLL_PAUSE);
        }
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
/// Server spawn or HTTP failures, as text.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let bin = args.server_bin.clone().ok_or("--server-bin is required")?;
    let mut out = Outcome::default();
    // Set-up: the problem set through the public constructors, plus a
    // server spawn until its listening line; the last server is kept.
    // The two are timed apart, each the median of its repetitions, so
    // that a slow spawn and a slow build in different repetitions do
    // not both miss the median.
    let (set, build_s) = timed_setup(SETUP_REPS, problem_set);
    let (server, spawn_s) = timed_setup(SETUP_REPS, || Server::spawn(&bin));
    let server = server?;
    let setup_s = build_s + spawn_s;
    out.notes.push(format!(
        "server flags: {}; rates {RATES:?} jobs/s ({:?} of {CAPACITY_JOBS_PER_S} jobs/s capacity); latency limit p90 <= {LATENCY_LIMIT_S} s",
        SERVER_FLAGS.join(" "),
        RATES.map(|r| r / CAPACITY_JOBS_PER_S),
    ));

    tiny_check(server.addr, args.seed)?;
    // Warm-up, not counted: every problem once, so first-use costs in
    // the server are paid before timing starts.
    warm_up(server.addr, &set, args.seed)?;

    let phases: Vec<(f64, usize)> = RATES
        .iter()
        .zip(PHASE_SHARE)
        .map(|(&r, s)| {
            let blocks = (r * args.seconds * s / MIX_BLOCK as f64).round().max(1.0);
            (r, blocks as usize * MIX_BLOCK)
        })
        .collect();
    let r = open_loop(&server, &set, &phases, args.seed, args.trace)?;
    drop(server);
    // The server's peak memory over the whole run. The peak up to the
    // end of the nominal phase moved by a tenth between runs although
    // G55 jobs never overlap there; the whole-run peak moved half as
    // much.
    let peak = r.phase_peak_rss_mb.last().copied().flatten();
    let nominal_peak = r.phase_peak_rss_mb.get(NOMINAL).copied().flatten();

    let wrong: Vec<&String> = r.jobs.iter().filter_map(|j| j.wrong.as_ref()).collect();
    out.correct = wrong.is_empty();
    for w in wrong.iter().take(5) {
        out.notes.push(format!("WRONG: {w}"));
    }
    let stats: Vec<PhaseStats> = RATES
        .iter()
        .enumerate()
        .map(|(p, &rate)| phase_stats(&r, p, rate))
        .collect();
    out.attempted = r.jobs.len() as u64;
    out.failed = stats.iter().map(|s| s.failed + s.refused).sum::<usize>() as u64;

    let nominal = &stats[NOMINAL];
    let overload = &stats[OVERLOAD];
    require_samples("server-mix nominal phase", nominal.sent)?;
    let best_pass = stats
        .iter()
        .filter(|s| s.meets_limit)
        .max_by(|a, b| a.rate.total_cmp(&b.rate));
    let p50 = stats::median(&nominal.latencies);
    let p90 = stats::percentile(&nominal.latencies, 0.9);
    let e2e = &mut out.end_to_end;
    Outcome::push(
        e2e,
        "throughput_per_s",
        Some(overload.goodput),
        "1/s",
        overload.sent,
    );
    Outcome::push(e2e, "latency_p50_s", p50, "s", nominal.sent);
    Outcome::push(e2e, "latency_p90_s", p90, "s", nominal.sent);
    Outcome::push(e2e, "setup_s", Some(setup_s), "s", SETUP_REPS);
    Outcome::push(e2e, "peak_rss_mb", peak, "MB", 1);

    let info = &mut out.info;
    Outcome::push(info, "job_latency_p50_s", p50, "s", nominal.sent);
    Outcome::push(info, "job_latency_p90_s", p90, "s", nominal.sent);
    Outcome::push(
        info,
        "saturation_goodput_per_s",
        Some(overload.goodput),
        "1/s",
        overload.sent,
    );
    Outcome::push(
        info,
        "max_rate_jobs_per_s",
        best_pass.map(|s| s.rate),
        "1/s",
        stats.len(),
    );
    for (name, s) in ["light", "loaded", "overload"].iter().zip(&stats) {
        Outcome::push(
            info,
            &format!("{name}.job_latency_p50_s"),
            stats::median(&s.latencies),
            "s",
            s.sent,
        );
        Outcome::push(
            info,
            &format!("{name}.job_latency_p90_s"),
            s.p90,
            "s",
            s.sent,
        );
    }
    Outcome::push(info, "setup.problem_set_s", Some(build_s), "s", SETUP_REPS);
    Outcome::push(info, "setup.server_spawn_s", Some(spawn_s), "s", SETUP_REPS);
    Outcome::push(info, "server_peak_rss_mb_nominal", nominal_peak, "MB", 1);
    Outcome::push(
        info,
        "job_fail_ratio",
        Some(out.failed as f64 / out.attempted.max(1) as f64),
        "ratio",
        out.attempted as usize,
    );
    let res = stats::median(&r.resolution_ms);
    Outcome::push(
        info,
        "status_resolution_ms",
        res,
        "ms",
        r.resolution_ms.len(),
    );
    for s in &stats {
        out.notes.push(format!(
            "rate {:.1}/s: sent {} succeeded {} failed {} refused {} p90 {} backlog {} goodput {:.2}/s {}; generator late by median {:.2} ms, max {:.2} ms",
            s.rate,
            s.sent,
            s.succeeded,
            s.failed,
            s.refused,
            s.p90.map_or("n/a".into(), |p| format!("{p:.3}s")),
            s.backlog,
            s.goodput,
            if s.meets_limit { "meets limit" } else { "misses limit" },
            stats::median(&s.lateness_ms).unwrap_or(0.0),
            max(&s.lateness_ms).unwrap_or(0.0),
        ));
    }
    out.notes.push(quartile_note(
        "nominal-rate job latency (s)",
        &nominal.latencies,
    ));
    out.notes.push(format!(
        "status observation: every sweep while a job is young, then after {:.0} % of its age; median gap {:.1} ms. A job's latency is late by at most one gap.",
        POLL_AGE_SHARE * 100.0,
        res.unwrap_or(0.0)
    ));

    if args.trace {
        server_metrics(&mut out.per_layer, &r, &set);
        let lat = |traced: bool| {
            let v: Vec<f64> = r
                .jobs
                .iter()
                .filter(|j| j.phase == NOMINAL && j.traced == traced && j.succeeded())
                .filter_map(Job::latency)
                .collect();
            stats::median(&v)
        };
        Outcome::push(
            &mut out.per_layer,
            "trace.overhead_ratio",
            lat(true).zip(lat(false)).map(|(t, u)| t / u),
            "ratio",
            nominal.sent,
        );
    }
    Ok(out)
}
