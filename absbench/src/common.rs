//! Pieces every workload shares: the run's arguments, the metric and
//! outcome types, seed derivation, and the instrumented solve loop.

use crate::trace::{self, Layer};
use abs::{AbsConfig, AbsSession, SessionStatus, SolveResult, StopCondition};
use qubo::{Energy, Qubo};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parsed command line of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed: derives every instance and solver seed that is not
    /// a fixed calibration constant.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `abs-server` binary (for `server-mix` and the server probe).
    pub server_bin: Option<PathBuf>,
    /// Where spans and other run artefacts go.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted (solves or jobs).
    pub attempted: u64,
    /// Operations that missed their target, timed out, were refused or
    /// returned a wrong answer.
    pub failed: u64,
    /// The gated end-to-end metrics (`BENCHMARK.json` names).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Further figures printed for people, not gated: the workload's own
    /// metric names, accounting, host facts.
    pub info: Vec<Metric>,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric to `list` when the value exists.
    pub fn push(
        list: &mut Vec<Metric>,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) {
        if let Some(value) = value.filter(|v| v.is_finite()) {
            list.push(Metric {
                name: name.to_string(),
                value,
                unit,
                samples,
            });
        }
    }
}

/// Fewest solves behind a gated percentile: a p90 needs ten samples
/// beyond it (see `stats::percentile`).
pub const MIN_SOLVES: usize = 100;
/// Longest a closed-loop run keeps solving, past `--seconds`, to reach
/// [`MIN_SOLVES`]; the whole run must end within 180 s.
pub const MAX_WINDOW_S: f64 = 120.0;

/// Whether a closed loop that has run `elapsed` seconds with at least
/// `fewest` solves of each kind keeps going: until the window ends and
/// the sample count is reached, but never past [`MAX_WINDOW_S`].
#[must_use]
pub fn keep_solving(elapsed: f64, window: f64, fewest: usize, min: usize) -> bool {
    elapsed < MAX_WINDOW_S.max(window) && (elapsed < window || fewest < min)
}

/// Fails a run whose gated percentile would rest on too few samples,
/// so that a slower program shows as a failed run, never as a missing
/// metric.
///
/// # Errors
/// Fewer than [`MIN_SOLVES`] samples.
pub fn require_samples(what: &str, got: usize) -> Result<(), String> {
    if got < MIN_SOLVES {
        return Err(format!(
            "{what}: only {got} samples; the gated p90 needs {MIN_SOLVES}"
        ));
    }
    Ok(())
}

/// SplitMix64: derives independent seeds from the workload seed.
#[must_use]
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds as `f64`.
#[must_use]
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The solver configuration the CLI and the server use, with a seed and
/// a stop condition.
#[must_use]
pub fn solver_config(seed: u64, stop: StopCondition) -> AbsConfig {
    let mut cfg = AbsConfig::small();
    cfg.seed = seed;
    cfg.stop = stop;
    cfg
}

/// What one caller-driven solve looked like from outside.
#[derive(Debug)]
pub struct SolveObs {
    /// The session's result.
    pub result: SolveResult,
    /// Caller-observed wall from before `AbsSession::start` to holding
    /// the result.
    pub wall: Duration,
    /// `AbsSession::start`.
    pub start: Duration,
    /// From `start` returning to the first poll that holds a record.
    pub first_record: Option<Duration>,
    /// `AbsSession::stop`.
    pub stop: Duration,
    /// Poll calls made.
    pub polls: u64,
    /// Durations of the poll calls in milliseconds (detailed solves only).
    pub poll_ms: Vec<f64>,
    /// `AbsSession::metrics_snapshot` just before stop, nanoseconds
    /// (detailed solves only).
    pub snapshot_ns: Option<u64>,
}

/// Runs one session to its stop condition the way a library caller
/// does: start, poll until the stop condition is met, stop. `detail`
/// additionally times every poll and one telemetry snapshot.
///
/// # Errors
/// Any session error, as text.
pub fn solve(q: &Qubo, cfg: AbsConfig, detail: bool) -> Result<SolveObs, String> {
    let _op = trace::span(Layer::Bench, "solve");
    let t0 = Instant::now();
    let (session, start_ns) = trace::timed(Layer::Core, "AbsSession::start", || {
        AbsSession::start(cfg, q)
    });
    let mut session = session.map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut first_record = None;
    let mut polls = 0u64;
    let mut poll_ms = Vec::new();
    // The host loop spins: one span covers all its polls, and each
    // poll is timed without a span of its own.
    let poll_loop = trace::span(Layer::Core, "AbsSession::poll (loop)");
    loop {
        let status = if detail {
            let t = Instant::now();
            let st = session.poll();
            poll_ms.push(secs(t.elapsed()) * 1e3);
            st
        } else {
            session.poll()
        };
        polls += 1;
        let status = status.map_err(|e| e.to_string())?;
        if first_record.is_none() && session.best().is_some() {
            first_record = Some(started.elapsed());
        }
        if status == SessionStatus::StopConditionMet {
            break;
        }
    }
    drop(poll_loop);
    let snapshot_ns = detail.then(|| {
        trace::timed(Layer::Telemetry, "AbsSession::metrics_snapshot", || {
            std::hint::black_box(session.metrics_snapshot())
        })
        .1
    });
    let (result, stop_ns) = trace::timed(Layer::Core, "AbsSession::stop", || session.stop());
    let result = result.map_err(|e| e.to_string())?;
    Ok(SolveObs {
        result,
        wall: t0.elapsed(),
        start: Duration::from_nanos(start_ns),
        first_record,
        stop: Duration::from_nanos(stop_ns),
        polls,
        poll_ms,
        snapshot_ns,
    })
}

/// Checks a returned best against the benchmark's own copy of the
/// problem: the energy recomputed from scratch must equal the reported
/// one, and `reached_target` must agree with the target. Returns a
/// description of the first mismatch.
pub fn check_result(
    q: &Qubo,
    best: &qubo::BitVec,
    best_energy: Energy,
    reached: bool,
    target: Option<Energy>,
) -> Result<(), String> {
    if best.len() != q.n() {
        return Err(format!(
            "best has {} bits, problem has {}",
            best.len(),
            q.n()
        ));
    }
    let (energy, _) = trace::timed(Layer::Qubo, "Qubo::energy", || q.energy(best));
    if energy != best_energy {
        return Err(format!(
            "reported energy {best_energy}, recomputed {energy}"
        ));
    }
    if let Some(t) = target {
        if reached != (energy <= t) {
            return Err(format!(
                "reached_target={reached} but energy {energy} vs target {t}"
            ));
        }
    }
    Ok(())
}

/// The exact optimum of a tiny problem by Gray-code enumeration.
#[must_use]
pub fn exact_optimum(q: &Qubo) -> Energy {
    qubo_baselines::exact::solve(q).best_energy
}

/// Solves a tiny problem through the session path with its exact
/// optimum as the target and checks that the session finds it.
///
/// # Errors
/// A description of the mismatch.
pub fn tiny_session_check(q: &Qubo, seed: u64) -> Result<(), String> {
    let opt = exact_optimum(q);
    let cfg = solver_config(
        seed,
        StopCondition::target(opt).with_timeout(Duration::from_secs(10)),
    );
    let obs = solve(q, cfg, false)?;
    let r = &obs.result;
    check_result(q, &r.best, r.best_energy, r.reached_target, Some(opt))?;
    if r.best_energy != opt {
        return Err(format!(
            "tiny n={} instance: session best {} but exact optimum {opt}",
            q.n(),
            r.best_energy
        ));
    }
    Ok(())
}

/// A report line with the quartiles of a run's own samples and their
/// spread, the within-run noise floor of the figure built from them.
#[must_use]
pub fn quartile_note(what: &str, samples: &[f64]) -> String {
    match (
        crate::stats::quartiles(samples),
        crate::stats::relative_spread(samples),
    ) {
        (Some([q1, q2, q3]), Some(spread)) => format!(
            "{what}: quartiles {q1:.6} / {q2:.6} / {q3:.6} over {} samples, spread {spread:.3}",
            samples.len()
        ),
        _ => format!("{what}: too few samples for quartiles"),
    }
}

/// Median of several timed repetitions of `build`, in seconds, with the
/// last value built.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let v = build();
        times.push(secs(t.elapsed()));
        last = Some(v);
    }
    let med = crate::stats::median(&times).expect("at least one repetition");
    (last.expect("at least one repetition"), med)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_runs_past_the_window_until_it_has_enough_solves() {
        // Inside the window it keeps going whatever the count.
        assert!(keep_solving(10.0, 30.0, 500, MIN_SOLVES));
        // Past the window it stops once the count is reached...
        assert!(!keep_solving(31.0, 30.0, MIN_SOLVES, MIN_SOLVES));
        // ...and goes on while it is not...
        assert!(keep_solving(31.0, 30.0, MIN_SOLVES - 1, MIN_SOLVES));
        // ...but never past the longest window.
        assert!(!keep_solving(MAX_WINDOW_S, 30.0, 0, MIN_SOLVES));
        assert!(require_samples("x", MIN_SOLVES - 1).is_err());
        assert!(require_samples("x", MIN_SOLVES).is_ok());
    }
}
