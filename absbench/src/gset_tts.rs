//! `gset-tts`: closed loop, one client, repeated time-to-target solves
//! on G-set stand-ins, each stopping at a fixed target with a wall cap.
//!
//! G1 (n = 800) runs the dense arm with about 20 k records/s, so the
//! host GA is heavily used; G22 (n = 2000) runs the CSR arm. This is the
//! paper's Table 1 protocol; it guards against a change that raises
//! flips/s but finds targets later.

use crate::common::{
    check_result, keep_solving, mix, quartile_note, require_samples, secs, solve, solver_config,
    timed_setup, tiny_session_check, Outcome, RunArgs, SolveObs, MIN_SOLVES,
};
use crate::targets::Fixed;
use crate::trace::{self, Layer};
use crate::{layers, stats};
use abs::StopCondition;
use qubo::{MatrixStorage, Qubo};
use qubo_problems::{gset, maxcut};
use std::time::{Duration, Instant};

/// Wall cap of one solve; a solve that hits it is a miss and is
/// restarted (see [`ATTEMPTS`]).
pub const CAP: Duration = Duration::from_secs(5);
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 7;

/// Builds one catalog instance through the public generators.
///
/// # Panics
/// Panics on a name missing from the catalog (a constant here).
#[must_use]
pub fn build(f: &Fixed) -> Qubo {
    let inst = gset::instance(f.name).expect("catalog instance");
    let (g, _) = trace::timed(Layer::Qubo, "gset::generate_instance", || {
        gset::generate_instance(inst, f.seed)
    });
    trace::timed(Layer::Qubo, "maxcut::to_qubo", || maxcut::to_qubo(&g))
        .0
        .expect("G-set stand-ins fit the QUBO limits")
}

/// Caller-observed time-to-target samples of one instance.
#[derive(Debug, Default)]
struct PerInstance {
    /// Time to a target-meeting result of each operation, restarts
    /// included.
    tts: Vec<f64>,
    /// Walls of the solves that met the target with a correct result.
    hit_tts: Vec<f64>,
    /// Operations that ended with a target-meeting, correct result.
    hits: usize,
    /// Operations that did not: a wrong result, or every attempt capped.
    misses: usize,
    /// Solves made, restarts included.
    attempts: usize,
    /// Solves that hit the cap and were restarted or gave up.
    capped: usize,
    solver_tts: Vec<f64>,
    detailed: Vec<SolveObs>,
    plain_tts: Vec<f64>,
    traced_tts: Vec<f64>,
    wrong: Vec<String>,
}

/// Solves one operation needs at most: a solve that hits the cap is
/// restarted with a fresh solver seed, the usual time-to-solution
/// protocol, and its wall counts toward the operation's time. About one
/// G22 solve in a thousand hits the cap; an operation fails only when
/// every attempt does.
pub const ATTEMPTS: u64 = 3;

impl PerInstance {
    /// Runs one time-to-target operation on `q`, restarting capped
    /// solves, and records it.
    ///
    /// # Errors
    /// A session error, as text.
    fn operation(
        &mut self,
        f: &Fixed,
        q: &Qubo,
        solver_seed: u64,
        detail: bool,
    ) -> Result<(), String> {
        let stop = StopCondition::target(f.target).with_timeout(CAP);
        let mut tts = 0.0;
        let mut last = None;
        for a in 0..ATTEMPTS {
            let seed = if a == 0 {
                solver_seed
            } else {
                mix(solver_seed, a)
            };
            let obs = solve(q, solver_config(seed, stop.clone()), detail)?;
            self.attempts += 1;
            let wall = secs(obs.wall);
            tts += wall;
            let r = &obs.result;
            let checked = check_result(q, &r.best, r.best_energy, r.reached_target, Some(f.target));
            let reached = r.reached_target;
            let solver_tts = r.time_to_target;
            last = Some(obs);
            if let Err(w) = checked {
                self.wrong.push(w);
                self.misses += 1;
                break;
            }
            if reached {
                self.hits += 1;
                self.hit_tts.push(wall);
                if let Some(t) = solver_tts {
                    self.solver_tts.push(secs(t));
                }
                break;
            }
            self.capped += 1;
            if a + 1 == ATTEMPTS {
                self.misses += 1;
            }
        }
        self.tts.push(tts);
        if detail {
            self.traced_tts.push(tts);
            self.detailed.extend(last);
        } else {
            self.plain_tts.push(tts);
        }
        Ok(())
    }
}

/// Runs the workload on `instances`, in turn.
///
/// # Errors
/// A session error or a wrong result, as text.
pub fn run(args: &RunArgs, instances: &[Fixed]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (qs, setup_s) = timed_setup(SETUP_REPS, || {
        instances.iter().map(build).collect::<Vec<_>>()
    });
    for (f, q) in instances.iter().zip(&qs) {
        out.notes.push(format!(
            "instance {}: n={}, storage {}, target {} (fraction {} of best {})",
            f.name,
            q.n(),
            MatrixStorage::select(q).name(),
            f.target,
            f.fraction,
            f.best
        ));
    }

    // A tiny G-set-like graph through the same path must reach its
    // exact optimum.
    let g = gset::generate(20, 60, gset::GsetFamily::RandomUnit, mix(args.seed, 2));
    let tiny = maxcut::to_qubo(&g).map_err(|e| e.to_string())?;
    tiny_session_check(&tiny, mix(args.seed, 3))?;

    // Warm-up: one solve per instance, not counted.
    for (f, q) in instances.iter().zip(&qs) {
        let stop = StopCondition::target(f.target).with_timeout(CAP);
        solve(q, solver_config(mix(args.seed, 4), stop), false)?;
    }

    let mut per: Vec<PerInstance> = instances.iter().map(|_| PerInstance::default()).collect();
    let t0 = Instant::now();
    let mut i = 0u64;
    // Untraced runs gate a p90 per instance, so they go on until every
    // instance has enough solves.
    let min = if args.trace { 0 } else { MIN_SOLVES };
    while keep_solving(
        secs(t0.elapsed()),
        args.seconds,
        per.iter().map(|p| p.tts.len()).min().unwrap_or(0),
        min,
    ) {
        let k = (i % instances.len() as u64) as usize;
        let (f, q) = (&instances[k], &qs[k]);
        // Traced runs alternate: every other round of instances is
        // detailed, the rest plain, so tracing overhead is measured on
        // the same instances in the same run.
        let detail = args.trace && (i / instances.len() as u64).is_multiple_of(2);
        trace::set_enabled(detail);
        trace::set_op(i + 1);
        let op = per[k].operation(f, q, mix(args.seed, 100 + i), detail);
        trace::set_enabled(false);
        op?;
        i += 1;
    }

    if !args.trace {
        for (f, p) in instances.iter().zip(&per) {
            require_samples(f.name, p.tts.len())?;
        }
    }
    out.correct = per.iter().all(|p| p.wrong.is_empty());
    for w in per.iter().flat_map(|p| &p.wrong).take(5) {
        out.notes.push(format!("WRONG: {w}"));
    }
    out.attempted = per.iter().map(|p| (p.hits + p.misses) as u64).sum();
    out.failed = per.iter().map(|p| p.misses as u64).sum();
    // Traced runs take their end-to-end figures from the plain solves.
    let samples: Vec<&[f64]> = per
        .iter()
        .map(|p| {
            if args.trace {
                &p.plain_tts[..]
            } else {
                &p.tts[..]
            }
        })
        .collect();
    let p50s: Option<Vec<f64>> = samples.iter().map(|v| stats::median(v)).collect();
    let p90s: Option<Vec<f64>> = samples.iter().map(|v| stats::percentile(v, 0.9)).collect();
    let p50 = p50s.as_deref().and_then(stats::geomean);
    let p90 = p90s.as_deref().and_then(stats::geomean);
    let min_n = samples.iter().map(|v| v.len()).min().unwrap_or(0);
    // Solves per second of one closed-loop client, over the solves that
    // met the target. A capped solve costs 5 s and about one G22 solve
    // in a thousand is capped, so counting its wall would move the
    // figure by a tenth on the runs that happen to draw one; capped
    // solves count in their operation's time to target instead.
    let wall: f64 = per.iter().flat_map(|p| &p.hit_tts).sum();
    let solves: usize = per.iter().map(|p| p.hit_tts.len()).sum();
    let rate = (wall > 0.0).then(|| solves as f64 / wall);

    let e2e = &mut out.end_to_end;
    Outcome::push(e2e, "throughput_per_s", rate, "1/s", solves);
    Outcome::push(e2e, "latency_p50_s", p50, "s", min_n);
    Outcome::push(e2e, "latency_p90_s", p90, "s", min_n);
    Outcome::push(e2e, "setup_s", Some(setup_s), "s", SETUP_REPS);
    Outcome::push(e2e, "peak_rss_mb", crate::host::peak_rss_mb(None), "MB", 1);

    let info = &mut out.info;
    Outcome::push(info, "tts_p50_s", p50, "s", min_n);
    Outcome::push(info, "tts_p90_s", p90, "s", min_n);
    // Solves that hit the cap, or returned a wrong energy, of all
    // solves made.
    let attempts: usize = per.iter().map(|p| p.attempts).sum();
    let missed: usize = per.iter().map(|p| p.capped + p.wrong.len()).sum();
    Outcome::push(
        info,
        "tts_miss_ratio",
        Some(missed as f64 / attempts.max(1) as f64),
        "ratio",
        attempts,
    );
    for ((f, p), all) in instances.iter().zip(&per).zip(&samples) {
        out.notes
            .push(quartile_note(&format!("{} tts (s)", f.name), all));
        let name = |m: &str| format!("{}.{m}", f.name);
        Outcome::push(info, &name("tts_p50_s"), stats::median(all), "s", all.len());
        Outcome::push(
            info,
            &name("tts_p90_s"),
            stats::percentile(all, 0.9),
            "s",
            all.len(),
        );
        Outcome::push(
            info,
            &name("solver_time_to_target_p50_s"),
            stats::median(&p.solver_tts),
            "s",
            p.solver_tts.len(),
        );
        Outcome::push(
            info,
            &name("capped_solves"),
            Some(p.capped as f64),
            "count",
            p.attempts,
        );
    }

    if args.trace {
        let detailed: Vec<&SolveObs> = per.iter().flat_map(|p| &p.detailed).collect();
        let refs: Vec<&Qubo> = qs.iter().collect();
        layers::session_metrics(&mut out.per_layer, &detailed, None, &refs);
        let traced: Option<Vec<f64>> = per.iter().map(|p| stats::median(&p.traced_tts)).collect();
        let traced_p50 = traced.as_deref().and_then(stats::geomean);
        Outcome::push(
            &mut out.per_layer,
            "trace.overhead_ratio",
            traced_p50.zip(p50).map(|(t, u)| t / u),
            "ratio",
            detailed.len(),
        );
    }
    Ok(out)
}
