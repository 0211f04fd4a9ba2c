//! `dense-rate`: sequential fixed-wall-budget solves through
//! `AbsSession` on one seeded random dense n = 4096 QUBO, with the
//! configuration the CLI and the server use.
//!
//! One flip costs about a microsecond and a record arrives every few
//! hundred flips, so the kernel, block and device layers do almost all
//! the work and the host GA almost none: the paper's throughput
//! experiment, where a kernel or multiplexing change shows.

use crate::common::{
    check_result, keep_solving, mix, quartile_note, require_samples, secs, solve, solver_config,
    timed_setup, tiny_session_check, Outcome, RunArgs, SolveObs, MIN_SOLVES,
};
use crate::{layers, stats, trace};
use abs::StopCondition;
use qubo::{MatrixStorage, Qubo};
use std::time::{Duration, Instant};

/// Problem size.
pub const N: usize = 4096;
/// Wall budget of one solve.
pub const BUDGET: Duration = Duration::from_millis(200);
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// Builds the workload's instance from the workload seed.
#[must_use]
pub fn instance(seed: u64) -> Qubo {
    qubo_problems::random::generate(N, mix(seed, 1))
}

/// Runs fixed-budget solves for `seconds`, and on until there are
/// `min_plain` plain solves (within [`crate::common::MAX_WINDOW_S`]),
/// alternating detailed solves when `alternate` is set (even solves
/// detailed, odd ones plain).
///
/// # Errors
/// A session error or a wrong result, as text.
pub fn solve_loop(
    q: &Qubo,
    seed: u64,
    seconds: f64,
    alternate: bool,
    min_plain: usize,
) -> Result<(Vec<SolveObs>, Vec<SolveObs>), String> {
    let mut plain = Vec::new();
    let mut detailed = Vec::new();
    let t0 = Instant::now();
    let mut i = 0u64;
    while keep_solving(secs(t0.elapsed()), seconds, plain.len(), min_plain) {
        let detail = alternate && i.is_multiple_of(2);
        trace::set_enabled(detail);
        trace::set_op(i + 1);
        let cfg = solver_config(mix(seed, 100 + i), StopCondition::timeout(BUDGET));
        let obs = solve(q, cfg, detail)?;
        trace::set_enabled(false);
        if detail {
            detailed.push(obs);
        } else {
            plain.push(obs);
        }
        i += 1;
    }
    Ok((plain, detailed))
}

/// Checks every solve's best against the benchmark's copy of the
/// problem; returns the mismatches.
#[must_use]
pub fn wrong_results(q: &Qubo, obs: &[SolveObs]) -> Vec<String> {
    obs.iter()
        .filter_map(|o| {
            let r = &o.result;
            check_result(q, &r.best, r.best_energy, r.reached_target, None).err()
        })
        .collect()
}

/// Device flips ÷ caller-observed wall of each solve.
fn solve_rates(obs: &[SolveObs]) -> Vec<f64> {
    obs.iter()
        .map(|o| o.result.total_flips as f64 / secs(o.wall))
        .collect()
}

/// Machine-wide device flips ÷ caller-observed session wall, the
/// median over solves (a solve slowed by a neighbour on the host moves
/// it less than the pooled ratio).
#[must_use]
pub fn flips_per_s(obs: &[SolveObs]) -> Option<f64> {
    stats::median(&solve_rates(obs))
}

/// Runs the workload.
///
/// # Errors
/// A session error or a wrong result, as text.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (q, setup_s) = timed_setup(SETUP_REPS, || instance(args.seed));
    out.notes.push(format!(
        "instance: random n={N}, storage {}",
        MatrixStorage::select(&q).name()
    ));

    // The solve path must find the exact optimum of a tiny instance.
    let tiny = qubo_problems::random::generate(20, mix(args.seed, 2));
    tiny_session_check(&tiny, mix(args.seed, 3))?;

    // Warm-up: thread pools, page faults, lazy kernel detection.
    solve(
        &q,
        solver_config(mix(args.seed, 4), StopCondition::timeout(BUDGET)),
        false,
    )?;

    // Untraced runs gate a p90 over the plain solves, so they go on
    // until there are enough of them.
    let min_plain = if args.trace { 0 } else { MIN_SOLVES };
    let (plain, detailed) = solve_loop(&q, args.seed, args.seconds, args.trace, min_plain)?;
    let mut wrong = wrong_results(&q, &plain);
    wrong.extend(wrong_results(&q, &detailed));
    out.correct = wrong.is_empty();
    out.attempted = (plain.len() + detailed.len()) as u64;
    out.failed = wrong.len() as u64;
    out.notes
        .extend(wrong.iter().take(5).map(|w| format!("WRONG: {w}")));
    let n1 = (N + 1) as f64;

    if !args.trace {
        require_samples("dense-rate", plain.len())?;
    }
    let walls = |o: &[SolveObs]| o.iter().map(|o| secs(o.wall)).collect::<Vec<_>>();
    let plain_walls = walls(&plain);
    let rate = flips_per_s(&plain);
    out.notes
        .push(quartile_note("per-solve flips/s", &solve_rates(&plain)));
    let e2e = &mut out.end_to_end;
    Outcome::push(e2e, "throughput_per_s", rate, "1/s", plain.len());
    Outcome::push(
        e2e,
        "latency_p50_s",
        stats::median(&plain_walls),
        "s",
        plain.len(),
    );
    Outcome::push(
        e2e,
        "latency_p90_s",
        stats::percentile(&plain_walls, 0.9),
        "s",
        plain.len(),
    );
    Outcome::push(e2e, "setup_s", Some(setup_s), "s", SETUP_REPS);
    Outcome::push(e2e, "peak_rss_mb", crate::host::peak_rss_mb(None), "MB", 1);

    let info = &mut out.info;
    Outcome::push(info, "flips_per_s", rate, "1/s", plain.len());
    Outcome::push(
        info,
        "solutions_per_s",
        rate.map(|r| r * n1),
        "1/s",
        plain.len(),
    );

    if args.trace {
        let all: Vec<&SolveObs> = detailed.iter().collect();
        layers::session_metrics(&mut out.per_layer, &all, Some(BUDGET), &[&q]);
        layers::chain_session(&mut out.per_layer, &all);
        let traced_rate = flips_per_s(&detailed);
        Outcome::push(
            &mut out.per_layer,
            "trace.overhead_ratio",
            traced_rate.zip(rate).map(|(t, u)| u / t),
            "ratio",
            detailed.len(),
        );
        Outcome::push(
            &mut out.info,
            "traced.flips_per_s",
            traced_rate,
            "1/s",
            detailed.len(),
        );
    }
    Ok(out)
}
