//! `--calibrate`: derives the fixed targets of `targets.rs`.
//!
//! Each instance is solved with three solver seeds for a long budget;
//! the best energy found, times the instance's Table 1 (a) fraction,
//! becomes its target. Twenty capped solves at that target then report
//! how often and how fast it is met, which is what the workloads rely
//! on. The output is Rust source to paste into `targets.rs`.

use crate::common::{mix, secs, solve, solver_config};
use crate::targets::{target_for, Fixed, DENSE, G55, GSET_TTS};
use crate::{gset_tts, server_mix, stats};
use abs::StopCondition;
use qubo::Qubo;
use std::process::ExitCode;
use std::time::Duration;

const LONG_SEEDS: u64 = 3;
const CHECK_SOLVES: u64 = 20;

fn calibrate(f: &Fixed, q: &Qubo, long: Duration) -> Result<Fixed, String> {
    let mut best = i64::MAX;
    for s in 0..LONG_SEEDS {
        let obs = solve(
            q,
            solver_config(mix(9_000, s), StopCondition::timeout(long)),
            false,
        )?;
        best = best.min(obs.result.best_energy);
    }
    let target = target_for(best, f.fraction);
    let mut tts = Vec::new();
    let mut hits = 0;
    for s in 0..CHECK_SOLVES {
        let stop = StopCondition::target(target).with_timeout(gset_tts::CAP);
        let obs = solve(q, solver_config(mix(9_100, s), stop), false)?;
        hits += usize::from(obs.result.reached_target);
        tts.push(secs(obs.wall));
    }
    eprintln!(
        "{}: n={} best {best} -> target {target} (fraction {}); {hits}/{CHECK_SOLVES} capped solves hit it, median {:.3} s",
        f.name,
        q.n(),
        f.fraction,
        stats::median(&tts).unwrap_or(0.0)
    );
    Ok(Fixed { best, target, ..*f })
}

/// Runs the calibration with `seconds` per long solve.
pub fn run(seconds: f64) -> ExitCode {
    let long = Duration::from_secs_f64(seconds);
    let result = (|| -> Result<(), String> {
        let mut out = Vec::new();
        for f in GSET_TTS.iter().chain([&G55]) {
            out.push(calibrate(f, &gset_tts::build(f), long)?);
        }
        for f in &DENSE {
            out.push(calibrate(f, &server_mix::dense_instance(f), long)?);
        }
        for f in out {
            println!(
                "    Fixed {{ name: {:?}, seed: {}, fraction: {:?}, best: {}, target: {} }},",
                f.name, f.seed, f.fraction, f.best, f.target
            );
        }
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("absbench: {e}");
            ExitCode::FAILURE
        }
    }
}
