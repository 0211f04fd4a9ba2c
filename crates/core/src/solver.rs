//! The ABS solver facade: [`Abs`] owns a validated configuration and
//! runs each solve as a [`crate::AbsSession`] driven to completion on
//! the calling thread — the asynchronous polling loop of §3.1, hardened
//! with a watchdog that survives dead blocks, dead devices, silent
//! stalls, and malformed records (see DESIGN.md, "Fault model and
//! degraded mode"). The session layer (crate::session) adds the
//! resumable lifecycle: start / poll / steal-best / checkpoint / stop.

use crate::config::AbsConfig;
use crate::error::AbsError;
use crate::session::AbsSession;
use crate::stats::SolveResult;
use qubo::Qubo;

/// The Adaptive Bulk Search solver.
///
/// One `Abs` value owns a validated configuration and can solve any
/// number of problems; each [`Abs::solve`] call builds a fresh virtual
/// machine, runs the host loop on the calling thread, and joins all
/// device threads before returning. For an explicit lifecycle
/// (graceful shutdown, checkpoint/resume, stealing the best mid-run),
/// drive a [`crate::AbsSession`] directly.
#[derive(Debug)]
pub struct Abs {
    config: AbsConfig,
}

impl Abs {
    /// Creates a solver.
    ///
    /// # Errors
    /// Returns [`AbsError::InvalidConfig`] if the configuration fails
    /// [`AbsConfig::validate`].
    pub fn new(config: AbsConfig) -> Result<Self, AbsError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AbsConfig {
        &self.config
    }

    /// Runs the full ABS system on `qubo` until the stop condition fires.
    ///
    /// The host (this thread) performs §3.1: it seeds the target buffers
    /// from a random pool, then loops — polling each device's counter,
    /// draining new solutions into the sorted distinct pool, and pushing
    /// exactly as many freshly bred targets as solutions arrived. The
    /// watchdog of [`crate::WatchdogConfig`] runs alongside: devices
    /// whose health region reports death, or whose counter stalls while
    /// others progress, are excluded and their in-flight targets
    /// requeued, so the solve completes in degraded mode instead of
    /// hanging.
    ///
    /// # Errors
    /// [`AbsError::WarmStartLength`] if a warm start's bit-length does
    /// not match `qubo`; [`AbsError::Occupancy`] if a device cannot
    /// derive a launch configuration for this problem size;
    /// [`AbsError::AllDevicesFailed`] if every device fails before a
    /// single result arrives; [`AbsError::NoResult`] if the watchdog's
    /// hard timeout expires first.
    pub fn solve(&self, qubo: &Qubo) -> Result<SolveResult, AbsError> {
        AbsSession::start(self.config.clone(), qubo)?.run_to_completion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopCondition;
    use crate::stats::DeviceStatus;
    use qubo::{BitVec, Energy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn brute_force(q: &Qubo) -> (BitVec, Energy) {
        let n = q.n();
        assert!(n <= 20);
        let mut best = BitVec::zeros(n);
        let mut best_e = q.energy(&best);
        for bits in 1u32..(1 << n) {
            let x = BitVec::from_bits(&(0..n).map(|i| ((bits >> i) & 1) as u8).collect::<Vec<_>>());
            let e = q.energy(&x);
            if e < best_e {
                best_e = e;
                best = x;
            }
        }
        (best, best_e)
    }

    fn solve(cfg: AbsConfig, q: &Qubo) -> SolveResult {
        Abs::new(cfg)
            .expect("valid config")
            .solve(q)
            .expect("solve")
    }

    /// Polls a session until at least `min_flips` flips have run and
    /// `fired` holds on its metrics, then stops it. Fault tests use this
    /// to wait for the injected fault's own effect (under a generous
    /// wall-clock stop in `cfg`) instead of hoping a fixed flip budget
    /// outlasts it on a loaded host.
    fn solve_until(
        cfg: AbsConfig,
        q: &Qubo,
        min_flips: u64,
        fired: impl Fn(&crate::MetricsSnapshot) -> bool,
    ) -> SolveResult {
        let mut session = crate::AbsSession::start(cfg, q).expect("start");
        while session.poll().expect("poll") == crate::SessionStatus::Running {
            if session.total_flips() >= min_flips && fired(&session.metrics_snapshot()) {
                break;
            }
        }
        session.stop().expect("stop")
    }

    #[test]
    fn finds_exact_optimum_of_small_problem() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = Qubo::random(16, &mut rng);
        let (_, opt) = brute_force(&q);
        let mut cfg = AbsConfig::small();
        cfg.stop = StopCondition::target(opt).with_timeout(Duration::from_secs(30));
        let r = solve(cfg, &q);
        assert!(
            r.reached_target,
            "optimum {opt} not reached, got {}",
            r.best_energy
        );
        assert_eq!(r.best_energy, opt);
        assert_eq!(r.best_energy, q.energy(&r.best));
        assert!(r.time_to_target.is_some());
        assert!(!r.degraded);
        assert!(r.devices.iter().all(|d| d.status.is_healthy()));
    }

    #[test]
    fn flip_budget_stops_the_run() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = Qubo::random(64, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.stop = StopCondition::flips(50_000);
        let r = solve(cfg, &q);
        assert!(r.total_flips >= 50_000);
        // Healthy run: every block keeps its init unit, so the machine
        // total is (flips + units) × (n + 1).
        assert_eq!(r.search_units, 8);
        assert_eq!(r.evaluated, (r.total_flips + r.search_units) * 65);
        assert!(!r.reached_target);
        assert!(r.search_rate > 0.0);
        assert_eq!(r.best_energy, q.energy(&r.best));
        assert_eq!(r.rejected_records, 0);
        assert_eq!(r.requeued_targets, 0);
    }

    #[test]
    fn timeout_stops_the_run() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = Qubo::random(128, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.stop = StopCondition::timeout(Duration::from_millis(200));
        let t0 = Instant::now();
        let r = solve(cfg, &q);
        assert!(t0.elapsed() < Duration::from_secs(20));
        assert!(r.elapsed >= Duration::from_millis(200));
        assert!(r.results_received > 0);
    }

    #[test]
    fn history_is_monotone_decreasing() {
        let mut rng = StdRng::seed_from_u64(4);
        let q = Qubo::random(96, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.stop = StopCondition::flips(200_000);
        let r = solve(cfg, &q);
        assert!(!r.history.is_empty());
        for w in r.history.windows(2) {
            assert!(w[1].energy < w[0].energy, "history must strictly improve");
            assert!(w[1].elapsed_ns >= w[0].elapsed_ns);
        }
        assert_eq!(r.history.last().unwrap().energy, r.best_energy);
    }

    #[test]
    fn multi_device_run_aggregates_stats() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = Qubo::random(48, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.machine.num_devices = 3;
        cfg.stop = StopCondition::flips(60_000);
        let r = solve(cfg, &q);
        assert!(r.iterations > 0);
        assert!(r.results_received >= r.results_inserted);
        assert!(r.insertion_ratio() <= 1.0);
        assert_eq!(r.devices.len(), 3);
        assert_eq!(r.search_units, 24);
    }

    #[test]
    fn degenerate_budget_still_returns_a_result() {
        let mut rng = StdRng::seed_from_u64(6);
        let q = Qubo::random(32, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.stop = StopCondition::flips(1); // stops before first poll sees much
        let r = solve(cfg, &q);
        assert_eq!(r.best_energy, q.energy(&r.best));
    }

    #[test]
    fn better_than_random_sampling_at_equal_budget() {
        // Sanity: ABS with a flip budget must beat the best of an equal
        // number of uniformly random solutions.
        let mut rng = StdRng::seed_from_u64(7);
        let q = Qubo::random(128, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.stop = StopCondition::flips(100_000);
        let r = solve(cfg, &q);
        let mut rand_best = Energy::MAX;
        for _ in 0..2_000 {
            let x = BitVec::random(128, &mut rng);
            rand_best = rand_best.min(q.energy(&x));
        }
        assert!(
            r.best_energy < rand_best,
            "ABS {} vs random {rand_best}",
            r.best_energy
        );
    }

    #[test]
    fn adaptive_mode_solves_correctly() {
        // The future-work adaptive window switching must not break
        // correctness: energies remain exact and small optima are found.
        let mut rng = StdRng::seed_from_u64(8);
        let q = Qubo::random(14, &mut rng);
        let (_, opt) = brute_force(&q);
        let mut cfg = AbsConfig::small();
        cfg.machine.device.adaptive = Some(vgpu::AdaptiveConfig { patience: 3 });
        cfg.stop = StopCondition::target(opt).with_timeout(Duration::from_secs(30));
        let r = solve(cfg, &q);
        assert!(r.reached_target);
        assert_eq!(r.best_energy, q.energy(&r.best));
    }

    #[test]
    fn warm_start_reaches_a_known_target_immediately() {
        // Plant the exact optimum as a warm start: the first straight
        // search evaluates it, so the target is hit with a tiny budget.
        let mut rng = StdRng::seed_from_u64(9);
        let q = Qubo::random(18, &mut rng);
        let (opt_x, opt_e) = brute_force(&q);
        let mut cfg = AbsConfig::small();
        cfg.initial_solutions = vec![opt_x.clone()];
        cfg.stop = StopCondition::target(opt_e).with_timeout(Duration::from_secs(20));
        let r = solve(cfg, &q);
        assert!(r.reached_target);
        assert_eq!(r.best_energy, opt_e);
    }

    #[test]
    fn warm_start_length_mismatch_is_an_error() {
        let mut rng = StdRng::seed_from_u64(10);
        let q = Qubo::random(16, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.initial_solutions = vec![BitVec::zeros(8)];
        cfg.stop = StopCondition::flips(100);
        let err = Abs::new(cfg).unwrap().solve(&q).unwrap_err();
        assert_eq!(
            err,
            AbsError::WarmStartLength {
                expected: 16,
                got: 8
            }
        );
        assert!(err.is_usage());
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let cfg = AbsConfig::default(); // unbounded stop
        let err = Abs::new(cfg).unwrap_err();
        assert!(matches!(err, AbsError::InvalidConfig(_)));
        assert!(err.is_usage());
    }

    #[test]
    fn infeasible_problem_size_is_an_occupancy_error() {
        // Without a blocks override, the occupancy calculator cannot map
        // n = 7 onto full warps, so resolve_blocks refuses — the solver
        // must surface that as an error before spawning threads.
        let mut rng = StdRng::seed_from_u64(12);
        let q = Qubo::random(7, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.machine.device.blocks_override = None;
        cfg.stop = StopCondition::flips(100);
        let err = Abs::new(cfg).unwrap().solve(&q).unwrap_err();
        assert!(matches!(err, AbsError::Occupancy { device: 0, .. }));
        assert!(err.is_usage());
    }

    #[test]
    fn config_accessor_roundtrips() {
        let mut cfg = AbsConfig::small();
        cfg.stop = StopCondition::flips(10);
        cfg.pool_size = 11;
        let solver = Abs::new(cfg).unwrap();
        assert_eq!(solver.config().pool_size, 11);
    }

    #[test]
    fn dead_device_fails_the_solve_instead_of_hanging() {
        // Satellite 1 regression: one device, every block dead on
        // arrival. The pre-hardening host would spin forever in the
        // final wait; the watchdog now reports AllDevicesFailed.
        use vgpu::FaultPlan;
        let mut rng = StdRng::seed_from_u64(13);
        let q = Qubo::random(16, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.machine.device.blocks_override = Some(2);
        cfg.machine.device.fault = Some(Arc::new(
            FaultPlan::new().panic_block(0, 0, 0).panic_block(0, 1, 0),
        ));
        cfg.stop = StopCondition::timeout(Duration::from_secs(30));
        let err = Abs::new(cfg).unwrap().solve(&q).unwrap_err();
        assert_eq!(err, AbsError::AllDevicesFailed);
        assert!(!err.is_usage());
    }

    #[test]
    fn quarantined_block_degrades_but_does_not_fail_the_solve() {
        use vgpu::FaultPlan;
        let mut rng = StdRng::seed_from_u64(14);
        let q = Qubo::random(32, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.machine.device.blocks_override = Some(4);
        cfg.machine.device.fault = Some(Arc::new(FaultPlan::new().panic_block(0, 1, 2)));
        cfg.stop = StopCondition::timeout(Duration::from_secs(60));
        let r = solve_until(cfg, &q, 30_000, |m| {
            m.counter_total("abs_dead_blocks_total") == 1
        });
        assert!(r.degraded);
        assert_eq!(r.devices[0].status, DeviceStatus::Degraded);
        assert_eq!(r.devices[0].dead_blocks, 1);
        assert_eq!(r.search_units, 3, "dead block retires its unit");
        assert_eq!(r.evaluated, (r.total_flips + 3) * 33);
        assert_eq!(r.best_energy, q.energy(&r.best));
    }

    #[test]
    fn hard_timeout_returns_no_result_when_nothing_arrives() {
        use vgpu::FaultPlan;
        let mut rng = StdRng::seed_from_u64(15);
        let q = Qubo::random(16, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.machine.device.blocks_override = Some(1);
        // The only device stalls immediately and never produces; health
        // stays Healthy (a stall is silent), so only the hard timeout
        // can end the run.
        cfg.machine.device.fault = Some(Arc::new(FaultPlan::new().stall_device(0, 0)));
        cfg.stop = StopCondition::timeout(Duration::from_secs(60));
        cfg.watchdog.hard_timeout = Some(Duration::from_millis(300));
        let t0 = Instant::now();
        let err = Abs::new(cfg).unwrap().solve(&q).unwrap_err();
        assert_eq!(err, AbsError::NoResult);
        assert!(t0.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn stalled_device_is_excluded_and_its_targets_requeued() {
        use vgpu::FaultPlan;
        let mut rng = StdRng::seed_from_u64(16);
        let q = Qubo::random(32, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.machine.num_devices = 2;
        cfg.machine.device.blocks_override = Some(2);
        // Device 1 stalls before consuming anything; device 0 keeps
        // producing, so the watchdog's relative-progress clock runs.
        cfg.machine.device.fault = Some(Arc::new(FaultPlan::new().stall_device(1, 0)));
        // The host drains results in bulk, so a run needs enough poll
        // rounds for staleness to accrue: use a wall-clock stop.
        cfg.watchdog.stall_poll_rounds = 10;
        cfg.stop = StopCondition::timeout(Duration::from_millis(400));
        let r = solve(cfg, &q);
        assert!(r.degraded);
        assert_eq!(r.devices[1].status, DeviceStatus::Stalled);
        // Everything seeded to device 1 was still in its queue:
        // 2 blocks × initial_targets_per_block (2).
        assert_eq!(r.devices[1].requeued_targets, 4);
        assert_eq!(r.requeued_targets, 4);
        assert_eq!(r.best_energy, q.energy(&r.best));
    }

    #[test]
    fn corrupted_improvement_is_audited_and_rejected() {
        use vgpu::{Corruption, FaultPlan};
        let mut rng = StdRng::seed_from_u64(17);
        let q = Qubo::random(32, &mut rng);
        let mut cfg = AbsConfig::small();
        cfg.machine.device.blocks_override = Some(2);
        // Block 0 emits a record claiming an impossibly good energy for
        // the all-zeros solution; the host audit must re-price it and
        // throw it out.
        cfg.machine.device.fault = Some(Arc::new(FaultPlan::new().corrupt_record(
            0,
            0,
            1,
            Corruption::WrongEnergy,
        )));
        cfg.stop = StopCondition::timeout(Duration::from_secs(60));
        let r = solve_until(cfg, &q, 30_000, |m| {
            m.counter_total("abs_host_rejected_total") == 1
        });
        assert_eq!(r.rejected_records, 1);
        assert_eq!(r.devices[0].rejected_records, 1);
        assert_eq!(r.best_energy, q.energy(&r.best), "best stays exact");
        assert!(r.best_energy > Energy::MIN / 2);
    }
}
