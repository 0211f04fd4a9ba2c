//! Fault-injection acceptance tests: the solver must survive block
//! panics, dead and stalled devices, and corrupted records — finishing
//! in degraded mode with exact results and deterministic fault
//! accounting.

use abs::{
    Abs, AbsConfig, AbsError, AbsSession, DeviceStatus, SessionStatus, SolveResult, StopCondition,
};
use qubo::Qubo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use vgpu::{Corruption, FaultPlan};

fn random_qubo(n: usize, seed: u64) -> Qubo {
    let mut rng = StdRng::seed_from_u64(seed);
    Qubo::random(n, &mut rng)
}

/// The ISSUE's acceptance scenario: a 3-device machine with a block
/// panic, a stalled device, and corrupted records (both flavours), run
/// to completion under a deadline.
fn acceptance_config() -> AbsConfig {
    let mut cfg = AbsConfig::small();
    cfg.machine.num_devices = 3;
    cfg.machine.device.blocks_override = Some(3);
    cfg.machine.device.fault = Some(Arc::new(
        FaultPlan::new()
            // Device 1 loses one block mid-run.
            .panic_block(1, 0, 2)
            // Device 2 freezes before doing anything.
            .stall_device(2, 0)
            // Device 0 emits one record of each corruption flavour.
            .corrupt_record(0, 1, 1, Corruption::WrongLength)
            .corrupt_record(0, 0, 1, Corruption::WrongEnergy),
    ));
    // Enough stale rounds that a healthy device the scheduler parks for
    // a few time slices is not mistaken for the stalled one, yet few
    // enough that device 2 is caught well inside the deadline.
    cfg.watchdog.stall_poll_rounds = 1_000;
    cfg.watchdog.hard_timeout = Some(Duration::from_secs(60));
    cfg.stop = StopCondition::timeout(Duration::from_secs(60));
    cfg
}

/// Runs the acceptance scenario until every injected failure has shown
/// its effect — device 1's quarantine, device 2's exclusion (its 6
/// targets requeued), both corrupted records rejected — then stops.
/// The 60 s stop is only the deadline.
fn run_acceptance(q: &Qubo) -> SolveResult {
    let mut session = AbsSession::start(acceptance_config(), q).expect("valid config");
    while session.poll().expect("degraded solve must keep running") == SessionStatus::Running {
        let m = session.metrics_snapshot();
        if m.counter_total("abs_dead_blocks_total") >= 1
            && m.counter_total("abs_requeued_targets_total") >= 6
            && m.counter_total("abs_rejected_records_total")
                + m.counter_total("abs_host_rejected_total")
                >= 2
        {
            break;
        }
    }
    session.stop().expect("degraded solve must still complete")
}

#[test]
fn seeded_fault_solve_terminates_exactly_and_deterministically() {
    let q = random_qubo(48, 101);
    let r = run_acceptance(&q);

    // Terminates within the deadline with an exact, host-re-verified
    // best energy.
    assert_eq!(r.best_energy, q.energy(&r.best), "best must be exact");
    assert!(r.degraded, "three injected failures → degraded mode");

    // Device 0: healthy but its two corrupted records were rejected
    // (WrongLength device-side, WrongEnergy by the host audit).
    assert_eq!(r.devices[0].status, DeviceStatus::Healthy);
    assert_eq!(r.devices[0].rejected_records, 2);
    assert_eq!(r.devices[0].dead_blocks, 0);

    // Device 1: one quarantined block, still producing.
    assert_eq!(r.devices[1].status, DeviceStatus::Degraded);
    assert_eq!(r.devices[1].dead_blocks, 1);
    assert_eq!(r.devices[1].total_blocks, 3);

    // Device 2: silently stalled; the watchdog excluded it and moved
    // its whole seeded queue (3 blocks × 2 targets) to survivors.
    assert_eq!(r.devices[2].status, DeviceStatus::Stalled);
    assert_eq!(r.devices[2].requeued_targets, 6);

    // Machine-wide counters aggregate the per-device ones.
    assert_eq!(r.rejected_records, 2);
    assert_eq!(r.requeued_targets, 6);

    // Unit accounting: 9 launched, 1 quarantined.
    assert_eq!(r.search_units, 8);
    assert_eq!(r.evaluated, (r.total_flips + 8) * 49);

    // Determinism: a second identical run reports identical fault
    // accounting (flips and timings may differ; the injected-failure
    // bookkeeping must not).
    let r2 = run_acceptance(&q);
    assert_eq!(r2.best_energy, q.energy(&r2.best));
    assert_eq!(r2.rejected_records, r.rejected_records);
    assert_eq!(r2.requeued_targets, r.requeued_targets);
    assert_eq!(r2.search_units, r.search_units);
    for (a, b) in r.devices.iter().zip(&r2.devices) {
        assert_eq!(a.status, b.status, "device {} status", a.device);
        assert_eq!(a.dead_blocks, b.dead_blocks);
        assert_eq!(a.rejected_records, b.rejected_records);
        assert_eq!(a.requeued_targets, b.requeued_targets);
    }
}

#[test]
fn dead_on_arrival_device_degrades_a_multi_device_solve() {
    // Regression for the host-hang: one device dies instantly; the
    // machine must terminate and complete on the survivor.
    let q = random_qubo(32, 102);
    let mut cfg = AbsConfig::small();
    cfg.machine.num_devices = 2;
    cfg.machine.device.blocks_override = Some(2);
    cfg.machine.device.fault = Some(Arc::new(
        FaultPlan::new().panic_block(1, 0, 0).panic_block(1, 1, 0),
    ));
    cfg.watchdog.hard_timeout = Some(Duration::from_secs(60));
    // Wall-clock stop: a flip budget can be exhausted by the survivor
    // before the doomed device's threads even start, in which case the
    // injected panics never fire.
    cfg.stop = StopCondition::timeout(Duration::from_millis(300));
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("survivor must finish the solve");
    assert!(r.degraded);
    assert_eq!(r.devices[1].status, DeviceStatus::Dead);
    assert_eq!(r.devices[1].dead_blocks, 2);
    assert_eq!(r.devices[0].status, DeviceStatus::Healthy);
    assert_eq!(r.best_energy, q.energy(&r.best));
    // Only the survivor's units remain in the evaluated projection.
    assert_eq!(r.search_units, 2);
    assert_eq!(r.evaluated, (r.total_flips + 2) * 33);
}

#[test]
fn single_dead_device_fails_loudly_not_silently() {
    let q = random_qubo(16, 103);
    let mut cfg = AbsConfig::small();
    cfg.machine.device.blocks_override = Some(2);
    cfg.machine.device.fault = Some(Arc::new(
        FaultPlan::new().panic_block(0, 0, 0).panic_block(0, 1, 0),
    ));
    cfg.stop = StopCondition::timeout(Duration::from_secs(60));
    cfg.watchdog.hard_timeout = Some(Duration::from_secs(60));
    let err = Abs::new(cfg).expect("valid").solve(&q).unwrap_err();
    assert_eq!(err, AbsError::AllDevicesFailed);
}

#[test]
fn scattered_fault_sweep_never_deadlocks_and_keeps_exact_accounting() {
    // Seeded mixed-fault plans (panics + corruptions + drops + at most
    // one stall, device 0 always spared) across a seed sweep: every
    // solve must terminate, re-verify its best exactly, and keep the
    // evaluated projection consistent with surviving blocks only.
    let q = random_qubo(32, 104);
    for seed in 0..6u64 {
        let mut cfg = AbsConfig::small();
        cfg.machine.num_devices = 3;
        cfg.machine.device.blocks_override = Some(4);
        cfg.machine.device.fault = Some(Arc::new(FaultPlan::scatter(seed, 3, 4)));
        cfg.watchdog.stall_poll_rounds = 25;
        cfg.watchdog.hard_timeout = Some(Duration::from_secs(60));
        cfg.stop = StopCondition::flips(40_000);
        let r = Abs::new(cfg)
            .expect("valid config")
            .solve(&q)
            .unwrap_or_else(|e| panic!("seed {seed}: solve failed: {e}"));
        assert_eq!(
            r.best_energy,
            q.energy(&r.best),
            "seed {seed}: inexact best"
        );
        // No lost valid results: everything received was either
        // rejected (counted) or entered the pool path; the projection
        // counts surviving units only.
        let alive: u64 = r
            .devices
            .iter()
            .map(|d| d.total_blocks - d.dead_blocks)
            .sum();
        assert_eq!(r.search_units, alive, "seed {seed}: unit accounting");
        assert_eq!(
            r.evaluated,
            (r.total_flips + alive) * 33,
            "seed {seed}: evaluated projection"
        );
        assert!(
            r.results_received > 0,
            "seed {seed}: device 0 must keep producing"
        );
    }
}

#[test]
fn fault_free_plan_changes_nothing() {
    // An empty plan behaves exactly like no plan: healthy devices,
    // nothing rejected, nothing requeued.
    let q = random_qubo(24, 105);
    let mut with_empty = AbsConfig::small();
    with_empty.machine.device.fault = Some(Arc::new(FaultPlan::new()));
    with_empty.stop = StopCondition::flips(20_000);
    let r = Abs::new(with_empty)
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert!(!r.degraded);
    assert_eq!(r.rejected_records, 0);
    assert_eq!(r.requeued_targets, 0);
    assert!(r.devices.iter().all(|d| d.status.is_healthy()));
    assert_eq!(r.best_energy, q.energy(&r.best));
}
