//! Result rendering for the CLI.

use abs::SolveResult;
use qubo::Qubo;
use serde::Serialize;

#[derive(Serialize)]
struct JsonDevice {
    device: usize,
    status: String,
    dead_blocks: u64,
    total_blocks: u64,
    rejected_records: u64,
    requeued_targets: u64,
}

#[derive(Serialize)]
struct JsonResult<'a> {
    label: &'a str,
    bits: usize,
    best_energy: i64,
    reached_target: bool,
    time_to_target_ms: Option<f64>,
    elapsed_ms: f64,
    total_flips: u64,
    evaluated: u64,
    search_units: u64,
    search_rate_per_s: f64,
    iterations: u64,
    degraded: bool,
    rejected_records: u64,
    requeued_targets: u64,
    devices: Vec<JsonDevice>,
    solution: String,
}

/// Serializes a solve result as one JSON object.
///
/// # Errors
/// Returns the serializer's message if encoding fails (should not happen
/// for this fixed schema, but the CLI must not panic on output).
pub fn to_json(label: &str, q: &Qubo, r: &SolveResult) -> Result<String, String> {
    let j = JsonResult {
        label,
        bits: q.n(),
        best_energy: r.best_energy,
        reached_target: r.reached_target,
        time_to_target_ms: r.time_to_target.map(|d| d.as_secs_f64() * 1e3),
        elapsed_ms: r.elapsed.as_secs_f64() * 1e3,
        total_flips: r.total_flips,
        evaluated: r.evaluated,
        search_units: r.search_units,
        search_rate_per_s: r.search_rate,
        iterations: r.iterations,
        degraded: r.degraded,
        rejected_records: r.rejected_records,
        requeued_targets: r.requeued_targets,
        devices: r
            .devices
            .iter()
            .map(|d| JsonDevice {
                device: d.device,
                status: d.status.label().to_owned(),
                dead_blocks: d.dead_blocks,
                total_blocks: d.total_blocks,
                rejected_records: d.rejected_records,
                requeued_targets: d.requeued_targets,
            })
            .collect(),
        solution: r.best.to_string(),
    };
    serde_json::to_string(&j).map_err(|e| format!("cannot serialize result: {e}"))
}

/// Prints a human-readable report.
pub fn print_human(label: &str, q: &Qubo, r: &SolveResult) {
    println!("instance:     {label} ({} bits)", q.n());
    println!("best energy:  {}", r.best_energy);
    if r.reached_target {
        let ms = r
            .time_to_target
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or_default();
        println!("target:       reached in {ms:.1} ms");
    }
    println!(
        "elapsed:      {:.1} ms  ({} flips, {:.3e} solutions/s)",
        r.elapsed.as_secs_f64() * 1e3,
        r.total_flips,
        r.search_rate
    );
    if r.degraded {
        println!(
            "health:       DEGRADED ({} rejected records, {} requeued targets)",
            r.rejected_records, r.requeued_targets
        );
        for d in &r.devices {
            if !d.status.is_healthy() {
                println!(
                    "  device {}:   {} ({}/{} blocks dead)",
                    d.device,
                    d.status.label(),
                    d.dead_blocks,
                    d.total_blocks
                );
            }
        }
    }
    if q.n() <= 256 {
        println!("solution:     {}", r.best);
    }
}

/// Prints the telemetry summary table below the human report.
pub fn print_metrics(r: &SolveResult) {
    println!("metrics:");
    for line in abs_telemetry::expose::human_table(&r.metrics).lines() {
        println!("  {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs::{Abs, AbsConfig, StopCondition};

    #[test]
    fn json_has_expected_fields() {
        let q = qubo_problems::random::generate(16, 0);
        let mut cfg = AbsConfig::small();
        cfg.stop = StopCondition::flips(5_000);
        let r = Abs::new(cfg).unwrap().solve(&q).unwrap();
        let json = to_json("t", &q, &r).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["bits"], 16);
        assert_eq!(v["label"], "t");
        assert!(v["best_energy"].is_i64());
        assert_eq!(v["search_units"], 8);
        assert_eq!(v["solution"].as_str().unwrap().len(), 16);
        assert_eq!(v["degraded"], false);
        assert_eq!(v["devices"][0]["status"], "healthy");
        assert_eq!(v["rejected_records"], 0);
    }

    #[test]
    fn degraded_run_reports_device_health_in_json() {
        use std::sync::Arc;
        use vgpu::FaultPlan;
        let q = qubo_problems::random::generate(24, 1);
        let mut cfg = AbsConfig::small();
        cfg.machine.device.blocks_override = Some(4);
        cfg.machine.device.fault = Some(Arc::new(FaultPlan::new().panic_block(0, 2, 1)));
        // Wait for the injected death itself (under a generous stop),
        // not for a flip budget that a loaded host can finish first.
        cfg.stop = StopCondition::timeout(std::time::Duration::from_secs(60));
        let mut session = abs::AbsSession::start(cfg, &q).unwrap();
        while session.poll().unwrap() == abs::SessionStatus::Running {
            if session.total_flips() >= 20_000
                && session
                    .metrics_snapshot()
                    .counter_total("abs_dead_blocks_total")
                    == 1
            {
                break;
            }
        }
        let r = session.stop().unwrap();
        let json = to_json("f", &q, &r).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["degraded"], true);
        assert_eq!(v["devices"][0]["status"], "degraded");
        assert_eq!(v["devices"][0]["dead_blocks"], 1);
    }
}
