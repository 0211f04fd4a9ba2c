//! Ablations of the design choices DESIGN.md calls out: the window
//! length (temperature analogue), the GA operator mix, and the solution
//! pool size.

use super::{report_config, run};
use crate::table::Table;
use crate::{write_json, Scale};
use abs::StopCondition;
use qubo_ga::GaConfig;
use qubo_problems::{gset, maxcut, random};
use serde::Serialize;
use std::path::Path;
use vgpu::WindowSchedule;

/// One ablation measurement.
#[derive(Serialize)]
pub struct AblationRow {
    /// Sweep dimension ("window", "ga", "pool").
    pub dimension: String,
    /// The swept value, as text.
    pub value: String,
    /// Best energy at the fixed budget.
    pub best_energy: i64,
}

/// Window-length sweep: fixed ℓ across all blocks vs the default
/// powers-of-two ladder (Fig. 2's temperature role).
pub fn window(scale: Scale, out: &Path, rows: &mut Vec<AblationRow>) {
    let n = 512;
    let q = random::generate(n, 19);
    let budget = scale.steps(300_000);
    let mut t = Table::new(
        "Ablation — selection-window length ℓ (n = 512, fixed flip budget)",
        &["Window", "Best energy"],
    );
    let mut schedules: Vec<(String, WindowSchedule)> =
        vec![("ladder (2^k)".into(), WindowSchedule::PowersOfTwo)];
    for l in [1usize, 4, 16, 64, 256, 512] {
        schedules.push((format!("fixed {l}"), WindowSchedule::Fixed(l)));
    }
    for (name, sched) in schedules {
        let mut cfg = report_config(8, 60_000);
        cfg.machine.device.windows = sched;
        cfg.stop = StopCondition::flips(budget);
        let r = run(&q, cfg);
        t.push_row(&[name.clone(), r.best_energy.to_string()]);
        rows.push(AblationRow {
            dimension: "window".into(),
            value: name,
            best_energy: r.best_energy,
        });
    }
    println!("{}", t.render());
    let _ = out;
}

/// GA operator-mix sweep: the full mix vs single-operator degenerates
/// (immigrant-only = pure multistart, i.e. "GA off").
pub fn ga_mix(scale: Scale, out: &Path, rows: &mut Vec<AblationRow>) {
    let inst = gset::instance("G1").expect("catalog");
    let graph = gset::generate_instance(inst, 0);
    let q = maxcut::to_qubo(&graph).expect("encodes");
    let budget = scale.steps(400_000);
    let mut t = Table::new(
        "Ablation — GA operator mix (G1 stand-in, fixed flip budget)",
        &["Mix", "Best cut"],
    );
    let mixes: Vec<(&str, GaConfig)> = vec![
        ("default (mut+cross+copy+imm)", GaConfig::default()),
        (
            "mutation only",
            GaConfig {
                p_mutate: 1.0,
                p_crossover: 0.0,
                p_immigrant: 0.0,
                ..GaConfig::default()
            },
        ),
        (
            "crossover only",
            GaConfig {
                p_mutate: 0.0,
                p_crossover: 1.0,
                p_immigrant: 0.0,
                ..GaConfig::default()
            },
        ),
        (
            "GA off (random immigrants)",
            GaConfig {
                p_mutate: 0.0,
                p_crossover: 0.0,
                p_immigrant: 1.0,
                ..GaConfig::default()
            },
        ),
    ];
    for (name, ga) in mixes {
        let mut cfg = report_config(8, 60_000);
        cfg.ga = ga;
        cfg.stop = StopCondition::flips(budget);
        let r = run(&q, cfg);
        t.push_row(&[name.into(), (-r.best_energy).to_string()]);
        rows.push(AblationRow {
            dimension: "ga".into(),
            value: name.into(),
            best_energy: r.best_energy,
        });
    }
    println!("{}", t.render());
    let _ = out;
}

/// Pool-size sweep (the host's `m`).
pub fn pool(scale: Scale, out: &Path, rows: &mut Vec<AblationRow>) {
    let n = 512;
    let q = random::generate(n, 23);
    let budget = scale.steps(300_000);
    let mut t = Table::new(
        "Ablation — solution-pool size m (n = 512, fixed flip budget)",
        &["Pool size", "Best energy"],
    );
    for m in [2usize, 8, 32, 128, 512] {
        let mut cfg = report_config(8, 60_000);
        cfg.pool_size = m;
        cfg.stop = StopCondition::flips(budget);
        let r = run(&q, cfg);
        t.push_row(&[m.to_string(), r.best_energy.to_string()]);
        rows.push(AblationRow {
            dimension: "pool".into(),
            value: m.to_string(),
            best_energy: r.best_energy,
        });
    }
    println!("{}", t.render());
    let _ = out;
}

/// Adaptive window switching (the paper's future-work idea) vs the
/// static ladder, at a fixed budget.
pub fn adaptive(scale: Scale, out: &Path, rows: &mut Vec<AblationRow>) {
    let n = 512;
    let q = random::generate(n, 29);
    let budget = scale.steps(300_000);
    let mut t = Table::new(
        "Ablation — adaptive window switching (future work §5; n = 512)",
        &["Mode", "Best energy"],
    );
    let modes: Vec<(String, Option<vgpu::AdaptiveConfig>)> = vec![
        ("static ladder".into(), None),
        (
            "adaptive (patience 4)".into(),
            Some(vgpu::AdaptiveConfig { patience: 4 }),
        ),
        (
            "adaptive (patience 16)".into(),
            Some(vgpu::AdaptiveConfig { patience: 16 }),
        ),
    ];
    for (name, mode) in modes {
        let mut cfg = report_config(8, 60_000);
        cfg.machine.device.adaptive = mode;
        cfg.stop = StopCondition::flips(budget);
        let r = run(&q, cfg);
        t.push_row(&[name.clone(), r.best_energy.to_string()]);
        rows.push(AblationRow {
            dimension: "adaptive".into(),
            value: name,
            best_energy: r.best_energy,
        });
    }
    println!("{}", t.render());
    let _ = out;
}

/// Runs every ablation and writes the combined JSON.
pub fn all(scale: Scale, out: &Path) {
    let mut rows = Vec::new();
    window(scale, out, &mut rows);
    ga_mix(scale, out, &mut rows);
    pool(scale, out, &mut rows);
    adaptive(scale, out, &mut rows);
    write_json(out, "ablation", &rows);
}
