//! `report` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p abs-bench --bin report -- all [--scale X] [--large] [--out DIR]
//! ```

#![forbid(unsafe_code)]

use abs_bench::experiments::{ablation, baselines, efficiency, throughput, time_to_solution};
use abs_bench::Scale;
use std::path::PathBuf;

const USAGE: &str = "\
report — regenerate the paper's tables and figures

USAGE:
    report <experiment> [--scale X] [--large] [--out DIR]

EXPERIMENTS:
    table1a     Max-Cut time-to-solution (G-set stand-ins)
    table1b     TSP time-to-solution (TSPLIB stand-ins)
    table1c     synthetic random time-to-solution
    table2      search rate vs bits-per-thread
    fig8        search-rate scaling with device count
    table3      cross-system comparison
    efficiency  Lemmas 1–3 / Theorem 1 measured search efficiency
    baselines   ABS vs SA/tabu/greedy/random at matched wall-clock
    ablation    window / GA-mix / pool-size / adaptive sweeps
    all         everything above

OPTIONS:
    --scale X   multiply all budgets by X (default 1.0)
    --large     include the largest instances (G70, 16k/32k bits, st70)
    --out DIR   JSON output directory (default results/)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut scale = Scale::default();
    let mut large = false;
    let mut out = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().and_then(|s| s.parse().ok());
                match v {
                    Some(x) if x > 0.0 => scale = Scale(x),
                    _ => return usage_err("--scale needs a positive number"),
                }
            }
            "--large" => large = true,
            "--out" => match it.next() {
                Some(d) => out = PathBuf::from(d),
                None => return usage_err("--out needs a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_owned());
            }
            other => return usage_err(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(experiment) = experiment else {
        println!("{USAGE}");
        return;
    };

    println!(
        "# ABS experiment report — {experiment} (scale {}, large: {large})",
        scale.0
    );
    match experiment.as_str() {
        "table1a" => time_to_solution::table1a(scale, large, &out),
        "table1b" => time_to_solution::table1b(scale, large, &out),
        "table1c" => time_to_solution::table1c(scale, large, &out),
        "table2" => throughput::table2(scale, large, &out),
        "fig8" => throughput::fig8(scale, &out),
        "table3" => throughput::table3(scale, &out),
        "efficiency" => efficiency::report(scale, &out),
        "baselines" => baselines::report(scale, &out),
        "ablation" => ablation::all(scale, &out),
        "all" => {
            time_to_solution::table1a(scale, large, &out);
            time_to_solution::table1b(scale, large, &out);
            time_to_solution::table1c(scale, large, &out);
            throughput::table2(scale, large, &out);
            throughput::fig8(scale, &out);
            throughput::table3(scale, &out);
            efficiency::report(scale, &out);
            baselines::report(scale, &out);
            ablation::all(scale, &out);
        }
        other => usage_err(&format!("unknown experiment {other:?}")),
    }
}

fn usage_err(msg: &str) {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}
