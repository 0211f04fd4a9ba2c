//! `absbench`: the repository benchmark.
//!
//! ```text
//! absbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--server-bin <path>] [--out-dir <dir>]
//! absbench --calibrate [--seconds <s>]
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run records
//! spans around every call into a crate, writes them to
//! `<out-dir>/spans-<workload>-<seed>.jsonl`, and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A wrong
//! energy or solution exits with code 1.

mod calibrate;
mod common;
mod dense_rate;
mod gset_tts;
mod host;
mod http;
mod layers;
mod server_mix;
mod stats;
mod targets;
mod trace;

use common::{Metric, Outcome, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: absbench --workload <gset-g1|gset-g22|gset-tts|dense-rate|server-mix> \
--seed <n> --seconds <s> --trace <0|1> [--server-bin <path>] [--out-dir <dir>]\n       \
absbench --calibrate [--seconds <s>]";

/// Workloads a run can name. `BENCHMARK.json` gates `gset-g1` and
/// `gset-g22`, the time-to-target loop on one G-set stand-in each;
/// `gset-tts` pools both, and `dense-rate` and `server-mix` are run by
/// hand: on a shared 2-core host their figures spread past the bound
/// (see `absbench/README.md`).
const WORKLOADS: [&str; 5] = [
    "gset-g1",
    "gset-g22",
    "gset-tts",
    "dense-rate",
    "server-mix",
];

enum Mode {
    Run(RunArgs),
    Calibrate(f64),
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut out_dir = PathBuf::from(".bench_build/absbench-out");
    let mut calibrate = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--server-bin" => server_bin = Some(PathBuf::from(val()?)),
            "--out-dir" => out_dir = PathBuf::from(val()?),
            "--calibrate" => calibrate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if calibrate {
        return Ok(Mode::Calibrate(seconds.unwrap_or(10.0)));
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Mode::Run(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server_bin,
        out_dir,
    }))
}

fn print_metrics(title: &str, list: &[Metric]) {
    if list.is_empty() {
        return;
    }
    println!("{title}");
    for m in list {
        println!(
            "  {:<40} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// Runs the workload, and for traced runs the layer probes that the
/// workload does not exercise itself.
fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "dense-rate" => dense_rate::run(args)?,
        "gset-tts" => gset_tts::run(args, &targets::GSET_TTS)?,
        "gset-g1" => gset_tts::run(args, &targets::GSET_TTS[..1])?,
        "gset-g22" => gset_tts::run(args, &targets::GSET_TTS[1..])?,
        _ => server_mix::run(args)?,
    };
    if !args.trace {
        return Ok(out);
    }
    let mut layer = std::mem::take(&mut out.per_layer);
    let workload = args.workload.as_str();
    if workload != "dense-rate" {
        // The kernel → block → device → session chain is measured on the
        // dense-rate instance in every traced run; server-mix also takes
        // its other session figures from here, since its sessions run in
        // the server.
        let q = dense_rate::instance(args.seed);
        trace::set_op(0);
        let (_, detailed) = dense_rate::solve_loop(&q, args.seed, 2.0, true, 0)?;
        let all: Vec<&common::SolveObs> = detailed.iter().collect();
        layers::chain_session(&mut layer, &all);
        if workload == "server-mix" {
            layers::session_metrics(&mut layer, &all, Some(dense_rate::BUDGET), &[&q]);
        }
    }
    if workload != "server-mix" {
        server_mix::probe(args, &mut layer)?;
    }
    layers::probes(&mut layer, args.seed);
    let spans = trace::take();
    layers::self_time_shares(&mut layer, &spans);
    let path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    trace::write_jsonl(&spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "spans: {} written to {}",
        spans.len(),
        path.display()
    ));
    layer.sort_by(|a, b| a.name.cmp(&b.name));
    out.per_layer = layer;
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::Calibrate(secs)) => return calibrate::run(secs),
        Err(e) => {
            eprintln!("absbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "absbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in host::facts() {
        println!("  host.{k}: {v}");
    }
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("absbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for n in &out.notes {
        println!("  {n}");
    }
    print_metrics("end-to-end:", &out.end_to_end);
    print_metrics("reported (not gated):", &out.info);
    print_metrics("per-layer:", &out.per_layer);
    let gated = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!("{}", json_line(&out, gated));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
