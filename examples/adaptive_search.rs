//! The paper's future-work idea of automatic algorithm switching (§5),
//! implemented as window re-tuning and compared with the static ladder.
//!
//! ```sh
//! cargo run --release -p abs-examples --example adaptive_search
//! ```

use abs::{Abs, AbsConfig, StopCondition};
use vgpu::AdaptiveConfig;

fn run(label: &str, mut cfg: AbsConfig, q: &qubo::Qubo) {
    cfg.stop = StopCondition::flips(400_000);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(q)
        .expect("solve");
    println!(
        "  {label:<44} best energy {:>12}   ({} improvements)",
        r.best_energy,
        r.history.len()
    );
}

fn main() {
    let n = 512;
    let q = qubo_problems::random::generate(n, 99);
    println!("512-bit synthetic random instance, 400k-flip budget each:\n");

    // 1. The paper's configuration: every block runs the deterministic
    //    window policy on a static powers-of-two ladder.
    run("paper: static window ladder", AbsConfig::small(), &q);

    // 2. Future work: blocks re-tune their own window length
    //    when they stagnate ("changed automatically").
    let mut adaptive = AbsConfig::small();
    adaptive.machine.device.adaptive = Some(AdaptiveConfig { patience: 8 });
    run("future work: adaptive window switching", adaptive, &q);

    println!(
        "\nboth reach similar energies on this easy dense family; the \
         adaptive variant shines on long runs that stagnate (see the \
         `report ablation` tables for measured sweeps)."
    );
}
