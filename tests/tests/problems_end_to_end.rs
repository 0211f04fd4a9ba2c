//! Each problem formulation, end to end through the full ABS solver:
//! encode → solve → decode → verify in the problem domain.

use abs::{Abs, AbsConfig, StopCondition};
use qubo_problems::{coloring, cover, gset, maxcut, mis, partition, sat, tsp, tsplib, Graph};
use std::time::Duration;

fn quick_config(target: i64, secs: u64) -> AbsConfig {
    let mut cfg = AbsConfig::small();
    cfg.stop = StopCondition::target(target).with_timeout(Duration::from_secs(secs));
    cfg
}

#[test]
fn maxcut_gset_standin_solves_and_decodes() {
    // A scaled-down G-set-style graph: 120 vertices, 600 ±1 edges.
    let g = gset::generate(120, 600, gset::GsetFamily::RandomPm1, 1);
    let q = maxcut::to_qubo(&g).expect("encodes");
    let mut cfg = AbsConfig::small();
    cfg.stop = StopCondition::flips(300_000);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    let cut = maxcut::cut_value(&g, &r.best);
    assert_eq!(-r.best_energy, cut, "energy must be the negated cut");
    // Must beat a random partition by a clear margin.
    assert!(cut > 0, "cut {cut} not positive");
}

#[test]
fn tsp_small_reaches_exact_optimum() {
    // 8 cities → 49 bits; Held–Karp gives the exact target.
    let inst = tsplib::synthetic("test8", 8, 99);
    let (_, opt) = tsp::held_karp(&inst);
    let tq = tsp::to_qubo(&inst).expect("encodes");
    let cfg = quick_config(tq.length_to_energy(opt as i64), 30);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(tq.qubo())
        .expect("solve");
    assert!(r.reached_target, "optimum tour {opt} not reached");
    let tour = tq.decode(&r.best).expect("valid tour");
    assert_eq!(inst.tour_length(&tour), opt);
}

#[test]
fn tsp_ulysses16_standin_reaches_optimum_within_budget() {
    // The paper's smallest TSP row (225 bits): target = best-known
    // (here: Held–Karp exact on the stand-in).
    let inst = tsplib::instance("ulysses16");
    let (_, opt) = tsp::held_karp(&inst);
    let tq = tsp::to_qubo(&inst).expect("encodes");
    let mut cfg = quick_config(tq.length_to_energy(opt as i64), 60);
    cfg.machine.device.blocks_override = Some(16);
    cfg.machine.device.local_steps = 256;
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(tq.qubo())
        .expect("solve");
    assert!(
        r.reached_target,
        "got {} want {}",
        r.best_energy,
        tq.length_to_energy(opt as i64)
    );
    let tour = tq.decode(&r.best).expect("valid tour");
    assert_eq!(inst.tour_length(&tour), opt);
}

#[test]
fn number_partitioning_finds_perfect_split() {
    // 24 values with a planted perfect partition.
    let mut values = vec![7u32, 5, 9, 3, 6, 8, 2, 4, 11, 10, 1, 6];
    values.extend(values.clone()); // duplicating guarantees difference 0
    let q = partition::to_qubo(&values).expect("encodes");
    let target = partition::difference_to_energy(&values, 0);
    let r = Abs::new(quick_config(target, 30))
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert!(r.reached_target, "no perfect partition found");
    assert_eq!(partition::difference(&values, &r.best), 0);
}

#[test]
fn vertex_cover_of_a_ring_is_half() {
    // A 30-cycle: minimum cover = 15.
    let n = 30;
    let edges: Vec<(usize, usize, i32)> = (0..n).map(|i| (i, (i + 1) % n, 1)).collect();
    let g = Graph::from_edges(n, &edges);
    let q = cover::to_qubo(&g, cover::DEFAULT_PENALTY).expect("encodes");
    let target = cover::cover_to_energy(&g, cover::DEFAULT_PENALTY, 15);
    let r = Abs::new(quick_config(target, 30))
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert!(r.reached_target, "minimum cover not found");
    assert!(cover::is_cover(&g, &r.best));
    assert_eq!(r.best.count_ones(), 15);
}

#[test]
fn graph_coloring_finds_a_proper_coloring() {
    // A 4-colorable random-ish graph: a wheel W₆ needs 4 colors.
    let n = 7;
    let mut edges: Vec<(usize, usize, i32)> = (1..n).map(|i| (0, i, 1)).collect(); // hub
    for i in 1..n {
        edges.push((i, if i == n - 1 { 1 } else { i + 1 }, 1)); // rim cycle
    }
    let g = Graph::from_edges(n, &edges);
    let cq = coloring::to_qubo(&g, 4, coloring::DEFAULT_PENALTY).expect("encodes");
    let r = Abs::new(quick_config(cq.proper_energy(), 30))
        .expect("valid config")
        .solve(cq.qubo())
        .expect("solve");
    assert!(r.reached_target, "no proper 4-coloring found");
    let colors = cq.decode(&r.best).expect("one-hot");
    assert_eq!(coloring::conflicts(&g, &colors), 0);
}

#[test]
fn max_independent_set_of_a_path() {
    // Path P₉: α = 5 (alternating vertices).
    let n = 9;
    let edges: Vec<(usize, usize, i32)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
    let g = Graph::from_edges(n, &edges);
    let q = mis::to_qubo(&g, mis::DEFAULT_PENALTY).expect("encodes");
    let r = Abs::new(quick_config(mis::set_size_to_energy(5), 30))
        .expect("valid config")
        .solve(&q)
        .expect("solve");
    assert!(r.reached_target, "maximum independent set not found");
    assert!(mis::is_independent(&g, &r.best));
    assert_eq!(r.best.count_ones(), 5);
}

#[test]
fn max2sat_satisfiable_instance_is_satisfied() {
    // A chain of implications with a consistent assignment: x0 → x1 →
    // … → x9 plus the unit (x0): all-ones satisfies everything.
    let mut clauses: Vec<sat::Clause> = (0..9)
        .map(|i| sat::Clause::or(sat::Lit::neg(i), sat::Lit::pos(i + 1)))
        .collect();
    clauses.push(sat::Clause::unit(sat::Lit::pos(0)));
    let enc = sat::to_qubo(10, &clauses).expect("encodes");
    let r = Abs::new(quick_config(enc.satisfying_energy(), 30))
        .expect("valid config")
        .solve(enc.qubo())
        .expect("solve");
    assert!(r.reached_target, "satisfying assignment not found");
    assert_eq!(enc.violated(&r.best), 0);
}

#[test]
fn max2sat_overconstrained_instance_minimizes_violations() {
    // Random dense Max-2-SAT: compare ABS against exhaustive optimum.
    let clauses = sat::random_instance(12, 80, 3);
    let enc = sat::to_qubo(12, &clauses).expect("encodes");
    let truth = qubo_baselines::exact::solve(enc.qubo());
    let r = Abs::new(quick_config(truth.best_energy, 30))
        .expect("valid config")
        .solve(enc.qubo())
        .expect("solve");
    assert!(r.reached_target, "minimum violation count not reached");
    assert_eq!(
        enc.energy_to_violations(r.best_energy),
        enc.energy_to_violations(truth.best_energy)
    );
}

#[test]
fn qubo_file_roundtrip_preserves_abs_result_semantics() {
    // Encode a problem, serialize, reparse, and confirm the same
    // solution scores identically — the interchange path users will hit.
    let g = gset::generate(40, 100, gset::GsetFamily::RandomUnit, 5);
    let q = maxcut::to_qubo(&g).expect("encodes");
    let text = qubo::format::to_string(&q);
    let q2 = qubo::format::parse(&text).expect("parses");
    assert_eq!(q, q2);
    let mut cfg = AbsConfig::small();
    cfg.stop = StopCondition::flips(50_000);
    let r = Abs::new(cfg)
        .expect("valid config")
        .solve(&q2)
        .expect("solve");
    assert_eq!(q.energy(&r.best), r.best_energy);
}
