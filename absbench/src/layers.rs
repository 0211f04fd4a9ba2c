//! Per-layer metrics of traced runs.
//!
//! Every number here comes from timing the benchmark's own calls into a
//! crate's public functions, each inside a span. Probes run on fixed
//! inputs derived from the workload seed, so every traced run reports
//! every layer; the session figures come from the workload's own solves
//! where it has them.

use crate::common::{mix, secs, Metric, Outcome, SolveObs};
use crate::trace::{self, Layer};
use crate::{dense_rate, server_mix, stats, targets};
use abs::{AbsConfig, ProblemCache};
use qubo::{BitVec, Energy, Qubo, SparseQubo};
use qubo_ga::{GaConfig, SolutionPool, TargetGenerator};
use qubo_search::{
    local_search, straight_search, DeltaTracker, FlipKernel, SparseDeltaTracker, WindowMinPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vgpu::{BlockConfig, BlockRunner, GlobalMem, Machine, PolicyKind, SolutionRecord};

/// Median of `reps` timed calls of `f`, in nanoseconds.
fn median_ns(reps: usize, layer: Layer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| trace::timed(layer, name, &mut f).1 as f64)
        .collect();
    stats::median(&v).expect("reps > 0")
}

/// Session-layer figures from a workload's detailed solves.
/// `budget` is the wall budget of fixed-budget solves (`None` for
/// time-to-target solves).
pub fn session_metrics(
    list: &mut Vec<Metric>,
    obs: &[&SolveObs],
    budget: Option<Duration>,
    qs: &[&Qubo],
) {
    let n = obs.len();
    let med = |f: &dyn Fn(&SolveObs) -> Option<f64>| {
        let v: Vec<f64> = obs.iter().filter_map(|o| f(o)).collect();
        stats::median(&v)
    };
    Outcome::push(
        list,
        "core.session.start_ms",
        med(&|o| Some(secs(o.start) * 1e3)),
        "ms",
        n,
    );
    Outcome::push(
        list,
        "core.session.first_record_ms",
        med(&|o| o.first_record.map(|d| secs(d) * 1e3)),
        "ms",
        n,
    );
    Outcome::push(
        list,
        "core.session.stop_ms",
        med(&|o| Some(secs(o.stop) * 1e3)),
        "ms",
        n,
    );
    let polls: Vec<f64> = obs.iter().flat_map(|o| o.poll_ms.iter().copied()).collect();
    Outcome::push(
        list,
        "core.session.poll_ms_p50",
        stats::median(&polls),
        "ms",
        polls.len(),
    );
    Outcome::push(
        list,
        "core.session.poll_ms_max",
        polls.iter().copied().reduce(f64::max),
        "ms",
        polls.len(),
    );
    let total_polls: u64 = obs.iter().map(|o| o.polls).sum();
    let received: u64 = obs.iter().map(|o| o.result.results_received).sum();
    let inserted: u64 = obs.iter().map(|o| o.result.results_inserted).sum();
    Outcome::push(
        list,
        "core.session.polls_per_record",
        (received > 0).then(|| total_polls as f64 / received as f64),
        "ratio",
        n,
    );
    // Caller-observed return minus the moment the solver says the stop
    // condition was met (target time, or the end of the budget).
    Outcome::push(
        list,
        "core.session.result_lag_ms",
        med(&|o| {
            let fired = o
                .result
                .time_to_target
                .or(budget)
                .unwrap_or(o.result.elapsed);
            Some((secs(o.wall) - secs(fired)) * 1e3)
        }),
        "ms",
        n,
    );
    Outcome::push(
        list,
        "ga.insert_ratio",
        (received > 0).then(|| inserted as f64 / received as f64),
        "ratio",
        n,
    );
    let snaps: Vec<f64> = obs
        .iter()
        .filter_map(|o| o.snapshot_ns.map(|t| t as f64 / 1e3))
        .collect();
    Outcome::push(
        list,
        "telemetry.snapshot_us",
        stats::median(&snaps),
        "us",
        snaps.len(),
    );
    // The session audits every improvement with an O(n²) `Qubo::energy`;
    // time one audit at each instance's n.
    let mut rng = StdRng::seed_from_u64(0x000a_0d17);
    let audit_ms: Vec<(usize, f64)> = qs
        .iter()
        .map(|q| {
            let x = BitVec::random(q.n(), &mut rng);
            let t = median_ns(5, Layer::Qubo, "Qubo::energy", || {
                std::hint::black_box(q.energy(&x));
            });
            (q.n(), t / 1e6)
        })
        .collect();
    let largest = audit_ms.iter().copied().max_by_key(|&(n, _)| n);
    Outcome::push(list, "core.audit_ms", largest.map(|(_, t)| t), "ms", 5);
    let audit_for = |n: usize| {
        audit_ms
            .iter()
            .find(|&&(m, _)| m == n)
            .map_or(0.0, |&(_, t)| t)
    };
    let audited: f64 = obs
        .iter()
        .map(|o| o.result.history.len() as f64 * audit_for(o.result.best.len()) / 1e3)
        .sum();
    let wall: f64 = obs.iter().map(|o| secs(o.wall)).sum();
    Outcome::push(
        list,
        "core.audit_share",
        (wall > 0.0).then(|| audited / wall),
        "ratio",
        n,
    );
}

/// The session end of the kernel → block → device → session chain:
/// flips ÷ the session's own elapsed time, over solves of the dense
/// n = 4096 instance that the kernel, block and device probes also use.
pub fn chain_session(list: &mut Vec<Metric>, obs: &[&SolveObs]) {
    let flips: u64 = obs.iter().map(|o| o.result.total_flips).sum();
    let elapsed: f64 = obs.iter().map(|o| secs(o.result.elapsed)).sum();
    Outcome::push(
        list,
        "core.session.flips_per_s",
        (elapsed > 0.0).then(|| flips as f64 / elapsed),
        "1/s",
        obs.len(),
    );
}

fn get(list: &[Metric], name: &str) -> Option<f64> {
    list.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Dense-kernel probe: one tracker, the detected kernel, window n/8.
fn search_probes(list: &mut Vec<Metric>, q: &Qubo, g22: &SparseQubo, seed: u64) {
    let n = q.n();
    let kernel = FlipKernel::detect();
    let init = median_ns(3, Layer::Search, "DeltaTracker::with_kernel", || {
        std::hint::black_box(DeltaTracker::<i32>::with_kernel(q, kernel));
    });
    Outcome::push(list, "search.tracker_init_ms", Some(init / 1e6), "ms", 3);

    const STEPS: usize = 150_000;
    let mut t = DeltaTracker::<i32>::with_kernel(q, kernel);
    let mut p = WindowMinPolicy::new(n / 8);
    let dense = median_ns(5, Layer::Search, "local_search(dense)", || {
        std::hint::black_box(local_search(&mut t, &mut p, STEPS));
    }) / STEPS as f64;
    Outcome::push(list, "search.dense_ns_per_flip", Some(dense), "ns", 5);

    let mut st = SparseDeltaTracker::new(g22);
    let mut sp = WindowMinPolicy::new(g22.n() / 8);
    let sparse = median_ns(5, Layer::Search, "local_search(sparse)", || {
        std::hint::black_box(local_search(&mut st, &mut sp, STEPS));
    }) / STEPS as f64;
    Outcome::push(list, "search.sparse_ns_per_flip", Some(sparse), "ns", 5);

    let mut rng = StdRng::seed_from_u64(mix(seed, 50));
    let walks: Vec<BitVec> = (0..40).map(|_| BitVec::random(n, &mut rng)).collect();
    let mut flips = 0u64;
    let mut ns = 0u64;
    for w in &walks {
        let (f, t_ns) = trace::timed(Layer::Search, "straight_search", || {
            straight_search(&mut t, w)
        });
        flips += f;
        ns += t_ns;
    }
    Outcome::push(
        list,
        "search.straight_ns_per_flip",
        (flips > 0).then(|| ns as f64 / flips as f64),
        "ns",
        walks.len(),
    );
    // Computed, not measured: one i32-accumulator flip streams the i16
    // coupling row and reads and writes the i32 Δ vector, each padded to
    // the row stride.
    let bytes = (q.stride() * (2 + 4 + 4)) as f64;
    Outcome::push(list, "search.bytes_per_flip", Some(bytes), "B", 1);
    Outcome::push(list, "search.gb_per_s", Some(bytes / dense), "GB/s", 1);
}

/// Block, buffer, device and pool probes with the session's geometry.
fn vgpu_probes(list: &mut Vec<Metric>, q: &Qubo, seed: u64) {
    let n = q.n();
    let cfg = AbsConfig::small();
    let dev = &cfg.machine.device;
    let blocks = dev.blocks_override.unwrap_or(8);
    let kernel = FlipKernel::detect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 60));
    let mut pool = SolutionPool::random(cfg.pool_size, n, &mut rng);
    let mut gen = TargetGenerator::new(n, GaConfig::default(), mix(seed, 61));

    // One worker's view: all of the device's blocks, round-robin on one
    // thread, against a global memory the probe refills.
    let mem = GlobalMem::new();
    mem.set_expected_len(n);
    let mut runners: Vec<_> = (0..blocks)
        .map(|b| {
            BlockRunner::<DeltaTracker<'_, i32>>::with_width(
                q,
                BlockConfig {
                    local_steps: dev.local_steps,
                    window: dev.windows.window_for(b, n),
                    offset: (b * 97) % n,
                    adaptive: None,
                    policy: PolicyKind::Window,
                    kernel,
                },
            )
        })
        .collect();
    let (mut flips, mut ns, mut iters) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    while secs(t0.elapsed()) < 1.0 {
        for r in &mut runners {
            mem.push_target(gen.generate(&pool));
            let (f, t_ns) = trace::timed(Layer::Vgpu, "BlockRunner::bulk_iteration", || {
                r.bulk_iteration(&mem)
            });
            flips += f;
            ns += t_ns;
            iters += 1;
        }
        for rec in mem.drain_results() {
            let _ = pool.insert(rec.x, rec.energy);
        }
    }
    let block_ns = (flips > 0).then(|| ns as f64 / flips as f64);
    Outcome::push(
        list,
        "vgpu.block.ns_per_flip",
        block_ns,
        "ns",
        iters as usize,
    );
    let walk = flips.saturating_sub(iters * dev.local_steps as u64);
    Outcome::push(
        list,
        "vgpu.block.walk_share",
        (flips > 0).then(|| walk as f64 / flips as f64),
        "ratio",
        iters as usize,
    );
    let kernel_ns = get(list, "search.dense_ns_per_flip");
    Outcome::push(
        list,
        "vgpu.block.keep",
        kernel_ns.zip(block_ns).map(|(k, b)| k / b),
        "ratio",
        iters as usize,
    );

    // Result buffer: push then drain a batch of records.
    const RECORDS: usize = 1000;
    let buf = GlobalMem::new();
    buf.set_expected_len(n);
    let records: Vec<SolutionRecord> = (0..RECORDS)
        .map(|i| SolutionRecord {
            x: BitVec::random(n, &mut rng),
            energy: -(i as Energy),
        })
        .collect();
    let mut push_ns = 0u64;
    for rec in records {
        push_ns += trace::timed(Layer::Vgpu, "GlobalMem::push_result", || {
            buf.push_result(rec)
        })
        .1;
    }
    let (drained, drain_ns) = trace::timed(Layer::Vgpu, "GlobalMem::drain_results", || {
        buf.drain_results()
    });
    Outcome::push(
        list,
        "vgpu.buffers.push_result_ns",
        Some(push_ns as f64 / RECORDS as f64),
        "ns",
        RECORDS,
    );
    Outcome::push(
        list,
        "vgpu.buffers.drain_ns_per_record",
        Some(drain_ns as f64 / drained.len().max(1) as f64),
        "ns",
        drained.len(),
    );

    // Device: the session's machine with a host that only refills
    // targets and drains records.
    let machine = Machine::new(&cfg.machine);
    let mems = machine.mems();
    for m in &mems {
        for _ in 0..blocks * cfg.initial_targets_per_block {
            m.push_target(gen.generate(&pool));
        }
    }
    let _dev_span = trace::span(Layer::Vgpu, "Machine::start");
    let t0 = Instant::now();
    let mut running = machine.start(Arc::new(q.clone()));
    let mut records = 0u64;
    while secs(t0.elapsed()) < 1.5 {
        let mut idle = true;
        for m in running.mems() {
            for rec in m.drain_results() {
                records += 1;
                idle = false;
                let _ = pool.insert(rec.x, rec.energy);
                m.push_target(gen.generate(&pool));
            }
        }
        if idle {
            std::thread::yield_now();
        }
    }
    running.request_stop();
    let wall = secs(t0.elapsed());
    running.join();
    drop(_dev_span);
    let mems = running.mems();
    let dev_flips: u64 = mems.iter().map(|m| m.total_flips()).sum();
    let lost: u64 = mems
        .iter()
        .map(|m| m.overflow_results() + m.dropped_targets())
        .sum();
    let counted: u64 = mems.iter().map(|m| m.counter()).sum();
    let dev_rate = dev_flips as f64 / wall;
    Outcome::push(list, "vgpu.device.flips_per_s", Some(dev_rate), "1/s", 1);
    Outcome::push(
        list,
        "vgpu.device.keep",
        block_ns.map(|b| dev_rate / (dev.workers as f64 * 1e9 / b)),
        "ratio",
        1,
    );
    Outcome::push(
        list,
        "vgpu.device.lost_ratio",
        Some(lost as f64 / counted.max(records).max(1) as f64),
        "ratio",
        counted as usize,
    );

    let pool = Arc::new(vgpu::DevicePool::new(
        abs_server::ServerConfig::default().pool_config(),
    ));
    let lease = median_ns(
        200,
        Layer::Vgpu,
        "DevicePool::acquire_lease+release_lease",
        || {
            let l = pool.acquire_lease(&vgpu::LeaseRequest {
                tenant: "bench",
                priority: vgpu::Priority::Batch,
                devices: 1,
                blocks_per_device: blocks,
            });
            pool.release_lease(l);
        },
    );
    Outcome::push(list, "vgpu.pool.lease_us", Some(lease / 1e3), "us", 200);
}

/// Host GA probes at the G1 size, where the GA matters most.
fn ga_probes(list: &mut Vec<Metric>, seed: u64) {
    const N: usize = 800;
    const REPS: usize = 2000;
    let mut rng = StdRng::seed_from_u64(mix(seed, 70));
    let mut pool = SolutionPool::random(32, N, &mut rng);
    let mut gen = TargetGenerator::new(N, GaConfig::default(), mix(seed, 71));
    let gen_us = median_ns(REPS, Layer::Ga, "TargetGenerator::generate", || {
        std::hint::black_box(gen.generate(&pool));
    }) / 1e3;
    Outcome::push(list, "ga.generate_us", Some(gen_us), "us", REPS);
    let xs: Vec<(BitVec, Energy)> = (0..REPS)
        .map(|_| (BitVec::random(N, &mut rng), -rng.gen_range(0..100_000i64)))
        .collect();
    let mut it = xs.into_iter();
    let ins_us = median_ns(REPS, Layer::Ga, "SolutionPool::insert", || {
        if let Some((x, e)) = it.next() {
            std::hint::black_box(pool.insert(x, e));
        }
    }) / 1e3;
    Outcome::push(list, "ga.insert_us", Some(ins_us), "us", REPS);
}

/// Problem-form, decode, cache and spec-parse probes.
fn qubo_core_probes(list: &mut Vec<Metric>, g22: &Qubo, seed: u64) {
    let g55 = &targets::G55;
    let build = median_ns(
        3,
        Layer::Qubo,
        "gset::generate_instance+maxcut::to_qubo",
        || {
            std::hint::black_box(crate::gset_tts::build(g55));
        },
    );
    Outcome::push(list, "problems.build_ms", Some(build / 1e6), "ms", 3);
    let q55 = crate::gset_tts::build(g55);
    let hash = median_ns(5, Layer::Qubo, "Qubo::content_hash", || {
        std::hint::black_box(q55.content_hash());
    });
    Outcome::push(list, "qubo.content_hash_ms", Some(hash / 1e6), "ms", 5);
    let sparse = median_ns(3, Layer::Qubo, "SparseQubo::from_dense", || {
        std::hint::black_box(SparseQubo::from_dense(&q55));
    });
    Outcome::push(list, "qubo.to_sparse_ms", Some(sparse / 1e6), "ms", 3);

    let dense_q = server_mix::dense_instance(&targets::DENSE[0]);
    let dense_body = server_mix::dense_problem_json(&dense_q);
    let weights = (dense_q.n() * (dense_q.n() + 1) / 2) as f64;
    let dense_ns = median_ns(20, Layer::Qubo, "json::parse_problem(dense)", || {
        std::hint::black_box(qubo::json::parse_problem(&dense_body).expect("valid body"));
    });
    Outcome::push(
        list,
        "qubo.decode_dense_ns_per_weight",
        Some(dense_ns / weights),
        "ns",
        20,
    );
    let g22_graph = server_mix::graph(&targets::GSET_TTS[1]);
    let edges_body = server_mix::edge_list_json(&g22_graph);
    let edges_ns = median_ns(5, Layer::Qubo, "json::parse_problem(edge-list)", || {
        std::hint::black_box(qubo::json::parse_problem(&edges_body).expect("valid body"));
    });
    Outcome::push(
        list,
        "qubo.decode_edges_ns_per_edge",
        Some(edges_ns / g22_graph.edge_count() as f64),
        "ns",
        5,
    );

    let cache = ProblemCache::new(8);
    let key = g22.content_hash();
    cache.admit(key, &Arc::new(g22.clone()));
    let lookup = median_ns(1000, Layer::Core, "ProblemCache::lookup", || {
        std::hint::black_box(cache.lookup(&key));
    });
    Outcome::push(list, "core.cache.lookup_us", Some(lookup / 1e3), "us", 1000);

    let g55_graph = server_mix::graph(g55);
    for (kind, body, reps) in [
        (
            "dense",
            server_mix::job_body(&dense_body, seed, 0, 1000, false),
            20,
        ),
        (
            "g22",
            server_mix::job_body(&edges_body, seed, 0, 1000, false),
            5,
        ),
        (
            "g55",
            server_mix::job_body(
                &server_mix::edge_list_json(&g55_graph),
                seed,
                0,
                1000,
                false,
            ),
            3,
        ),
    ] {
        let t = median_ns(reps, Layer::Server, "spec::parse_spec", || {
            std::hint::black_box(abs_server::spec::parse_spec(&body).expect("valid body"));
        });
        Outcome::push(
            list,
            &format!("server.spec_parse_ms.{kind}"),
            Some(t / 1e6),
            "ms",
            reps,
        );
    }
}

/// Runs every library probe and appends the derived ratios that need
/// both the session and the device figures.
pub fn probes(list: &mut Vec<Metric>, seed: u64) {
    trace::set_enabled(true);
    trace::set_op(0);
    let q = dense_rate::instance(seed);
    let g22 = crate::gset_tts::build(&targets::GSET_TTS[1]);
    let g22_sparse = SparseQubo::from_dense(&g22);
    search_probes(list, &q, &g22_sparse, seed);
    vgpu_probes(list, &q, seed);
    ga_probes(list, seed);
    qubo_core_probes(list, &g22, seed);
    trace::set_enabled(false);

    let keep = get(list, "core.session.flips_per_s")
        .zip(get(list, "vgpu.device.flips_per_s"))
        .map(|(s, d)| s / d);
    Outcome::push(list, "core.session.keep", keep, "ratio", 1);
}

/// Self time per layer as a share of all recorded span time.
pub fn self_time_shares(list: &mut Vec<Metric>, spans: &[trace::Span]) {
    let by_layer = trace::self_time_by_layer(spans);
    let total: u64 = by_layer.iter().map(|(_, t)| t).sum();
    for (layer, t) in by_layer {
        Outcome::push(
            list,
            &format!("self_share.{}", layer.name()),
            (total > 0).then(|| t as f64 / total as f64),
            "ratio",
            spans.len(),
        );
    }
}
