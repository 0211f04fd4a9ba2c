//! Host-side aggregator: folds device samples and drained event rings
//! into the metrics registry on the host's poll cadence.
//!
//! The aggregator never touches device state directly — the host reads
//! `GlobalMem` counters and drains event rings, packages them as
//! [`DeviceSample`]/[`HostSample`] plain data, and calls
//! [`Aggregator::poll`]. Timestamps (`elapsed_secs`) are stamped by the
//! host at the poll boundary; device code stays clock-free (Fig. 5).

use crate::event::{Event, EventKind};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::registry::{MetricsSnapshot, Registry};
use std::sync::Arc;

/// One device's counters and drained events at a poll boundary.
#[derive(Clone, Debug, Default)]
pub struct DeviceSample {
    /// Total bit flips (monotone).
    pub flips: u64,
    /// Live search units (blocks minus quarantined ones).
    pub units: u64,
    /// Evaluated solutions as reported by the device (storage-honest:
    /// dense arms report `(flips + units) * (n + 1)` exactly; the CSR
    /// arm reports actual touched neighbours, `Σ (deg(k) + 2)` per flip
    /// plus `n + 1` per unit).
    pub evaluated: u64,
    /// Completed bulk iterations (monotone).
    pub iterations: u64,
    /// Results pushed to the buffer (monotone).
    pub results: u64,
    /// Records rejected by buffer validation (monotone).
    pub rejected_records: u64,
    /// Targets evicted by the target ring (monotone).
    pub dropped_targets: u64,
    /// Results folded by keep-best overflow (monotone).
    pub overflow_results: u64,
    /// Quarantined (dead) blocks.
    pub dead_blocks: u64,
    /// Total blocks resolved at launch.
    pub total_blocks: u64,
    /// Health label at the poll boundary (`healthy` / `degraded` /
    /// `dead` / an exclusion label).
    pub health: &'static str,
    /// Flip-kernel name the device dispatched (`"scalar"` /
    /// `"avx512"`, or `"unset"` before the run starts). Empty (the
    /// `Default`) means "not reported" and emits no series.
    pub kernel: &'static str,
    /// Matrix-storage arm the device dispatched (`"dense"` / `"sparse"`,
    /// or `"unset"` before the run starts). Empty (the `Default`) means
    /// "not reported" and emits no series.
    pub storage: &'static str,
    /// Events drained from the device ring since the last poll.
    pub events: Vec<Event>,
    /// Cumulative events ever written to the ring.
    pub events_written: u64,
    /// Cumulative events lost to overwrite-oldest.
    pub events_overwritten: u64,
}

/// Host-side totals at a poll boundary.
#[derive(Clone, Debug, Default)]
pub struct HostSample {
    /// Results drained and accepted by the host.
    pub results_received: u64,
    /// Results newly inserted into the GA pool.
    pub results_inserted: u64,
    /// Pool insert outcomes: inserted.
    pub pool_inserted: u64,
    /// Pool insert outcomes: duplicate.
    pub pool_duplicate: u64,
    /// Pool insert outcomes: worse-than-worst.
    pub pool_worse: u64,
    /// Records rejected by the host energy audit.
    pub host_rejected: u64,
    /// Targets requeued after device exclusion.
    pub requeued_targets: u64,
    /// Checkpoints written by this process (cumulative).
    pub checkpoint_writes: u64,
    /// Checkpoints restored by this process (0 or 1: a session restores
    /// at most once, at construction).
    pub checkpoint_restores: u64,
    /// On-disk checkpoint generations rejected by CRC validation at
    /// restore time.
    pub checkpoint_rejected: u64,
    /// Checkpoint generation of the session chain (0 until the first
    /// write; resumed sessions continue the chain).
    pub session_generation: u64,
    /// Wall-clock seconds since solve start, stamped by the host.
    pub elapsed_secs: f64,
}

struct PerDevice {
    flips: Arc<Counter>,
    evaluated: Arc<Counter>,
    iterations: Arc<Counter>,
    results: Arc<Counter>,
    rejected: Arc<Counter>,
    dropped_targets: Arc<Counter>,
    overflow_results: Arc<Counter>,
    dead_blocks: Arc<Counter>,
    units: Arc<Gauge>,
    events_written: Arc<Counter>,
    events_dropped: Arc<Counter>,
    last_health: &'static str,
    last_kernel: &'static str,
    last_storage: &'static str,
}

/// Folds poll-boundary samples into the typed metrics registry.
pub struct Aggregator {
    registry: Registry,
    n: usize,
    devices: Vec<PerDevice>,
    walk_hist: Arc<Histogram>,
    window_hist: Arc<Histogram>,
    window_switches: Arc<Counter>,
    block_deaths: Arc<Counter>,
    received: Arc<Counter>,
    inserted: Arc<Counter>,
    pool_ops: [Arc<Counter>; 3],
    host_rejected: Arc<Counter>,
    requeued: Arc<Counter>,
    ckpt_writes: Arc<Counter>,
    ckpt_restores: Arc<Counter>,
    ckpt_rejected: Arc<Counter>,
    session_generation: Arc<Gauge>,
    polls: Arc<Counter>,
    elapsed: Arc<Gauge>,
    search_rate: Arc<Gauge>,
    search_efficiency: Arc<Gauge>,
}

impl Aggregator {
    /// Builds an aggregator for `num_devices` devices solving an
    /// `n`-bit problem, registering the full metric family set.
    #[must_use]
    pub fn new(num_devices: usize, n: usize) -> Self {
        let mut r = Registry::new();
        let mut devices = Vec::with_capacity(num_devices);
        for d in 0..num_devices {
            let dl = d.to_string();
            let labels: &[(&str, &str)] = &[("device", dl.as_str())];
            devices.push(PerDevice {
                flips: r.counter("abs_flips_total", labels, "Total device bit flips."),
                evaluated: r.counter(
                    "abs_evaluated_total",
                    labels,
                    "Evaluated solutions as reported by the device: (flips + units) * (n + 1) \
                     on dense arms (Theorem 1), actual touched neighbours on the CSR arm.",
                ),
                iterations: r.counter("abs_iterations_total", labels, "Completed bulk iterations."),
                results: r.counter(
                    "abs_results_total",
                    labels,
                    "Solution records pushed to the result buffer (Fig. 5).",
                ),
                rejected: r.counter(
                    "abs_rejected_records_total",
                    labels,
                    "Records rejected by buffer validation.",
                ),
                dropped_targets: r.counter(
                    "abs_dropped_targets_total",
                    labels,
                    "Targets evicted from the bounded target ring.",
                ),
                overflow_results: r.counter(
                    "abs_overflow_results_total",
                    labels,
                    "Results folded by keep-best overflow handling.",
                ),
                dead_blocks: r.counter(
                    "abs_dead_blocks_total",
                    labels,
                    "Blocks quarantined after a panic.",
                ),
                units: r.gauge("abs_search_units", labels, "Live search units."),
                events_written: r.counter(
                    "abs_telemetry_events_total",
                    labels,
                    "Telemetry events written to the device ring.",
                ),
                events_dropped: r.counter(
                    "abs_telemetry_events_dropped_total",
                    labels,
                    "Telemetry events lost to overwrite-oldest.",
                ),
                last_health: "healthy",
                last_kernel: "",
                last_storage: "",
            });
        }
        Aggregator {
            n,
            devices,
            walk_hist: r.histogram(
                "abs_straight_walk_length",
                &[],
                "Straight-search walk lengths in flips (== Hamming distance to target, \u{a7}3.1).",
                &POW2_BOUNDS,
            ),
            window_hist: r.histogram(
                "abs_window_length",
                &[],
                "Window length \u{2113} assignments and switches (Fig. 2 schedule).",
                &POW2_BOUNDS,
            ),
            window_switches: r.counter(
                "abs_window_switches_total",
                &[],
                "Adaptive window-length switches.",
            ),
            block_deaths: r.counter(
                "abs_block_death_events_total",
                &[],
                "Block-death events drained from device rings.",
            ),
            received: r.counter(
                "abs_results_received_total",
                &[],
                "Results drained and accepted by the host poll loop.",
            ),
            inserted: r.counter(
                "abs_results_inserted_total",
                &[],
                "Results newly inserted into the GA pool.",
            ),
            pool_ops: [
                r.counter(
                    "abs_pool_ops_total",
                    &[("op", "inserted")],
                    "GA pool insert outcomes.",
                ),
                r.counter(
                    "abs_pool_ops_total",
                    &[("op", "duplicate")],
                    "GA pool insert outcomes.",
                ),
                r.counter(
                    "abs_pool_ops_total",
                    &[("op", "worse")],
                    "GA pool insert outcomes.",
                ),
            ],
            host_rejected: r.counter(
                "abs_host_rejected_total",
                &[],
                "Records rejected by the host energy audit.",
            ),
            requeued: r.counter(
                "abs_requeued_targets_total",
                &[],
                "Targets requeued after device exclusion.",
            ),
            ckpt_writes: r.counter(
                "abs_checkpoint_writes_total",
                &[],
                "Session checkpoints published to disk.",
            ),
            ckpt_restores: r.counter(
                "abs_checkpoint_restores_total",
                &[],
                "Sessions restored from an on-disk checkpoint (0 or 1).",
            ),
            ckpt_rejected: r.counter(
                "abs_checkpoint_rejected_total",
                &[],
                "Checkpoint generations rejected by CRC validation at restore.",
            ),
            session_generation: r.gauge(
                "abs_session_generation",
                &[],
                "Checkpoint generation of the session chain (0 before the first write).",
            ),
            polls: r.counter("abs_polls_total", &[], "Aggregator poll boundaries."),
            elapsed: r.gauge(
                "abs_elapsed_seconds",
                &[],
                "Wall-clock seconds since solve start, host-stamped.",
            ),
            search_rate: r.gauge(
                "abs_search_rate",
                &[],
                "Evaluated solutions per second across all devices.",
            ),
            search_efficiency: r.gauge(
                "abs_search_efficiency",
                &[],
                "Work per evaluated solution (Theorem 1: O(1) in n). Dense arms contribute \
                 flips*n work; the CSR arm contributes actual touched neighbours.",
            ),
            registry: r,
        }
    }

    /// Number of devices this aggregator was built for.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Folds one poll boundary into the registry. `samples` must have
    /// one entry per device (extra entries are ignored).
    pub fn poll(&mut self, samples: &[DeviceSample], host: &HostSample) {
        let mut work_all = 0u64;
        let mut evaluated_all = 0u64;
        for (dev, s) in self.devices.iter_mut().zip(samples) {
            let evaluated = s.evaluated;
            // Row-scan work behind the evaluations: strip the n + 1
            // initial evaluations per unit and the self-term of each
            // flip. Dense arms land on flips * n exactly; the CSR arm
            // lands on the neighbours it actually touched.
            let work = evaluated
                .saturating_sub(s.units * (self.n as u64 + 1))
                .saturating_sub(s.flips);
            dev.flips.set(s.flips);
            dev.evaluated.set(evaluated);
            dev.iterations.set(s.iterations);
            dev.results.set(s.results);
            dev.rejected.set(s.rejected_records);
            dev.dropped_targets.set(s.dropped_targets);
            dev.overflow_results.set(s.overflow_results);
            dev.dead_blocks.set(s.dead_blocks);
            dev.units.set(s.units as f64);
            dev.events_written.set(s.events_written);
            dev.events_dropped.set(s.events_overwritten);
            work_all += work;
            evaluated_all += evaluated;
            for e in &s.events {
                match e.kind {
                    EventKind::StraightWalk => self.walk_hist.observe(e.value),
                    EventKind::WindowAssign => self.window_hist.observe(e.value),
                    EventKind::WindowSwitch => {
                        self.window_hist.observe(e.value);
                        self.window_switches.inc();
                    }
                    EventKind::BlockDeath => self.block_deaths.inc(),
                }
            }
        }
        // Health transitions are registered on demand: most runs never
        // leave `healthy` and emit no transition series at all.
        for (d, s) in samples.iter().enumerate() {
            if self.devices[d].last_health != s.health {
                let dl = d.to_string();
                self.registry
                    .counter(
                        "abs_health_transitions_total",
                        &[("device", dl.as_str()), ("to", s.health)],
                        "Per-device health state transitions.",
                    )
                    .inc();
                self.devices[d].last_health = s.health;
            }
        }
        // Dispatched flip kernels are an info gauge registered on demand,
        // like health transitions: the series appears once the device
        // reports a kernel and flips to the new name if a later run
        // redispatches (e.g. ABS_FORCE_SCALAR set between solves).
        for (d, s) in samples.iter().enumerate() {
            if !s.kernel.is_empty() && self.devices[d].last_kernel != s.kernel {
                let dl = d.to_string();
                if !self.devices[d].last_kernel.is_empty() {
                    self.registry
                        .gauge(
                            "abs_flip_kernel",
                            &[
                                ("device", dl.as_str()),
                                ("kernel", self.devices[d].last_kernel),
                            ],
                            "Dispatched flip kernel (info gauge: 1 = active arm).",
                        )
                        .set(0.0);
                }
                self.registry
                    .gauge(
                        "abs_flip_kernel",
                        &[("device", dl.as_str()), ("kernel", s.kernel)],
                        "Dispatched flip kernel (info gauge: 1 = active arm).",
                    )
                    .set(1.0);
                self.devices[d].last_kernel = s.kernel;
            }
        }
        // The dispatched matrix-storage arm mirrors the flip-kernel info
        // gauge: registered on demand, old arm drops to 0 when a later
        // run redispatches (e.g. ABS_FORCE_SPARSE set between solves).
        for (d, s) in samples.iter().enumerate() {
            if !s.storage.is_empty() && self.devices[d].last_storage != s.storage {
                let dl = d.to_string();
                if !self.devices[d].last_storage.is_empty() {
                    self.registry
                        .gauge(
                            "abs_matrix_storage",
                            &[
                                ("device", dl.as_str()),
                                ("storage", self.devices[d].last_storage),
                            ],
                            "Dispatched matrix storage (info gauge: 1 = active arm).",
                        )
                        .set(0.0);
                }
                self.registry
                    .gauge(
                        "abs_matrix_storage",
                        &[("device", dl.as_str()), ("storage", s.storage)],
                        "Dispatched matrix storage (info gauge: 1 = active arm).",
                    )
                    .set(1.0);
                self.devices[d].last_storage = s.storage;
            }
        }
        self.received.set(host.results_received);
        self.inserted.set(host.results_inserted);
        self.pool_ops[0].set(host.pool_inserted);
        self.pool_ops[1].set(host.pool_duplicate);
        self.pool_ops[2].set(host.pool_worse);
        self.host_rejected.set(host.host_rejected);
        self.requeued.set(host.requeued_targets);
        self.ckpt_writes.set(host.checkpoint_writes);
        self.ckpt_restores.set(host.checkpoint_restores);
        self.ckpt_rejected.set(host.checkpoint_rejected);
        self.session_generation.set(host.session_generation as f64);
        self.polls.inc();
        self.elapsed.set(host.elapsed_secs);
        // Same expression `SolveResult::search_rate` uses, so the gauge
        // and the result field agree exactly at the final poll.
        self.search_rate
            .set(evaluated_all as f64 / host.elapsed_secs.max(1e-12));
        self.search_efficiency.set(if evaluated_all == 0 {
            0.0
        } else {
            work_all as f64 / evaluated_all as f64
        });
    }

    /// Copies the registry into a plain-data snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Powers-of-two bucket bounds `1 … 2^20`, shared by the walk-length
/// and window-length histograms.
const POW2_BOUNDS: [u64; 21] = {
    let mut b = [0u64; 21];
    let mut i = 0;
    while i < 21 {
        b[i] = 1u64 << i;
        i += 1;
    }
    b
};

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense-arm sample: `evaluated` carries the Theorem-1 projection
    /// `(flips + units) * (n + 1)` exactly, as `GlobalMem` reports it.
    fn one_device_sample(flips: u64, units: u64, n: u64) -> DeviceSample {
        DeviceSample {
            flips,
            units,
            evaluated: (flips + units) * (n + 1),
            health: "healthy",
            ..DeviceSample::default()
        }
    }

    #[test]
    fn poll_folds_counters_events_and_gauges() {
        let mut a = Aggregator::new(2, 64);
        let mut s0 = one_device_sample(100, 8, 64);
        s0.events = vec![
            Event::straight_walk(5),
            Event::window_assign(16),
            Event::window_switch(32),
            Event::block_death(3),
        ];
        s0.events_written = 4;
        let s1 = one_device_sample(50, 8, 64);
        let host = HostSample {
            results_received: 7,
            pool_inserted: 4,
            pool_duplicate: 2,
            pool_worse: 1,
            elapsed_secs: 2.0,
            ..HostSample::default()
        };
        a.poll(&[s0, s1], &host);
        let snap = a.snapshot();
        assert_eq!(
            snap.counter_with("abs_flips_total", "device", "0"),
            Some(100)
        );
        assert_eq!(snap.counter_total("abs_flips_total"), 150);
        let evaluated = (100 + 8) * 65 + (50 + 8) * 65;
        assert_eq!(snap.counter_total("abs_evaluated_total"), evaluated);
        assert_eq!(
            snap.counter_with("abs_pool_ops_total", "op", "duplicate"),
            Some(2)
        );
        assert_eq!(
            snap.histogram("abs_straight_walk_length").map(|h| h.count),
            Some(1)
        );
        assert_eq!(
            snap.histogram("abs_window_length").map(|h| h.count),
            Some(2)
        );
        assert_eq!(snap.counter_total("abs_window_switches_total"), 1);
        assert_eq!(snap.counter_total("abs_block_death_events_total"), 1);
        let rate = snap.gauge("abs_search_rate").unwrap();
        assert!((rate - evaluated as f64 / 2.0).abs() < 1e-9);
        let eff = snap.gauge("abs_search_efficiency").unwrap();
        assert!((eff - (150.0 * 64.0) / evaluated as f64).abs() < 1e-12);
    }

    #[test]
    fn health_transitions_register_on_demand() {
        let mut a = Aggregator::new(1, 8);
        let healthy = one_device_sample(1, 1, 8);
        a.poll(std::slice::from_ref(&healthy), &HostSample::default());
        assert_eq!(
            a.snapshot().counter_total("abs_health_transitions_total"),
            0
        );
        let mut degraded = one_device_sample(2, 1, 8);
        degraded.health = "degraded";
        a.poll(std::slice::from_ref(&degraded), &HostSample::default());
        a.poll(std::slice::from_ref(&degraded), &HostSample::default());
        let snap = a.snapshot();
        assert_eq!(
            snap.counter_with("abs_health_transitions_total", "to", "degraded"),
            Some(1)
        );
    }

    #[test]
    fn flip_kernel_info_gauge_registers_on_demand() {
        let mut a = Aggregator::new(1, 8);
        let unreported = one_device_sample(1, 1, 8);
        a.poll(std::slice::from_ref(&unreported), &HostSample::default());
        assert!(a
            .snapshot()
            .gauge_with("abs_flip_kernel", "kernel", "avx512")
            .is_none());
        let mut dispatched = one_device_sample(2, 1, 8);
        dispatched.kernel = "avx512";
        a.poll(std::slice::from_ref(&dispatched), &HostSample::default());
        let snap = a.snapshot();
        assert_eq!(
            snap.gauge_with("abs_flip_kernel", "kernel", "avx512"),
            Some(1.0)
        );
        // Redispatch (e.g. forced scalar on a later solve): old arm drops
        // to 0, new arm raises to 1.
        let mut forced = one_device_sample(3, 1, 8);
        forced.kernel = "scalar";
        a.poll(std::slice::from_ref(&forced), &HostSample::default());
        let snap = a.snapshot();
        assert_eq!(
            snap.gauge_with("abs_flip_kernel", "kernel", "avx512"),
            Some(0.0)
        );
        assert_eq!(
            snap.gauge_with("abs_flip_kernel", "kernel", "scalar"),
            Some(1.0)
        );
    }

    #[test]
    fn evaluated_matches_the_tracker_formula() {
        // Mirrors DeltaTracker::evaluated(): (flips + 1) * (n + 1) per
        // unit; GlobalMem folds units in as (flips + units) * (n + 1).
        let mut a = Aggregator::new(1, 24);
        a.poll(&[one_device_sample(10, 1, 24)], &HostSample::default());
        assert_eq!(a.snapshot().counter_total("abs_evaluated_total"), 11 * 25);
    }

    #[test]
    fn matrix_storage_info_gauge_registers_on_demand() {
        let mut a = Aggregator::new(1, 8);
        let unreported = one_device_sample(1, 1, 8);
        a.poll(std::slice::from_ref(&unreported), &HostSample::default());
        assert!(a
            .snapshot()
            .gauge_with("abs_matrix_storage", "storage", "dense")
            .is_none());
        let mut dispatched = one_device_sample(2, 1, 8);
        dispatched.storage = "dense";
        a.poll(std::slice::from_ref(&dispatched), &HostSample::default());
        assert_eq!(
            a.snapshot()
                .gauge_with("abs_matrix_storage", "storage", "dense"),
            Some(1.0)
        );
        // Redispatch (e.g. ABS_FORCE_SPARSE on a later solve): old arm
        // drops to 0, new arm raises to 1.
        let mut forced = one_device_sample(3, 1, 8);
        forced.storage = "sparse";
        a.poll(std::slice::from_ref(&forced), &HostSample::default());
        let snap = a.snapshot();
        assert_eq!(
            snap.gauge_with("abs_matrix_storage", "storage", "dense"),
            Some(0.0)
        );
        assert_eq!(
            snap.gauge_with("abs_matrix_storage", "storage", "sparse"),
            Some(1.0)
        );
    }

    #[test]
    fn checkpoint_series_track_the_host_sample() {
        let mut a = Aggregator::new(1, 8);
        let host = HostSample {
            checkpoint_writes: 5,
            checkpoint_restores: 1,
            checkpoint_rejected: 2,
            session_generation: 7,
            ..HostSample::default()
        };
        a.poll(&[one_device_sample(1, 1, 8)], &host);
        let snap = a.snapshot();
        assert_eq!(snap.counter_total("abs_checkpoint_writes_total"), 5);
        assert_eq!(snap.counter_total("abs_checkpoint_restores_total"), 1);
        assert_eq!(snap.counter_total("abs_checkpoint_rejected_total"), 2);
        assert_eq!(snap.gauge("abs_session_generation"), Some(7.0));
    }

    #[test]
    fn sparse_arm_efficiency_counts_touched_neighbours() {
        // A CSR-arm device reports evaluated = units * (n + 1) + Σ
        // (deg(k) + 2): 1 unit on n = 24 plus 10 flips touching 3
        // neighbours each -> 25 + 10 * 5 = 75 evaluations and 10 * 4 =
        // 40 row-scan work, far below the dense flips * n = 240.
        let mut a = Aggregator::new(1, 24);
        let mut s = one_device_sample(10, 1, 24);
        s.evaluated = 25 + 10 * 5;
        s.storage = "sparse";
        a.poll(std::slice::from_ref(&s), &HostSample::default());
        let snap = a.snapshot();
        assert_eq!(snap.counter_total("abs_evaluated_total"), 75);
        let eff = snap.gauge("abs_search_efficiency").unwrap();
        assert!((eff - 40.0 / 75.0).abs() < 1e-12, "eff={eff}");
    }
}
