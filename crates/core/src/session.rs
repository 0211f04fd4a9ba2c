//! Resumable solve sessions: the §3.1 host loop as a value.
//!
//! [`crate::Abs::solve`] runs start-to-finish on the calling thread. An
//! [`AbsSession`] unbundles that into an explicit lifecycle so callers —
//! the CLI's signal handler in particular — can stop a solve gracefully,
//! checkpoint it, and resume it in a later process:
//!
//! * [`AbsSession::start`] spawns the device threads and seeds the
//!   target buffers; [`AbsSession::resume`] does the same from an
//!   on-disk [`Checkpoint`] instead of a fresh pool.
//! * [`AbsSession::poll`] runs one host poll round (drain results, breed
//!   targets, watchdog, telemetry, stride checkpoints) and reports
//!   whether a stop condition has fired.
//! * [`AbsSession::best`] steals the incumbent best at any time without
//!   disturbing the run.
//! * [`AbsSession::checkpoint_now`] quiesces the devices at a consistent
//!   counter boundary and atomically publishes a checkpoint.
//! * [`AbsSession::stop`] ends the run: joins every device thread,
//!   drains the event rings one final time, and returns a
//!   [`SolveResult`] whose scalar fields agree exactly with its metrics
//!   snapshot — including after an early stop.
//!
//! Resumed sessions account *cumulatively*: wall-clock, flip budgets,
//! history timestamps and every counter continue from the checkpointed
//! baseline, so a solve split across N processes reports the same totals
//! as one uninterrupted run (the kill-and-resume acceptance tests hold
//! this exactly).

use crate::checkpoint::{load_checkpoint, write_checkpoint, Checkpoint, DeviceBaseline};
use crate::config::AbsConfig;
use crate::error::AbsError;
use crate::stats::{write_metrics, DeviceReport, DeviceStatus, HistoryPoint, SolveResult};
use abs_telemetry::{Aggregator, DeviceSample, HostSample};
use qubo::{BitVec, Energy, Qubo};
use qubo_ga::{InsertOutcome, SolutionPool, TargetGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vgpu::{GlobalMem, HealthStatus, Machine, RunningMachine};

/// How long [`AbsSession::checkpoint_now`] waits for every live worker
/// to acknowledge the pause barrier before snapshotting anyway. A
/// stalled worker never acks, but its counters are frozen by virtue of
/// being stalled, so the snapshot is consistent either way.
const QUIESCE_DEADLINE: Duration = Duration::from_millis(250);

/// What one [`AbsSession::poll`] round observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// No stop condition has fired; keep polling.
    Running,
    /// A stop condition fired (target reached, timeout, flip budget, or
    /// hard deadline with a best in hand). Call [`AbsSession::stop`].
    StopConditionMet,
}

/// Host-side view of one device during the polling loop.
struct DeviceState {
    /// Counter value at the last poll.
    last_counter: u64,
    /// Consecutive poll rounds in which *other* devices progressed but
    /// this one did not (the watchdog's staleness clock).
    stale_rounds: u64,
    /// The watchdog excluded this device (stalled or dead): its targets
    /// were requeued and it receives no new work.
    excluded: bool,
    /// Status to report if excluded (`Stalled` or `Dead`).
    excluded_as: DeviceStatus,
    /// Targets moved *from* this device to healthy ones (cumulative
    /// across resumes).
    requeued: u64,
    /// Records the host rejected from this device (wrong length seen
    /// host-side, or failed energy audit; cumulative across resumes).
    host_rejected: u64,
}

/// A live, resumable ABS solve.
///
/// Construction ([`start`](AbsSession::start) /
/// [`resume`](AbsSession::resume)) spawns the device threads; dropping
/// the session stops and joins them. The host poll loop does *not* run
/// on its own thread — the owner drives it by calling
/// [`poll`](AbsSession::poll), typically via
/// [`run_to_completion`](AbsSession::run_to_completion).
pub struct AbsSession {
    config: AbsConfig,
    qubo: Arc<Qubo>,
    n: usize,
    machine: RunningMachine,
    start: Instant,
    rng: StdRng,
    pool: SolutionPool,
    gen: TargetGenerator,
    devs: Vec<DeviceState>,
    best: Option<BitVec>,
    best_energy: Energy,
    reached_target: bool,
    time_to_target: Option<Duration>,
    history: Vec<HistoryPoint>,
    received: u64,
    inserted: u64,
    aggregator: Aggregator,
    hard_deadline: Option<Instant>,
    next_metrics_write: Option<Instant>,
    next_checkpoint: Option<Instant>,
    /// Wall-clock accumulated by previous lives of this session chain.
    base_elapsed: Duration,
    /// Seed recorded in checkpoints: the original run's, surviving
    /// resumes for provenance.
    seed: u64,
    /// Per-device accounting carried over from previous lives (the
    /// device-side counters; host-side ones live in [`DeviceState`]).
    baselines: Vec<DeviceBaseline>,
    /// Checkpoint generation last published (or restored from).
    generation: u64,
    ckpt_writes: u64,
    ckpt_restores: u64,
    ckpt_rejected: u64,
    stop_met: bool,
}

impl std::fmt::Debug for AbsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbsSession")
            .field("n", &self.n)
            .field("generation", &self.generation)
            .field("best_energy", &self.best_energy)
            .field("received", &self.received)
            .field("stop_met", &self.stop_met)
            .finish_non_exhaustive()
    }
}

impl AbsSession {
    /// Starts a fresh session: validates the configuration, seeds the
    /// pool and every device's target buffer, and spawns the device
    /// threads.
    ///
    /// # Errors
    /// [`AbsError::InvalidConfig`], [`AbsError::WarmStartLength`] or
    /// [`AbsError::Occupancy`], exactly as [`crate::Abs::solve`].
    pub fn start(config: AbsConfig, qubo: &Qubo) -> Result<Self, AbsError> {
        config.validate()?;
        let n = qubo.n();
        for warm in &config.initial_solutions {
            if warm.len() != n {
                return Err(AbsError::WarmStartLength {
                    expected: n,
                    got: warm.len(),
                });
            }
        }
        let machine = Machine::new(&config.machine);
        let blocks = Self::resolve_blocks(&machine, n)?;

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut pool = SolutionPool::random(config.pool_size, n, &mut rng);
        let mut gen = TargetGenerator::new(n, config.ga, config.seed ^ 0x9e37_79b9_7f4a_7c15);

        // Warm starts (lengths checked above): into the pool as
        // unevaluated parents, and to the front of every target queue so
        // devices price them exactly.
        for warm in &config.initial_solutions {
            let _ = pool.insert(warm.clone(), qubo::energy::UNEVALUATED);
        }
        // Step 1: seed every device's target buffer, then launch.
        let mems = machine.mems();
        for (mem, &b) in mems.iter().zip(&blocks) {
            for warm in &config.initial_solutions {
                mem.push_target(warm.clone());
            }
            for _ in 0..b.max(1) * config.initial_targets_per_block.max(1) {
                mem.push_target(gen.generate(&pool));
            }
        }
        let num_devices = mems.len();
        let seed = config.seed;
        Ok(Self::assemble(
            config,
            Arc::new(qubo.clone()),
            n,
            machine,
            rng,
            pool,
            gen,
            Restored {
                num_devices,
                seed,
                ..Restored::default()
            },
        ))
    }

    /// Resumes a session from the newest valid checkpoint generation at
    /// `path`: the pool, RNG streams, best record, history and all
    /// cumulative accounting continue exactly where the checkpoint left
    /// them; a fresh machine is spawned and re-seeded from the restored
    /// pool (in-flight device work at checkpoint time is regenerated,
    /// not replayed).
    ///
    /// The restored best is re-audited against `qubo` — a checkpoint
    /// from a different problem is rejected even when `n` matches.
    ///
    /// # Errors
    /// [`AbsError::Checkpoint`] when no on-disk generation passes CRC
    /// validation or the checkpoint does not match `qubo`/`config`;
    /// otherwise as [`AbsSession::start`].
    pub fn resume(config: AbsConfig, qubo: &Qubo, path: &Path) -> Result<Self, AbsError> {
        config.validate()?;
        let fault = config.machine.device.fault.clone();
        let (ckpt, rejected) = load_checkpoint(path, fault.as_deref())?;
        Self::resume_from(config, qubo, ckpt, rejected)
    }

    /// Resumes from an already-loaded [`Checkpoint`] (the
    /// [`AbsSession::resume`] path after disk validation).
    ///
    /// # Errors
    /// As [`AbsSession::resume`].
    pub fn resume_from(
        config: AbsConfig,
        qubo: &Qubo,
        ckpt: Checkpoint,
        rejected: u64,
    ) -> Result<Self, AbsError> {
        config.validate()?;
        let n = qubo.n();
        if ckpt.n != n {
            return Err(AbsError::Checkpoint(format!(
                "checkpoint is for an {}-bit problem, this one has {n} bits",
                ckpt.n
            )));
        }
        if ckpt.devices.len() != config.machine.num_devices {
            return Err(AbsError::Checkpoint(format!(
                "checkpoint has {} device baselines, the machine has {} devices",
                ckpt.devices.len(),
                config.machine.num_devices
            )));
        }
        // Re-audit the incumbent: energies in a valid checkpoint are
        // exact, so a mismatch means the checkpoint belongs to a
        // different problem of the same size.
        if let Some((x, e)) = &ckpt.best {
            if x.len() != n || qubo.energy(x) != *e {
                return Err(AbsError::Checkpoint(
                    "restored best solution fails the energy re-audit \
                     (checkpoint from a different problem?)"
                        .into(),
                ));
            }
        }
        let pool = SolutionPool::restore(ckpt.pool_capacity, ckpt.pool_entries, ckpt.pool_ops)
            .map_err(|m| AbsError::Checkpoint(format!("restored pool invalid: {m}")))?;
        if pool.is_empty() {
            return Err(AbsError::Checkpoint("restored pool is empty".into()));
        }
        let mut gen = TargetGenerator::restore(n, config.ga, ckpt.gen_rng, ckpt.usage);
        let rng = StdRng::from_state(ckpt.master_rng);

        let machine = Machine::new(&config.machine);
        let blocks = Self::resolve_blocks(&machine, n)?;
        // Re-seed the fresh machine from the restored pool: no warm
        // starts (they were consumed by the original life), just bred
        // targets, drawn from the restored generator stream.
        let mems = machine.mems();
        for (mem, &b) in mems.iter().zip(&blocks) {
            for _ in 0..b.max(1) * config.initial_targets_per_block.max(1) {
                mem.push_target(gen.generate(&pool));
            }
        }
        let num_devices = mems.len();
        // Host-side per-device counters continue in DeviceState (the
        // authoritative copy); the stored baselines keep only the
        // device-side counters, zeroing the host-side pair so nothing is
        // double-counted when the next checkpoint folds them back.
        let baselines: Vec<DeviceBaseline> = ckpt
            .devices
            .iter()
            .map(|b| DeviceBaseline {
                host_rejected: 0,
                requeued: 0,
                ..*b
            })
            .collect();
        let restored = Restored {
            num_devices,
            seed: ckpt.seed,
            best: ckpt.best,
            reached_target: ckpt.reached_target,
            time_to_target: ckpt.time_to_target_ns.map(duration_from_ns),
            history: ckpt.history,
            received: ckpt.received,
            inserted: ckpt.inserted,
            base_elapsed: duration_from_ns(ckpt.elapsed_ns),
            host_sides: ckpt
                .devices
                .iter()
                .map(|b| (b.host_rejected, b.requeued))
                .collect(),
            baselines,
            generation: ckpt.generation,
            ckpt_restores: 1,
            ckpt_rejected: rejected,
        };
        Ok(Self::assemble(
            config,
            Arc::new(qubo.clone()),
            n,
            machine,
            rng,
            pool,
            gen,
            restored,
        ))
    }

    fn resolve_blocks(machine: &Machine, n: usize) -> Result<Vec<usize>, AbsError> {
        machine
            .devices()
            .iter()
            .enumerate()
            .map(|(i, d)| {
                d.resolve_blocks(n)
                    .map_err(|source| AbsError::Occupancy { device: i, source })
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        config: AbsConfig,
        qubo: Arc<Qubo>,
        n: usize,
        machine: Machine,
        rng: StdRng,
        pool: SolutionPool,
        gen: TargetGenerator,
        r: Restored,
    ) -> Self {
        let start = Instant::now();
        let devs: Vec<DeviceState> = (0..r.num_devices)
            .map(|i| {
                let (host_rejected, requeued) = r.host_sides.get(i).copied().unwrap_or((0, 0));
                DeviceState {
                    last_counter: 0,
                    stale_rounds: 0,
                    excluded: false,
                    excluded_as: DeviceStatus::Healthy,
                    requeued,
                    host_rejected,
                }
            })
            .collect();
        let baselines = if r.baselines.is_empty() {
            vec![DeviceBaseline::default(); r.num_devices]
        } else {
            r.baselines
        };
        let best_energy = r.best.as_ref().map_or(Energy::MAX, |(_, e)| *e);
        // A restored incumbent may already satisfy *this* config's
        // target (resume can tighten or add one): judge it now, or the
        // target-reached stop would wait forever for an improvement.
        let mut reached_target = r.reached_target;
        let mut time_to_target = r.time_to_target;
        if let Some(t) = config.stop.target_energy {
            if r.best.is_some() && best_energy <= t && time_to_target.is_none() {
                reached_target = true;
                time_to_target = Some(r.base_elapsed);
            }
        }
        let aggregator = Aggregator::new(r.num_devices, n);
        let machine = machine.start(Arc::clone(&qubo));
        Self {
            hard_deadline: config.watchdog.hard_timeout.map(|d| start + d),
            next_metrics_write: config
                .metrics
                .interval
                .filter(|_| config.metrics.out.is_some())
                .map(|iv| start + iv),
            next_checkpoint: config
                .checkpoint
                .interval
                .filter(|_| config.checkpoint.out.is_some())
                .map(|iv| start + iv),
            config,
            qubo,
            n,
            machine,
            start,
            rng,
            pool,
            gen,
            devs,
            best: r.best.as_ref().map(|(x, _)| x.clone()),
            best_energy,
            reached_target,
            time_to_target,
            history: r.history,
            received: r.received,
            inserted: r.inserted,
            aggregator,
            base_elapsed: r.base_elapsed,
            seed: r.seed,
            baselines,
            generation: r.generation,
            ckpt_writes: 0,
            ckpt_restores: r.ckpt_restores,
            ckpt_rejected: r.ckpt_rejected,
            stop_met: false,
        }
    }

    /// The configuration this session runs under.
    #[must_use]
    pub fn config(&self) -> &AbsConfig {
        &self.config
    }

    /// Steals the incumbent best without disturbing the run.
    #[must_use]
    pub fn best(&self) -> Option<(&BitVec, Energy)> {
        self.best.as_ref().map(|x| (x, self.best_energy))
    }

    /// Checkpoint generation last published by (or restored into) this
    /// session chain; 0 before the first write.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative solve wall-clock: previous lives plus this one.
    #[must_use]
    pub fn total_elapsed(&self) -> Duration {
        self.base_elapsed + self.start.elapsed()
    }

    /// Cumulative device flips: checkpointed baseline plus live counters.
    #[must_use]
    pub fn total_flips(&self) -> u64 {
        let base: u64 = self.baselines.iter().map(|b| b.flips).sum();
        let live: u64 = self.machine.mems().iter().map(|m| m.total_flips()).sum();
        base + live
    }

    /// Cumulative search units started, baseline plus live — the `m` of
    /// the Theorem-1 projection `(flips + m) × (n + 1)`.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        let base: u64 = self.baselines.iter().map(|b| b.units).sum();
        let live: u64 = self.machine.mems().iter().map(|m| m.total_units()).sum();
        base + live
    }

    /// Cumulative solutions evaluated, baseline plus live.
    #[must_use]
    pub fn total_evaluated(&self) -> u64 {
        let base: u64 = self.baselines.iter().map(|b| b.evaluated).sum();
        let live: u64 = self
            .machine
            .mems()
            .iter()
            .map(|m| m.total_evaluated(self.n))
            .sum();
        base + live
    }

    /// A live snapshot of the telemetry registry, as folded at the most
    /// recent progressed [`poll`](AbsSession::poll) round. This is what
    /// a long-running host (the `abs-server` `/metrics` endpoint)
    /// exposes mid-solve; the authoritative end-of-run snapshot still
    /// arrives in [`SolveResult::metrics`](crate::SolveResult).
    #[must_use]
    pub fn metrics_snapshot(&self) -> abs_telemetry::MetricsSnapshot {
        self.aggregator.snapshot()
    }

    /// Runs one host poll round: watchdog, drain/insert/re-target,
    /// telemetry fold, periodic metrics and stride checkpoints, stop
    /// checks. Yields the thread when nothing progressed, so a driver
    /// loop does not busy-spin.
    ///
    /// # Errors
    /// [`AbsError::NoResult`] when the watchdog hard timeout expires
    /// with no result in hand; [`AbsError::AllDevicesFailed`] when every
    /// device is excluded before a result arrives. The session is
    /// consumed by `Drop` in both cases (device threads are joined).
    pub fn poll(&mut self) -> Result<SessionStatus, AbsError> {
        if self.stop_met {
            return Ok(SessionStatus::StopConditionMet);
        }
        let mems = self.machine.mems().to_vec();

        // Watchdog: loud failures first. A device whose health region
        // says Dead will never move its counter again.
        for i in 0..mems.len() {
            if !self.devs[i].excluded && mems[i].health().status() == HealthStatus::Dead {
                Self::fail_device(i, DeviceStatus::Dead, &mems, &mut self.devs);
            }
        }

        // Steps 2–4: poll counters, drain, insert, re-target.
        let mut progressed_any = false;
        for (i, mem) in mems.iter().enumerate() {
            if self.devs[i].excluded {
                continue;
            }
            let c = mem.counter();
            if c == self.devs[i].last_counter {
                continue;
            }
            self.devs[i].last_counter = c;
            self.devs[i].stale_rounds = 0;
            progressed_any = true;
            let records = mem.drain_results();
            let mut arrived = 0usize;
            for rec in records {
                self.received += 1;
                if !self.accept_record(&rec.x, rec.energy) {
                    self.devs[i].host_rejected += 1;
                    continue;
                }
                arrived += 1;
                if rec.energy < self.best_energy {
                    self.best_energy = rec.energy;
                    self.best = Some(rec.x.clone());
                    let flips_now = {
                        let base: u64 = self.baselines.iter().map(|b| b.flips).sum();
                        base + mems.iter().map(|m| m.total_flips()).sum::<u64>()
                    };
                    self.history.push(HistoryPoint {
                        elapsed_ns: self.total_elapsed().as_nanos(),
                        energy: rec.energy,
                        flips: flips_now,
                    });
                    if let Some(t) = self.config.stop.target_energy {
                        if rec.energy <= t && self.time_to_target.is_none() {
                            self.reached_target = true;
                            self.time_to_target = Some(self.total_elapsed());
                        }
                    }
                }
                if self.pool.insert(rec.x, rec.energy) == InsertOutcome::Inserted {
                    self.inserted += 1;
                }
            }
            // "The number of generated solutions is set to be the same
            // as the number of newly arrived solutions."
            for _ in 0..arrived {
                mem.push_target(self.gen.generate(&self.pool));
            }
        }

        // Watchdog: silent stalls. Staleness accrues only in rounds
        // where some *other* device progressed, so a globally slow
        // machine (loaded CI box) never trips it.
        if progressed_any && self.config.watchdog.stall_poll_rounds > 0 {
            for i in 0..mems.len() {
                if self.devs[i].excluded || mems[i].counter() != self.devs[i].last_counter {
                    continue;
                }
                self.devs[i].stale_rounds += 1;
                if self.devs[i].stale_rounds > self.config.watchdog.stall_poll_rounds {
                    Self::fail_device(i, DeviceStatus::Stalled, &mems, &mut self.devs);
                }
            }
        }

        // Telemetry folds on the same cadence results are drained; idle
        // spin rounds leave the device rings untouched.
        if progressed_any {
            self.poll_metrics(&mems);
        }
        if let Some(due) = self.next_metrics_write {
            if Instant::now() >= due {
                if !progressed_any {
                    self.poll_metrics(&mems);
                }
                if let Some(path) = self.config.metrics.out.clone() {
                    // Periodic exposition is best-effort: an unwritable
                    // path must not kill a running solve.
                    let _ = write_metrics(&path, &self.aggregator.snapshot());
                }
                self.next_metrics_write =
                    self.config.metrics.interval.map(|iv| Instant::now() + iv);
            }
        }
        // Stride checkpoints: quiesce, snapshot, publish. A failed write
        // is a real error — silently losing durability defeats the
        // feature — but the stride only arms when checkpointing is on.
        if let Some(due) = self.next_checkpoint {
            if Instant::now() >= due {
                self.checkpoint_now()?;
                self.next_checkpoint = self
                    .config
                    .checkpoint
                    .interval
                    .map(|iv| Instant::now() + iv);
            }
        }

        // Stop checks — all cumulative across resumes.
        if self.reached_target {
            self.stop_met = true;
            return Ok(SessionStatus::StopConditionMet);
        }
        if let Some(to) = self.config.stop.timeout {
            if self.total_elapsed() >= to {
                self.stop_met = true;
                return Ok(SessionStatus::StopConditionMet);
            }
        }
        if let Some(mf) = self.config.stop.max_flips {
            if self.total_flips() >= mf {
                self.stop_met = true;
                return Ok(SessionStatus::StopConditionMet);
            }
        }
        if let Some(deadline) = self.hard_deadline {
            if Instant::now() >= deadline {
                if self.best.is_some() {
                    self.stop_met = true;
                    return Ok(SessionStatus::StopConditionMet);
                }
                return Err(AbsError::NoResult);
            }
        }
        if self.devs.iter().all(|d| d.excluded) {
            if self.best.is_some() {
                self.stop_met = true;
                return Ok(SessionStatus::StopConditionMet);
            }
            return Err(AbsError::AllDevicesFailed);
        }
        if !progressed_any {
            std::thread::yield_now();
        }
        Ok(SessionStatus::Running)
    }

    /// Quiesces every device at a consistent counter boundary and
    /// atomically publishes a checkpoint at the configured path. The
    /// pause barrier is released *before* the file I/O, so the devices
    /// only stall for the in-memory snapshot.
    ///
    /// # Errors
    /// [`AbsError::Checkpoint`] when no checkpoint path is configured or
    /// the filesystem refuses the write.
    pub fn checkpoint_now(&mut self) -> Result<(), AbsError> {
        let Some(path) = self.config.checkpoint.out.clone() else {
            return Err(AbsError::Checkpoint("no checkpoint path configured".into()));
        };
        let ckpt = self.quiesce_and_snapshot();
        let fault = self.config.machine.device.fault.clone();
        write_checkpoint(
            &path,
            &ckpt,
            self.config.checkpoint.keep.max(1),
            fault.as_deref(),
            self.ckpt_writes,
        )?;
        self.ckpt_writes += 1;
        self.generation = ckpt.generation;
        Ok(())
    }

    /// Pauses the workers, snapshots the full session state in memory,
    /// and releases the pause barrier before returning.
    fn quiesce_and_snapshot(&mut self) -> Checkpoint {
        let mems = self.machine.mems().to_vec();
        for mem in &mems {
            mem.request_pause();
        }
        let deadline = Instant::now() + QUIESCE_DEADLINE;
        while !mems.iter().all(|m| m.quiesced()) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let devices: Vec<DeviceBaseline> = mems
            .iter()
            .zip(&self.devs)
            .zip(&self.baselines)
            .map(|((mem, d), base)| {
                let stats = mem.event_stats();
                DeviceBaseline {
                    flips: base.flips + mem.total_flips(),
                    units: base.units + mem.total_units(),
                    evaluated: base.evaluated + mem.total_evaluated(self.n),
                    iterations: base.iterations + mem.total_iterations(),
                    results: base.results + mem.counter(),
                    rejected_records: base.rejected_records + mem.rejected_records(),
                    dropped_targets: base.dropped_targets + mem.dropped_targets(),
                    overflow_results: base.overflow_results + mem.overflow_results(),
                    events_written: base.events_written + stats.written,
                    events_overwritten: base.events_overwritten + stats.overwritten,
                    host_rejected: d.host_rejected,
                    requeued: d.requeued,
                }
            })
            .collect();
        let ckpt = Checkpoint {
            n: self.n,
            seed: self.seed,
            generation: self.generation + 1,
            master_rng: self.rng.state(),
            gen_rng: self.gen.rng_state(),
            usage: self.gen.usage(),
            pool_capacity: self.pool.capacity(),
            pool_entries: self.pool.iter().cloned().collect(),
            pool_ops: self.pool.ops(),
            best: self.best.clone().map(|x| (x, self.best_energy)),
            reached_target: self.reached_target,
            time_to_target_ns: self.time_to_target.map(|d| d.as_nanos()),
            history: self.history.clone(),
            received: self.received,
            inserted: self.inserted,
            elapsed_ns: self.total_elapsed().as_nanos(),
            devices,
        };
        for mem in &mems {
            mem.release_pause();
        }
        ckpt
    }

    /// Ends the run: waits for a first result if none has arrived yet,
    /// stops and joins every device thread, folds one final telemetry
    /// poll over the quiescent (and fully drained) counters, and builds
    /// the result. The final metrics snapshot and the scalar fields
    /// agree exactly — also when the caller stops early, before any
    /// stop condition fired.
    ///
    /// # Errors
    /// [`AbsError::NoResult`] / [`AbsError::AllDevicesFailed`] when the
    /// run ends with no result at all.
    pub fn stop(mut self) -> Result<SolveResult, AbsError> {
        let mems = self.machine.mems().to_vec();
        // Degenerate budgets (or an early caller stop) can end the poll
        // phase before any result arrived; the devices are still running
        // here, so a result will come — unless every device has failed,
        // which the wait must detect instead of spinning forever.
        if self.best.is_none() {
            'wait: loop {
                for (i, mem) in mems.iter().enumerate() {
                    for rec in mem.drain_results() {
                        self.received += 1;
                        if !self.accept_record(&rec.x, rec.energy) {
                            self.devs[i].host_rejected += 1;
                            continue;
                        }
                        if rec.energy < self.best_energy {
                            self.best_energy = rec.energy;
                            self.best = Some(rec.x);
                        }
                    }
                    if !self.devs[i].excluded && mems[i].health().status() == HealthStatus::Dead {
                        Self::fail_device(i, DeviceStatus::Dead, &mems, &mut self.devs);
                    }
                }
                if self.best.is_some() {
                    break 'wait;
                }
                if let Some(deadline) = self.hard_deadline {
                    if Instant::now() >= deadline {
                        return Err(AbsError::NoResult);
                    }
                }
                if self.devs.iter().all(|d| d.excluded) {
                    return Err(AbsError::AllDevicesFailed);
                }
                std::thread::yield_now();
            }
        }
        // Join every device thread before the final accounting: only
        // then are the per-device counters quiescent — a fast stop can
        // otherwise beat a device's workers to their first add_units.
        self.machine.join();
        let elapsed = self.total_elapsed();
        // Final authoritative telemetry poll: drains the event rings
        // (device_sample drains) and stamps the same elapsed value the
        // result's own rate field uses, so snapshot and SolveResult
        // agree exactly — including on the early-stop path.
        self.poll_metrics_at(&mems, elapsed.as_secs_f64());
        let metrics = self.aggregator.snapshot();

        let fold = |f: fn(&DeviceBaseline) -> u64, live: &dyn Fn(&GlobalMem) -> u64| -> u64 {
            self.baselines.iter().map(f).sum::<u64>() + mems.iter().map(|m| live(m)).sum::<u64>()
        };
        let n = self.n;
        let flips = fold(|b| b.flips, &|m| m.total_flips());
        let units = fold(|b| b.units, &|m| m.total_units());
        let evaluated = fold(|b| b.evaluated, &|m| m.total_evaluated(n));
        let iterations = fold(|b| b.iterations, &|m| m.total_iterations());
        let devices: Vec<DeviceReport> = mems
            .iter()
            .zip(&self.devs)
            .zip(&self.baselines)
            .enumerate()
            .map(|(i, ((mem, d), base))| {
                let health = mem.health();
                let status = if d.excluded {
                    d.excluded_as
                } else {
                    match health.status() {
                        HealthStatus::Healthy => DeviceStatus::Healthy,
                        HealthStatus::Degraded { .. } => DeviceStatus::Degraded,
                        HealthStatus::Dead => DeviceStatus::Dead,
                    }
                };
                DeviceReport {
                    device: i,
                    status,
                    dead_blocks: health.dead_blocks(),
                    total_blocks: health.total_blocks(),
                    rejected_records: base.rejected_records
                        + mem.rejected_records()
                        + d.host_rejected,
                    requeued_targets: d.requeued,
                }
            })
            .collect();
        let Some(best) = self.best.take() else {
            return Err(AbsError::NoResult);
        };
        let result = SolveResult {
            best,
            best_energy: self.best_energy,
            reached_target: self.reached_target,
            time_to_target: self.time_to_target,
            elapsed,
            total_flips: flips,
            evaluated,
            search_rate: evaluated as f64 / elapsed.as_secs_f64().max(1e-12),
            iterations,
            results_received: self.received,
            results_inserted: self.inserted,
            history: std::mem::take(&mut self.history),
            degraded: devices.iter().any(|d| !d.status.is_healthy()),
            rejected_records: devices.iter().map(|d| d.rejected_records).sum(),
            requeued_targets: devices.iter().map(|d| d.requeued_targets).sum(),
            search_units: units,
            devices,
            metrics,
        };
        if let Some(path) = &self.config.metrics.out {
            // Best-effort final exposition; the CLI re-writes this file
            // itself and surfaces I/O errors to the user.
            let _ = write_metrics(path, &result.metrics);
        }
        Ok(result)
    }

    /// Drives [`poll`](AbsSession::poll) until a stop condition fires,
    /// then [`stop`](AbsSession::stop)s. This is [`crate::Abs::solve`].
    ///
    /// # Errors
    /// As [`AbsSession::poll`] and [`AbsSession::stop`].
    pub fn run_to_completion(mut self) -> Result<SolveResult, AbsError> {
        loop {
            if self.poll()? == SessionStatus::StopConditionMet {
                return self.stop();
            }
        }
    }

    /// Folds the current host+device state into the aggregator, stamping
    /// the cumulative elapsed time at this poll boundary.
    fn poll_metrics(&mut self, mems: &[Arc<GlobalMem>]) {
        self.poll_metrics_at(mems, self.total_elapsed().as_secs_f64());
    }

    fn poll_metrics_at(&mut self, mems: &[Arc<GlobalMem>], elapsed_secs: f64) {
        let samples: Vec<DeviceSample> = mems
            .iter()
            .zip(&self.devs)
            .zip(&self.baselines)
            .map(|((m, d), base)| Self::device_sample(m, d, base, self.n))
            .collect();
        let pool_ops = self.pool.ops();
        let host = HostSample {
            results_received: self.received,
            results_inserted: self.inserted,
            pool_inserted: pool_ops.inserted,
            pool_duplicate: pool_ops.duplicate,
            pool_worse: pool_ops.worse,
            host_rejected: self.devs.iter().map(|d| d.host_rejected).sum(),
            requeued_targets: self.devs.iter().map(|d| d.requeued).sum(),
            checkpoint_writes: self.ckpt_writes,
            checkpoint_restores: self.ckpt_restores,
            checkpoint_rejected: self.ckpt_rejected,
            session_generation: self.generation,
            elapsed_secs,
        };
        self.aggregator.poll(&samples, &host);
    }

    /// Reads one device's counters, health label and drained events into
    /// a telemetry sample, folding in the checkpointed baseline so every
    /// series continues monotonically across resumes.
    fn device_sample(
        mem: &GlobalMem,
        d: &DeviceState,
        base: &DeviceBaseline,
        n: usize,
    ) -> DeviceSample {
        let health = mem.health();
        let label = if d.excluded {
            d.excluded_as.label()
        } else {
            match health.status() {
                HealthStatus::Healthy => "healthy",
                HealthStatus::Degraded { .. } => "degraded",
                HealthStatus::Dead => "dead",
            }
        };
        let drained = mem.drain_events();
        DeviceSample {
            flips: base.flips + mem.total_flips(),
            units: base.units + mem.total_units(),
            evaluated: base.evaluated + mem.total_evaluated(n),
            iterations: base.iterations + mem.total_iterations(),
            results: base.results + mem.counter(),
            rejected_records: base.rejected_records + mem.rejected_records(),
            dropped_targets: base.dropped_targets + mem.dropped_targets(),
            overflow_results: base.overflow_results + mem.overflow_results(),
            dead_blocks: health.dead_blocks(),
            total_blocks: health.total_blocks(),
            health: label,
            kernel: mem.flip_kernel_name(),
            storage: mem.matrix_storage_name(),
            events: drained.events,
            events_written: base.events_written + drained.written,
            events_overwritten: base.events_overwritten + drained.overwritten,
        }
    }

    /// Host-side record validation: a defensive length check on every
    /// record, plus the energy audit of [`crate::WatchdogConfig`] — a
    /// record is audited when it would improve the incumbent best (so
    /// the reported best is always exact) or when the audit stride
    /// samples it. Returns `false` for records that must be discarded.
    ///
    /// This is the documented deviation from the paper's "host never
    /// computes the energy" rule: with real hardware the device is
    /// trusted; here the fault model explicitly includes corrupted
    /// records, so claimed improvements are re-priced before they can
    /// displace the best.
    fn accept_record(&self, x: &BitVec, claimed: Energy) -> bool {
        if x.len() != self.n {
            return false;
        }
        let stride = self.config.watchdog.audit_stride;
        let improves = claimed < self.best_energy;
        let sampled = stride > 0 && self.received.is_multiple_of(stride);
        if improves || sampled {
            return self.qubo.energy(x) == claimed;
        }
        true
    }

    /// Excludes device `i`: stops it, drains its in-flight targets and
    /// deals them round-robin to the remaining devices (counted on the
    /// failed device's report), and records the status it failed as.
    fn fail_device(
        i: usize,
        status: DeviceStatus,
        mems: &[Arc<GlobalMem>],
        devs: &mut [DeviceState],
    ) {
        devs[i].excluded = true;
        devs[i].excluded_as = status;
        mems[i].request_stop();
        let orphans = mems[i].drain_targets();
        let healthy: Vec<usize> = (0..mems.len()).filter(|&j| !devs[j].excluded).collect();
        if healthy.is_empty() {
            return;
        }
        for (k, t) in orphans.into_iter().enumerate() {
            mems[healthy[k % healthy.len()]].push_target(t);
            devs[i].requeued += 1;
        }
    }
}

/// State threaded from `start`/`resume_from` into `assemble`: zeroed for
/// a fresh session, populated from the checkpoint for a resumed one.
#[derive(Default)]
struct Restored {
    num_devices: usize,
    seed: u64,
    best: Option<(BitVec, Energy)>,
    reached_target: bool,
    time_to_target: Option<Duration>,
    history: Vec<HistoryPoint>,
    received: u64,
    inserted: u64,
    base_elapsed: Duration,
    /// Per-device `(host_rejected, requeued)` pairs.
    host_sides: Vec<(u64, u64)>,
    baselines: Vec<DeviceBaseline>,
    generation: u64,
    ckpt_restores: u64,
    ckpt_rejected: u64,
}

/// Converts checkpointed nanoseconds (u128, as `Duration::as_nanos`
/// yields) back to a `Duration` without truncating past u64.
fn duration_from_ns(ns: u128) -> Duration {
    let secs = (ns / 1_000_000_000) as u64;
    let nanos = (ns % 1_000_000_000) as u32;
    Duration::new(secs, nanos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopCondition;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "abs-session-{}-{}-{tag}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ckpt.bin")
    }

    fn small_cfg(stop: StopCondition) -> AbsConfig {
        let mut cfg = AbsConfig::small();
        cfg.stop = stop;
        cfg
    }

    #[test]
    fn session_lifecycle_matches_solve() {
        let mut rng = StdRng::seed_from_u64(21);
        let q = Qubo::random(64, &mut rng);
        let cfg = small_cfg(StopCondition::flips(50_000));
        let session = AbsSession::start(cfg, &q).unwrap();
        let r = session.run_to_completion().unwrap();
        assert!(r.total_flips >= 50_000);
        assert_eq!(r.search_units, 8);
        assert_eq!(r.evaluated, (r.total_flips + r.search_units) * 65);
        assert_eq!(r.best_energy, q.energy(&r.best));
    }

    #[test]
    fn early_stop_returns_an_exact_result() {
        // Stop long before the flip budget: the result must still carry
        // an exact best and self-consistent accounting.
        let mut rng = StdRng::seed_from_u64(22);
        let q = Qubo::random(48, &mut rng);
        let cfg = small_cfg(StopCondition::flips(u64::MAX / 2));
        let mut session = AbsSession::start(cfg, &q).unwrap();
        for _ in 0..50 {
            session.poll().unwrap();
        }
        let r = session.stop().unwrap();
        assert_eq!(r.best_energy, q.energy(&r.best));
        assert_eq!(r.evaluated, (r.total_flips + r.search_units) * 49);
        assert!(!r.reached_target);
    }

    #[test]
    fn steal_best_observes_improvements_without_stopping() {
        let mut rng = StdRng::seed_from_u64(23);
        let q = Qubo::random(64, &mut rng);
        let cfg = small_cfg(StopCondition::flips(u64::MAX / 2));
        let mut session = AbsSession::start(cfg, &q).unwrap();
        let mut seen = None;
        for _ in 0..100_000 {
            session.poll().unwrap();
            if let Some((x, e)) = session.best() {
                assert_eq!(q.energy(x), e, "stolen best must be exact");
                seen = Some(e);
                break;
            }
        }
        assert!(seen.is_some(), "no best observed in 100k polls");
        let r = session.stop().unwrap();
        assert!(r.best_energy <= seen.unwrap());
    }

    #[test]
    fn checkpoint_now_requires_a_configured_path() {
        let mut rng = StdRng::seed_from_u64(24);
        let q = Qubo::random(32, &mut rng);
        let cfg = small_cfg(StopCondition::flips(1_000));
        let mut session = AbsSession::start(cfg, &q).unwrap();
        let err = session.checkpoint_now().unwrap_err();
        assert!(matches!(err, AbsError::Checkpoint(_)));
        let _ = session.stop().unwrap();
    }

    #[test]
    fn checkpoint_and_resume_continue_cumulative_accounting() {
        let mut rng = StdRng::seed_from_u64(25);
        let q = Qubo::random(48, &mut rng);
        let path = temp_path("cumulative");

        let mut cfg = small_cfg(StopCondition::flips(u64::MAX / 2));
        cfg.checkpoint.out = Some(path.clone());
        let mut session = AbsSession::start(cfg.clone(), &q).unwrap();
        // Poll until some work happened and all 8 blocks have registered
        // (on a loaded host 5 000 flips can finish before the second
        // worker starts, and the checkpoint would then carry 4 units),
        // then checkpoint and abandon the session (drop joins the
        // machine — a graceful "crash").
        let deadline = Instant::now() + Duration::from_secs(60);
        while (session.total_flips() < 5_000 || session.total_units() < 8)
            && Instant::now() < deadline
        {
            session.poll().unwrap();
        }
        session.checkpoint_now().unwrap();
        assert_eq!(session.generation(), 1);
        let flips_at_ckpt = {
            let (ckpt, rejected) = load_checkpoint(&path, None).unwrap();
            assert_eq!(rejected, 0);
            assert_eq!(ckpt.generation, 1);
            let base: u64 = ckpt.devices.iter().map(|b| b.flips).sum();
            // Quiesce consistency: the dense invariant holds on the
            // checkpointed baseline itself.
            let units: u64 = ckpt.devices.iter().map(|b| b.units).sum();
            assert_eq!(units, 8, "every block registered before the checkpoint");
            let evaluated: u64 = ckpt.devices.iter().map(|b| b.evaluated).sum();
            assert_eq!(evaluated, (base + units) * 49);
            base
        };
        assert!(flips_at_ckpt >= 5_000);
        drop(session);

        // Resume with a *cumulative* flip budget only slightly above the
        // checkpoint: the restored baseline must count toward it.
        let mut cfg2 = cfg;
        cfg2.stop = StopCondition::flips(flips_at_ckpt + 1_000);
        let session = AbsSession::resume(cfg2, &q, &path).unwrap();
        assert_eq!(session.generation(), 1);
        assert!(session.total_flips() >= flips_at_ckpt);
        let r = session.run_to_completion().unwrap();
        assert!(r.total_flips >= flips_at_ckpt + 1_000);
        assert_eq!(r.best_energy, q.energy(&r.best));
        // Resumed run re-registers its 8 blocks on top of the baseline's.
        assert_eq!(r.search_units, 16);
        assert_eq!(r.evaluated, (r.total_flips + r.search_units) * 49);
        // Telemetry agrees with the folded scalars on the final poll.
        assert_eq!(r.metrics.counter_total("abs_flips_total"), r.total_flips);
        assert_eq!(r.metrics.counter_total("abs_checkpoint_restores_total"), 1);
        assert_eq!(r.metrics.gauge("abs_session_generation"), Some(1.0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn resume_rejects_a_mismatched_problem() {
        let mut rng = StdRng::seed_from_u64(26);
        let q = Qubo::random(32, &mut rng);
        let path = temp_path("mismatch");
        let mut cfg = small_cfg(StopCondition::flips(u64::MAX / 2));
        cfg.checkpoint.out = Some(path.clone());
        let mut session = AbsSession::start(cfg.clone(), &q).unwrap();
        while session.best().is_none() {
            session.poll().unwrap();
        }
        session.checkpoint_now().unwrap();
        drop(session);

        // Wrong size: refused by the n check.
        let q16 = Qubo::random(16, &mut rng);
        let err = AbsSession::resume(cfg.clone(), &q16, &path).unwrap_err();
        assert!(matches!(err, AbsError::Checkpoint(_)));
        // Same size, different problem: refused by the best re-audit.
        let q32 = Qubo::random(32, &mut rng);
        let err = AbsSession::resume(cfg.clone(), &q32, &path).unwrap_err();
        assert!(matches!(err, AbsError::Checkpoint(_)));
        // Wrong device count: refused by the baseline check.
        let mut cfg2 = cfg;
        cfg2.machine.num_devices = 2;
        let err = AbsSession::resume(cfg2, &q, &path).unwrap_err();
        assert!(matches!(err, AbsError::Checkpoint(_)));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn denied_checkpoint_write_surfaces_through_poll() {
        // A stride checkpoint whose write the filesystem refuses must
        // come back as `Err(Checkpoint)` from `poll`, not vanish into a
        // log line — the serving layer turns this into `Failed{reason}`.
        let mut rng = StdRng::seed_from_u64(29);
        let q = Qubo::random(32, &mut rng);
        let path = temp_path("deny");
        let mut cfg = small_cfg(StopCondition::flips(u64::MAX / 2));
        cfg.checkpoint.out = Some(path.clone());
        cfg.checkpoint.interval = Some(Duration::from_millis(1));
        cfg.machine.device.fault = Some(std::sync::Arc::new(
            vgpu::FaultPlan::default().deny_write(0),
        ));
        let mut session = AbsSession::start(cfg, &q).unwrap();
        let err = loop {
            match session.poll() {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        match err {
            AbsError::Checkpoint(reason) => {
                assert!(reason.contains("injected write denial"), "{reason}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn stride_checkpoints_fire_from_the_poll_loop() {
        let mut rng = StdRng::seed_from_u64(27);
        let q = Qubo::random(32, &mut rng);
        let path = temp_path("stride");
        let mut cfg = small_cfg(StopCondition::timeout(Duration::from_millis(400)));
        cfg.checkpoint.out = Some(path.clone());
        cfg.checkpoint.interval = Some(Duration::from_millis(50));
        let session = AbsSession::start(cfg, &q).unwrap();
        let r = session.run_to_completion().unwrap();
        let (ckpt, _) = load_checkpoint(&path, None).unwrap();
        assert!(ckpt.generation >= 1, "at least one stride checkpoint");
        assert!(r.metrics.counter_total("abs_checkpoint_writes_total") >= 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
