//! Configuration of an ABS run.

use crate::error::AbsError;
use qubo::{BitVec, Energy};
use qubo_ga::GaConfig;
use std::time::Duration;
use vgpu::{DeviceConfig, MachineConfig, WindowSchedule};

/// Host-side fault tolerance: how the solve loop detects devices that
/// stop making progress and how much it distrusts device-reported
/// energies.
///
/// The health region in [`vgpu::GlobalMem`] reports *loud* failures
/// (quarantined blocks, dead devices). Silent stalls — a device whose
/// counter simply stops moving — are invisible there, so the host
/// watchdog compares progress across devices: a device accrues one
/// *stale round* for each poll round in which some other device made
/// counter progress while it did not, and is declared stalled when the
/// deadline is exceeded. Its in-flight targets are requeued to healthy
/// devices and the solve completes in degraded mode.
#[derive(Clone, Debug)]
pub struct WatchdogConfig {
    /// Stale poll rounds (rounds where *other* devices progressed but
    /// this one did not) before a device is declared stalled. `0`
    /// disables stall detection. The default is deliberately large so
    /// healthy-but-slow devices on loaded CI machines are never
    /// misdiagnosed.
    pub stall_poll_rounds: u64,
    /// Absolute wall-clock ceiling on the solve, checked even while
    /// waiting for a first result. `None` means no ceiling. This is a
    /// backstop against total device failure, not a tuning knob — use
    /// [`StopCondition::timeout`] for ordinary time budgets.
    pub hard_timeout: Option<Duration>,
    /// Host-side energy audit stride: `0` audits only records that
    /// would improve the incumbent best (the default — the reported
    /// best is always exact); `k > 0` additionally re-computes the
    /// energy of every `k`-th received record. A deliberate deviation
    /// from the paper's "host never computes the energy" rule; see
    /// DESIGN.md.
    pub audit_stride: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            stall_poll_rounds: 100_000,
            hard_timeout: None,
            audit_stride: 0,
        }
    }
}

/// Metrics exposition settings.
///
/// The solver always maintains the telemetry registry and attaches a
/// final [`abs_telemetry::MetricsSnapshot`] to the
/// [`SolveResult`](crate::SolveResult); this config only controls
/// *periodic* file exposition during the run. The host writes the file
/// at poll boundaries — device code never touches the filesystem or a
/// clock (Fig. 5 discipline).
#[derive(Clone, Debug, Default)]
pub struct MetricsConfig {
    /// Periodic exposition file. Extension `.json` selects the JSON
    /// snapshot format; anything else gets Prometheus text. `None`
    /// disables periodic writes.
    pub out: Option<std::path::PathBuf>,
    /// Minimum interval between periodic writes. `None` with `out` set
    /// writes only the final snapshot (on solve completion).
    pub interval: Option<Duration>,
}

/// Crash-safe checkpointing of the solve session (DESIGN.md §11).
///
/// When `out` is set, the host serializes the session — GA pool, RNG
/// streams, best records with exact audited energies, and cumulative
/// accounting — to a versioned binary file with per-section CRC32,
/// published atomically (write-tmp / fsync / rename) so a crash at any
/// instant leaves either the previous generation or the new one, never a
/// torn file that silently resumes wrong. The last `keep` generations
/// are retained (`path`, `path.1`, `path.2`, …); restore falls back past
/// CRC-rejected generations to the newest valid one.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file path. `None` disables checkpointing entirely.
    pub out: Option<std::path::PathBuf>,
    /// Minimum interval between stride checkpoints written from the
    /// poll loop. `None` with `out` set writes only explicit
    /// checkpoints (graceful shutdown / `checkpoint_now`).
    pub interval: Option<Duration>,
    /// Checkpoint generations kept on disk, including the newest.
    /// Clamped to at least 1 when writing.
    pub keep: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            out: None,
            interval: None,
            keep: 3,
        }
    }
}

/// When the host stops the search. Conditions compose: the run stops as
/// soon as *any* active condition is met. At least one condition must be
/// set.
#[derive(Clone, Debug, Default)]
pub struct StopCondition {
    /// Stop once the best energy is `≤ target_energy` (the paper's
    /// time-to-solution experiments, Table 1).
    pub target_energy: Option<Energy>,
    /// Wall-clock budget.
    pub timeout: Option<Duration>,
    /// Budget on total device flips (deterministic-ish work budget for
    /// tests and benches; checked at host poll granularity).
    pub max_flips: Option<u64>,
}

impl StopCondition {
    /// Stop at a target energy.
    #[must_use]
    pub fn target(target_energy: Energy) -> Self {
        Self {
            target_energy: Some(target_energy),
            ..Self::default()
        }
    }

    /// Stop after a wall-clock duration.
    #[must_use]
    pub fn timeout(d: Duration) -> Self {
        Self {
            timeout: Some(d),
            ..Self::default()
        }
    }

    /// Stop after a total flip budget.
    #[must_use]
    pub fn flips(max: u64) -> Self {
        Self {
            max_flips: Some(max),
            ..Self::default()
        }
    }

    /// Adds a target energy to an existing condition.
    #[must_use]
    pub fn with_target(mut self, target_energy: Energy) -> Self {
        self.target_energy = Some(target_energy);
        self
    }

    /// Adds a timeout to an existing condition.
    #[must_use]
    pub fn with_timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }

    /// `true` if at least one condition is set.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.target_energy.is_some() || self.timeout.is_some() || self.max_flips.is_some()
    }
}

/// Full configuration of an ABS run.
#[derive(Clone, Debug)]
pub struct AbsConfig {
    /// Solution-pool capacity `m` (§3.1).
    pub pool_size: usize,
    /// Genetic-operator mix.
    pub ga: GaConfig,
    /// Devices and per-device execution parameters.
    pub machine: MachineConfig,
    /// Targets pushed to each device at startup, as a multiple of its
    /// block count (the devices drain one target per bulk iteration).
    pub initial_targets_per_block: usize,
    /// Stop condition (must be bounded).
    pub stop: StopCondition,
    /// Master seed; pool, GA and policies derive their streams from it.
    pub seed: u64,
    /// Warm-start solutions: seeded into the pool (unevaluated — the
    /// host never computes energies) and shipped as the very first
    /// targets, so devices evaluate them exactly via straight search.
    /// Lengths must match the problem's bit count.
    pub initial_solutions: Vec<BitVec>,
    /// Stall detection, hard timeout, and host-side energy auditing.
    pub watchdog: WatchdogConfig,
    /// Periodic metrics exposition (the final snapshot is always
    /// attached to the result).
    pub metrics: MetricsConfig,
    /// Crash-safe session checkpointing (disabled by default).
    pub checkpoint: CheckpointConfig,
}

impl Default for AbsConfig {
    fn default() -> Self {
        Self {
            pool_size: 64,
            ga: GaConfig::default(),
            machine: MachineConfig::default(),
            initial_targets_per_block: 2,
            stop: StopCondition::default(),
            seed: 0,
            initial_solutions: Vec::new(),
            watchdog: WatchdogConfig::default(),
            metrics: MetricsConfig::default(),
            checkpoint: CheckpointConfig::default(),
        }
    }
}

impl AbsConfig {
    /// A modest CPU preset for tests, examples and docs: one device,
    /// 8 blocks on up to 4 workers, short local searches.
    #[must_use]
    pub fn small() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get().min(4))
            .unwrap_or(1);
        Self {
            pool_size: 32,
            machine: MachineConfig {
                num_devices: 1,
                device: DeviceConfig {
                    blocks_override: Some(8),
                    workers,
                    local_steps: 128,
                    windows: WindowSchedule::PowersOfTwo,
                    ..DeviceConfig::default()
                },
            },
            ..Self::default()
        }
    }

    /// Applies a granted device-pool lease geometry: the session runs
    /// on exactly the leased `devices × blocks_per_device`, no more.
    /// Scheduling glue for `vgpu::DevicePool` — the server's runner
    /// leases first, then shapes the machine with this.
    pub fn apply_lease(&mut self, devices: usize, blocks_per_device: usize) {
        self.machine.num_devices = devices.max(1);
        self.machine.device.blocks_override = Some(blocks_per_device.max(1));
    }

    /// Installs warm-start seeds (prior incumbents from a
    /// [`crate::ProblemCache`] hit): they join the GA pool unevaluated
    /// and ship as the very first targets, so the bulk search resumes
    /// from the cached bests instead of random bits.
    pub fn apply_warm_seeds(&mut self, seeds: Vec<qubo::BitVec>) {
        self.initial_solutions = seeds;
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`AbsError::InvalidConfig`] on an unbounded stop
    /// condition, an empty pool, an invalid GA mix, a device-less
    /// machine, or an empty window cycle.
    pub fn validate(&self) -> Result<(), AbsError> {
        if !self.stop.is_bounded() {
            return Err(AbsError::InvalidConfig("stop condition must be bounded"));
        }
        if self.pool_size == 0 {
            return Err(AbsError::InvalidConfig(
                "pool must hold at least one solution",
            ));
        }
        self.ga.check().map_err(AbsError::InvalidConfig)?;
        if self.machine.num_devices == 0 {
            return Err(AbsError::InvalidConfig("machine needs at least one device"));
        }
        if matches!(&self.machine.device.windows, WindowSchedule::Cycle(ls) if ls.is_empty()) {
            return Err(AbsError::InvalidConfig(
                "window cycle needs at least one length",
            ));
        }
        if self.checkpoint.out.is_some() && self.checkpoint.keep == 0 {
            return Err(AbsError::InvalidConfig(
                "checkpointing must keep at least one generation",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_constructors_and_composition() {
        let s = StopCondition::target(-5).with_timeout(Duration::from_secs(1));
        assert_eq!(s.target_energy, Some(-5));
        assert!(s.timeout.is_some());
        assert!(s.is_bounded());
        assert!(!StopCondition::default().is_bounded());
        assert!(StopCondition::flips(10).is_bounded());
    }

    #[test]
    fn unbounded_stop_rejected() {
        assert_eq!(
            AbsConfig::default().validate(),
            Err(AbsError::InvalidConfig("stop condition must be bounded"))
        );
    }

    #[test]
    fn empty_pool_and_deviceless_machine_rejected() {
        let mut c = AbsConfig::small();
        c.stop = StopCondition::flips(100);
        c.pool_size = 0;
        assert!(matches!(c.validate(), Err(AbsError::InvalidConfig(_))));
        let mut c = AbsConfig::small();
        c.stop = StopCondition::flips(100);
        c.machine.num_devices = 0;
        assert!(matches!(c.validate(), Err(AbsError::InvalidConfig(_))));
        // An empty cycle would panic in every device worker while its
        // blocks are built, before any block's panic isolation exists.
        let mut c = AbsConfig::small();
        c.stop = StopCondition::flips(100);
        c.machine.device.windows = WindowSchedule::Cycle(vec![]);
        assert_eq!(
            c.validate(),
            Err(AbsError::InvalidConfig(
                "window cycle needs at least one length"
            ))
        );
    }

    #[test]
    fn small_preset_is_valid_once_bounded() {
        let mut c = AbsConfig::small();
        c.stop = StopCondition::flips(100);
        c.validate().unwrap();
    }

    #[test]
    fn checkpointing_with_zero_generations_is_rejected() {
        let mut c = AbsConfig::small();
        c.stop = StopCondition::flips(100);
        c.checkpoint.out = Some("ckpt.bin".into());
        c.checkpoint.keep = 0;
        assert!(matches!(c.validate(), Err(AbsError::InvalidConfig(_))));
        c.checkpoint.keep = 1;
        c.validate().unwrap();
        // keep == 0 without a path is inert, hence fine.
        c.checkpoint.out = None;
        c.checkpoint.keep = 0;
        c.validate().unwrap();
    }

    #[test]
    fn watchdog_defaults_are_conservative() {
        let w = WatchdogConfig::default();
        assert_eq!(w.stall_poll_rounds, 100_000);
        assert!(w.hard_timeout.is_none());
        assert_eq!(w.audit_stride, 0);
    }
}
