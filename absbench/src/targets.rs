//! Fixed instances and their calibrated targets.
//!
//! Instance seeds are constants, separate from the solver seeds that
//! the workload seed derives, so every run solves the same instances.
//! Targets come from `--calibrate` (see `absbench/README.md`): each
//! instance is solved for a long budget with several seeds, and the
//! paper's Table 1 (a) fraction (1.00, 0.99 or 0.95) of the best cut or
//! energy found becomes the target. Re-run the calibration when an
//! instance or generator changes, and copy its output here.

/// One fixed instance with its calibrated target energy.
#[derive(Clone, Copy, Debug)]
pub struct Fixed {
    /// Short name used in reports.
    pub name: &'static str,
    /// Instance seed.
    pub seed: u64,
    /// Table 1 (a) fraction applied to the best found.
    pub fraction: f64,
    /// Best energy the calibration found.
    pub best: i64,
    /// Target energy: `-ceil(fraction · |best|)` for negative bests.
    pub target: i64,
}

/// The `gset-tts` instances, by catalog name (`qubo_problems::gset`).
/// G1 runs at 0.99 rather than the paper's 1.00: at 1.00 of the
/// calibration best a solve takes seconds, and a run needs 100 solves
/// per instance.
pub const GSET_TTS: [Fixed; 2] = [
    Fixed {
        name: "G1",
        seed: 11,
        fraction: 0.99,
        best: -11_562,
        target: -11_447,
    },
    Fixed {
        name: "G22",
        seed: 22,
        fraction: 0.99,
        best: -13_290,
        target: -13_158,
    },
];

/// The G55 stand-in: `server-mix` edge lists and the problem-form
/// probes. Too slow per solve (about 0.7 s, mostly O(n²) set-up) for
/// 100 time-to-target solves in one run.
pub const G55: Fixed = Fixed {
    name: "G55",
    seed: 55,
    fraction: 0.95,
    best: -10_230,
    target: -9_719,
};

/// The dense n = 256 random instances of `server-mix`.
pub const DENSE: [Fixed; 4] = [
    Fixed {
        name: "R256a",
        seed: 2561,
        fraction: 0.99,
        best: -43_306_863,
        target: -42_873_795,
    },
    Fixed {
        name: "R256b",
        seed: 2562,
        fraction: 0.99,
        best: -49_130_825,
        target: -48_639_517,
    },
    Fixed {
        name: "R256c",
        seed: 2563,
        fraction: 0.99,
        best: -45_260_128,
        target: -44_807_527,
    },
    Fixed {
        name: "R256d",
        seed: 2564,
        fraction: 0.99,
        best: -45_712_698,
        target: -45_255_572,
    },
];

/// Size of the dense `server-mix` instances.
pub const DENSE_N: usize = 256;

/// Target energy for a best found: the fraction of its magnitude,
/// rounded up, so a solve meeting it is within the fraction of the best.
#[must_use]
pub fn target_for(best: i64, fraction: f64) -> i64 {
    if best >= 0 {
        return best;
    }
    -((fraction * (-best) as f64).ceil() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_follow_their_fractions() {
        assert_eq!(target_for(-10_000, 0.95), -9_500);
        assert_eq!(target_for(-101, 0.99), -100);
        assert_eq!(target_for(-7, 1.0), -7);
        for f in GSET_TTS.iter().chain([&G55]).chain(&DENSE) {
            assert_eq!(f.target, target_for(f.best, f.fraction), "{}", f.name);
        }
    }
}
