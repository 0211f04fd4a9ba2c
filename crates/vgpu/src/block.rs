//! One "CUDA block": an independent bulk-search unit (§3.2).

use crate::buffers::{GlobalMem, SolutionRecord};
use crate::fault::InjectedPanic;
use abs_telemetry::Event;
use qubo::{Qubo, SparseQubo};
use qubo_search::{
    local_search, straight_search, DeltaAcc, DeltaTracker, FlipKernel, GreedyPolicy,
    MetropolisPolicy, RandomPolicy, SearchTracker, SelectionPolicy, SparseDeltaTracker,
    WindowMinPolicy,
};

/// How window lengths (the temperature analogue of the selection policy,
/// Fig. 2) are assigned across blocks. As with parallel tempering, the
/// paper sets "a different temperature for each search".
#[derive(Clone, Debug)]
pub enum WindowSchedule {
    /// Every block uses the same window length.
    Fixed(usize),
    /// Block `b` gets `2^(b mod k)` where `k` makes the largest window
    /// `≤ n` — a geometric ladder over the whole temperature range.
    PowersOfTwo,
    /// Explicit window lengths, cycled over by block index.
    Cycle(Vec<usize>),
}

impl WindowSchedule {
    /// The window length for global block index `block` on an `n`-bit
    /// problem.
    ///
    /// # Panics
    /// Panics if a `Cycle` schedule is empty.
    #[must_use]
    pub fn window_for(&self, block: usize, n: usize) -> usize {
        match self {
            Self::Fixed(l) => (*l).clamp(1, n.max(1)),
            Self::PowersOfTwo => {
                let k = (usize::BITS - n.max(1).leading_zeros()) as usize; // ⌊log2 n⌋+1
                (1usize << (block % k)).min(n.max(1))
            }
            Self::Cycle(ls) => {
                assert!(!ls.is_empty(), "empty window cycle");
                // invariant: index < ls.len() by the modulo.
                ls[block % ls.len()].clamp(1, n.max(1))
            }
        }
    }
}

/// The local-search algorithm a block runs (§5 future work: "each CUDA
/// block would perform different algorithms"). All kinds drive the same
/// forced-flip loop; they differ in how the next bit is selected.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicyKind {
    /// The paper's deterministic sliding-window minimum (Fig. 2), using
    /// the block's configured window length and offset. The production
    /// default: consumes no random numbers.
    Window,
    /// Global minimum-Δ flip (the ℓ = n extreme).
    Greedy,
    /// Uniform random bit flip (the ℓ = 1 extreme, randomized).
    Random,
    /// Metropolis acceptance in the forced-flip framework (Eq. (7)).
    Metropolis {
        /// Temperature `k_B·t` in energy units.
        // abs-lint: allow(device-no-float) -- Metropolis variant config; the Window kernel is float-free
        temperature: f64,
        /// Per-selection geometric cooling factor (1.0 = constant).
        // abs-lint: allow(device-no-float) -- Metropolis variant config; the Window kernel is float-free
        cooling: f64,
    },
}

/// Runtime policy state: one variant per [`PolicyKind`], enum-dispatched
/// so a heterogeneous device needs no boxing in the hot loop.
#[derive(Clone, Debug)]
enum RuntimePolicy {
    Window(WindowMinPolicy),
    Greedy(GreedyPolicy),
    Random(RandomPolicy),
    Metropolis(MetropolisPolicy),
}

impl RuntimePolicy {
    fn build(kind: &PolicyKind, window: usize, offset: usize, seed: u64) -> Self {
        match kind {
            PolicyKind::Window => Self::Window(WindowMinPolicy::with_offset(window, offset)),
            PolicyKind::Greedy => Self::Greedy(GreedyPolicy),
            PolicyKind::Random => Self::Random(RandomPolicy::new(seed)),
            PolicyKind::Metropolis {
                temperature,
                cooling,
            } => Self::Metropolis(MetropolisPolicy::new(*temperature, *cooling, seed)),
        }
    }
}

/// Enum dispatch of the policy trait, generic over the Δ accumulator
/// width so one block type drives both the i32 trackers devices run and
/// the i64 reference trackers of the tests. The window and greedy
/// variants expose their windows, letting [`local_search`] run the
/// fused flip+select kernel.
impl<A: DeltaAcc> SelectionPolicy<A> for RuntimePolicy {
    fn select(&mut self, deltas: &[A], x: &qubo::BitVec) -> usize {
        match self {
            Self::Window(p) => p.select(deltas, x),
            Self::Greedy(p) => SelectionPolicy::<A>::select(p, deltas, x),
            Self::Random(p) => SelectionPolicy::<A>::select(p, deltas, x),
            Self::Metropolis(p) => SelectionPolicy::<A>::select(p, deltas, x),
        }
    }

    fn next_window(&mut self, n: usize) -> Option<(usize, usize)> {
        match self {
            Self::Window(p) => SelectionPolicy::<A>::next_window(p, n),
            Self::Greedy(p) => SelectionPolicy::<A>::next_window(p, n),
            Self::Random(p) => SelectionPolicy::<A>::next_window(p, n),
            Self::Metropolis(p) => SelectionPolicy::<A>::next_window(p, n),
        }
    }

    fn reset(&mut self) {
        match self {
            Self::Window(p) => SelectionPolicy::<A>::reset(p),
            Self::Greedy(p) => SelectionPolicy::<A>::reset(p),
            Self::Random(p) => SelectionPolicy::<A>::reset(p),
            Self::Metropolis(p) => SelectionPolicy::<A>::reset(p),
        }
    }
}

/// Adaptive algorithm switching — the paper's future-work proposal
/// ("each CUDA block would perform different algorithms and possibly
/// they are changed automatically", §5), implemented as automatic
/// window-length re-tuning.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Bulk iterations without improving this block's all-time best
    /// before the block switches its window length.
    pub patience: u32,
}

/// Per-block configuration.
#[derive(Clone, Debug)]
pub struct BlockConfig {
    /// Flips of the fixed-length local search per bulk iteration
    /// (§3.2 Step 4b).
    pub local_steps: usize,
    /// Window length of this block's selection policy.
    pub window: usize,
    /// Initial window offset (desynchronizes blocks sharing a window).
    pub offset: usize,
    /// Optional automatic window re-tuning.
    pub adaptive: Option<AdaptiveConfig>,
    /// The selection algorithm this block runs.
    pub policy: PolicyKind,
    /// Flip kernel this block's tracker runs. Devices detect once per
    /// launch ([`FlipKernel::detect`]) and hand every block the same
    /// choice; wide (`i64`) and CSR trackers ignore it and run scalar.
    pub kernel: FlipKernel,
}

/// One bulk-search unit: the state of a CUDA block of the paper's kernel.
///
/// A block owns a [`DeltaTracker`] (current solution + Δ vector, which
/// the real kernel keeps in its register file) and a deterministic
/// [`WindowMinPolicy`]. Its life is a loop of bulk iterations:
///
/// 1. read a target `T` from the target buffer,
/// 2. reset the best record,
/// 3. straight-search from the current solution `C` to `T`,
/// 4. local-search `local_steps` forced flips from `T`,
/// 5. store the best-found solution in the solution buffer.
///
/// If the host has not provided a target (the buffer is empty), the
/// block skips the straight search and keeps local-searching from where
/// it stands — it never blocks and never synchronizes with other blocks.
///
/// The tracker type `T` carries both storage arms: devices build dense
/// [`BlockRunner::with_width`] blocks (with `A = i32`, which every
/// constructible problem's Δ bound fits, halving the flip kernel's
/// memory traffic against `i64`) or
/// CSR [`BlockRunner::sparse`] blocks when the density dispatch picks
/// the O(degree) tier. Everything past construction is generic over
/// [`SearchTracker`].
pub struct BlockRunner<T: SearchTracker> {
    tracker: T,
    policy: RuntimePolicy,
    config: BlockConfig,
    /// Best energy this block has ever reported (adaptive switching
    /// watches this, not the per-iteration best that Step 3 resets).
    all_time_best: qubo::Energy,
    /// Iterations since `all_time_best` improved.
    stale: u32,
    /// Number of automatic window switches performed.
    switches: u32,
}

impl<'q> BlockRunner<DeltaTracker<'q, qubo::Energy>> {
    /// Creates a default-width (`i64`) dense block at the canonical zero
    /// start.
    #[must_use]
    pub fn new(qubo: &'q Qubo, config: BlockConfig) -> Self {
        Self::with_width(qubo, config)
    }
}

impl<'q, A: DeltaAcc> BlockRunner<DeltaTracker<'q, A>> {
    /// Creates a dense block with Δ accumulator width `A` at the
    /// canonical zero start.
    ///
    /// # Panics
    /// Panics if the problem's Δ bound does not fit width `A`.
    #[must_use]
    pub fn with_width(qubo: &'q Qubo, config: BlockConfig) -> Self {
        let tracker = DeltaTracker::with_kernel(qubo, config.kernel);
        Self::from_tracker(tracker, config)
    }
}

impl<'q> BlockRunner<SparseDeltaTracker<'q>> {
    /// Creates a CSR block at the canonical zero start (the O(degree)
    /// flip tier; `config.kernel` is ignored — the sparse arm is scalar).
    #[must_use]
    pub fn sparse(qubo: &'q SparseQubo, config: BlockConfig) -> Self {
        Self::from_tracker(SparseDeltaTracker::new(qubo), config)
    }
}

impl<T: SearchTracker> BlockRunner<T> {
    /// Wraps an already-initialized tracker; the shared tail of every
    /// public constructor.
    fn from_tracker(tracker: T, config: BlockConfig) -> Self {
        let seed = config.offset as u64 ^ 0x5851_f42d_4c95_7f2d;
        let policy = RuntimePolicy::build(
            &config.policy,
            config.window,
            config.offset % tracker.n(),
            seed,
        );
        Self {
            tracker,
            policy,
            config,
            all_time_best: qubo::Energy::MAX,
            stale: 0,
            switches: 0,
        }
    }

    /// The block's tracker (tests and diagnostics).
    #[must_use]
    pub fn tracker(&self) -> &T {
        &self.tracker
    }

    /// Current window length of the selection policy (`None` for
    /// non-window policies).
    #[must_use]
    pub fn window(&self) -> Option<usize> {
        match &self.policy {
            RuntimePolicy::Window(p) => Some(p.window()),
            _ => None,
        }
    }

    /// Number of automatic window switches performed so far.
    #[must_use]
    pub fn switches(&self) -> u32 {
        self.switches
    }

    /// Runs one bulk iteration against the device's global memory.
    /// Returns the number of flips performed.
    pub fn bulk_iteration(&mut self, mem: &GlobalMem) -> u64 {
        self.bulk_iteration_injected(mem, None)
    }

    /// [`BlockRunner::bulk_iteration`] with an optional injected
    /// mid-iteration panic (fault rehearsal): the panic fires after the
    /// straight search and before the local search, so the straight-walk
    /// flips have happened in the tracker but were never reported to
    /// `mem` — exactly the partial-work loss a real kernel assert causes.
    pub fn bulk_iteration_injected(
        &mut self,
        mem: &GlobalMem,
        mid_panic: Option<InjectedPanic>,
    ) -> u64 {
        let target = mem.pop_target();
        self.tracker.reset_best();
        let e0 = self.tracker.evaluated();
        let mut flips = 0u64;
        if let Some(t) = target {
            // The walk length equals the Hamming distance to the target
            // (§3.1), so the event stream doubles as a distance trace.
            let walk = straight_search(&mut self.tracker, &t);
            mem.record_event(Event::straight_walk(walk));
            flips += walk;
        }
        if let Some(injected) = mid_panic {
            std::panic::panic_any(injected);
        }
        // Fused driver: window/greedy policies collapse each
        // select-then-flip pair into one Δ-vector traversal.
        flips += local_search(&mut self.tracker, &mut self.policy, self.config.local_steps);
        let (bx, be) = self.tracker.best();
        // A block's own record is always well-formed; validation exists
        // for the corrupted-transfer case.
        let _ = mem.push_result(SolutionRecord {
            x: bx.clone(),
            energy: be,
        });
        mem.add_flips(flips);
        // Per-iteration evaluation delta: flips·(n+1) on the dense arm,
        // degree-honest under CSR (see GlobalMem::total_evaluated).
        mem.add_evaluated(self.tracker.evaluated() - e0);
        mem.add_iteration();
        self.adapt(be, mem);
        flips
    }

    /// Future-work adaptive switching: when the block stops improving
    /// its own all-time best for `patience` iterations, double the
    /// window length (wrapping from n back to 1) — i.e. walk the
    /// temperature ladder automatically instead of keeping the
    /// statically assigned rung. Applies to window policies only; other
    /// policy kinds have no ladder to walk and are left unchanged.
    fn adapt(&mut self, iteration_best: qubo::Energy, mem: &GlobalMem) {
        if iteration_best < self.all_time_best {
            self.all_time_best = iteration_best;
            self.stale = 0;
            return;
        }
        let Some(cfg) = self.config.adaptive else {
            return;
        };
        let RuntimePolicy::Window(w) = &self.policy else {
            return;
        };
        self.stale += 1;
        if self.stale >= cfg.patience.max(1) {
            let n = self.tracker.n();
            let next = if w.window() >= n {
                1
            } else {
                (w.window() * 2).min(n)
            };
            self.policy = RuntimePolicy::Window(WindowMinPolicy::with_offset(next, w.offset()));
            mem.record_event(Event::window_switch(next as u64));
            self.switches += 1;
            self.stale = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qubo::BitVec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        Qubo::random(n, &mut rng)
    }

    fn cfg(window: usize, steps: usize) -> BlockConfig {
        BlockConfig {
            local_steps: steps,
            window,
            offset: 0,
            adaptive: None,
            policy: PolicyKind::Window,
            kernel: FlipKernel::detect(),
        }
    }

    #[test]
    fn iteration_with_target_reports_exact_energy() {
        let q = random_qubo(48, 1);
        let mem = GlobalMem::new();
        let mut rng = StdRng::seed_from_u64(2);
        mem.push_target(BitVec::random(48, &mut rng));
        let mut b = BlockRunner::new(&q, cfg(8, 100));
        let flips = b.bulk_iteration(&mem);
        assert!(flips >= 100, "straight + local flips");
        let rec = &mem.drain_results()[0];
        assert_eq!(rec.energy, q.energy(&rec.x), "stored energy must be exact");
        assert_eq!(mem.total_flips(), flips);
        assert_eq!(mem.total_iterations(), 1);
    }

    #[test]
    fn iteration_without_target_still_searches() {
        let q = random_qubo(32, 3);
        let mem = GlobalMem::new();
        let mut b = BlockRunner::new(&q, cfg(4, 50));
        let flips = b.bulk_iteration(&mem);
        assert_eq!(flips, 50);
        assert_eq!(mem.counter(), 1);
    }

    #[test]
    fn iterations_chain_from_last_solution() {
        // Fig. 4: iteration i starts where iteration i−1 ended; the
        // tracker's state stays exact across iterations.
        let q = random_qubo(40, 4);
        let mem = GlobalMem::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = BlockRunner::new(&q, cfg(8, 60));
        for _ in 0..4 {
            mem.push_target(BitVec::random(40, &mut rng));
            b.bulk_iteration(&mem);
            b.tracker().verify();
        }
        assert_eq!(mem.total_iterations(), 4);
        assert_eq!(mem.counter(), 4);
    }

    #[test]
    fn best_reset_keeps_results_diverse() {
        // With the best record reset each iteration, consecutive stored
        // results are the per-iteration bests, not one global best
        // repeated (§3.2 Step 3's rationale).
        let q = random_qubo(24, 6);
        let mem = GlobalMem::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = BlockRunner::new(&q, cfg(3, 40));
        for _ in 0..6 {
            mem.push_target(BitVec::random(24, &mut rng));
            b.bulk_iteration(&mem);
        }
        let res = mem.drain_results();
        let distinct: std::collections::HashSet<_> = res.iter().map(|r| r.x.clone()).collect();
        assert!(distinct.len() > 1, "results collapsed to one solution");
    }

    #[test]
    fn every_policy_kind_runs_and_reports_exact_energies() {
        let q = random_qubo(40, 11);
        let mut rng = StdRng::seed_from_u64(12);
        for kind in [
            PolicyKind::Window,
            PolicyKind::Greedy,
            PolicyKind::Random,
            PolicyKind::Metropolis {
                temperature: 1e6,
                cooling: 0.999,
            },
        ] {
            let mem = GlobalMem::new();
            let mut c = cfg(8, 80);
            c.policy = kind.clone();
            let mut b = BlockRunner::new(&q, c);
            mem.push_target(BitVec::random(40, &mut rng));
            b.bulk_iteration(&mem);
            b.tracker().verify();
            let rec = &mem.drain_results()[0];
            assert_eq!(rec.energy, q.energy(&rec.x), "{kind:?}");
        }
    }

    #[test]
    fn non_window_policies_report_no_window() {
        let q = random_qubo(16, 13);
        let mut c = cfg(4, 10);
        c.policy = PolicyKind::Greedy;
        let b = BlockRunner::new(&q, c);
        assert_eq!(b.window(), None);
    }

    #[test]
    fn adaptive_is_a_noop_for_non_window_policies() {
        let q = Qubo::zero(8).unwrap();
        let mem = GlobalMem::new();
        let mut c = cfg(4, 4);
        c.policy = PolicyKind::Greedy;
        c.adaptive = Some(AdaptiveConfig { patience: 1 });
        let mut b = BlockRunner::new(&q, c);
        for _ in 0..6 {
            b.bulk_iteration(&mem);
        }
        assert_eq!(b.switches(), 0);
    }

    #[test]
    fn random_policy_blocks_are_seeded_by_offset() {
        // Two blocks with different offsets take different random walks.
        let q = random_qubo(32, 14);
        let mem = GlobalMem::new();
        let mk = |offset: usize| {
            let mut c = cfg(4, 50);
            c.policy = PolicyKind::Random;
            c.offset = offset;
            BlockRunner::new(&q, c)
        };
        let mut b1 = mk(0);
        let mut b2 = mk(1);
        b1.bulk_iteration(&mem);
        b2.bulk_iteration(&mem);
        assert_ne!(b1.tracker().x(), b2.tracker().x());
    }

    #[test]
    fn window_schedule_fixed_and_cycle() {
        let s = WindowSchedule::Fixed(7);
        assert_eq!(s.window_for(0, 100), 7);
        assert_eq!(s.window_for(9, 100), 7);
        assert_eq!(s.window_for(0, 4), 4); // clamped to n
        let c = WindowSchedule::Cycle(vec![1, 8, 64]);
        assert_eq!(c.window_for(0, 100), 1);
        assert_eq!(c.window_for(1, 100), 8);
        assert_eq!(c.window_for(2, 100), 64);
        assert_eq!(c.window_for(3, 100), 1);
    }

    #[test]
    fn adaptive_block_switches_window_when_stale() {
        // A frozen problem (all-zero weights): no improvement is ever
        // possible, so the block must climb the window ladder.
        let q = Qubo::zero(16).unwrap();
        let mem = GlobalMem::new();
        let mut c = cfg(2, 10);
        c.adaptive = Some(AdaptiveConfig { patience: 2 });
        let mut b = BlockRunner::new(&q, c);
        assert_eq!(b.window(), Some(2));
        b.bulk_iteration(&mem); // "improves" (first best: MAX → 0)
        b.bulk_iteration(&mem); // stale 1
        assert_eq!(b.window(), Some(2));
        b.bulk_iteration(&mem); // stale 2 → switch
        assert_eq!(
            b.window(),
            Some(4),
            "one switch after patience=2 stale rounds"
        );
        assert_eq!(b.switches(), 1);
        b.bulk_iteration(&mem);
        b.bulk_iteration(&mem); // second switch
        assert_eq!(b.window(), Some(8), "ladder keeps climbing");
        assert_eq!(b.switches(), 2);
    }

    #[test]
    fn adaptive_window_wraps_from_n_to_one() {
        let q = Qubo::zero(8).unwrap();
        let mem = GlobalMem::new();
        let mut c = cfg(8, 4); // already at window = n
        c.adaptive = Some(AdaptiveConfig { patience: 1 });
        let mut b = BlockRunner::new(&q, c);
        b.bulk_iteration(&mem); // improvement MAX → 0
        b.bulk_iteration(&mem); // stale → switch
        assert_eq!(b.window(), Some(1));
    }

    #[test]
    fn non_adaptive_block_keeps_its_window() {
        let q = Qubo::zero(8).unwrap();
        let mem = GlobalMem::new();
        let mut b = BlockRunner::new(&q, cfg(4, 4));
        for _ in 0..10 {
            b.bulk_iteration(&mem);
        }
        assert_eq!(b.window(), Some(4));
        assert_eq!(b.switches(), 0);
    }

    #[test]
    fn improvements_reset_staleness() {
        // A problem ABS keeps improving on for a while: ensure no switch
        // happens while improvements keep arriving.
        let q = random_qubo(32, 9);
        let mem = GlobalMem::new();
        let mut rng = StdRng::seed_from_u64(10);
        let mut c = cfg(8, 200);
        c.adaptive = Some(AdaptiveConfig {
            patience: 1_000_000,
        });
        let mut b = BlockRunner::new(&q, c);
        for _ in 0..5 {
            mem.push_target(BitVec::random(32, &mut rng));
            b.bulk_iteration(&mem);
        }
        assert_eq!(b.switches(), 0);
    }

    #[test]
    fn device_accounting_matches_tracker_evaluated() {
        // Satellite invariant: GlobalMem's Theorem 1 accounting (block
        // evaluation deltas + units·(n+1)) must agree exactly with the
        // tracker's own `evaluated()` once the block registers itself
        // as a unit.
        let q = random_qubo(24, 15);
        let mem = GlobalMem::new();
        let mut rng = StdRng::seed_from_u64(16);
        let mut b = BlockRunner::new(&q, cfg(6, 75));
        mem.add_units(1);
        for _ in 0..3 {
            mem.push_target(BitVec::random(24, &mut rng));
            b.bulk_iteration(&mem);
            assert_eq!(mem.total_evaluated(24), b.tracker().evaluated());
        }
        assert_eq!(mem.total_flips(), b.tracker().flips());
    }

    #[test]
    fn narrow_block_matches_wide_block_exactly() {
        // Same config, same targets: the i32 block must follow the i64
        // block bit-for-bit (no behavioral change from narrowing).
        let q = random_qubo(32, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let targets: Vec<BitVec> = (0..4).map(|_| BitVec::random(32, &mut rng)).collect();
        let mem_w = GlobalMem::new();
        let mem_n = GlobalMem::new();
        let mut bw = BlockRunner::new(&q, cfg(8, 90));
        let mut bn = BlockRunner::<DeltaTracker<'_, i32>>::with_width(&q, cfg(8, 90));
        for t in &targets {
            mem_w.push_target(t.clone());
            mem_n.push_target(t.clone());
            bw.bulk_iteration(&mem_w);
            bn.bulk_iteration(&mem_n);
        }
        assert_eq!(bw.tracker().x(), bn.tracker().x());
        assert_eq!(bw.tracker().energy(), bn.tracker().energy());
        assert_eq!(mem_w.drain_results(), mem_n.drain_results());
        bn.tracker().verify();
    }

    #[test]
    fn sparse_block_matches_dense_block_exactly() {
        // Same config, same targets: the CSR block must follow the dense
        // block bit-for-bit — trajectories, per-iteration bests, and
        // records (the tentpole's equivalence contract at block level).
        let q = random_qubo(48, 19);
        let s = SparseQubo::from_dense(&q);
        let mut rng = StdRng::seed_from_u64(20);
        let mem_d = GlobalMem::new();
        let mem_s = GlobalMem::new();
        let mut bd = BlockRunner::new(&q, cfg(8, 120));
        let mut bs = BlockRunner::sparse(&s, cfg(8, 120));
        for _ in 0..4 {
            let t = BitVec::random(48, &mut rng);
            mem_d.push_target(t.clone());
            mem_s.push_target(t);
            bd.bulk_iteration(&mem_d);
            bs.bulk_iteration(&mem_s);
        }
        assert_eq!(bd.tracker().x(), bs.tracker().x());
        assert_eq!(bd.tracker().energy(), bs.tracker().energy());
        assert_eq!(mem_d.drain_results(), mem_s.drain_results());
        // Dense evaluation deltas follow the n+1 formula; at full
        // density the CSR deltas coincide with them.
        assert_eq!(mem_d.total_flips(), mem_s.total_flips());
        assert_eq!(mem_d.total_evaluated(48), mem_s.total_evaluated(48));
        bs.tracker().verify();
    }

    #[test]
    fn sparse_block_reports_degree_honest_evaluations() {
        // A genuinely sparse instance: the CSR block's evaluation delta
        // must be far below the dense flips·(n+1) projection.
        let n = 64;
        let s = SparseQubo::from_triplets(n, &[(0, 1, -3), (2, 3, 5), (10, 11, -7)]).unwrap();
        let mem = GlobalMem::new();
        let mut b = BlockRunner::sparse(&s, cfg(8, 100));
        mem.add_units(1);
        b.bulk_iteration(&mem);
        assert_eq!(mem.total_evaluated(n), b.tracker().evaluated());
        let dense_projection = (b.tracker().flips() + 1) * (n as u64 + 1);
        assert!(
            mem.total_evaluated(n) < dense_projection / 4,
            "sparse accounting should be far below {dense_projection}"
        );
    }

    #[test]
    fn window_schedule_powers_of_two_spans_range() {
        let s = WindowSchedule::PowersOfTwo;
        let n = 64;
        let ws: Vec<usize> = (0..7).map(|b| s.window_for(b, n)).collect();
        assert_eq!(ws, vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(s.window_for(7, n), 1); // wraps
    }
}
