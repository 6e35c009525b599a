//! Deterministic fault & straggler injection for the simulated MPI runtime.
//!
//! The paper's correctness claims (the epoch-gap bound of Section IV-C, the
//! ε/δ guarantee of the stopping rule) must hold for *adversarial* timing,
//! not just the ideal schedules the engine produces by default. This module
//! describes perturbed schedules as data: a [`FaultPlan`] is a seeded recipe
//! the engine consults at its join/retire points.
//!
//! # The logical clock
//!
//! Real-time delays would make perturbed runs unreproducible (the container
//! has one core and a preemptive scheduler). Instead, every injected delay
//! is measured on the **logical clock** the algorithms already advance: the
//! per-rank poll counter of a non-blocking [`Request`](crate::Request) (one
//! tick per `test()` call, i.e. one tick per overlapped sample in the
//! paper's `while IREDUCE(...) is not done` loops) and the per-communicator
//! operation sequence number. A delay of `k` polls means: rank `r` observes
//! completion of operation `seq` only on its `k`-th poll — and because `k`
//! is a pure hash of `(plan seed, communicator salt, rank, seq)`, the number
//! of overlapped samples each rank takes is a function of the plan alone,
//! never of OS scheduling. Once its injected polls are exhausted, a request
//! *blocks* until the collective genuinely completes, so fault injection
//! perturbs schedules without ever violating collective semantics.
//!
//! Every run under a plan (including the zero-delay [`FaultPlan::ideal`]
//! plan) is therefore exactly reproducible from `(plan, seed)`; chaos-test
//! failures print both so any perturbed run can be replayed bit-for-bit.

use std::fmt;

/// SplitMix64 finalizer: the pure hash behind every injected quantity.
///
/// Statistically well-mixed, dependency-free, and stable across platforms —
/// the properties the logical clock needs (this is *schedule derivation*,
/// not cryptography).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines hash inputs without losing entropy to XOR cancellation.
#[inline]
fn mix2(a: u64, b: u64) -> u64 {
    mix(a ^ mix(b))
}

/// Derives the plan-hash salt of a communicator created by `split` so that
/// delay streams of parent and child communicators (and of sibling colors)
/// are independent. Deterministic: all member ranks derive the same salt
/// from the same `(parent_salt, seq, color)`.
pub(crate) fn derive_salt(parent_salt: u64, seq: u64, color: u32) -> u64 {
    mix2(mix2(parent_salt, seq), color as u64)
}

/// Hash-stream tags keeping the independent injection channels apart.
const TAG_COLLECTIVE: u64 = 0x01;
const TAG_QUOTA: u64 = 0x03;
const TAG_OVERLAP: u64 = 0x04;
const TAG_CRASH: u64 = 0x05;
const TAG_JOIN: u64 = 0x06;

/// When a scheduled rank join (elastic grow) fires, on the drivers' shared
/// global round counter — the coordinate every member advances in lockstep,
/// so all living ranks consult the plan at the same boundary and call
/// [`crate::Communicator::grow`] collectively. Like [`CrashPoint`], join
/// points are plain data: a grown run replays bit-for-bit from
/// `(plan, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPoint {
    /// Global adaptive round at whose *start* the join fires (0-based; the
    /// grow happens before the round's sample batch).
    pub round: u64,
    /// Number of standby ranks admitted at this point (clamped by the
    /// runtime to the standbys actually registered).
    pub ranks: usize,
}

/// When a scheduled rank crash fires, on the rank's own logical clock (see
/// the module docs) — so crashes are exactly reproducible from
/// `(plan, seed)` like every other injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The rank dies *instead of joining* its `s`-th collective call
    /// (0-based), counted across every communicator it owns — world and
    /// `split` children alike ([`crate::Communicator::shrink`] is the
    /// recovery path and carries no crash checkpoint).
    AtCollective(u64),
    /// The rank dies on its `k`-th cumulative unsuccessful request poll
    /// (1-based) — i.e. mid-overlap, typically with a reduction in flight,
    /// which is how the chaos suite exercises crash-during-reduction.
    AfterPolls(u64),
}

/// A deterministic fault & straggler plan for one simulated MPI world.
///
/// All fields are plain data so a failing chaos test can print the plan and
/// the failure can be replayed exactly (see the module docs). Construct via
/// [`FaultPlan::ideal`] or [`FaultPlan::from_seed`] and refine with the
/// builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed of every hash stream.
    pub seed: u64,
    /// Inclusive `(min, max)` completion-observation delay of a non-blocking
    /// collective, in polls of the observing rank's request (the logical
    /// clock — see the module docs). `(0, 0)` injects nothing.
    pub collective_delay_polls: (u64, u64),
    /// Rank-scoped latency scale: `(world rank, factor)` pairs multiplying
    /// every injected collective delay observed by that rank. A straggler is
    /// simply a rank with a large factor ([`FaultPlan::with_straggler`]).
    pub rank_factors: Vec<(usize, u64)>,
    /// `(rank, thread)` pairs whose per-epoch sampling quota is divided by
    /// [`FaultPlan::slow_thread_factor`] — the "slow thread" knob of the
    /// epoch framework: a slow thread contributes fewer samples per epoch.
    pub slow_threads: Vec<(usize, usize)>,
    /// Quota divisor for [`FaultPlan::slow_threads`] (≥ 1).
    pub slow_thread_factor: u64,
    /// Percentage jitter (`0..=90`) applied to worker per-epoch quotas, so
    /// epoch lengths are skewed across threads even without slow threads.
    pub quota_jitter_pct: u64,
    /// Scheduled rank crashes: `(world rank, crash point)` pairs. At most
    /// the first entry per rank applies. Empty in [`FaultPlan::ideal`] and
    /// [`FaultPlan::from_seed`] plans; use the `with_crash_*` builders or
    /// [`FaultPlan::from_seed_with_crashes`].
    pub crashes: Vec<(usize, CrashPoint)>,
    /// Scheduled rank joins (elastic grows): at the start of each listed
    /// round, the drivers admit the given number of standby ranks. Empty in
    /// [`FaultPlan::ideal`] and [`FaultPlan::from_seed`] plans; use
    /// [`FaultPlan::with_join`] or [`FaultPlan::from_seed_with_grows`].
    pub joins: Vec<JoinPoint>,
}

impl FaultPlan {
    /// The ideal (zero-perturbation) plan: no delays, uniform quotas.
    /// Running under it still switches the runtime into the
    /// deterministic-schedule regime, which is what the seed-matrix
    /// determinism tests pin down.
    pub fn ideal(seed: u64) -> Self {
        FaultPlan {
            seed,
            collective_delay_polls: (0, 0),
            rank_factors: Vec::new(),
            slow_threads: Vec::new(),
            slow_thread_factor: 1,
            quota_jitter_pct: 0,
            crashes: Vec::new(),
            joins: Vec::new(),
        }
    }

    /// Derives a small randomized plan from `seed` — the chaos corpus
    /// generator. Knob magnitudes are bounded so a corpus run stays fast;
    /// roughly half the seeds get a straggler rank and a slow thread.
    pub fn from_seed(seed: u64) -> Self {
        let h = |k: u64| mix2(seed, k);
        let lo = h(1) % 4;
        let hi = lo + 1 + h(2) % 24;
        let mut plan = FaultPlan {
            seed,
            collective_delay_polls: (lo, hi),
            rank_factors: Vec::new(),
            slow_threads: Vec::new(),
            slow_thread_factor: 1,
            quota_jitter_pct: h(4) % 60,
            crashes: Vec::new(),
            joins: Vec::new(),
        };
        if h(5) % 2 == 0 {
            // One straggler rank among the first 8 (clamped later by use).
            plan = plan.with_straggler(usize::try_from(h(6) % 8).unwrap_or(0), 4 + h(7) % 12);
        }
        if h(8) % 2 == 0 {
            plan = plan.with_slow_thread(
                usize::try_from(h(9) % 8).unwrap_or(0),
                usize::try_from(h(10) % 4).unwrap_or(0),
                2 + h(11) % 6,
            );
        }
        plan
    }

    /// A [`FaultPlan::from_seed`] corpus plan with one scheduled rank crash
    /// on top — the crash-chaos corpus generator (`cargo xtask chaos
    /// --crashes N`). The victim rank and crash point are hashed from the
    /// seed; collectives are scheduled past the setup phase (diameter
    /// broadcast, calibration all-reduce, hierarchy splits) so the crash
    /// lands mid-adaptive-sampling, where ledger-based recovery applies.
    /// With `world_size <= 1` no crash is added (a sole rank cannot shrink).
    pub fn from_seed_with_crashes(seed: u64, world_size: usize) -> Self {
        let mut plan = Self::from_seed(seed);
        if world_size > 1 {
            let h = |k: u64| mix2(mix2(seed, TAG_CRASH), k);
            let rank = usize::try_from(h(1) % world_size as u64).unwrap_or(0);
            plan = if h(2) % 2 == 0 {
                plan.with_crash_at_collective(rank, 5 + h(3) % 10)
            } else {
                // Guarantee polls actually occur so the crash can fire.
                if plan.collective_delay_polls.1 < 4 {
                    plan.collective_delay_polls.1 = 4;
                }
                plan.with_crash_after_polls(rank, 8 + h(4) % 48)
            };
        }
        plan
    }

    /// A [`FaultPlan::from_seed`] corpus plan with one scheduled rank join
    /// on top — the grow-chaos corpus generator (`cargo xtask chaos
    /// --grows N`). The join round and admitted count are hashed from the
    /// seed; rounds start past the first stopping-condition check so the
    /// grow lands mid-adaptive-phase, where ledger rebalancing applies.
    /// With `standby == 0` no join is added (nothing to admit).
    pub fn from_seed_with_grows(seed: u64, standby: usize) -> Self {
        let mut plan = Self::from_seed(seed);
        if standby > 0 {
            let h = |k: u64| mix2(mix2(seed, TAG_JOIN), k);
            let round = 1 + h(1) % 4;
            let ranks = usize::try_from(1 + h(2) % standby as u64).unwrap_or(1);
            plan = plan.with_join(round, ranks);
        }
        plan
    }

    /// Marks `rank` as a straggler: all its injected collective delays are
    /// multiplied by `factor`.
    pub fn with_straggler(mut self, rank: usize, factor: u64) -> Self {
        self.rank_factors.push((rank, factor.max(1)));
        self
    }

    /// Marks `(rank, thread)` as slow, dividing its per-epoch quota by
    /// `factor`.
    pub fn with_slow_thread(mut self, rank: usize, thread: usize, factor: u64) -> Self {
        self.slow_threads.push((rank, thread));
        self.slow_thread_factor = factor.max(1);
        self
    }

    /// Sets the base completion-delay range in polls.
    pub fn with_collective_delay(mut self, min: u64, max: u64) -> Self {
        assert!(min <= max, "delay range reversed");
        self.collective_delay_polls = (min, max);
        self
    }

    /// Schedules world rank `rank` to die instead of joining its `s`-th
    /// collective call (0-based, counted across all its communicators).
    pub fn with_crash_at_collective(mut self, rank: usize, s: u64) -> Self {
        self.crashes.push((rank, CrashPoint::AtCollective(s)));
        self
    }

    /// Schedules world rank `rank` to die on its `k`-th cumulative
    /// unsuccessful request poll (1-based) — mid-overlap, with whatever
    /// collective it was polling still in flight.
    pub fn with_crash_after_polls(mut self, rank: usize, k: u64) -> Self {
        self.crashes.push((rank, CrashPoint::AfterPolls(k.max(1))));
        self
    }

    /// Schedules `ranks` standby ranks to join at the start of global round
    /// `round` (see [`JoinPoint`]).
    pub fn with_join(mut self, round: u64, ranks: usize) -> Self {
        self.joins.push(JoinPoint { round, ranks });
        self
    }

    /// Derives the plan for refinement `round` of a long-lived serving run:
    /// same perturbation knobs (delays, stragglers, jitter, slow threads) but
    /// a round-specific seed, and — crucially — **no crash schedule**. A
    /// resident sampler pool survives a crash by shrinking once; replaying
    /// the same crash point every subsequent round would kill the rebuilt
    /// pool again, so rounds after the first derive their schedules from the
    /// original plan without inheriting its crashes. Round 0 returns the plan
    /// unchanged (crashes included), keeping `(plan, seed)` the complete
    /// replay handle.
    pub fn reseeded(&self, round: u64) -> Self {
        if round == 0 {
            return self.clone();
        }
        let mut plan = self.clone();
        plan.seed = mix2(self.seed, mix2(TAG_CRASH ^ TAG_OVERLAP, round));
        plan.crashes.clear();
        // Joins are one-shot membership changes like crashes: a resident
        // pool that grew once must not re-admit the same standbys every
        // refinement round.
        plan.joins.clear();
        plan
    }

    /// The crash scheduled for world rank `rank`, if any (first entry wins).
    pub fn crash_point(&self, rank: usize) -> Option<CrashPoint> {
        self.crashes.iter().find(|(r, _)| *r == rank).map(|(_, p)| *p)
    }

    /// Standby ranks scheduled to join at the start of global round `round`
    /// (the sum over matching [`JoinPoint`]s; 0 when none fire there).
    pub fn join_at_round(&self, round: u64) -> usize {
        self.joins.iter().filter(|j| j.round == round).map(|j| j.ranks).sum()
    }

    /// Total standby ranks the plan ever admits, across all join points.
    pub fn total_joiners(&self) -> usize {
        self.joins.iter().map(|j| j.ranks).sum()
    }

    /// The latency scale of `rank` (1 unless rank-scoped factors apply).
    pub fn rank_factor(&self, rank: usize) -> u64 {
        self.rank_factors
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, f)| *f)
            .product::<u64>()
            .max(1)
    }

    /// Uniform draw in `lo..=hi` from the hash stream keyed by `key`.
    fn uniform(&self, key: u64, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + mix2(self.seed, key) % (hi - lo + 1)
    }

    /// Completion-observation delay, in polls, injected for `rank`'s view of
    /// collective `seq` on the communicator with hash salt `salt`.
    pub fn collective_delay(&self, salt: u64, rank: usize, seq: u64) -> u64 {
        let (lo, hi) = self.collective_delay_polls;
        let key = mix2(mix2(salt, TAG_COLLECTIVE), mix2(rank as u64, seq));
        self.uniform(key, lo, hi).saturating_mul(self.rank_factor(rank))
    }

    /// Number of samples thread 0 of `rank` overlaps with an epoch-framework
    /// transition wait in `epoch` (the framework has no [`crate::Request`]
    /// to count polls on, so the plan supplies the count directly).
    pub fn transition_overlap(&self, rank: usize, epoch: u32) -> u64 {
        let (lo, hi) = self.collective_delay_polls;
        let key = mix2(mix2(rank as u64, TAG_OVERLAP), epoch as u64);
        self.uniform(key, lo, hi).saturating_mul(self.rank_factor(rank))
    }

    /// Per-epoch sampling quota of worker `thread` on `rank`, given thread
    /// 0's epoch length `base` (`n0`): jittered by
    /// [`FaultPlan::quota_jitter_pct`], divided by the slow-thread factor,
    /// floored at 1 so every worker keeps contributing.
    pub fn worker_quota(&self, rank: usize, thread: usize, epoch: u32, base: u64) -> u64 {
        let pct = self.quota_jitter_pct.min(90);
        let key = mix2(mix2(rank as u64, TAG_QUOTA), mix2(thread as u64, epoch as u64));
        // base scaled into [100-pct, 100+pct] percent.
        let scale = self.uniform(key, 100 - pct, 100 + pct);
        let mut q = base.max(1).saturating_mul(scale) / 100;
        if self.slow_threads.contains(&(rank, thread)) {
            q /= self.slow_thread_factor.max(1);
        }
        q.max(1)
    }

    /// Upper bound on any single injected collective delay, in polls.
    pub fn max_delay_polls(&self) -> u64 {
        let max_factor = self.rank_factors.iter().map(|(_, f)| *f).max().unwrap_or(1).max(1);
        self.collective_delay_polls.1.saturating_mul(max_factor)
    }

    /// Factor by which the engine scales its deadlock timeout: a straggler
    /// legitimately keeps its peers waiting for its injected polls, and each
    /// poll is one real sample, so the 60 s ideal-schedule budget must grow
    /// with the plan's worst injected latency. One poll is conservatively
    /// budgeted at ~100 ms of real time; capped at 64× so a buggy plan still
    /// fails within minutes rather than hanging CI.
    pub fn timeout_scale(&self) -> u32 {
        let extra = self.max_delay_polls() / 600; // ≈ polls per extra minute
        u32::try_from(extra.min(63)).unwrap_or(63) + 1
    }

    /// One-line reproduction handle printed by chaos tests: rebuild the plan
    /// from this summary (or from `{:?}`) to replay a failure.
    pub fn summary(&self) -> String {
        format!(
            "FaultPlan {{ seed: {}, delay: {:?}, rank_factors: {:?}, \
             slow_threads: {:?}/{}, quota_jitter: {}%, crashes: {:?}, joins: {:?} }}",
            self.seed,
            self.collective_delay_polls,
            self.rank_factors,
            self.slow_threads,
            self.slow_thread_factor,
            self.quota_jitter_pct,
            self.crashes,
            self.joins
        )
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_plan_injects_nothing() {
        let p = FaultPlan::ideal(7);
        for rank in 0..4 {
            for seq in 0..20 {
                assert_eq!(p.collective_delay(0, rank, seq), 0);
            }
        }
        assert_eq!(p.transition_overlap(2, 3), 0);
        assert_eq!(p.timeout_scale(), 1);
    }

    #[test]
    fn delays_are_deterministic_and_rank_seq_sensitive() {
        let p = FaultPlan::ideal(99).with_collective_delay(1, 1000);
        let a = p.collective_delay(0, 1, 5);
        assert_eq!(a, p.collective_delay(0, 1, 5), "same inputs, same delay");
        // Across many (rank, seq) pairs the stream must not be constant.
        let mut distinct = std::collections::BTreeSet::new();
        for rank in 0..4 {
            for seq in 0..16 {
                distinct.insert(p.collective_delay(0, rank, seq));
            }
        }
        assert!(distinct.len() > 8, "delay stream looks degenerate: {distinct:?}");
    }

    #[test]
    fn delays_respect_the_configured_range() {
        let p = FaultPlan::ideal(3).with_collective_delay(2, 9);
        for seq in 0..200 {
            let d = p.collective_delay(17, 0, seq);
            assert!((2..=9).contains(&d), "delay {d} outside [2, 9]");
        }
    }

    #[test]
    fn straggler_scales_delays_and_timeout() {
        let base = FaultPlan::ideal(5).with_collective_delay(1, 4);
        let strag = base.clone().with_straggler(2, 100);
        for seq in 0..50 {
            assert_eq!(strag.collective_delay(0, 2, seq), base.collective_delay(0, 2, seq) * 100);
            // Other ranks are untouched.
            assert_eq!(strag.collective_delay(0, 1, seq), base.collective_delay(0, 1, seq));
        }
        assert_eq!(base.max_delay_polls(), 4);
        assert_eq!(strag.max_delay_polls(), 400);
        assert_eq!(base.timeout_scale(), 1);
        assert!(strag.timeout_scale() >= 1);
        let huge = base.clone().with_straggler(0, 1_000_000);
        assert_eq!(huge.timeout_scale(), 64, "timeout scale must cap");
        assert!(huge.timeout_scale() > strag.timeout_scale());
    }

    #[test]
    fn worker_quota_is_jittered_bounded_and_slowable() {
        let p = FaultPlan { quota_jitter_pct: 50, ..FaultPlan::ideal(11) };
        for t in 0..8 {
            for e in 0..8 {
                let q = p.worker_quota(1, t, e, 100);
                assert!((50..=150).contains(&q), "quota {q} outside ±50% of 100");
            }
        }
        let slow = p.clone().with_slow_thread(1, 3, 10);
        for e in 0..8 {
            assert_eq!(slow.worker_quota(1, 3, e, 100), p.worker_quota(1, 3, e, 100) / 10);
        }
        // Quota never reaches zero.
        assert_eq!(FaultPlan::ideal(0).with_slow_thread(0, 0, 1000).worker_quota(0, 0, 0, 1), 1);
    }

    #[test]
    fn derived_salts_separate_communicators_and_colors() {
        let s1 = derive_salt(0, 4, 0);
        let s2 = derive_salt(0, 4, 1);
        let s3 = derive_salt(0, 5, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        let p = FaultPlan::ideal(21).with_collective_delay(0, 1000);
        assert_ne!(p.collective_delay(s1, 0, 0), p.collective_delay(s2, 0, 0));
    }

    #[test]
    fn corpus_plans_are_reproducible_and_bounded() {
        for seed in 0..64 {
            let a = FaultPlan::from_seed(seed);
            assert_eq!(a, FaultPlan::from_seed(seed));
            assert!(a.collective_delay_polls.1 <= 28);
            assert!(a.quota_jitter_pct <= 90);
            assert!(a.timeout_scale() >= 1);
            assert!(a.crashes.is_empty(), "plain corpus plans must stay crash-free");
            assert!(a.joins.is_empty(), "plain corpus plans must stay join-free");
        }
    }

    #[test]
    fn crash_schedule_is_plain_data_and_reproducible() {
        let p = FaultPlan::ideal(4).with_crash_at_collective(2, 7).with_crash_after_polls(1, 16);
        assert_eq!(p.crash_point(2), Some(CrashPoint::AtCollective(7)));
        assert_eq!(p.crash_point(1), Some(CrashPoint::AfterPolls(16)));
        assert_eq!(p.crash_point(0), None);
        // First entry per rank wins.
        let q = p.clone().with_crash_after_polls(2, 3);
        assert_eq!(q.crash_point(2), Some(CrashPoint::AtCollective(7)));
        // The summary (the replay handle) carries the crash schedule.
        assert!(p.summary().contains("AtCollective(7)"), "{}", p.summary());
        assert_eq!(p, p.clone());
    }

    #[test]
    fn reseeded_rounds_keep_knobs_and_drop_crashes() {
        let p = FaultPlan::from_seed(9).with_straggler(1, 6).with_crash_at_collective(2, 7);
        assert_eq!(p.reseeded(0), p, "round 0 is the original plan, crash included");
        let r1 = p.reseeded(1);
        assert_ne!(r1.seed, p.seed, "rounds draw from distinct hash streams");
        assert!(r1.crashes.is_empty(), "a crash must not replay after recovery");
        assert!(
            p.clone().with_join(2, 1).reseeded(1).joins.is_empty(),
            "a join must not replay after the pool grew"
        );
        assert_eq!(r1.rank_factors, p.rank_factors);
        assert_eq!(r1.collective_delay_polls, p.collective_delay_polls);
        assert_eq!(r1, p.reseeded(1), "round derivation is deterministic");
        assert_ne!(p.reseeded(1).seed, p.reseeded(2).seed);
    }

    #[test]
    fn crash_corpus_is_reproducible_bounded_and_past_setup() {
        for seed in 0..64 {
            let a = FaultPlan::from_seed_with_crashes(seed, 4);
            assert_eq!(a, FaultPlan::from_seed_with_crashes(seed, 4));
            assert_eq!(a.crashes.len(), 1, "exactly one crash per corpus plan");
            let (rank, point) = a.crashes[0];
            assert!(rank < 4);
            match point {
                // Past the setup phase of both drivers (see generator docs).
                CrashPoint::AtCollective(s) => assert!((5..15).contains(&s)),
                CrashPoint::AfterPolls(k) => {
                    assert!((8..56).contains(&k));
                    assert!(a.collective_delay_polls.1 >= 4, "polls must be able to occur");
                }
            }
        }
        // A single-rank world never gets a crash scheduled.
        assert!(FaultPlan::from_seed_with_crashes(11, 1).crashes.is_empty());
    }

    #[test]
    fn join_schedule_is_plain_data_and_reproducible() {
        let p = FaultPlan::ideal(4).with_join(3, 2).with_join(3, 1).with_join(7, 1);
        assert_eq!(p.join_at_round(3), 3, "joins at the same round accumulate");
        assert_eq!(p.join_at_round(7), 1);
        assert_eq!(p.join_at_round(0), 0);
        assert_eq!(p.total_joiners(), 4);
        // The summary (the replay handle) carries the join schedule.
        assert!(p.summary().contains("round: 3"), "{}", p.summary());
        assert_eq!(p, p.clone());
    }

    #[test]
    fn grow_corpus_is_reproducible_bounded_and_past_setup() {
        for seed in 0..64 {
            let a = FaultPlan::from_seed_with_grows(seed, 3);
            assert_eq!(a, FaultPlan::from_seed_with_grows(seed, 3));
            assert_eq!(a.joins.len(), 1, "exactly one join point per corpus plan");
            let j = a.joins[0];
            assert!((1..5).contains(&j.round), "join must land mid-adaptive-phase");
            assert!((1..=3).contains(&j.ranks));
            assert!(a.crashes.is_empty(), "grow corpus plans stay crash-free");
        }
        // A world with no standbys never gets a join scheduled.
        assert!(FaultPlan::from_seed_with_grows(11, 0).joins.is_empty());
    }
}
