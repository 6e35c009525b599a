//! Launching a simulated MPI world.

use crate::comm::Communicator;
use crate::engine::Engine;
use crate::error::CommError;
use crate::fault::FaultPlan;
use crate::health::{RankCrashState, WorldHealth};
use std::any::Any;
use std::sync::Arc;

/// The message a rank thread panicked with, so the panic the launcher
/// re-raises names the cause (a payload's `Debug` is just `Any { .. }`).
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("a non-string payload")
}

/// Entry point of the simulated MPI runtime, analogous to
/// `MPI_Init`/`mpirun`.
pub struct Universe;

/// The role a rank is launched in by [`Universe::run_elastic`].
pub enum ElasticRank {
    /// A founding member: holds its `MPI_COMM_WORLD` handle from the start.
    Founding(Communicator),
    /// A standby: parked until some grow generation admits it (or the world
    /// ends without ever growing).
    Standby(StandbyRank),
}

/// A parked rank waiting to be admitted by a [`Communicator::grow`]. The
/// world rank is assigned at launch (founding ranks first, then standbys in
/// ascending order), so fault-plan crash schedules and hash streams are
/// fixed before the rank ever joins.
pub struct StandbyRank {
    world_rank: usize,
    health: Arc<WorldHealth>,
    crash: Option<Arc<RankCrashState>>,
}

impl StandbyRank {
    /// World rank this standby will hold if admitted.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Blocks until a grow generation admits this rank, returning its handle
    /// on the grown communicator (already ranked after the incumbents).
    ///
    /// If the world finishes without admitting it, returns
    /// [`CommError::RankFailed`] carrying its *own* world rank — a standby
    /// that never joined is indistinguishable from a dead rank to the
    /// drivers, which already translate that error into a dead outcome.
    pub fn wait_admission(self) -> Result<Communicator, CommError> {
        match self.health.wait_admission(self.world_rank) {
            Some((engine, rank)) => Ok(Communicator::new(engine, rank, self.crash)),
            None => Err(CommError::RankFailed { rank: self.world_rank }),
        }
    }
}

impl Universe {
    /// Runs `f` in `world_size` simulated MPI processes (one OS thread
    /// each), handing each its `MPI_COMM_WORLD` [`Communicator`]. Returns
    /// the per-rank results, ordered by rank.
    ///
    /// Panics in any rank propagate (with the rank number) after all other
    /// ranks are either finished or deadlock-timed out.
    pub fn run<T, F>(world_size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        Universe::launch(Engine::new(world_size), world_size, None, f)
    }

    /// Like [`Universe::run`], but the world executes under a deterministic
    /// [`FaultPlan`]: collectives complete with plan-injected delays, p2p
    /// delivery follows the plan's slot permutation, every non-blocking
    /// request polls deterministically, and plan-scheduled rank crashes fire
    /// at their logical-clock coordinates — so two runs with the same
    /// `(plan, f)` produce bit-identical schedules (see the `fault` module
    /// docs). Communicators created by `split`/`shrink` inherit the plan
    /// with derived hash salts.
    ///
    /// A rank whose crash fires observes [`crate::CommError::RankFailed`]
    /// with its own world rank from the failing call onward; its closure
    /// must return through the error (the thread itself stays joinable —
    /// a "dead" rank is one that can no longer communicate).
    pub fn run_with_plan<T, F>(world_size: usize, plan: FaultPlan, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        let plan = Arc::new(plan);
        let engine = Engine::with_plan(world_size, Some(plan.clone()), 0);
        Universe::launch(engine, world_size, Some(plan), f)
    }

    /// Like [`Universe::run_with_plan`], but launches an *elastic* world:
    /// `founding` ranks start with communicator handles, and `standby`
    /// further ranks (world ranks `founding..founding + standby`) park in
    /// the health registry's standby pool until a [`Communicator::grow`]
    /// admits them. Returns all `founding + standby` results in world-rank
    /// order.
    ///
    /// Standbys that are never admitted are released when the last founding
    /// rank finishes; their [`StandbyRank::wait_admission`] then returns
    /// [`crate::CommError::RankFailed`] with their own world rank.
    pub fn run_elastic<T, F>(founding: usize, standby: usize, plan: FaultPlan, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ElasticRank) -> T + Sync,
    {
        assert!(founding >= 1, "world must have at least one founding rank");
        let plan = Arc::new(plan);
        let engine = Engine::with_plan(founding, Some(plan.clone()), 0);
        for wr in founding..founding + standby {
            engine.health.register_standby(wr);
        }
        let total = founding + standby;
        let mut results: Vec<Option<T>> = (0..total).map(|_| None).collect();
        let scoped = crossbeam::scope(|s| {
            #[expect(
                clippy::expect_used,
                reason = "OS thread spawn only fails on resource exhaustion, which is \
                          unrecoverable for an in-process MPI world"
            )]
            let handles: Vec<_> = results
                .iter_mut()
                .enumerate()
                .map(|(world_rank, slot)| {
                    let crash = plan
                        .crash_point(world_rank)
                        .map(|pt| RankCrashState::new(world_rank, pt, engine.health.clone()));
                    let role = if world_rank < founding {
                        ElasticRank::Founding(Communicator::new(engine.clone(), world_rank, crash))
                    } else {
                        ElasticRank::Standby(StandbyRank {
                            world_rank,
                            health: engine.health.clone(),
                            crash,
                        })
                    };
                    let f = &f;
                    s.builder()
                        .name(format!("mpi-rank-{world_rank}"))
                        .spawn(move |_| {
                            *slot = Some(f(role));
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            // Join founding ranks first; once they have all exited no grow
            // can ever fire again, so close the gate to release any standby
            // still parked. Panics are collected (not re-raised inside the
            // loop) so the release still happens and every thread is joined.
            let mut panics = Vec::new();
            for (world_rank, h) in handles.into_iter().enumerate() {
                if let Err(e) = h.join() {
                    panics.push(format!("rank {world_rank} panicked: {}", panic_text(&*e)));
                }
                if world_rank + 1 == founding {
                    engine.health.close_join_gate();
                }
            }
            if let Some(p) = panics.into_iter().next() {
                std::panic::resume_unwind(Box::new(p));
            }
        });
        #[expect(
            clippy::expect_used,
            reason = "every child is joined (and its panic re-raised) inside the scope, so the \
                      scope itself cannot fail"
        )]
        scoped.expect("mpi world scope");
        #[expect(
            clippy::expect_used,
            reason = "each rank thread wrote its slot before exiting, and all of them were joined \
                      above"
        )]
        let results: Vec<T> =
            results.into_iter().map(|r| r.expect("every rank produced a result")).collect();
        results
    }

    fn launch<T, F>(
        engine: Arc<Engine>,
        world_size: usize,
        plan: Option<Arc<FaultPlan>>,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Sync,
    {
        assert!(world_size >= 1, "world must have at least one rank");
        let mut results: Vec<Option<T>> = (0..world_size).map(|_| None).collect();
        let scoped = crossbeam::scope(|s| {
            #[expect(
                clippy::expect_used,
                reason = "OS thread spawn only fails on resource exhaustion, which is \
                          unrecoverable for an in-process MPI world"
            )]
            let handles: Vec<_> = results
                .iter_mut()
                .enumerate()
                .map(|(rank, slot)| {
                    let crash = plan
                        .as_ref()
                        .and_then(|p| p.crash_point(rank))
                        .map(|pt| RankCrashState::new(rank, pt, engine.health.clone()));
                    let comm = Communicator::new(engine.clone(), rank, crash);
                    let f = &f;
                    s.builder()
                        .name(format!("mpi-rank-{rank}"))
                        .spawn(move |_| {
                            *slot = Some(f(comm));
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(Box::new(format!(
                        "rank {rank} panicked: {}",
                        panic_text(&*e)
                    )));
                }
            }
        });
        #[expect(
            clippy::expect_used,
            reason = "every child is joined (and its panic re-raised) inside the scope, so the \
                      scope itself cannot fail"
        )]
        scoped.expect("mpi world scope");
        #[expect(
            clippy::expect_used,
            reason = "each rank thread wrote its slot before exiting, and all of them were joined \
                      above"
        )]
        let results: Vec<T> =
            results.into_iter().map(|r| r.expect("every rank produced a result")).collect();
        results
    }
}
