//! Integration tests of the simulated MPI runtime.

use crate::{CommError, Communicator, FaultPlan, ReduceOp, Universe};

#[test]
fn world_size_and_ranks() {
    let ranks = Universe::run(4, |comm| {
        assert_eq!(comm.size(), 4);
        comm.rank()
    });
    assert_eq!(ranks, vec![0, 1, 2, 3]);
}

#[test]
fn single_rank_world() {
    let out = Universe::run(1, |comm| {
        comm.barrier().unwrap();
        let r = comm.reduce_sum_u64(0, &[1, 2, 3]).unwrap();
        assert_eq!(r, Some(vec![1, 2, 3]));
        comm.bcast_u64(0, Some(9)).unwrap()
    });
    assert_eq!(out, vec![9]);
}

#[test]
fn barrier_synchronizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let before = AtomicUsize::new(0);
    Universe::run(6, |comm| {
        // Relaxed suffices: the barrier itself is the synchronization under
        // test, and it must order these accesses for the assert to hold.
        before.fetch_add(1, Ordering::Relaxed);
        comm.barrier().unwrap();
        // After the barrier every rank must observe all six arrivals.
        assert_eq!(before.load(Ordering::Relaxed), 6);
    });
}

#[test]
fn reduce_sum_vectors() {
    let out = Universe::run(5, |comm| {
        let data = vec![comm.rank() as u64; 4];
        comm.reduce_sum_u64(2, &data).unwrap()
    });
    for (rank, r) in out.iter().enumerate() {
        if rank == 2 {
            assert_eq!(r.as_deref(), Some(&[10u64, 10, 10, 10][..]));
        } else {
            assert!(r.is_none());
        }
    }
}

#[test]
fn ireduce_overlaps_with_computation() {
    let out = Universe::run(4, |comm| {
        let data = vec![1u64, comm.rank() as u64];
        let mut req = comm.ireduce_sum_u64(0, &data).unwrap();
        // Simulated "overlapped sampling": spin on test() doing local work.
        let mut local_work = 0u64;
        while !req.test().unwrap() {
            local_work += 1;
            std::hint::spin_loop();
        }
        (req.into_result().unwrap(), local_work)
    });
    assert_eq!(out[0].0, Some(vec![4, 1 + 2 + 3]));
    for r in &out[1..] {
        assert_eq!(r.0, None);
    }
}

#[test]
fn scalar_reductions() {
    let out = Universe::run(4, |comm| {
        let v = comm.rank() as u64 + 1;
        (
            comm.reduce_scalar_u64(0, ReduceOp::Sum, v).unwrap(),
            comm.reduce_scalar_u64(0, ReduceOp::Min, v).unwrap(),
            comm.reduce_scalar_u64(0, ReduceOp::Max, v).unwrap(),
        )
    });
    assert_eq!(out[0], (Some(10), Some(1), Some(4)));
    assert_eq!(out[1], (None, None, None));
}

#[test]
fn allreduce_gives_everyone_the_result() {
    let out = Universe::run(3, |comm| {
        comm.allreduce_scalar_u64(ReduceOp::Max, comm.rank() as u64 * 7).unwrap()
    });
    assert_eq!(out, vec![14, 14, 14]);
}

#[test]
fn broadcast_from_nonzero_root() {
    let out = Universe::run(4, |comm| {
        let v = if comm.rank() == 3 { Some(42) } else { None };
        comm.bcast_u64(3, v).unwrap()
    });
    assert_eq!(out, vec![42; 4]);
}

#[test]
fn ibcast_bool_termination_flag() {
    let out = Universe::run(3, |comm| {
        let v = if comm.rank() == 0 { Some(true) } else { None };
        let mut req = comm.ibcast_bool(0, v).unwrap();
        let mut spins = 0u64;
        while !req.test().unwrap() {
            spins += 1;
            std::hint::spin_loop();
        }
        req.into_result().unwrap() != 0 && spins < u64::MAX
    });
    assert_eq!(out, vec![true; 3]);
}

#[test]
fn multiple_sequential_collectives_keep_order() {
    let out = Universe::run(3, |comm| {
        let mut results = Vec::new();
        for round in 0..10u64 {
            let r = comm.allreduce_scalar_u64(ReduceOp::Sum, round + comm.rank() as u64).unwrap();
            results.push(r);
        }
        results
    });
    for r in out {
        for (round, v) in r.iter().enumerate() {
            assert_eq!(*v, 3 * round as u64 + 3); // 0+1+2 + 3*round
        }
    }
}

#[test]
fn split_into_node_local_and_leader_comms() {
    // 8 ranks, 2 per "node" -> 4 nodes; reproduce Section IV-E's layout.
    let out = Universe::run(8, |comm| {
        let node = (comm.rank() / 2) as u32;
        let local = comm.split(node, comm.rank() as i64).unwrap();
        assert_eq!(local.size(), 2);
        let local_sum = local.allreduce_scalar_u64(ReduceOp::Sum, comm.rank() as u64).unwrap();

        // Leader communicator: the first rank of each node gets color 0,
        // everyone else color 1 (they never use theirs).
        let is_leader = local.rank() == 0;
        let leaders = comm.split(u32::from(!is_leader), comm.rank() as i64).unwrap();
        let leader_sum = if is_leader {
            Some(leaders.allreduce_scalar_u64(ReduceOp::Sum, local_sum).unwrap())
        } else {
            None
        };
        (local.rank(), local_sum, leader_sum)
    });
    for (rank, (local_rank, local_sum, leader_sum)) in out.iter().enumerate() {
        assert_eq!(*local_rank, rank % 2);
        let node = rank / 2;
        assert_eq!(*local_sum, (2 * node) as u64 + (2 * node + 1) as u64);
        if rank % 2 == 0 {
            // Sum over node sums: 1 + 5 + 9 + 13 = 28.
            assert_eq!(*leader_sum, Some(28));
        } else {
            assert!(leader_sum.is_none());
        }
    }
}

#[test]
fn split_orders_by_key() {
    let out = Universe::run(4, |comm| {
        // Reverse the rank order via the key.
        let sub = comm.split(0, -(comm.rank() as i64)).unwrap();
        sub.rank()
    });
    assert_eq!(out, vec![3, 2, 1, 0]);
}

#[test]
fn bytes_are_accounted() {
    let out = Universe::run(2, |comm| {
        let data = vec![0u64; 100];
        comm.reduce_sum_u64(0, &data).unwrap();
        comm.barrier().unwrap();
        comm.bytes_transferred()
    });
    // 2 ranks * 100 u64 = 1600 bytes for the reduce; barrier adds none.
    assert_eq!(out[0], 1600);
    assert_eq!(out[1], 1600);
}

#[test]
fn collective_kind_mismatch_poisons_with_a_typed_error() {
    // Mismatched collective kinds must surface as `CommError::Poisoned` at
    // EVERY rank — a typed result, not a panic or a deadlock — and the
    // diagnostic must carry the replay pair.
    let out = Universe::run(2, |comm: Communicator| {
        if comm.rank() == 0 {
            comm.barrier().err()
        } else {
            comm.reduce_scalar_u64(0, ReduceOp::Sum, 1).err()
        }
    });
    for (rank, err) in out.iter().enumerate() {
        let err = err.as_ref().unwrap_or_else(|| panic!("rank {rank} missed the poison"));
        assert!(
            matches!(err, CommError::Poisoned { .. }),
            "rank {rank}: expected Poisoned, got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("collective mismatch at seq 0"), "diagnostic lost: {msg}");
        assert!(msg.contains("replay:"), "replay pair missing: {msg}");
    }
}

#[test]
fn nested_splits() {
    let out = Universe::run(8, |comm| {
        let half = comm.split((comm.rank() / 4) as u32, comm.rank() as i64).unwrap();
        let quarter = half.split((half.rank() / 2) as u32, half.rank() as i64).unwrap();
        (half.size(), quarter.size(), quarter.rank())
    });
    for (rank, &(h, q, qr)) in out.iter().enumerate() {
        assert_eq!(h, 4);
        assert_eq!(q, 2);
        assert_eq!(qr, rank % 2);
    }
}

#[test]
fn large_vector_reduce() {
    let n = 100_000;
    let out = Universe::run(3, |comm| {
        let data = vec![comm.rank() as u64 + 1; n];
        comm.reduce_sum_u64(0, &data).unwrap()
    });
    let root = out[0].as_ref().unwrap();
    assert_eq!(root.len(), n);
    assert!(root.iter().all(|&x| x == 6));
}

#[test]
fn many_rounds_of_ibarrier_plus_reduce() {
    // The paper's Section IV-F pattern: non-blocking barrier, then blocking
    // reduce, repeated for many epochs.
    let rounds = 50u64;
    let out = Universe::run(4, |comm| {
        let mut collected = 0u64;
        for round in 0..rounds {
            let mut bar = comm.ibarrier().unwrap();
            let mut local = 0u64;
            while !bar.test().unwrap() {
                local += 1; // overlapped "sampling"
            }
            let r = comm.reduce_sum_u64(0, &[round + comm.rank() as u64, local]).unwrap();
            if let Some(v) = r {
                collected += v[0];
            }
        }
        collected
    });
    // Root collected sum over rounds of (4*round + 0+1+2+3).
    let expect: u64 = (0..rounds).map(|r| 4 * r + 6).sum();
    assert_eq!(out[0], expect);
}

#[test]
fn allreduce_vectors() {
    let out = Universe::run(3, |comm| {
        let data = vec![comm.rank() as u64, 10];
        comm.allreduce_sum_u64(&data).unwrap()
    });
    for r in out {
        assert_eq!(r, vec![3, 30]);
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

#[test]
fn collectives_stay_correct_under_a_fault_plan() {
    // Delays and stragglers perturb *when* ranks observe completion, never
    // *what* a collective computes.
    let plan = FaultPlan::ideal(1).with_collective_delay(1, 12).with_straggler(1, 5);
    let out = Universe::run_with_plan(4, plan, |comm| {
        let sum = comm.allreduce_scalar_u64(ReduceOp::Sum, comm.rank() as u64).unwrap();
        let r = comm.reduce_sum_u64(0, &[1, comm.rank() as u64]).unwrap();
        let b = comm.bcast_u64(2, (comm.rank() == 2).then_some(77)).unwrap();
        (sum, r, b)
    });
    for (rank, (sum, r, b)) in out.iter().enumerate() {
        assert_eq!(*sum, 6);
        assert_eq!(*b, 77);
        if rank == 0 {
            assert_eq!(r.as_deref(), Some(&[4u64, 6][..]));
        } else {
            assert!(r.is_none());
        }
    }
}

#[test]
fn overlap_counts_are_plan_deterministic() {
    // Under a plan, the number of times test() returns false — i.e. the
    // number of overlapped samples each rank would take — is a pure
    // function of (plan, rank, seq): identical across runs, unlike the
    // free-running mode where it depends on OS scheduling.
    let plan = FaultPlan::ideal(33).with_collective_delay(2, 40).with_straggler(2, 3);
    let run = || {
        Universe::run_with_plan(4, plan.clone(), |comm| {
            let mut polls = Vec::new();
            for round in 0..6u64 {
                let mut req = comm.ireduce_sum_u64(0, &[round]).unwrap();
                let mut n = 0u64;
                while !req.test().unwrap() {
                    n += 1;
                }
                polls.push(n);
            }
            polls
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "overlap counts must replay bit-identically: {}", plan.summary());
    // The injected delays actually bite (some rank polls more than zero
    // times) and respect the configured ceiling for non-stragglers.
    assert!(a.iter().flatten().any(|&n| n > 0), "plan injected nothing: {a:?}");
    for (rank, polls) in a.iter().enumerate() {
        let cap = if rank == 2 { 40 * 3 } else { 40 };
        assert!(polls.iter().all(|&n| n <= cap), "rank {rank} over cap: {polls:?}");
    }
}

#[test]
fn straggler_delays_peer_completion_observably() {
    // A straggler's big injected delay shows up in ITS OWN poll count; its
    // peers just block in wait() until it resolves — no deadlock error,
    // because the engine scales its timeout by the plan's max latency.
    let plan = FaultPlan::ideal(5).with_collective_delay(10, 10).with_straggler(3, 20);
    let out = Universe::run_with_plan(4, plan, |comm| {
        let mut req = comm.ibarrier().unwrap();
        let mut n = 0u64;
        while !req.test().unwrap() {
            n += 1;
        }
        req.wait().unwrap();
        n
    });
    assert_eq!(out[3], 200, "straggler factor must scale its poll count");
    assert!(out[..3].iter().all(|&n| n == 10));
}

#[test]
fn split_children_inherit_the_plan() {
    let plan = FaultPlan::ideal(8).with_collective_delay(1, 30);
    let out = Universe::run_with_plan(4, plan, |comm| {
        let sub = comm.split(u32::try_from(comm.rank() % 2).unwrap_or(0), 0).unwrap();
        assert!(sub.fault_plan().is_some(), "child communicator lost the plan");
        // Child collectives are also delayed deterministically.
        let mut req = sub.ibarrier().unwrap();
        let mut n = 0u64;
        while !req.test().unwrap() {
            n += 1;
        }
        req.wait().unwrap();
        n
    });
    assert!(out.iter().any(|&n| n > 0), "child communicator saw no injected delay");
}

// ---------------------------------------------------------------------------
// Crash faults & shrink-and-continue
// ---------------------------------------------------------------------------

#[test]
fn scheduled_crash_is_typed_and_bit_reproducible() {
    // Rank 1 dies instead of joining its third collective (0-based seq 2):
    // it observes RankFailed{1} with its OWN rank, peers observe RankFailed{1}
    // on the op it never joined, and the whole outcome replays bit-for-bit.
    let plan = FaultPlan::ideal(11).with_crash_at_collective(1, 2);
    let run = || {
        Universe::run_with_plan(3, plan.clone(), |comm| {
            let mut results = Vec::new();
            for round in 0..4u64 {
                match comm.allreduce_scalar_u64(ReduceOp::Sum, round + comm.rank() as u64) {
                    Ok(v) => results.push(Ok(v)),
                    Err(e) => {
                        results.push(Err(e));
                        break;
                    }
                }
            }
            results
        })
    };
    let a = run();
    assert_eq!(a, run(), "crash outcome must replay from (plan, seed): {}", plan.summary());
    // Two clean rounds everywhere.
    for r in &a {
        #[expect(clippy::identity_op, reason = "the spelled-out rank sum documents who joined")]
        {
            assert_eq!(r[0], Ok(0 + 1 + 2));
            assert_eq!(r[1], Ok(3 + 1 + 2));
        }
    }
    // Round 2: everyone observes the same typed failure.
    for (rank, r) in a.iter().enumerate() {
        assert_eq!(r.len(), 3, "rank {rank} should stop at the failed round");
        assert_eq!(r[2], Err(CommError::RankFailed { rank: 1 }), "rank {rank}: {:?}", r[2]);
    }
}

#[test]
fn shrink_excludes_the_dead_and_survivors_continue() {
    // Rank 2 of 4 dies; survivors shrink and keep computing on the smaller
    // communicator, with world identities preserved.
    let plan = FaultPlan::ideal(21).with_crash_at_collective(2, 1);
    let out = Universe::run_with_plan(4, plan, |comm| {
        let mut sums = Vec::new();
        loop {
            match comm.allreduce_scalar_u64(ReduceOp::Sum, comm.world_rank() as u64) {
                Ok(v) => sums.push(v),
                Err(CommError::RankFailed { rank }) if rank == comm.world_rank() => {
                    return (sums, None); // this rank is the casualty
                }
                Err(CommError::RankFailed { .. }) => break,
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }
        let small = comm.shrink().unwrap();
        assert_eq!(small.size(), 3);
        assert_eq!(small.members(), &[0, 1, 3]);
        assert_eq!(small.world_rank(), comm.world_rank());
        // Survivor sum over world ranks: 0 + 1 + 3.
        let v = small.allreduce_scalar_u64(ReduceOp::Sum, small.world_rank() as u64).unwrap();
        let b = small.bcast_u64(0, (small.rank() == 0).then_some(99)).unwrap();
        (sums, Some((small.rank(), v, b)))
    });
    // One clean round before the crash (rank 2 joins seq 0, dies at seq 1).
    for (rank, (sums, after)) in out.iter().enumerate() {
        #[expect(clippy::identity_op, reason = "the spelled-out rank sum documents who joined")]
        {
            assert_eq!(sums, &[0 + 1 + 2 + 3], "rank {rank} pre-crash rounds");
        }
        if rank == 2 {
            assert!(after.is_none(), "the dead rank cannot continue");
        } else {
            let (small_rank, v, b) = after.unwrap();
            let expected_rank = [0, 1, usize::MAX, 2][rank];
            assert_eq!(small_rank, expected_rank);
            assert_eq!(v, 4);
            assert_eq!(b, 99);
        }
    }
}

#[test]
fn after_polls_crash_fires_mid_overlap() {
    // An AfterPolls crash consumes the rank's poll budget across its
    // overlapped test() loops — it dies with a reduction in flight, and the
    // failure is observed through the *request*, not a fresh collective.
    let plan = FaultPlan::ideal(3).with_collective_delay(2, 6).with_crash_after_polls(1, 10);
    let run = || {
        Universe::run_with_plan(2, plan.clone(), |comm| {
            let mut polls = 0u64;
            for round in 0..8u64 {
                let mut req = match comm.ireduce_sum_u64(0, &[round]) {
                    Ok(r) => r,
                    Err(e) => return (polls, round, Some(e)),
                };
                loop {
                    match req.test() {
                        Ok(true) => break,
                        Ok(false) => polls += 1,
                        Err(e) => return (polls, round, Some(e)),
                    }
                }
            }
            (polls, 8, None)
        })
    };
    let a = run();
    assert_eq!(a, run(), "mid-overlap crash must replay identically: {}", plan.summary());
    let (polls, _round, err) = &a[1];
    // The 10th unsuccessful poll is the crash tick.
    assert_eq!(*polls, 9, "rank 1 dies on its 10th poll");
    assert_eq!(err.as_ref(), Some(&CommError::RankFailed { rank: 1 }));
    // Rank 0 eventually observes the same world-rank failure.
    assert_eq!(a[0].2.as_ref().and_then(CommError::failed_rank), Some(1));
}

#[test]
fn shrink_generations_and_split_children_use_independent_salts() {
    // Regression (satellite b): split children of a communicator that later
    // shrinks must not alias the shrunk communicator's hash-stream salt, and
    // successive shrink generations must draw distinct streams too —
    // otherwise post-recovery delay schedules silently replay pre-failure
    // ones.
    let plan = FaultPlan::ideal(17).with_collective_delay(4, 20);
    let out = Universe::run_with_plan(3, plan, |comm| {
        let split_child = comm.split(0, comm.rank() as i64).unwrap();
        let gen0 = comm.shrink().unwrap(); // nobody dead: full-membership shrink
        let gen1 = comm.shrink().unwrap();
        let post_split = gen0.split(0, gen0.rank() as i64).unwrap();
        assert_eq!(gen0.size(), 3);
        assert_eq!(gen1.size(), 3);
        vec![comm.salt(), split_child.salt(), gen0.salt(), gen1.salt(), post_split.salt()]
    });
    // All ranks agree on every derived salt...
    assert_eq!(out[0], out[1]);
    assert_eq!(out[0], out[2]);
    // ...and the five streams are pairwise distinct.
    let salts = &out[0];
    for i in 0..salts.len() {
        for j in (i + 1)..salts.len() {
            assert_ne!(
                salts[i], salts[j],
                "salt stream aliasing between communicators {i} and {j}: {salts:?}"
            );
        }
    }
}

#[test]
fn recv_from_a_dead_rank_fails_typed_but_buffered_sends_survive() {
    // A message posted before the sender's death is still deliverable
    // (buffered send, as in MPI); once the stream is drained, further recvs
    // fail with RankFailed instead of hanging until the deadlock timeout.
    let plan = FaultPlan::ideal(7).with_crash_at_collective(0, 0);
    let out = Universe::run_with_plan(2, plan, |comm| {
        if comm.rank() == 0 {
            comm.send_u64s(1, 3, &[41, 42]);
            let died = comm.barrier(); // crash point: dies instead of joining
            (Vec::new(), died.err())
        } else {
            let payload = comm.recv_u64s(0, 3).unwrap();
            let starved = comm.recv_u64s(0, 3);
            (payload, starved.err())
        }
    });
    assert_eq!(out[0].1, Some(CommError::RankFailed { rank: 0 }));
    assert_eq!(out[1].0, vec![41, 42]);
    assert_eq!(out[1].1, Some(CommError::RankFailed { rank: 0 }));
}

// ----------------------------------------------------------------------
// Elastic grow
// ----------------------------------------------------------------------

use crate::ElasticRank;

#[test]
fn grow_admits_standbys_in_world_rank_order() {
    let out = Universe::run_elastic(2, 2, FaultPlan::ideal(3), |role| {
        let comm = match role {
            ElasticRank::Founding(comm) => {
                assert_eq!(comm.size(), 2);
                comm.grow(2).unwrap()
            }
            ElasticRank::Standby(s) => s.wait_admission().unwrap(),
        };
        assert_eq!(comm.size(), 4);
        assert_eq!(comm.members(), &[0, 1, 2, 3]);
        // The grown communicator is fully functional: a collective over all
        // four members (incumbents and newcomers in lockstep).
        let sum = comm.allreduce_sum_u64(&[comm.world_rank() as u64]).unwrap();
        assert_eq!(sum, vec![6]);
        (comm.rank(), comm.world_rank())
    });
    assert_eq!(out, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
}

#[test]
fn grow_with_exhausted_pool_admits_fewer() {
    // Requesting more ranks than the standby pool holds admits what exists.
    let out = Universe::run_elastic(1, 1, FaultPlan::ideal(4), |role| match role {
        ElasticRank::Founding(comm) => comm.grow(3).unwrap().size(),
        ElasticRank::Standby(s) => s.wait_admission().unwrap().size(),
    });
    assert_eq!(out, vec![2, 2]);
}

#[test]
fn unadmitted_standbys_fail_like_dead_ranks() {
    // A world that never grows releases its standbys at the end; their
    // wait_admission reports RankFailed with their own world rank — the
    // same shape the drivers already map to a dead outcome.
    let out = Universe::run_elastic(1, 2, FaultPlan::ideal(5), |role| match role {
        ElasticRank::Founding(comm) => {
            comm.barrier().unwrap();
            None
        }
        ElasticRank::Standby(s) => {
            let wr = s.world_rank();
            let e = s.wait_admission().err();
            assert_eq!(e.as_ref().and_then(CommError::failed_rank), Some(wr));
            Some(wr)
        }
    });
    assert_eq!(out, vec![None, Some(1), Some(2)]);
}

#[test]
fn grow_extra_mismatch_poisons_the_communicator() {
    let out = Universe::run_elastic(2, 1, FaultPlan::ideal(6), |role| match role {
        ElasticRank::Founding(comm) => {
            let extra = if comm.rank() == 0 { 1 } else { 2 };
            comm.grow(extra).err().map(|e| matches!(e, CommError::Poisoned { .. }))
        }
        ElasticRank::Standby(s) => {
            // The poisoned grow never admits anyone; the standby is
            // released when the founding ranks exit.
            assert!(s.wait_admission().is_err());
            None
        }
    });
    assert_eq!(out[0], Some(true));
    assert_eq!(out[1], Some(true));
}

#[test]
fn grow_excuses_a_member_that_dies_at_the_boundary() {
    // Rank 1's crash fires at the grow checkpoint: it dies instead of
    // joining, the grow completes over the survivors, and the admitted
    // standby takes the freed communicator rank.
    let plan = FaultPlan::ideal(8).with_crash_at_collective(1, 0);
    let out = Universe::run_elastic(2, 1, plan, |role| match role {
        ElasticRank::Founding(comm) => {
            if comm.rank() == 1 {
                return comm.grow(1).err().and_then(|e| e.failed_rank());
            }
            let g = comm.grow(1).unwrap();
            assert_eq!(g.size(), 2);
            assert_eq!(g.members(), &[0, 2]);
            None
        }
        ElasticRank::Standby(s) => {
            let g = s.wait_admission().unwrap();
            assert_eq!(g.rank(), 1);
            assert_eq!(g.members(), &[0, 2]);
            None
        }
    });
    assert_eq!(out[1], Some(1));
}

#[test]
fn grown_comm_and_split_children_use_independent_salts() {
    // Regression (satellite b, elastic mirror of the shrink aliasing test):
    // split children of a *grown* communicator must draw hash streams
    // independent of the parent, of pre-grow split children, of the grow
    // generation itself, and of a subsequent shrink — otherwise post-grow
    // delay schedules silently replay pre-grow ones.
    let plan = FaultPlan::ideal(23).with_collective_delay(4, 20);
    let out = Universe::run_elastic(2, 1, plan, |role| match role {
        ElasticRank::Founding(comm) => {
            let pre_split = comm.split(0, comm.rank() as i64).unwrap();
            let gen0 = comm.grow(1).unwrap();
            assert_eq!(gen0.size(), 3);
            let gen1 = gen0.grow(0).unwrap();
            let post_split = gen0.split(0, gen0.rank() as i64).unwrap();
            let shrunk = gen0.shrink().unwrap(); // nobody dead: full membership
            vec![
                comm.salt(),
                pre_split.salt(),
                gen0.salt(),
                gen1.salt(),
                post_split.salt(),
                shrunk.salt(),
            ]
        }
        ElasticRank::Standby(s) => {
            let gen0 = s.wait_admission().unwrap();
            assert_eq!(gen0.rank(), 2);
            let gen1 = gen0.grow(0).unwrap();
            let post_split = gen0.split(0, gen0.rank() as i64).unwrap();
            let shrunk = gen0.shrink().unwrap();
            vec![gen0.salt(), gen1.salt(), post_split.salt(), shrunk.salt()]
        }
    });
    // All members agree on every stream they share...
    assert_eq!(out[0], out[1]);
    assert_eq!(out[2], out[0][2..].to_vec());
    // ...and the six streams are pairwise distinct.
    let salts = &out[0];
    for i in 0..salts.len() {
        for j in (i + 1)..salts.len() {
            assert_ne!(
                salts[i], salts[j],
                "salt stream aliasing between communicators {i} and {j}: {salts:?}"
            );
        }
    }
}
