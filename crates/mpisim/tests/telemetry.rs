//! Tracer wiring of the simulated MPI runtime: collectives and overlapped
//! polls show up in the telemetry summary, and the
//! recorded event stream is deterministic under a fault plan.

use kadabra_mpisim::{FaultPlan, Universe};
use kadabra_telemetry::{CounterId, Event, MarkId, Telemetry};
use std::sync::Arc;

#[test]
fn collectives_are_traced() {
    let tel = Arc::new(Telemetry::tracing());
    Universe::run(2, |comm| {
        let w = tel.writer(comm.rank() as u32, 0);
        comm.set_tracer(w);
        // One non-blocking barrier polled to completion...
        let mut req = comm.ibarrier().unwrap();
        while !req.test().unwrap() {}
        // ...and one blocking allreduce.
        let total = comm.allreduce_sum_u64(&[1]).unwrap();
        assert_eq!(total, [2]);
    });
    let s = tel.summary();
    assert_eq!(s.producers, 2);
    // Each rank joined 2 collectives (ibarrier + allreduce).
    assert_eq!(s.counter(CounterId::Collectives), 4);
    let events = tel.events();
    let marks = |id: MarkId| events.iter().filter(|e| e.id == id as u8).count();
    assert_eq!(marks(MarkId::CollectiveStart), 4);
    // Every collective also resolved at every rank.
    assert_eq!(marks(MarkId::CollectiveComplete), 4);
}

#[test]
fn split_children_inherit_the_tracer() {
    let tel = Arc::new(Telemetry::stats_only());
    Universe::run(4, |comm| {
        comm.set_tracer(tel.writer(comm.rank() as u32, 0));
        let sub = comm.split(u32::try_from(comm.rank() % 2).unwrap_or(0), 0).unwrap();
        sub.barrier().unwrap();
    });
    // 4 splits + 4 child barriers, all attributed to the same recorders.
    assert_eq!(tel.summary().counter(CounterId::Collectives), 8);
    assert_eq!(tel.summary().producers, 4);
}

#[test]
fn plan_runs_trace_deterministically() {
    let run = || -> Vec<Event> {
        let tel = Arc::new(Telemetry::deterministic(1024));
        let plan = FaultPlan::ideal(11).with_collective_delay(1, 5);
        Universe::run_with_plan(2, plan, |comm| {
            comm.set_tracer(tel.writer(comm.rank() as u32, 0));
            let mut req = comm.ireduce_sum_u64(0, &[comm.rank() as u64 + 1]).unwrap();
            let mut polls = 0u64;
            while !req.test().unwrap() {
                polls += 1;
            }
            if comm.rank() == 0 {
                assert_eq!(req.into_result().flatten(), Some(vec![3]));
            }
            polls
        });
        tel.events()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "telemetry events must be a pure function of (plan, seed)");
    // Deterministic mode: wall clocks suppressed; the injected delays ticked
    // the logical clock before the completion marker was recorded.
    assert!(a.iter().all(|e| e.wall_ns == 0));
    assert!(a.iter().filter(|e| e.id == MarkId::CollectiveComplete as u8).any(|e| e.logical > 0));
}
