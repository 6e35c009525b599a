//! Property-based tests of the simulated MPI runtime's collectives.

use kadabra_mpisim::Universe;
use proptest::prelude::*;

proptest! {
    // Each case spins up real threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Vector sum-reduce computes the exact element-wise sum for arbitrary
    /// payloads and any root.
    #[test]
    fn reduce_sum_is_exact(
        ranks in 1usize..6,
        len in 0usize..64,
        root_pick in 0usize..6,
        base in proptest::collection::vec(0u64..1_000_000, 0..64),
    ) {
        let root = root_pick % ranks;
        let out = Universe::run(ranks, |comm| {
            let data: Vec<u64> = (0..len)
                .map(|i| base.get(i).copied().unwrap_or(7) + comm.rank() as u64 * 13)
                .collect();
            comm.reduce_sum_u64(root, &data).unwrap()
        });
        for (rank, res) in out.iter().enumerate() {
            if rank == root {
                let got = res.as_ref().unwrap();
                prop_assert_eq!(got.len(), len);
                for (i, &x) in got.iter().enumerate() {
                    let expect: u64 = (0..ranks)
                        .map(|r| base.get(i).copied().unwrap_or(7) + r as u64 * 13)
                        .sum();
                    prop_assert_eq!(x, expect);
                }
            } else {
                prop_assert!(res.is_none());
            }
        }
    }

    /// A one-slot all-reduce agrees with the sequential sum.
    #[test]
    fn allreduce_scalar_matches_fold(
        ranks in 1usize..6,
        values in proptest::collection::vec(0u64..1_000_000, 6),
    ) {
        let out = Universe::run(ranks, |comm| comm.allreduce_sum_u64(&[values[comm.rank()]]).unwrap());
        let expect: u64 = values[..ranks].iter().sum();
        prop_assert!(out.iter().all(|x| x == &[expect]));
    }

    /// Broadcast delivers the root's value to every rank.
    #[test]
    fn broadcast_delivers(ranks in 1usize..6, root_pick in 0usize..6, value in any::<u64>()) {
        let root = root_pick % ranks;
        let out = Universe::run(ranks, |comm| {
            comm.bcast_u64(root, (comm.rank() == root).then_some(value)).unwrap()
        });
        prop_assert!(out.iter().all(|&x| x == value));
    }

    /// Split partitions ranks by color, ordered by key, and the sub-
    /// communicators work.
    #[test]
    fn split_partitions(ranks in 2usize..7, colors in proptest::collection::vec(0u32..3, 7)) {
        let colors_for = colors.clone();
        let out = Universe::run(ranks, |comm| {
            let color = colors_for[comm.rank()];
            let sub = comm.split(color, comm.rank() as i64).unwrap();
            let members = comm.size(); // keep comm alive; use world size too
            (color, sub.rank(), sub.size(), members)
        });
        for (rank, &(color, sub_rank, sub_size, _)) in out.iter().enumerate() {
            let same: Vec<usize> = (0..ranks).filter(|&r| colors[r] == color).collect();
            prop_assert_eq!(sub_size, same.len());
            let expect_rank = same.iter().position(|&r| r == rank).unwrap();
            prop_assert_eq!(sub_rank, expect_rank);
        }
    }
}
