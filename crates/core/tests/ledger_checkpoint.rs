//! Property tests of [`SampleLedger`] checkpoint serialization (ISSUE 7):
//! for random confirm histories, `to_bytes`/`from_bytes` must round-trip the
//! `[Σc̃, τ]` state exactly — including under concurrent readers restoring
//! from the same image while refinement continues — and every single-byte
//! corruption of an image must be rejected.

use kadabra_core::{CheckpointError, SampleLedger};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic pseudo-random frame stream (the test's own LCG, so case
/// shrinking stays meaningful).
fn frames(n: usize, count: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..count)
        .map(|_| {
            (0..=n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 97
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// checkpoint → crash → restore → continued refinement: the restored
    /// ledger must equal the original at checkpoint time, and confirming the
    /// same suffix on both must conserve `[Σc̃, τ]` word for word.
    #[test]
    fn round_trip_conserves_state_through_continued_refinement(
        n in 1usize..40,
        total in 1usize..12,
        cut_raw in 0usize..12,
        seed in 0u64..1024,
    ) {
        let cut = cut_raw % total;
        let all = frames(n, total, seed);
        let mut live = SampleLedger::new(n);
        for f in &all[..cut] {
            live.confirm_dense(f);
        }
        let image = live.to_bytes();
        let mut restored = SampleLedger::from_bytes(&image).expect("valid image");
        prop_assert_eq!(restored.frame(), live.frame(), "restore must be bit-exact");
        prop_assert_eq!(restored.tau(), live.tau());
        // The "crash": the live ledger keeps going; so does the restored
        // one. Conservation means they stay identical word for word.
        for f in &all[cut..] {
            live.confirm_dense(f);
            restored.confirm_dense(f);
        }
        prop_assert_eq!(restored.frame(), live.frame(), "post-restore refinement diverged");
        let expect_tau: u64 = all.iter().map(|f| f[n]).sum();
        prop_assert_eq!(live.tau(), expect_tau, "τ not conserved");
    }

    /// Any single-byte corruption of a checkpoint image must be rejected
    /// with a typed error, never silently restored.
    #[test]
    fn single_byte_corruption_is_always_rejected(
        n in 1usize..24,
        rounds in 1usize..6,
        seed in 0u64..1024,
        victim in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut l = SampleLedger::new(n);
        for f in frames(n, rounds, seed) {
            l.confirm_dense(&f);
        }
        let good = l.to_bytes();
        let mut bad = good.clone();
        let at = victim % bad.len();
        bad[at] ^= flip;
        match SampleLedger::from_bytes(&bad) {
            Ok(_) => prop_assert!(false, "corruption at byte {} accepted", at),
            Err(
                CheckpointError::Truncated | CheckpointError::BadMagic | CheckpointError::Corrupt,
            ) => {}
        }
        // And the pristine image still restores.
        prop_assert!(SampleLedger::from_bytes(&good).is_ok());
    }

    /// One image, many concurrent restorers: readers sharing the bytes while
    /// the writer keeps refining its own ledger must each reconstruct the
    /// checkpoint-time state exactly.
    #[test]
    fn concurrent_readers_restore_the_same_state(
        n in 1usize..24,
        rounds in 1usize..6,
        seed in 0u64..1024,
    ) {
        let mut live = SampleLedger::new(n);
        for f in frames(n, rounds, seed) {
            live.confirm_dense(&f);
        }
        let image = Arc::new(live.to_bytes());
        let want = live.frame().to_vec();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let image = Arc::clone(&image);
                std::thread::spawn(move || {
                    SampleLedger::from_bytes(&image).expect("valid image").frame().to_vec()
                })
            })
            .collect();
        // The writer refines past the checkpoint while readers restore.
        for f in frames(n, rounds, seed ^ 0xABCD) {
            live.confirm_dense(&f);
        }
        for r in readers {
            let got = r.join().expect("reader thread");
            prop_assert_eq!(&got, &want, "a concurrent restore diverged");
        }
        prop_assert!(live.tau() >= want[n], "the writer's τ went backwards");
    }
}
