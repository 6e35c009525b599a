//! `loom::sync` subset: model-aware atomics plus `Arc`.
//!
//! Each atomic wraps two real `std` atomics: `loc` caches the model's
//! generation-tagged location id (`gen << 32 | idx + 1`), and `val` holds
//! the value used when no model is running. Inside [`crate::model()`] every
//! operation is (1) a scheduling point and (2) an action on the modelled
//! store history; outside a model the wrapper delegates straight to `val`,
//! so code compiled with `--features loom` still behaves normally in
//! ordinary tests.

pub use std::sync::Arc;

/// Model-aware atomic types mirroring `std::sync::atomic`.
pub mod atomic {
    use crate::rt;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    pub use std::sync::atomic::Ordering;

    /// Failure ordering for a fallback `fetch_update` derived from the
    /// operation's ordering (`Release`/`AcqRel` are invalid for loads).
    fn fail_ord(ord: Ordering) -> Ordering {
        match ord {
            Ordering::Release => Ordering::Relaxed,
            Ordering::AcqRel => Ordering::Acquire,
            other => other,
        }
    }

    /// Resolves this atomic's location id inside the running model,
    /// registering it (with `val`'s current value as the initial store) on
    /// first use in this execution.
    fn resolve(st: &mut rt::ExecState, loc: &StdAtomicU64, val: &StdAtomicU64) -> usize {
        let packed = loc.load(Ordering::Relaxed);
        let (l, repack) = st.resolve_location(packed, val.load(Ordering::Relaxed));
        if let Some(p) = repack {
            loc.store(p, Ordering::Relaxed);
        }
        l
    }

    fn shim_load(loc: &StdAtomicU64, val: &StdAtomicU64, ord: Ordering) -> u64 {
        match rt::with_context(|exec, tid| {
            exec.schedule(tid);
            let mut st = exec.lock();
            let l = resolve(&mut st, loc, val);
            st.load(tid, l, ord)
        }) {
            Some(v) => v,
            None => val.load(ord),
        }
    }

    fn shim_store(loc: &StdAtomicU64, val: &StdAtomicU64, v: u64, ord: Ordering) {
        if rt::with_context(|exec, tid| {
            exec.schedule(tid);
            let mut st = exec.lock();
            let l = resolve(&mut st, loc, val);
            st.store(tid, l, v, ord);
        })
        .is_none()
        {
            val.store(v, ord);
        }
    }

    fn shim_rmw(
        loc: &StdAtomicU64,
        val: &StdAtomicU64,
        ord: Ordering,
        f: impl Fn(u64) -> u64,
    ) -> u64 {
        let f = &f;
        match rt::with_context(|exec, tid| {
            exec.schedule(tid);
            let mut st = exec.lock();
            let l = resolve(&mut st, loc, val);
            st.rmw(tid, l, ord, f)
        }) {
            Some(v) => v,
            None => match val.fetch_update(ord, fail_ord(ord), |v| Some(f(v))) {
                Ok(prev) => prev,
                Err(prev) => prev,
            },
        }
    }

    fn shim_cas(
        loc: &StdAtomicU64,
        val: &StdAtomicU64,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        match rt::with_context(|exec, tid| {
            exec.schedule(tid);
            let mut st = exec.lock();
            let l = resolve(&mut st, loc, val);
            st.cas(tid, l, current, new, success, failure)
        }) {
            Some(r) => r,
            None => val.compare_exchange(current, new, success, failure),
        }
    }

    macro_rules! atomic_int {
        ($(#[$meta:meta])* $name:ident, $ty:ty) => {
            $(#[$meta])*
            #[derive(Debug, Default)]
            pub struct $name {
                loc: StdAtomicU64,
                val: StdAtomicU64,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub fn new(v: $ty) -> Self {
                    Self { loc: StdAtomicU64::new(0), val: StdAtomicU64::new(v as u64) }
                }

                /// Atomic load; under the model the value read is any store
                /// this thread has not yet synchronized past.
                pub fn load(&self, ord: Ordering) -> $ty {
                    shim_load(&self.loc, &self.val, ord) as $ty
                }

                /// Atomic store.
                pub fn store(&self, v: $ty, ord: Ordering) {
                    shim_store(&self.loc, &self.val, v as u64, ord);
                }

                /// Atomically replaces the value, returning the previous one.
                pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                    shim_rmw(&self.loc, &self.val, ord, |_| v as u64) as $ty
                }

                /// Atomic wrapping add, returning the previous value.
                pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                    shim_rmw(&self.loc, &self.val, ord, |o| (o as $ty).wrapping_add(v) as u64)
                        as $ty
                }

                /// Atomic wrapping subtract, returning the previous value.
                pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                    shim_rmw(&self.loc, &self.val, ord, |o| (o as $ty).wrapping_sub(v) as u64)
                        as $ty
                }

                /// Atomic bitwise OR, returning the previous value.
                pub fn fetch_or(&self, v: $ty, ord: Ordering) -> $ty {
                    shim_rmw(&self.loc, &self.val, ord, |o| ((o as $ty) | v) as u64) as $ty
                }

                /// Atomic bitwise AND, returning the previous value.
                pub fn fetch_and(&self, v: $ty, ord: Ordering) -> $ty {
                    shim_rmw(&self.loc, &self.val, ord, |o| ((o as $ty) & v) as u64) as $ty
                }

                /// Atomic compare-and-swap.
                ///
                /// # Errors
                /// Returns the observed value when it differs from `current`.
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    shim_cas(&self.loc, &self.val, current as u64, new as u64, success, failure)
                        .map(|v| v as $ty)
                        .map_err(|v| v as $ty)
                }

                /// Weak compare-and-swap; the shim never fails spuriously.
                ///
                /// # Errors
                /// Returns the observed value when it differs from `current`.
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    atomic_int!(
        /// Model-aware `AtomicU32`.
        AtomicU32,
        u32
    );
    atomic_int!(
        /// Model-aware `AtomicU64`.
        AtomicU64,
        u64
    );
    atomic_int!(
        /// Model-aware `AtomicUsize`.
        AtomicUsize,
        usize
    );

    /// Model-aware `AtomicBool`.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        loc: StdAtomicU64,
        val: StdAtomicU64,
    }

    impl AtomicBool {
        /// Creates a new atomic with the given initial value.
        pub fn new(v: bool) -> Self {
            Self { loc: StdAtomicU64::new(0), val: StdAtomicU64::new(u64::from(v)) }
        }

        /// Atomic load; under the model the value read is any store this
        /// thread has not yet synchronized past.
        pub fn load(&self, ord: Ordering) -> bool {
            shim_load(&self.loc, &self.val, ord) != 0
        }

        /// Atomic store.
        pub fn store(&self, v: bool, ord: Ordering) {
            shim_store(&self.loc, &self.val, u64::from(v), ord);
        }

        /// Atomically replaces the value, returning the previous one.
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            shim_rmw(&self.loc, &self.val, ord, |_| u64::from(v)) != 0
        }

        /// Atomic OR, returning the previous value.
        pub fn fetch_or(&self, v: bool, ord: Ordering) -> bool {
            shim_rmw(&self.loc, &self.val, ord, |o| o | u64::from(v)) != 0
        }

        /// Atomic AND, returning the previous value.
        pub fn fetch_and(&self, v: bool, ord: Ordering) -> bool {
            shim_rmw(&self.loc, &self.val, ord, |o| o & u64::from(v)) != 0
        }

        /// Atomic compare-and-swap.
        ///
        /// # Errors
        /// Returns the observed value when it differs from `current`.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            shim_cas(&self.loc, &self.val, u64::from(current), u64::from(new), success, failure)
                .map(|v| v != 0)
                .map_err(|v| v != 0)
        }
    }
}
