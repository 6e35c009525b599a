//! Per-tenant admission control (DESIGN.md §13): a bounded in-flight gauge
//! plus a bounded waiter queue, with load-shed instead of unbounded
//! buffering.
//!
//! A query first tries to take an in-flight slot; if the tenant is at its
//! concurrency cap it may join the bounded waiter queue (spinning with
//! yields — queries are short), and once both bounds are hit the request is
//! shed immediately with [`crate::QueryError::Overloaded`]. All counters
//! are Relaxed: they gate work, they do not publish data.

use crate::sync::{AtomicU32, AtomicU64, Ordering};

/// Admission limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queries executing concurrently.
    pub max_in_flight: u32,
    /// Maximum queries waiting for an in-flight slot; beyond this, shed.
    pub max_queued: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_in_flight: 64, max_queued: 256 }
    }
}

/// The admission gate. One per tenant.
pub struct Admission {
    cfg: AdmissionConfig,
    in_flight: AtomicU32,
    queued: AtomicU32,
    admitted: AtomicU64,
    shed: AtomicU64,
}

/// The load-shed outcome: both the in-flight cap and the waiter queue were
/// full when the query arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed;

/// An admitted query; releases its in-flight slot on drop.
pub struct Permit<'a> {
    gate: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Admission {
    /// A gate with the given limits (`max_in_flight` floored at 1).
    pub fn new(cfg: AdmissionConfig) -> Self {
        let cfg = AdmissionConfig { max_in_flight: cfg.max_in_flight.max(1), ..cfg };
        Admission {
            cfg,
            in_flight: AtomicU32::new(0),
            queued: AtomicU32::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// CAS the in-flight gauge up if below the cap.
    fn try_slot(&self) -> bool {
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        while cur < self.cfg.max_in_flight {
            match self.in_flight.compare_exchange(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }

    /// Admits one query, waiting in the bounded queue if the tenant is at
    /// its concurrency cap. [`Shed`] means the request was load-shed: both
    /// the in-flight cap and the waiter queue were full.
    pub fn admit(&self) -> Result<Permit<'_>, Shed> {
        if self.try_slot() {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Permit { gate: self });
        }
        // Join the bounded waiter queue.
        let mut q = self.queued.load(Ordering::Relaxed);
        loop {
            if q >= self.cfg.max_queued {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(Shed);
            }
            match self.queued.compare_exchange(q, q + 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => q = now,
            }
        }
        // Queued: spin-yield until an in-flight slot frees up. Queries are
        // short, so waiters drain quickly; the bound above caps how many
        // threads can ever be parked here.
        loop {
            if self.try_slot() {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(Permit { gate: self });
            }
            std::thread::yield_now();
        }
    }

    /// Queries admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Queries shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Queries currently executing.
    pub fn in_flight(&self) -> u32 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// The configured limits.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;

    #[test]
    fn permits_release_on_drop() {
        let a = Admission::new(AdmissionConfig { max_in_flight: 2, max_queued: 0 });
        let p1 = a.admit().expect("first");
        let p2 = a.admit().expect("second");
        assert_eq!(a.in_flight(), 2);
        assert!(a.admit().is_err(), "third must shed with an empty queue");
        assert_eq!(a.shed(), 1);
        drop(p1);
        let p3 = a.admit().expect("slot freed");
        assert_eq!(a.in_flight(), 2);
        drop(p2);
        drop(p3);
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.admitted(), 3);
    }

    #[test]
    fn queued_waiter_eventually_admits() {
        let a = std::sync::Arc::new(Admission::new(AdmissionConfig {
            max_in_flight: 1,
            max_queued: 4,
        }));
        let p = a.admit().expect("holder");
        let waiter = {
            let a = std::sync::Arc::clone(&a);
            std::thread::spawn(move || a.admit().is_ok())
        };
        // Give the waiter time to queue, then release the slot so it can
        // take over.
        for _ in 0..64 {
            std::thread::yield_now();
        }
        drop(p);
        assert!(waiter.join().expect("waiter thread"), "queued waiter must admit");
        assert_eq!(a.shed(), 0);
    }

    #[test]
    fn zero_cap_is_floored_to_one() {
        let a = Admission::new(AdmissionConfig { max_in_flight: 0, max_queued: 0 });
        assert!(a.admit().is_ok());
        assert_eq!(a.config().max_in_flight, 1);
    }
}
