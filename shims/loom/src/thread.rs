//! `loom::thread` subset: `spawn`, `JoinHandle`, `yield_now`.
//!
//! Inside [`crate::model()`] spawned closures run on real OS threads that are
//! sequentialized by the execution's token scheduler; outside a model they
//! delegate to `std::thread` unchanged.

use crate::rt;
use std::sync::mpsc;
use std::sync::Arc;

/// Handle to a spawned thread; mirrors `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

enum Inner<T> {
    Model { exec: Arc<rt::Execution>, child: usize, rx: mpsc::Receiver<T> },
    Std(std::thread::JoinHandle<T>),
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result.
    ///
    /// # Errors
    /// Returns the child's panic payload if it panicked (fallback mode); in
    /// model mode a child panic fails the whole model instead.
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            Inner::Model { exec, child, rx } => {
                let me = rt::with_context(|_, tid| tid)
                    .expect("loom shim: JoinHandle::join called outside the owning model");
                exec.join_thread(me, child);
                match rx.try_recv() {
                    Ok(v) => Ok(v),
                    Err(_) => Err(Box::new("loom shim: joined thread produced no value")),
                }
            }
            Inner::Std(h) => h.join(),
        }
    }
}

/// Spawns a thread. Inside a model it participates in the exhaustive
/// schedule exploration; outside it is a plain `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let ctx = rt::with_context(|exec, tid| (Arc::clone(exec), tid));
    match ctx {
        Some((exec, parent)) => {
            let child = exec.lock().register_thread(parent);
            let (tx, rx) = mpsc::channel();
            let exec2 = Arc::clone(&exec);
            let handle = std::thread::spawn(move || {
                let _guard = rt::ContextGuard::enter(Arc::clone(&exec2), child);
                exec2.wait_for_token(child);
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                    Ok(v) => {
                        // The receiver may already be dropped (detached
                        // handle); the value is then simply discarded.
                        let _ = tx.send(v);
                    }
                    Err(payload) => {
                        let msg = rt::payload_to_string(&*payload);
                        if msg != rt::ABORT_MSG {
                            exec2.fail(format!("model thread {child} panicked: {msg}"));
                        }
                    }
                }
                exec2.thread_finish(child);
            });
            match exec.real_handles.lock() {
                Ok(mut hs) => hs.push(handle),
                Err(poisoned) => poisoned.into_inner().push(handle),
            }
            // Spawning is itself a scheduling point: the child may run first.
            exec.schedule(parent);
            JoinHandle { inner: Inner::Model { exec, child, rx } }
        }
        None => JoinHandle { inner: Inner::Std(std::thread::spawn(f)) },
    }
}

/// Yield point. Inside a model the calling thread is descheduled until some
/// other thread has run (spin loops MUST yield or the model flags livelock).
pub fn yield_now() {
    if rt::with_context(|exec, tid| exec.yield_now_model(tid)).is_none() {
        std::thread::yield_now();
    }
}
