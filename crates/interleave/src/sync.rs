//! Checkable sync primitives: mutexes and atomics with a std passthrough
//! backend and a model backend driven by the schedule explorer.
//!
//! Construction decides the backend (see the crate's `ctx` module): inside
//! a model execution the primitive registers an object with the engine and
//! every operation becomes a schedule point; outside, operations compile to
//! a single enum branch around the `std::sync` call.
//!
//! # Poisoning
//!
//! [`IMutex::lock`] never returns a `PoisonError`: a poisoned lock is
//! recovered with `into_inner`. Rationale: the daemon's shared state
//! (per-connection shards, stats counters, the policy cell) is updated
//! under short critical sections whose partial effects are themselves
//! consistent (counters may under-report by the interrupted batch, which
//! the snapshot equivalence machinery already tolerates for a killed
//! connection). Propagating the poison instead turned any worker panic
//! into a cascading daemon abort — the failure mode this replaces.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ctx;
use crate::exec::{Execution, ObjId, Op, OpKind};

/// Debug-build guard: a std-backed primitive operated inside a model
/// execution is an untracked operation the explorer cannot schedule
/// around — a modeling bug. Free in release builds.
#[inline]
fn assert_outside_model() {
    #[cfg(debug_assertions)]
    {
        assert!(
            !ctx::in_model(),
            "a std-backed interleave primitive (constructed outside the model \
             closure) was used inside a model execution; construct it inside \
             the closure so the explorer can track it"
        );
    }
}

fn recover<'a, T>(
    r: Result<std::sync::MutexGuard<'a, T>, std::sync::PoisonError<std::sync::MutexGuard<'a, T>>>,
) -> std::sync::MutexGuard<'a, T> {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// IMutex
// ---------------------------------------------------------------------------

enum MutexRepr<T> {
    Std(std::sync::Mutex<T>),
    Model {
        exec: Arc<Execution>,
        obj: ObjId,
        // Never contended: the real lock is taken only after the model
        // grants `Lock(obj)`, and the scheduler runs one task at a time.
        inner: std::sync::Mutex<T>,
    },
}

/// A mutex that the interleaving explorer can schedule around. Drop-in
/// for the `std::sync::Mutex` uses in the concurrency-critical modules
/// (no `try_lock`, poison recovered internally — see module docs).
pub struct IMutex<T> {
    repr: MutexRepr<T>,
}

impl<T> IMutex<T> {
    pub fn new(value: T) -> IMutex<T> {
        let repr = match ctx::current() {
            None => MutexRepr::Std(std::sync::Mutex::new(value)),
            Some(c) => MutexRepr::Model {
                obj: c.exec.register_mutex(),
                exec: c.exec,
                inner: std::sync::Mutex::new(value),
            },
        };
        IMutex { repr }
    }

    /// Acquire the lock, recovering from poisoning (module docs).
    pub fn lock(&self) -> IMutexGuard<'_, T> {
        match &self.repr {
            MutexRepr::Std(m) => {
                assert_outside_model();
                IMutexGuard {
                    repr: GuardRepr::Std(recover(m.lock())),
                }
            }
            MutexRepr::Model { exec, obj, inner } => {
                let me = ctx::current()
                    .expect("model mutex used outside execution")
                    .task;
                exec.schedule(
                    me,
                    Op {
                        kind: OpKind::Lock,
                        obj: *obj,
                    },
                );
                IMutexGuard {
                    repr: GuardRepr::Model {
                        real: Some(recover(inner.lock())),
                        exec,
                        obj: *obj,
                    },
                }
            }
        }
    }

    /// Consume the mutex, returning the inner value (poison recovered).
    pub fn into_inner(self) -> T {
        let m = match self.repr {
            MutexRepr::Std(m) => m,
            MutexRepr::Model { inner, .. } => inner,
        };
        match m.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for IMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = match &self.repr {
            MutexRepr::Std(m) => m,
            MutexRepr::Model { inner, .. } => inner,
        };
        f.debug_tuple("IMutex").field(m).finish()
    }
}

impl<T: Default> Default for IMutex<T> {
    fn default() -> IMutex<T> {
        IMutex::new(T::default())
    }
}

enum GuardRepr<'a, T> {
    Std(std::sync::MutexGuard<'a, T>),
    Model {
        real: Option<std::sync::MutexGuard<'a, T>>,
        exec: &'a Arc<Execution>,
        obj: ObjId,
    },
}

/// RAII guard returned by [`IMutex::lock`]; the model backend announces
/// the unlock as a schedule point on drop.
pub struct IMutexGuard<'a, T> {
    repr: GuardRepr<'a, T>,
}

impl<T> std::ops::Deref for IMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.repr {
            GuardRepr::Std(g) => g,
            GuardRepr::Model { real, .. } => real.as_ref().expect("guard alive"),
        }
    }
}

impl<T> std::ops::DerefMut for IMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.repr {
            GuardRepr::Std(g) => g,
            GuardRepr::Model { real, .. } => real.as_mut().expect("guard alive"),
        }
    }
}

impl<T> Drop for IMutexGuard<'_, T> {
    fn drop(&mut self) {
        if let GuardRepr::Model { real, exec, obj } = &mut self.repr {
            // Release the real lock before announcing the model unlock so
            // the next grantee can take it without contention.
            *real = None;
            if let Some(c) = ctx::current() {
                exec.schedule(
                    c.task,
                    Op {
                        kind: OpKind::Unlock,
                        obj: *obj,
                    },
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Generates an atomic wrapper type: passthrough to the std atomic
/// outside a model, one schedule point per operation inside.
macro_rules! checkable_atomic {
    ($name:ident, $std:ident, $prim:ty, $doc:literal) => {
        #[doc = $doc]
        pub struct $name {
            repr: AtomicRepr<$std>,
        }

        impl $name {
            pub fn new(value: $prim) -> $name {
                let repr = match ctx::current() {
                    None => AtomicRepr::Std($std::new(value)),
                    Some(c) => AtomicRepr::Model {
                        obj: c.exec.register_atomic(),
                        exec: c.exec,
                        inner: $std::new(value),
                    },
                };
                $name { repr }
            }

            fn point(&self, kind: OpKind) -> &$std {
                match &self.repr {
                    AtomicRepr::Std(a) => {
                        assert_outside_model();
                        a
                    }
                    AtomicRepr::Model { exec, obj, inner } => {
                        let me = ctx::current()
                            .expect("model atomic used outside execution")
                            .task;
                        exec.schedule(me, Op { kind, obj: *obj });
                        inner
                    }
                }
            }

            pub fn load(&self, order: Ordering) -> $prim {
                self.point(OpKind::Load).load(order)
            }

            pub fn store(&self, value: $prim, order: Ordering) {
                self.point(OpKind::Store).store(value, order)
            }

            pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                self.point(OpKind::Rmw).swap(value, order)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let a = match &self.repr {
                    AtomicRepr::Std(a) => a,
                    AtomicRepr::Model { inner, .. } => inner,
                };
                f.debug_tuple(stringify!($name)).field(a).finish()
            }
        }
    };
}

enum AtomicRepr<A> {
    Std(A),
    Model {
        exec: Arc<Execution>,
        obj: ObjId,
        inner: A,
    },
}

checkable_atomic!(
    IAtomicU64,
    AtomicU64,
    u64,
    "A `u64` counter the interleaving explorer can schedule around."
);
checkable_atomic!(
    IAtomicUsize,
    AtomicUsize,
    usize,
    "A `usize` gauge the interleaving explorer can schedule around."
);
checkable_atomic!(
    IAtomicBool,
    AtomicBool,
    bool,
    "A `bool` flag the interleaving explorer can schedule around. The \
     passthrough backend is a plain `AtomicBool`, so `store` on the std \
     repr stays async-signal-safe (the SIGINT handler relies on this)."
);

impl IAtomicU64 {
    pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        self.point(OpKind::Rmw).fetch_add(value, order)
    }

    pub fn fetch_sub(&self, value: u64, order: Ordering) -> u64 {
        self.point(OpKind::Rmw).fetch_sub(value, order)
    }

    pub fn fetch_max(&self, value: u64, order: Ordering) -> u64 {
        self.point(OpKind::Rmw).fetch_max(value, order)
    }

    /// Direct access to the underlying std atomic — passthrough repr
    /// only. The one legitimate caller is the SIGINT handler path, which
    /// must stay async-signal-safe and can tolerate panicking on a model
    /// repr (models never install signal handlers).
    pub fn as_std(&self) -> &AtomicU64 {
        match &self.repr {
            AtomicRepr::Std(a) => a,
            AtomicRepr::Model { .. } => {
                panic!("as_std on a model-backed atomic")
            }
        }
    }
}

impl IAtomicUsize {
    pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
        self.point(OpKind::Rmw).fetch_add(value, order)
    }

    pub fn fetch_sub(&self, value: usize, order: Ordering) -> usize {
        self.point(OpKind::Rmw).fetch_sub(value, order)
    }
}

impl IAtomicBool {
    /// Direct access to the underlying std atomic — passthrough repr
    /// only (see [`IAtomicU64::as_std`]).
    pub fn as_std(&self) -> &AtomicBool {
        match &self.repr {
            AtomicRepr::Std(a) => a,
            AtomicRepr::Model { .. } => {
                panic!("as_std on a model-backed atomic")
            }
        }
    }
}

impl Default for IAtomicU64 {
    fn default() -> IAtomicU64 {
        IAtomicU64::new(0)
    }
}

impl Default for IAtomicUsize {
    fn default() -> IAtomicUsize {
        IAtomicUsize::new(0)
    }
}

impl Default for IAtomicBool {
    fn default() -> IAtomicBool {
        IAtomicBool::new(false)
    }
}
