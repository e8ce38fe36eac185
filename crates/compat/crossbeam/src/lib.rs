//! Offline shim for the subset of `crossbeam` used by this workspace.
//!
//! The build environment has no network access, so the workspace
//! replaces crates.io `crossbeam` with this path dependency backed by
//! `std::thread::scope` (stable since Rust 1.63). Only
//! `crossbeam::thread::scope` + `Scope::spawn` are provided. No crate
//! calls it any more (the planners are serial, and the experiments'
//! fan-out uses `std::thread::scope`); it stays in the workspace only
//! so `perfbench/Cargo.lock` is unchanged until the next benchmark
//! change removes it (DESIGN.md §11).

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub mod thread {
    use std::thread::ScopedJoinHandle;

    /// Error type carried by [`scope`]'s `Result`, mirroring
    /// crossbeam's boxed panic payload.
    pub type ScopeError = Box<dyn std::any::Any + Send + 'static>;

    /// Shim of `crossbeam::thread::Scope`. Wraps the std scope so the
    /// crossbeam spawn signature (`FnOnce(&Scope) -> T`) keeps working.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Shim of `crossbeam::thread::scope`.
    ///
    /// Behavioural note: crossbeam returns `Err` when an un-joined
    /// child panicked; `std::thread::scope` re-raises such a panic at
    /// scope exit instead, so this shim always returns `Ok` and a
    /// child panic propagates directly. Every call site in this
    /// workspace immediately `.expect()`s the result, so the
    /// observable behaviour (panic with a message) is the same.
    pub fn scope<'env, F, R>(f: F) -> Result<R, ScopeError>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_spawn_writes_through_mut_slots() {
        let mut results = vec![0usize; 8];
        super::thread::scope(|scope| {
            for (i, slot) in results.iter_mut().enumerate() {
                scope.spawn(move |_| {
                    *slot = i * i;
                });
            }
        })
        .expect("scope should not fail");
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn nested_spawn_through_scope_arg() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        super::thread::scope(|scope| {
            scope.spawn(|inner| {
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                inner.spawn(|_| {
                    counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
            });
        })
        .expect("scope should not fail");
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 2);
    }
}
