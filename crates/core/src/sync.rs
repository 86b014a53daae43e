//! Poison-free lock acquisition.
//!
//! The serving stack wraps every worker in `catch_unwind`, so a panic
//! inside a critical section is survivable — but `std`'s locks then
//! return [`PoisonError`] to every later acquirer, and the pre-PR-10
//! tree dealt with that ad hoc: some sites `.unwrap()`ed (turning one
//! recovered panic into a cascade), others hand-rolled
//! `unwrap_or_else(PoisonError::into_inner)` in per-crate helpers. Both
//! shapes are now rejected: `clippy.toml` disallows the raw
//! `Mutex::lock`/`RwLock::{read, write}` calls, and this module is the
//! one blessed implementation.
//!
//! Recovery-by-`into_inner` is sound here because every structure the
//! workspace guards is kept in a consistent state *before* any call that
//! can panic (the lint's D8 rule machine-checks that no guard is held
//! across `catch_unwind`/`par_map*`/WAL appends), so observing the data
//! of a poisoned lock never observes a half-applied update.
//!
//! ```
//! use std::sync::Mutex;
//! use autotune::sync::{PoisonFree, PoisonFreeMutex};
//!
//! let m = Mutex::new(1u32);
//! *m.plock() += 1;
//! assert_eq!(*m.pread(), 2);
//! ```

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Deterministic, poison-recovering lock acquisition.
///
/// `pread`/`pwrite` mirror `RwLock::read`/`write`; for a `Mutex` both
/// return the same exclusive guard and [`PoisonFreeMutex::plock`] is the
/// idiomatic spelling. The `p` prefix is load-bearing: `autotune-lint`
/// recognises these methods as lock acquisitions (D7/D8 guard tracking)
/// while clippy's `disallowed_methods` rejects the raw calls.
pub trait PoisonFree {
    /// Shared guard type.
    type ReadGuard<'a>
    where
        Self: 'a;
    /// Exclusive guard type.
    type WriteGuard<'a>
    where
        Self: 'a;

    /// Shared acquisition, recovering from poisoning.
    fn pread(&self) -> Self::ReadGuard<'_>;

    /// Exclusive acquisition, recovering from poisoning.
    fn pwrite(&self) -> Self::WriteGuard<'_>;
}

#[expect(
    clippy::disallowed_methods,
    reason = "PoisonFree is the one blessed recovery site"
)]
impl<T: ?Sized> PoisonFree for Mutex<T> {
    type ReadGuard<'a>
        = MutexGuard<'a, T>
    where
        T: 'a;
    type WriteGuard<'a>
        = MutexGuard<'a, T>
    where
        T: 'a;

    fn pread(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn pwrite(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "PoisonFree is the one blessed recovery site"
)]
impl<T: ?Sized> PoisonFree for RwLock<T> {
    type ReadGuard<'a>
        = RwLockReadGuard<'a, T>
    where
        T: 'a;
    type WriteGuard<'a>
        = RwLockWriteGuard<'a, T>
    where
        T: 'a;

    fn pread(&self) -> RwLockReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn pwrite(&self) -> RwLockWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `plock` as a provided alias on `Mutex` so call sites read naturally.
pub trait PoisonFreeMutex<T: ?Sized> {
    /// Exclusive acquisition, recovering from poisoning.
    fn plock(&self) -> MutexGuard<'_, T>;
}

impl<T: ?Sized> PoisonFreeMutex<T> for Mutex<T> {
    fn plock(&self) -> MutexGuard<'_, T> {
        self.pwrite()
    }
}

/// Poison-recovering [`Condvar::wait`]: blocks on `cv` with `guard`,
/// returning the reacquired guard even if another holder panicked while
/// this thread slept.
pub fn pwait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    // Clippy bans the lock calls, not `Condvar::wait`, so this wait-side
    // recovery needs no `expect` — but it is blessed for the same reason
    // the ones above are.
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_plock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.plock();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*m.plock(), 7);
        *m.plock() = 8;
        assert_eq!(*m.pread(), 8);
    }

    #[test]
    fn rwlock_pread_pwrite_recover_from_poison() {
        let l = Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.pwrite();
            panic!("poison it");
        })
        .join();
        assert!(l.is_poisoned());
        assert_eq!(l.pread().len(), 3);
        l.pwrite().push(4);
        assert_eq!(l.pread().len(), 4);
    }

    #[test]
    fn pwait_wakes_and_survives_poison() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let (m, cv) = &*pair2;
            // Poison while setting the flag, then notify from the panic
            // unwinding path's sibling thread.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut flag = m.plock();
                *flag = true;
                panic!("poison with flag set");
            }));
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut flag = m.plock();
        while !*flag {
            flag = pwait(cv, flag);
        }
        assert!(*flag);
        drop(flag);
        waker.join().expect("waker thread");
    }

    #[test]
    fn guards_are_plain_std_guards() {
        // The wrapper adds no indirection: types are the std guards, so
        // existing code that stores or maps them keeps compiling.
        let m = Mutex::new(0u8);
        let g: MutexGuard<'_, u8> = m.plock();
        drop(g);
        let l = RwLock::new(0u8);
        let r: RwLockReadGuard<'_, u8> = l.pread();
        drop(r);
        let w: RwLockWriteGuard<'_, u8> = l.pwrite();
        drop(w);
    }
}
