//! Service-runtime primitives shared by the query engine, the reasoner,
//! and the G-SACS service layer: an injectable [`Clock`] and a
//! cooperative per-request [`Deadline`].
//!
//! Both the query evaluator's join loops and the reasoner's fixpoint loop
//! are unbounded in the worst case; a [`Deadline`] armed from a request
//! [`Budget`] lets them cancel cooperatively instead of hanging a
//! request forever. The clock is a trait so resilience tests can drive
//! time manually ([`ManualClock`]) — breaker cooldowns and deadline
//! expiries are exercised without wall-clock sleeps.

pub mod faults;
pub mod quota;

pub use faults::{splitmix64, SeedTree, SeededDecider};
pub use quota::TokenBucket;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic time source. `now` is measured from the clock's own epoch;
/// only differences are meaningful.
pub trait Clock: Send + Sync {
    /// Monotonic time since this clock's epoch.
    fn now(&self) -> Duration;

    /// Block (or simulate blocking) for `d`.
    fn sleep(&self, d: Duration);

    /// Interruptible wait: like [`Clock::sleep`], but an implementation
    /// may return early when the waiting thread is woken (e.g.
    /// [`std::thread::Thread::unpark`]). Poll loops idle on `park`
    /// instead of `sleep` so a shutdown (or a simulated world) can wake
    /// them immediately rather than waiting out the interval. The
    /// default delegates to `sleep`; [`SystemClock`] parks the thread.
    fn park(&self, d: Duration) {
        self.sleep(d);
    }
}

/// The real wall clock, anchored at construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn park(&self, d: Duration) {
        // Wakeable (and tolerant of spurious wakeups — callers loop):
        // `unpark` on the waiting thread ends the wait immediately, so an
        // idle poll loop neither spins nor outlives a shutdown request.
        std::thread::park_timeout(d);
    }
}

/// A process-wide shared [`SystemClock`], for callers that don't inject
/// their own.
pub fn system_clock() -> Arc<dyn Clock> {
    static SHARED: OnceLock<Arc<SystemClock>> = OnceLock::new();
    SHARED
        .get_or_init(|| Arc::new(SystemClock::default()))
        .clone()
}

/// A hand-driven clock for deterministic tests: time moves only when
/// [`ManualClock::advance`] is called. `sleep` advances the clock by the
/// requested amount, so injected latency consumes deadline budget without
/// any real waiting.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    /// A clock starting at zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Move time forward by `d`.
    pub fn advance(&self, d: Duration) {
        *self
            .now
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) += d;
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *self
            .now
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// The resource envelope granted to one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-time allowance; `None` means unbounded.
    pub time: Option<Duration>,
}

impl Budget {
    /// No limits.
    pub const UNLIMITED: Budget = Budget { time: None };

    /// A wall-time budget.
    pub fn with_time(time: Duration) -> Budget {
        Budget { time: Some(time) }
    }

    /// The stricter of two budgets: a caller-supplied deadline can only
    /// tighten a service-wide one, never loosen it.
    #[must_use]
    pub fn tighter(self, other: Budget) -> Budget {
        Budget {
            time: match (self.time, other.time) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (t, None) | (None, t) => t,
            },
        }
    }
}

/// The request's deadline was reached; the operation was cancelled
/// cooperatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline exceeded")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// An armed, shareable deadline. Long-running loops call
/// [`Deadline::check`] each iteration and unwind with [`DeadlineExceeded`]
/// once the budget is spent. Expiry latches: once exceeded, every later
/// check fails even if a manual clock is rewound.
pub struct Deadline {
    clock: Arc<dyn Clock>,
    expires_at: Option<Duration>,
    expired: AtomicBool,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn never() -> Deadline {
        Deadline {
            clock: system_clock(),
            expires_at: None,
            expired: AtomicBool::new(false),
        }
    }

    /// Arm a deadline `budget.time` from now on `clock` (never expires for
    /// an unlimited budget).
    pub fn armed(clock: Arc<dyn Clock>, budget: Budget) -> Deadline {
        let expires_at = budget.time.map(|t| clock.now() + t);
        Deadline {
            clock,
            expires_at,
            expired: AtomicBool::new(false),
        }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        let Some(at) = self.expires_at else {
            return false;
        };
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if self.clock.now() >= at {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Cooperative cancellation point.
    pub fn check(&self) -> Result<(), DeadlineExceeded> {
        if self.expired() {
            Err(DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    /// Budget left, `None` when unbounded (saturates at zero).
    pub fn remaining(&self) -> Option<Duration> {
        self.expires_at
            .map(|at| at.saturating_sub(self.clock.now()))
    }

    /// The clock this deadline reads.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("expires_at", &self.expires_at)
            .field("expired", &self.expired.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_deadline_never_expires() {
        let d = Deadline::never();
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn manual_clock_drives_expiry() {
        let clock = Arc::new(ManualClock::new());
        let d = Deadline::armed(clock.clone(), Budget::with_time(Duration::from_millis(10)));
        assert!(d.check().is_ok());
        clock.advance(Duration::from_millis(9));
        assert!(d.check().is_ok());
        assert_eq!(d.remaining(), Some(Duration::from_millis(1)));
        clock.advance(Duration::from_millis(1));
        assert_eq!(d.check(), Err(DeadlineExceeded));
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn expiry_latches() {
        let clock = Arc::new(ManualClock::new());
        clock.advance(Duration::from_secs(5));
        let d = Deadline::armed(clock.clone(), Budget::with_time(Duration::from_secs(1)));
        clock.advance(Duration::from_secs(2));
        assert!(d.expired());
        // A rewound clock must not resurrect the request.
        *clock.now.lock().unwrap() = Duration::ZERO;
        assert!(d.expired());
    }

    #[test]
    fn manual_sleep_advances() {
        let clock = ManualClock::new();
        clock.sleep(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
    }

    #[test]
    fn tighter_takes_the_stricter_bound() {
        let short = Budget::with_time(Duration::from_millis(10));
        let long = Budget::with_time(Duration::from_secs(10));
        assert_eq!(short.tighter(long), short);
        assert_eq!(long.tighter(short), short);
        assert_eq!(Budget::UNLIMITED.tighter(short), short);
        assert_eq!(short.tighter(Budget::UNLIMITED), short);
        assert_eq!(
            Budget::UNLIMITED.tighter(Budget::UNLIMITED),
            Budget::UNLIMITED
        );
    }

    #[test]
    fn unlimited_budget_never_arms() {
        let clock = Arc::new(ManualClock::new());
        let d = Deadline::armed(clock.clone(), Budget::UNLIMITED);
        clock.advance(Duration::from_hours(1));
        assert!(d.check().is_ok());
    }
}
