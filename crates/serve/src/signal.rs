//! Minimal async-signal-safe shutdown flag.
//!
//! The workspace vendors no `libc`/`signal-hook`, so the daemon binds the
//! C `signal(2)` entry point directly. The handler does the only thing an
//! async-signal-safe handler may do here: store into a static atomic. The
//! farm loop and every session without a supervisor control block poll
//! [`shutdown_requested`] and run the graceful-drain / checkpoint protocol
//! themselves.

use std::sync::atomic::{AtomicBool, Ordering};

/// `SIGINT` (Ctrl-C) on every Unix.
pub const SIGINT: i32 = 2;
/// `SIGTERM` — what process supervisors send first.
pub const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(super::SIGTERM, on_signal as *const () as usize);
            signal(super::SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    // Non-Unix hosts keep the default dispositions; the flag can still be
    // raised programmatically via `request_shutdown`.
    pub fn install() {}
}

/// Route `SIGTERM` and `SIGINT` into the shutdown flag. Idempotent;
/// process-wide.
pub fn install_handlers() {
    imp::install();
}

/// True once a shutdown signal arrived (or [`request_shutdown`] was called).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Raise the shutdown flag without a signal (tests, programmatic drain).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clear the flag — the process-wide static would otherwise leak a stale
/// shutdown across unit tests sharing one test binary.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trip() {
        reset();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset();
        assert!(!shutdown_requested());
    }

    #[test]
    fn install_is_idempotent() {
        install_handlers();
        install_handlers();
    }
}
