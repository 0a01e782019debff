//! A tiny leveled logger shared by every instrumented crate.
//!
//! The original `easypap --debug` sprinkles ad-hoc `fprintf (stderr, ...)`
//! lines; here all diagnostic output funnels through one sink with a
//! process-wide level, so `easypap --debug` and the `EZP_LOG` environment
//! variable (`EZP_LOG=debug|info|warn|error|off`) control every crate at
//! once. Messages go to stderr, keeping stdout clean for the CLI's real
//! output (CSV rows, JSON stats).
//!
//! Use the [`ezp_debug!`](crate::ezp_debug), [`ezp_info!`](crate::ezp_info),
//! [`ezp_warn!`](crate::ezp_warn) macros:
//!
//! ```
//! ezp_core::log::set_level(ezp_core::log::Level::Debug);
//! ezp_core::ezp_debug!("doctest", "threads = {}", 4);
//! ```

use std::sync::atomic::{AtomicU8, Ordering};

/// Verbosity levels, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is logged.
    Off = 0,
    /// Unrecoverable or surprising conditions.
    Error = 1,
    /// Suspicious but handled conditions.
    Warn = 2,
    /// High-level progress (one line per run phase).
    Info = 3,
    /// Everything, including per-subsystem detail (`--debug`).
    Debug = 4,
}

impl Level {
    /// Parses an `EZP_LOG` value; unknown strings mean [`Level::Off`].
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "info" => Level::Info,
            "debug" | "trace" => Level::Debug,
            _ => Level::Off,
        }
    }

    /// The label printed in front of each message.
    pub fn label(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// 255 = "not initialized yet": the first query reads `EZP_LOG`.
const UNINIT: u8 = 255;
// counter-only: the byte is the entire payload; racing initializers
// compute the same value from the same environment, so a lost store
// is harmless.
static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

/// The current level, initializing from `EZP_LOG` on first use.
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw != UNINIT {
        return decode(raw);
    }
    let from_env = std::env::var("EZP_LOG")
        .map(|v| Level::parse(&v))
        .unwrap_or(Level::Off);
    // another thread may have raced set_level; keep whatever won
    let _ = LEVEL.compare_exchange(UNINIT, from_env as u8, Ordering::Relaxed, Ordering::Relaxed);
    decode(LEVEL.load(Ordering::Relaxed))
}

fn decode(raw: u8) -> Level {
    match raw {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        _ => Level::Off,
    }
}

/// Overrides the level (e.g. `--debug` forces [`Level::Debug`]).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when a message at `l` would be printed.
pub fn enabled(l: Level) -> bool {
    l != Level::Off && l <= level()
}

/// Prints one message; use the macros instead of calling this directly.
pub fn write(l: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if enabled(l) {
        eprintln!("[ezp {:<5} {target}] {args}", l.label());
    }
}

/// Logs at [`Level::Debug`]: `ezp_debug!("sched", "stole {} tiles", n)`.
#[macro_export]
macro_rules! ezp_debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::write($crate::log::Level::Debug, $target, format_args!($($arg)+))
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! ezp_info {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::write($crate::log::Level::Info, $target, format_args!($($arg)+))
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! ezp_warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::write($crate::log::Level::Warn, $target, format_args!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_spellings() {
        assert_eq!(Level::parse("debug"), Level::Debug);
        assert_eq!(Level::parse("INFO "), Level::Info);
        assert_eq!(Level::parse("warning"), Level::Warn);
        assert_eq!(Level::parse("error"), Level::Error);
        assert_eq!(Level::parse("nope"), Level::Off);
        assert_eq!(Level::parse(""), Level::Off);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn set_level_gates_enabled() {
        // the level is process-global; restore Off so other tests are
        // unaffected whatever order they run in
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Off);
        assert!(!enabled(Level::Error));
        // the macros must compile and be silent at Off
        crate::ezp_debug!("test", "invisible {}", 1);
        crate::ezp_info!("test", "invisible");
        crate::ezp_warn!("test", "invisible");
    }
}
