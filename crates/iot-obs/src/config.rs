//! Environment-driven configuration.
//!
//! Four variables control the layer. They are read **once per process**
//! into a single [`OnceLock`]-cached [`ObsConfig`] — every call-site
//! gate (`enabled()`, `verbose()`, report paths, the serve address, the
//! allocator switch) resolves through that one cached struct, so a
//! mid-run environment mutation can never produce a half-enabled run
//! where some shards record and others don't.
//!
//! * `IOT_OBS` — verbosity. `0`/unset: disabled (near-zero overhead);
//!   `1`: metrics recorded and run reports written; `2`: additionally
//!   print [`progress!`](crate::progress) lines to stderr.
//! * `IOT_OBS_OUT` — run-report path (default `results/obs_run.json`).
//! * `IOT_OBS_SERVE` — bind address (e.g. `127.0.0.1:9464`) for the live
//!   HTTP telemetry endpoint (see [`crate::serve`]). Unset: no server.
//! * `IOT_OBS_ALLOC` — `1` turns on the instrumented global allocator
//!   (see [`crate::alloc`]); independent of `IOT_OBS` so memory can be
//!   profiled without span recording and vice versa. The allocator
//!   itself never reads the environment (that would allocate); this
//!   module flips its flag when the config is first resolved.

use std::sync::OnceLock;

/// Default run-report path when `IOT_OBS_OUT` is unset.
pub const DEFAULT_OUT: &str = "results/obs_run.json";

/// Resolved configuration.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Verbosity level (0 = off, 1 = metrics, 2 = metrics + progress).
    pub verbosity: u8,
    /// Run-report output path.
    pub out_path: String,
    /// Live telemetry endpoint bind address (`IOT_OBS_SERVE`), if any.
    pub serve_addr: Option<String>,
    /// Instrumented-allocator gate (`IOT_OBS_ALLOC`).
    pub alloc: bool,
}

impl ObsConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        let verbosity = std::env::var("IOT_OBS")
            .ok()
            .and_then(|v| v.trim().parse::<u8>().ok())
            .unwrap_or(0);
        let out_path =
            std::env::var("IOT_OBS_OUT").unwrap_or_else(|_| DEFAULT_OUT.to_string());
        let serve_addr = std::env::var("IOT_OBS_SERVE")
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty());
        let alloc = std::env::var("IOT_OBS_ALLOC")
            .ok()
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false);
        ObsConfig {
            verbosity,
            out_path,
            serve_addr,
            alloc,
        }
    }
}

/// The process-wide configuration, read from the environment on first
/// use and cached for the lifetime of the process.
pub fn global() -> &'static ObsConfig {
    static CONFIG: OnceLock<ObsConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let cfg = ObsConfig::from_env();
        // The allocator cannot read IOT_OBS_ALLOC itself (env access
        // allocates, which would recurse); arm it here, once, when the
        // config first resolves. Benches may still override later via
        // `alloc::set_enabled`.
        if cfg.alloc {
            crate::alloc::set_enabled(true);
        }
        cfg
    })
}

/// Whether metric recording is enabled (`IOT_OBS >= 1`).
pub fn enabled() -> bool {
    global().verbosity >= 1
}

/// Whether progress logging is enabled (`IOT_OBS >= 2`).
pub fn verbose() -> bool {
    global().verbosity >= 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_defaults_are_quiet() {
        // The test environment does not set IOT_OBS* (verify.sh only sets
        // them for specific child processes), so defaults apply.
        let c = ObsConfig::from_env();
        if std::env::var("IOT_OBS").is_err() {
            assert_eq!(c.verbosity, 0);
        }
        if std::env::var("IOT_OBS_OUT").is_err() {
            assert_eq!(c.out_path, DEFAULT_OUT);
        }
        if std::env::var("IOT_OBS_SERVE").is_err() {
            assert_eq!(c.serve_addr, None);
        }
        if std::env::var("IOT_OBS_ALLOC").is_err() {
            assert!(!c.alloc);
        }
    }

    #[test]
    fn global_is_cached_once() {
        // Two reads must return the very same allocation — the OnceLock
        // guarantee that call sites can never observe two configs.
        let a = global() as *const ObsConfig;
        let b = global() as *const ObsConfig;
        assert_eq!(a, b);
    }
}
