//! # fld-bench — the FlexDriver experiment harness
//!
//! One entry point per table and figure of the paper's evaluation
//! (see `DESIGN.md` § 4 for the index), exposed both as library functions
//! (so integration tests can run them at reduced scale) and as binaries
//! (`cargo run -p fld-bench --bin <experiment>`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
pub mod experiments;
pub mod fmt;
pub mod loc;
pub mod report;
pub mod runner;

use fld_sim::time::SimTime;

/// Every bench binary (and this crate's test binaries) allocates through
/// the counting wrapper, so `--prof` runs attribute heap churn per
/// engine phase. The wrapper delegates straight to the system allocator;
/// its thread-local counter bumps are in the noise next to allocation
/// itself, and the whole thing compiles away without the `prof` feature.
#[cfg(feature = "prof")]
#[global_allocator]
static ALLOC: fld_sim::prof::CountingAlloc = fld_sim::prof::CountingAlloc;

/// How long simulation-backed experiments run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Packets/bursts/messages the generator may emit.
    pub packets: u64,
    /// Measurement warm-up in milliseconds of simulated time.
    pub warmup_ms: u64,
    /// Simulated deadline in milliseconds.
    pub deadline_ms: u64,
}

impl Scale {
    /// Full scale for published numbers.
    pub fn full() -> Scale {
        Scale {
            packets: 2_000_000,
            warmup_ms: 10,
            deadline_ms: 200,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Scale {
        Scale {
            packets: 120_000,
            warmup_ms: 2,
            deadline_ms: 40,
        }
    }

    /// Measurement warm-up instant.
    pub fn warmup(&self) -> SimTime {
        SimTime::from_millis(self.warmup_ms)
    }

    /// Simulation deadline.
    pub fn deadline(&self) -> SimTime {
        SimTime::from_millis(self.deadline_ms)
    }

    /// Packet budget large enough that an open-loop generator at
    /// `offered_pps` does not run dry before the deadline (avoids
    /// under-measuring fast configurations).
    pub fn sized_packets(&self, offered_pps: f64) -> u64 {
        let need = (offered_pps * self.deadline().as_secs_f64() * 1.05) as u64;
        need.max(self.packets)
    }
}

/// Resolves the repository root from the crate's manifest directory.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

/// Parses `--quick` from argv into a [`Scale`].
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::full().packets > Scale::quick().packets);
        assert!(Scale::quick().warmup() < Scale::quick().deadline());
    }

    #[test]
    fn repo_root_contains_workspace() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
