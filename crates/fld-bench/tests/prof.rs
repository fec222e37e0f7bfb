//! Self-profiler integration tests: the zero-cost-when-off guarantee
//! (profiling toggled at runtime leaves traces byte-identical and adds
//! exactly one timeline series), the telescoping phase-attribution
//! invariant on a real echo run, allocation-count reproducibility under
//! the counting allocator, the allocation-free per-tick audit on the
//! chaos rack, and the folded-stacks flamegraph format golden.
//!
//! These tests live in their own integration-test binary (= their own
//! process) because they toggle the process-wide `fld_sim::prof`
//! switch; the golden-file tests in `telemetry.rs` must never share a
//! process with an armed profiler. Within this binary every test that
//! touches the switch serializes on [`GATE`].

use std::sync::Mutex;

use fld_accel::echo::EchoAccelerator;
use fld_bench::experiments::chaos;
use fld_bench::experiments::echo::steer_to_accel;
use fld_bench::Scale;
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, RunStats, SystemConfig};
use fld_sim::prof;
use fld_sim::time::{SimDuration, SimTime};

/// Serializes tests that arm/disarm process-wide profiling.
static GATE: Mutex<()> = Mutex::new(());

/// The deterministic workload: the same closed-loop echo as the
/// telemetry goldens, with the flight recorder sampling each µs.
fn echo_run(telemetry: bool) -> RunStats {
    let cfg = SystemConfig::remote();
    let gen = ClientGen::fixed_udp(GenMode::ClosedLoop { window: 4 }, 64, 256);
    let mut sys = FldSystem::new(
        cfg,
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    steer_to_accel(&mut sys.nic);
    if telemetry {
        sys.enable_telemetry(4096);
    }
    sys.enable_flight_recorder(SimDuration::from_nanos(1_000));
    sys.run(SimTime::ZERO, SimTime::from_millis(100))
}

fn profiled_echo_run(telemetry: bool) -> RunStats {
    prof::set_enabled(true);
    let stats = echo_run(telemetry);
    prof::set_enabled(false);
    let _ = prof::take_global();
    stats
}

#[cfg(feature = "prof")]
#[test]
fn phase_fractions_telescope_on_a_real_run() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let stats = profiled_echo_run(false);
    let p = &stats.profile;
    assert!(p.enabled);
    assert!(stats.audit.passed(), "{}", stats.audit);

    // The boundary-chained phases tile the run's wall time: their
    // fractions sum to 1 within the acceptance tolerance (drift beyond
    // ±2% would mean the calibration under/over-subtracts or a segment
    // escaped attribution).
    let sum = p.fractions_sum();
    assert!((sum - 1.0).abs() < 0.02, "fractions sum {sum}");

    // Every engine phase shows up, per-event-kind dispatch included.
    let names: Vec<&str> = p.phases.iter().map(|s| s.name.as_str()).collect();
    for want in [
        "pop",
        "dispatch.ArriveAtNic",
        "sample.probes",
        "sample.audit",
    ] {
        assert!(names.contains(&want), "missing {want} in {names:?}");
    }
    let top = p.top_phase().expect("a profiled run names its top phase");
    assert!(top.total_ns > 0.0);

    // Component scopes recorded inside the probes phase.
    let scopes: Vec<&str> = p.scopes.iter().map(|s| s.name.as_str()).collect();
    assert!(
        scopes.contains(&"sample.probes.fld") && scopes.contains(&"sample.probes.stages"),
        "{scopes:?}"
    );
    // A scope is a sub-measurement of its phase, never bigger.
    let probes_phase = p.phases.iter().find(|s| s.name == "sample.probes").unwrap();
    let scope_sum: f64 = p
        .scopes
        .iter()
        .filter(|s| s.name.starts_with("sample.probes."))
        .map(|s| s.total_ns)
        .sum();
    assert!(
        scope_sum <= probes_phase.total_ns * 1.05,
        "scopes ({scope_sum} ns) exceed their phase ({} ns)",
        probes_phase.total_ns
    );

    // Calendar statistics: a drained run pops everything it pushes, and
    // the flight recorder re-armed its tick while the run was alive.
    assert_eq!(p.calendar.pushes, stats.events);
    assert_eq!(p.calendar.pops, stats.events);
    assert!(p.calendar.peak_depth >= 1);
    assert!(p.calendar.max_burst >= 1);
    assert!(p.calendar.sample_rearms > 0);

    // The per-run profile reaches the metrics snapshot too.
    assert!(stats.metrics.counter_value("prof.wall_ns").unwrap_or(0) > 0);
}

/// The counting allocator's numbers are a measurement, not noise: the
/// same deterministic workload performs the same allocations, run after
/// run. (The global allocator is installed by the fld-bench crate, so
/// this test binary counts.)
#[cfg(feature = "prof")]
#[test]
fn allocation_counts_are_reproducible_across_reruns() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let a = profiled_echo_run(false);
    let b = profiled_echo_run(false);
    let total = |s: &RunStats| {
        (
            s.profile.phases.iter().map(|p| p.allocs).sum::<u64>(),
            s.profile.phases.iter().map(|p| p.alloc_bytes).sum::<u64>(),
        )
    };
    let (allocs_a, bytes_a) = total(&a);
    let (allocs_b, bytes_b) = total(&b);
    assert!(
        allocs_a > 0,
        "the workload allocates; the counter must see it"
    );
    assert_eq!(
        allocs_a, allocs_b,
        "allocation count diverged across reruns"
    );
    assert_eq!(bytes_a, bytes_b, "allocated bytes diverged across reruns");

    // Per-kind dispatch attribution is reproducible too, not just the sum.
    for pa in &a.profile.phases {
        if !pa.name.starts_with("dispatch.") {
            continue;
        }
        let pb = b
            .profile
            .phases
            .iter()
            .find(|p| p.name == pa.name)
            .unwrap_or_else(|| panic!("{} missing from rerun", pa.name));
        assert_eq!((pa.calls, pa.allocs), (pb.calls, pb.allocs), "{}", pa.name);
    }
}

/// A passing per-tick audit allocates nothing: counter-group sums come
/// from the tree's resolved groups and component names are built once.
/// Measured on the quick chaos rack leg (`chaos --topology rack
/// --quick`, fault seed 1): both runs sample every 10 µs, and every
/// tick audits four nodes' counter telescoping, fault attribution and
/// the fabric. What allocations remain are one-time group and name
/// construction and rebuilds after new flows register.
#[cfg(all(feature = "prof", feature = "trace"))]
#[test]
fn per_tick_audit_does_not_allocate_on_the_chaos_rack() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _ = prof::take_global();
    prof::set_enabled(true);
    let legs = chaos::run_rack_leg(Scale::quick(), 1);
    prof::set_enabled(false);
    let profile = prof::take_global().expect("both rack runs were profiled");
    assert!(legs.baseline.audit.passed(), "{}", legs.baseline.audit);
    assert!(legs.faulted.audit.passed(), "{}", legs.faulted.audit);
    let audit = profile
        .phases
        .iter()
        .find(|p| p.name == "sample.audit")
        .expect("the flight recorder ran per-tick audits");
    assert!(audit.calls >= 1000, "only {} audit ticks", audit.calls);
    let per_call = audit.allocs as f64 / audit.calls as f64;
    assert!(
        per_call < 5.0,
        "sample.audit allocates {per_call:.1} times per tick ({} allocs over {} ticks)",
        audit.allocs,
        audit.calls
    );
}

/// The zero-cost-when-off guarantee at runtime: with profiling disarmed
/// the hooks observe nothing and change nothing — the packet trace is
/// byte-identical, and arming profiling adds exactly one timeline
/// series (`prof.speed_ratio`), leaving every other series' bytes
/// untouched.
#[cfg(all(feature = "prof", feature = "trace"))]
#[test]
fn profiling_changes_no_trace_bytes_and_adds_only_the_speed_ratio_series() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let off = echo_run(true);
    let on = profiled_echo_run(true);

    // Packet-lifecycle traces: byte-identical.
    assert_eq!(
        off.trace.to_chrome_json(),
        on.trace.to_chrome_json(),
        "profiling must not perturb the packet trace"
    );
    // Simulation results: identical.
    assert_eq!(off.events, on.events);
    assert_eq!(off.sent, on.sent);

    // Timelines: the profiled run has exactly one extra series...
    let names = |s: &RunStats| -> Vec<String> {
        s.timeline.series().iter().map(|x| x.name.clone()).collect()
    };
    let (off_names, on_names) = (names(&off), names(&on));
    assert!(!off_names.contains(&"prof.speed_ratio".to_string()));
    assert!(on_names.contains(&"prof.speed_ratio".to_string()));
    let on_minus_prof: Vec<&String> = on_names
        .iter()
        .filter(|n| *n != "prof.speed_ratio")
        .collect();
    assert_eq!(off_names.iter().collect::<Vec<_>>(), on_minus_prof);
    // ...whose values are positive finite speed ratios...
    let series = on.timeline.get("prof.speed_ratio").unwrap();
    assert!(!series.values.is_empty());
    assert!(series.values.iter().all(|v| v.is_finite() && *v > 0.0));
    // ...and every shared series is byte-identical through the exporter.
    for name in &off_names {
        let (a, b) = (
            off.timeline.get(name).unwrap(),
            on.timeline.get(name).unwrap(),
        );
        assert_eq!(a.first_tick, b.first_tick, "{name}");
        assert_eq!(a.values, b.values, "series {name} diverged");
    }
}

/// The folded-stacks exporter is a contract with external flamegraph
/// tooling (`flamegraph.pl`, inferno): pinned by a golden file over a
/// synthetic profile, so the format can't silently drift. Regenerate
/// with `BLESS=1 cargo test -p fld-bench --test prof` if it changes
/// intentionally.
#[test]
fn folded_stacks_format_matches_golden() {
    let mut p = prof::Profile {
        enabled: true,
        runs: 1,
        wall_ns: 1_000.0,
        sim_ns: 4_000,
        events: 10,
        ..prof::Profile::default()
    };
    p.add_phase("start", 1, 50.0, 1, 64);
    p.add_phase("pop", 10, 200.0, 0, 0);
    p.add_phase("dispatch.Gen", 4, 300.0, 8, 512);
    p.add_phase("dispatch.ArriveAtNic", 6, 250.0, 12, 768);
    p.add_phase("sample.probes", 2, 150.0, 2, 96);
    p.add_phase("finish", 1, 50.0, 0, 0);
    p.add_scope("sample.probes.fld", 2, 90.0, 1, 48);
    let folded = p.to_folded();

    // Shape first, so a failure explains itself: `stack self_ns` lines,
    // semicolon-separated frames rooted at `engine`.
    for line in folded.lines() {
        let (stack, self_ns) = line.rsplit_once(' ').expect("stack <ns>");
        assert!(stack.starts_with("engine;"), "{line}");
        assert!(self_ns.parse::<u64>().is_ok(), "{line}");
    }

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/prof.folded");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &folded).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; regenerate with BLESS=1 cargo test -p fld-bench --test prof");
    assert_eq!(
        folded, golden,
        "folded-stacks format changed; regenerate with BLESS=1 if intentional"
    );
}

/// Without the `prof` feature (and in any build with profiling never
/// armed) a run's profile is inert zeros.
#[test]
fn unarmed_run_has_inert_profile() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let stats = echo_run(false);
    assert!(!stats.profile.enabled);
    assert!(stats.profile.phases.is_empty());
    assert_eq!(stats.profile.to_folded(), "");
    assert!(stats.metrics.counter_value("prof.wall_ns").is_none());
}
