//! Rack-scale multi-tenant run: ≥ 2048 live tx queues across ≥ 4 FLD
//! nodes and ≥ 8 tenants behind a shared switch fabric, plus the
//! tenant-isolation experiment under incast.
//!
//! Binary-specific flags (before the shared set, see `--help`):
//!
//! * `--nodes <n>`    — FLD server nodes (default 4)
//! * `--tenants <n>`  — tenants, one VF per node each (default 9)
//! * `--churn <rate>` — flow arrivals/s, 0 disables churn (default 20000)
//!
//! Exits non-zero when the shaped-leg victim p99 exceeds 2× its
//! isolated baseline, or when a run at ≥ 2048 configured queues leaves
//! rings dead — the acceptance gates, enforced at run time.

use fld_bench::experiments::rack::{isolation, liveness_cfg, render_liveness, run_rack};
use fld_bench::report::{take_flag_value, Cli, Report};
use fld_core::rack::RackConfig;

fn parsed_flag<T: std::str::FromStr>(argv: &mut Vec<String>, flag: &str, default: T) -> T {
    match take_flag_value(argv, flag) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} requires a number, got {v:?}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let nodes: u16 = parsed_flag(&mut argv, "--nodes", 4);
    let tenants: u16 = parsed_flag(&mut argv, "--tenants", 9);
    let churn: f64 = parsed_flag(&mut argv, "--churn", 20_000.0);
    let cli = Cli::parse_args(argv.into_iter());
    if nodes == 0 || tenants == 0 {
        eprintln!("error: --nodes and --tenants must be positive");
        std::process::exit(2);
    }
    let scale = cli.scale();
    let base = RackConfig {
        nodes,
        tenants,
        ..RackConfig::default()
    };
    let mut report = Report::new("rack");
    let mut failures = Vec::new();

    // Leg 1: queue liveness under uniform traffic and churn — the run
    // that executes the Figure 4 memory-model point.
    let recorder = cli.wants_telemetry().then(|| cli.sample_interval());
    let live = run_rack(liveness_cfg(base), churn, scale, recorder);
    report.section(render_liveness(&live));
    if live.queues_configured >= 2048 && live.queues_live < 2048 {
        failures.push(format!(
            "only {} of {} tx queues went live (need >= 2048)",
            live.queues_live, live.queues_configured
        ));
    }
    if !live.audit.passed() {
        failures.push(format!("liveness audit: {}", live.audit));
    }
    report.audit("liveness", live.audit);
    report.metrics("liveness", live.metrics);
    report.timeline(live.timeline);
    report.counters("liveness/fabric", live.counters);
    for (n, snap) in live.node_counters.into_iter().enumerate() {
        report.counters(format!("liveness/node{n}"), snap);
    }

    // Legs 2-4: tenant isolation under incast.
    let legs = isolation(base, churn, scale);
    report.section(legs.render());
    let ratio = legs.shaped_ratio();
    if ratio.is_nan() || ratio > 2.0 {
        failures.push(format!(
            "shaped victim p99 is x{ratio:.2} its isolated baseline (bar: <= x2)"
        ));
    }
    for (name, stats) in [
        ("isolated", legs.isolated),
        ("unshaped", legs.unshaped),
        ("shaped", legs.shaped),
    ] {
        if !stats.audit.passed() {
            failures.push(format!("{name} audit: {}", stats.audit));
        }
        report.audit(name, stats.audit);
        report.metrics(name, stats.metrics);
    }

    report.finish(&cli).expect("write report files");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
