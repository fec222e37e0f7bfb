//! Chaos sweep: seeded fault injection across the full device stack.
//!
//! Runs the FLD-E echo and FLD-R RDMA systems at each fault rate of the
//! sweep (default `0, 1e-4, 1e-3, 1e-2`; `--fault-rate <p>` narrows it to
//! `{0, p}`), prints the degradation table and hard-fails — exit status 1
//! — if goodput is not monotonically non-increasing in the fault rate, if
//! any injected fault goes unaccounted, or if any invariant audit failed.
//!
//! `--topology {single,rack,all}` (default `all`) picks the legs:
//! `single` is the per-rate sweep above; `rack` runs the rack-scale
//! fault-domain script — fabric link flaps, a scripted node crash and a
//! VF hot-unplug under churn — and hard-fails unless every fault is
//! accounted, every fault domain returns to Healthy with a bounded MTTR,
//! the crashed node's flows are re-established and no surviving tenant's
//! p99 exceeds 3× its fault-free baseline.
//!
//! `--fault-kinds` restricts which faults fire (`--fault-kinds list`
//! prints every kind), `--fault-seed` picks the injection RNG streams
//! (the rack leg draws its link-flap schedule from it), `--strict-audit`
//! additionally escalates every in-run invariant violation to a panic at
//! the violating instant. Sweep points run on one worker per core
//! (byte-identical to the serial run). With `--json <path>` the
//! report carries one metrics snapshot per (system, rate) — including
//! the `faults.*` / `recovery.*` counters, the `recovery.time_ns`
//! latency histogram and, for the rack leg, the `health.*` watchdog
//! metrics — and `--counters <path>` dumps each run's hardware-counter
//! tree, where every injected fault appears under its
//! `faults/<entity>/<kind>` path.
use fld_bench::experiments::chaos;
use fld_bench::report::{take_flag_value, Cli, Report};
use fld_sim::fault::FaultPlan;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let topology = take_flag_value(&mut argv, "--topology").unwrap_or_else(|| "all".into());
    if !matches!(topology.as_str(), "single" | "rack" | "all") {
        eprintln!("error: --topology requires \"single\", \"rack\" or \"all\", got {topology:?}");
        std::process::exit(2);
    }
    let cli = Cli::parse_args(argv.into_iter());
    let scale = cli.scale();
    let mut report = Report::new("chaos");
    let mut verdicts: Vec<Result<(), String>> = Vec::new();

    if topology != "rack" {
        let rates: Vec<f64> = match cli.fault_rate {
            Some(r) if r > 0.0 => vec![0.0, r],
            Some(_) => vec![0.0],
            None => chaos::DEFAULT_RATES.to_vec(),
        };
        let seed = cli.fault_seed;
        let kinds = cli.fault_kinds.clone();
        let points = chaos::sweep(scale, &rates, |rate| {
            let plan = FaultPlan::new(rate, seed);
            match &kinds {
                Some(csv) => plan
                    .with_kinds_csv(csv)
                    .expect("kind list validated at parse time"),
                None => plan,
            }
        });
        report.section(chaos::render(&points));
        // Validate before the metrics snapshots are moved into the report,
        // but only fail after the report is on disk, so a failing sweep
        // still leaves its evidence behind.
        verdicts.push(chaos::validate(&points));
        for p in &points {
            let label = format!("{:.0e}", p.rate);
            report.audit(format!("echo@{label}"), p.echo_audit.clone());
            report.audit(format!("rdma@{label}"), p.rdma_audit.clone());
        }
        for p in points {
            let label = format!("{:.0e}", p.rate);
            report.metrics(format!("echo@{label}"), p.echo_metrics);
            report.metrics(format!("rdma@{label}"), p.rdma_metrics);
            report.counters(format!("echo@{label}"), p.echo_counters);
            report.counters(format!("rdma@{label}"), p.rdma_counters);
        }
    }

    if topology != "single" {
        let legs = chaos::run_rack_leg(scale, cli.fault_seed);
        report.section(chaos::render_rack(&legs));
        verdicts.push(chaos::validate_rack(&legs));
        report.audit("rack-baseline", legs.baseline.audit);
        report.audit("rack-faulted", legs.faulted.audit);
        report.metrics("rack-baseline", legs.baseline.metrics);
        report.metrics("rack-faulted", legs.faulted.metrics);
        report.counters("rack-faulted/fabric", legs.faulted.counters);
        for (n, snap) in legs.faulted.node_counters.into_iter().enumerate() {
            report.counters(format!("rack-faulted/node{n}"), snap);
        }
    }

    report.finish(&cli).expect("write report files");
    let mut failed = false;
    for verdict in verdicts {
        if let Err(msg) = verdict {
            eprintln!("chaos sweep FAILED: {msg}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("chaos sweep OK: all faults accounted, recoveries measured, audits clean");
}
