//! FLD-E echo experiments: Figure 7b (left columns), Table 6 and the
//! § 8.1.1 mixed-size (IMC-2010) packet-rate comparison.

use fld_accel::echo::EchoAccelerator;
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, RunStats, SystemConfig};
use fld_nic::eswitch::{Action, MatchSpec, Rule};
use fld_nic::nic::{Direction, Nic};
use fld_pcie::model::FldModel;
use fld_sim::stats::{Histogram, RateMeter};
use fld_sim::time::{Bandwidth, SimDuration, SimTime};
use fld_workloads::gen::mixed_size_bursts;
use fld_workloads::sizes::SizeDist;

use crate::fmt::TextTable;
use crate::Scale;

/// Steers all ingress traffic to the FLD echo accelerator; returning
/// packets (table 1) go back to the wire.
pub fn steer_to_accel(nic: &mut Nic) {
    nic.install_rule(
        Direction::Ingress,
        0,
        Rule {
            priority: 0,
            spec: MatchSpec::any(),
            actions: vec![Action::ToAccelerator {
                queue: 0,
                next_table: 1,
            }],
        },
    )
    .expect("table 0 exists");
    nic.install_rule(
        Direction::Ingress,
        1,
        Rule {
            priority: 0,
            spec: MatchSpec::any(),
            actions: vec![Action::ToWire { port: 0 }],
        },
    )
    .expect("table 1 exists");
}

/// Steers all ingress traffic to host RSS over `cores` queues; egress goes
/// to the wire (the CPU-driver baseline).
pub fn steer_to_host(nic: &mut Nic, cores: u16) {
    let rss = nic.create_rss(cores);
    nic.install_rule(
        Direction::Ingress,
        0,
        Rule {
            priority: 0,
            spec: MatchSpec::any(),
            actions: vec![Action::ToHostRss { rss_id: rss }],
        },
    )
    .expect("table 0 exists");
    nic.install_rule(
        Direction::Egress,
        0,
        Rule {
            priority: 0,
            spec: MatchSpec::any(),
            actions: vec![Action::ToWire { port: 0 }],
        },
    )
    .expect("table 0 exists");
}

/// Runs one echo configuration and returns its stats.
pub fn run_echo(
    cfg: SystemConfig,
    frame_len: u32,
    offered_pps: f64,
    packets: u64,
    use_fld: bool,
    warmup: SimTime,
    deadline: SimTime,
) -> RunStats {
    let gen = ClientGen::fixed_udp(
        GenMode::OpenLoop { rate: offered_pps },
        packets,
        frame_len.saturating_sub(42),
    );
    let host_mode = if use_fld {
        HostMode::Consume
    } else {
        HostMode::Echo
    };
    let mut sys = FldSystem::new(cfg, Box::new(EchoAccelerator::prototype()), host_mode, gen);
    if use_fld {
        steer_to_accel(&mut sys.nic);
    } else {
        steer_to_host(&mut sys.nic, cfg.host_cores as u16);
    }
    sys.run(warmup, deadline)
}

/// One FLD-E echo run with full telemetry enabled: per-packet lifecycle
/// tracing plus stage-latency histograms, and — when `recorder` is set —
/// the flight recorder sampling every probe at that interval. Backs
/// `fig7b --json/--trace/--timeline`.
///
/// The traffic is tagged with tenant context 1 and policed at 30 Gbps
/// (above the 25 GbE line, so nothing drops) purely so the
/// `nic.shaper.tokens` probe tracks a live token bucket.
#[allow(clippy::too_many_arguments)] // one knob per CLI flag it backs
pub fn run_echo_telemetry(
    cfg: SystemConfig,
    frame_len: u32,
    offered_pps: f64,
    packets: u64,
    warmup: SimTime,
    deadline: SimTime,
    trace_capacity: usize,
    recorder: Option<SimDuration>,
) -> RunStats {
    let gen = ClientGen::fixed_udp(
        GenMode::OpenLoop { rate: offered_pps },
        packets,
        frame_len.saturating_sub(42),
    );
    let mut sys = FldSystem::new(
        cfg,
        Box::new(EchoAccelerator::prototype()),
        HostMode::Consume,
        gen,
    );
    sys.nic
        .install_rule(
            Direction::Ingress,
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![
                    Action::TagContext { context: 1 },
                    Action::ToAccelerator {
                        queue: 0,
                        next_table: 1,
                    },
                ],
            },
        )
        .expect("table 0 exists");
    sys.nic
        .install_rule(
            Direction::Ingress,
            1,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToWire { port: 0 }],
            },
        )
        .expect("table 1 exists");
    sys.nic
        .install_policer(1, Bandwidth::gbps(30.0), 256 * 1024);
    sys.enable_telemetry(trace_capacity);
    if let Some(interval) = recorder {
        sys.enable_flight_recorder(interval);
    }
    sys.run(warmup, deadline)
}

/// The per-size echo bandwidth sweep of Figure 7b (FLD-E columns), local
/// and remote, against the CPU driver and the analytic model.
pub fn fig7b_flde(scale: Scale) -> String {
    let sizes = [64u32, 128, 256, 512, 1024, 1500];
    let mut out = String::from("Figure 7b (FLD-E): echo bandwidth vs packet size (Gbps)\n");
    for (name, cfg) in [
        ("remote (25 GbE)", SystemConfig::remote()),
        ("local (50G PCIe)", SystemConfig::local()),
    ] {
        let mut t = TextTable::new(vec![
            "Frame B",
            "FLD-E",
            "CPU driver",
            "Model bound",
            "FLD/model",
        ]);
        let model = FldModel::new(cfg.pcie);
        // Every size is an independent pair of runs: fan out across the
        // sweep runner's workers, collect in size order.
        let runs = crate::runner::run_points(sizes.to_vec(), |size| {
            // Offer slightly above line rate to find the ceiling.
            let offered = cfg.client_rate.as_bps() / (size as f64 * 8.0);
            let budget = scale.sized_packets(offered);
            let fld = run_echo(
                cfg,
                size,
                offered,
                budget,
                true,
                scale.warmup(),
                scale.deadline(),
            );
            let cpu = run_echo(
                cfg,
                size,
                offered,
                budget,
                false,
                scale.warmup(),
                scale.deadline(),
            );
            (size, fld, cpu)
        });
        for (size, fld, cpu) in runs {
            let bound = model.echo_throughput(size, cfg.client_rate);
            t.row(vec![
                size.to_string(),
                format!("{:.2}", fld.client_rate.gbps()),
                format!("{:.2}", cpu.client_rate.gbps()),
                format!("{:.2}", bound / 1e9),
                format!("{:.0}%", fld.client_rate.gbps() * 1e9 / bound * 100.0),
            ]);
        }
        out.push_str(&format!("\n{name}\n"));
        out.push_str(&t.render());
    }
    out
}

/// Table 6's two unloaded (window-1) 64 B echo round-trip distributions.
#[derive(Debug)]
pub(crate) struct Table6Runs {
    /// FLD-E: the accelerator echoes, the host only consumes.
    pub fld: Histogram,
    /// The CPU driver echoing through host RSS.
    pub cpu: Histogram,
}

/// Runs Table 6's FLD-E and CPU echo round-trip measurements.
pub(crate) fn table6_runs(scale: Scale) -> Table6Runs {
    let cfg = SystemConfig::remote();
    let n = scale.packets.max(20_000);
    let run = |use_fld: bool| {
        let gen = ClientGen::fixed_udp_flows(GenMode::ClosedLoop { window: 1 }, n, 22, 1);
        let host_mode = if use_fld {
            HostMode::Consume
        } else {
            HostMode::Echo
        };
        let mut sys = FldSystem::new(cfg, Box::new(EchoAccelerator::prototype()), host_mode, gen);
        if use_fld {
            steer_to_accel(&mut sys.nic);
        } else {
            steer_to_host(&mut sys.nic, cfg.host_cores as u16);
        }
        sys.run(SimTime::ZERO, SimTime::from_secs(30)).rtt
    };
    Table6Runs {
        fld: run(true),
        cpu: run(false),
    }
}

/// Renders Table 6: 64 B echo round-trip latency percentiles.
pub(crate) fn render_table6(runs: &Table6Runs) -> String {
    let us = |ns: u64| format!("{:.2}", ns as f64 / 1000.0);
    let mut t = TextTable::new(vec!["", "Mean", "Median", "99th-%", "99.9th-%"]);
    for (label, h) in [("FLD-E", &runs.fld), ("CPU", &runs.cpu)] {
        t.row(vec![
            label.to_string(),
            us(h.mean() as u64),
            us(h.percentile(50.0)),
            us(h.percentile(99.0)),
            us(h.percentile(99.9)),
        ]);
    }
    format!(
        "Table 6: network echo round-trip for 64 B packets (us)\n\
         (paper: FLD-E 2.78/2.6/3.4/4.34; CPU 2.36/2.34/2.58/11.18)\n{}",
        t.render()
    )
}

/// Table 6: 64 B echo round-trip latency percentiles (unloaded).
pub fn table6(scale: Scale) -> String {
    render_table6(&table6_runs(scale))
}

/// The § 8.1.1 mixed-size packet rates of FLD-E and the single-core CPU
/// driver.
#[derive(Debug)]
pub(crate) struct ImcRuns {
    /// FLD-E echo on the local (50 Gbps PCIe) configuration.
    pub fld: RateMeter,
    /// DPDK-testpmd-style forwarding on one host core.
    pub cpu: RateMeter,
}

/// Runs the § 8.1.1 mixed-size experiment: FLD-E vs single-core CPU
/// driver on the synthetic IMC-2010 mixture (local, 50 Gbps PCIe).
pub(crate) fn imc_runs(scale: Scale) -> ImcRuns {
    let dist = SizeDist::imc2010_synthetic();
    let mut cfg = SystemConfig::local();
    // Offer far above the achievable packet rate to find the ceiling.
    let offered = 40e6;
    let budget = scale.sized_packets(offered);
    let fld = {
        let gen = ClientGen::new(
            GenMode::OpenLoop { rate: offered },
            budget,
            mixed_size_bursts(dist.clone(), 64),
        );
        let mut sys = FldSystem::new(
            cfg,
            Box::new(EchoAccelerator::prototype()),
            HostMode::Consume,
            gen,
        );
        steer_to_accel(&mut sys.nic);
        sys.run(scale.warmup(), scale.deadline())
    };
    // "compared to 9.6 Mpps on a single CPU core with DPDK testpmd" —
    // the CPU figure is the core's forwarding capacity, so the host link
    // is not modelled as shared for this run.
    cfg.host_cores = 1;
    cfg.host_on_client_link = false;
    let cpu = {
        let gen = ClientGen::new(
            GenMode::OpenLoop { rate: offered },
            budget,
            mixed_size_bursts(dist, 64),
        );
        let mut sys = FldSystem::new(
            cfg,
            Box::new(EchoAccelerator::prototype()),
            HostMode::Echo,
            gen,
        );
        steer_to_host(&mut sys.nic, 1);
        sys.run(scale.warmup(), scale.deadline())
    };
    ImcRuns {
        fld: fld.client_rate,
        cpu: cpu.client_rate,
    }
}

/// Renders the § 8.1.1 packet-rate comparison.
pub(crate) fn render_imc(runs: &ImcRuns) -> String {
    let mut t = TextTable::new(vec!["Driver", "Mpps", "Gbps"]);
    for (label, rate) in [
        ("FLD-E echo", &runs.fld),
        ("CPU testpmd (1 core)", &runs.cpu),
    ] {
        t.row(vec![
            label.to_string(),
            format!("{:.1}", rate.mpps()),
            format!("{:.2}", rate.gbps()),
        ]);
    }
    format!(
        "§8.1.1 mixed-size (synthetic IMC-2010) echo packet rate\n\
         (paper: FLD-E 12.7 Mpps vs 9.6 Mpps single-core CPU)\n{}",
        t.render()
    )
}

/// § 8.1.1 mixed-size experiment: FLD-E vs single-core CPU driver on the
/// synthetic IMC-2010 mixture (local, 50 Gbps PCIe).
pub fn imc_mpps(scale: Scale) -> String {
    render_imc(&imc_runs(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7b_fld_tracks_model_at_mtu() {
        let cfg = SystemConfig::remote();
        let offered = cfg.client_rate.as_bps() / (1500.0 * 8.0);
        let stats = run_echo(
            cfg,
            1500,
            offered,
            100_000,
            true,
            SimTime::from_millis(5),
            SimTime::from_millis(60),
        );
        let model = FldModel::new(cfg.pcie).echo_throughput(1500, cfg.client_rate) / 1e9;
        let measured = stats.client_rate.gbps();
        assert!(
            measured > model * 0.85,
            "measured {measured:.2} vs model {model:.2}"
        );
    }

    #[test]
    fn table6_shape() {
        // The paper's shape: the CPU driver has the lower median (no
        // accelerator PCIe round trip), FLD-E the far tighter tail (no
        // host scheduling noise). Full scale: 1.91 vs 2.86 us median,
        // 4.38 vs 10.94 us p99.9.
        let runs = table6_runs(Scale::quick());
        let (fld, cpu) = (&runs.fld, &runs.cpu);
        assert!(
            cpu.percentile(50.0) < fld.percentile(50.0),
            "median: CPU {} ns vs FLD-E {} ns",
            cpu.percentile(50.0),
            fld.percentile(50.0)
        );
        assert!(
            fld.percentile(99.9) < cpu.percentile(99.9),
            "p99.9: FLD-E {} ns vs CPU {} ns",
            fld.percentile(99.9),
            cpu.percentile(99.9)
        );
        let s = render_table6(&runs);
        assert!(s.contains("FLD-E") && s.contains("CPU"), "{s}");
    }

    #[test]
    fn imc_fld_beats_single_core_cpu() {
        // Full scale: 11.8 Mpps FLD-E vs 9.6 Mpps on one CPU core.
        let runs = imc_runs(Scale::quick());
        assert!(
            runs.fld.mpps() > runs.cpu.mpps(),
            "FLD-E {:.2} Mpps vs CPU {:.2} Mpps",
            runs.fld.mpps(),
            runs.cpu.mpps()
        );
        assert!(render_imc(&runs).contains("FLD-E echo"));
    }
}
