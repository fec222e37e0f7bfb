//! The four workloads. Each builds its systems through the simulator's
//! public entry points, runs them one at a time on this thread, checks
//! the simulated outputs, and hashes them into a digest.

use std::collections::BTreeMap;

use fld_accel::echo::EchoAccelerator;
use fld_bench::experiments::echo::steer_to_accel;
use fld_bench::experiments::{chaos, rack};
use fld_bench::Scale;
use fld_core::rack::{RackConfig, RackStats};
use fld_core::rdma_system::{MsgEcho, RdmaConfig, RdmaSystem};
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use fld_net::{FlowKey, Ipv4Addr};
use fld_nic::packet::SimPacket;
use fld_pcie::model::FldModel;
use fld_sim::audit::AuditReport;
use fld_sim::counters::CounterSnapshot;
use fld_sim::health::HealthConfig;
use fld_sim::metrics::MetricsRegistry;
use fld_sim::prof::Profile;
use fld_sim::rng::SimRng;
use fld_sim::stats::Histogram;
use fld_sim::time::{SimDuration, SimTime};

use crate::spans::{PointTimer, SpanLog};

/// Fewest RTT samples a workload's percentiles may rest on (p99 then
/// has at least ten samples beyond it).
const MIN_RTT_SAMPLES: u64 = 1_000;

/// fig7b frame sizes offered at line rate.
const ECHO_SIZES: [u32; 6] = [64, 128, 256, 512, 1024, 1500];
/// Packets per frame size.
const ECHO_PACKETS: u64 = 100_000;
/// Flows the echo generator spreads packets over.
const ECHO_FLOWS: usize = 64;
/// Closed-loop 64 B packets of the Table 6 point.
const TABLE6_PACKETS: u64 = 5_000;
/// Largest relative gap between echo goodput and `FldModel`'s bound.
const ECHO_MODEL_TOLERANCE: f64 = 0.05;

/// fig7c window sweep, unloaded to past the knee.
const RDMA_WINDOWS: [u32; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Message payload bytes.
const RDMA_BYTES: u32 = 1024;
/// Messages per window, plus a seeded share of `RDMA_MESSAGE_SPREAD`.
const RDMA_MESSAGES: u64 = 20_000;
const RDMA_MESSAGE_SPREAD: u64 = 2_048;
/// Window-1 median band, µs (the repository's fig7c low-load band).
const RDMA_W1_BAND_US: (f64, f64) = (2.0, 20.0);

/// Rack legs' measurement window and churn (the `rack` binary's default).
const RACK_WARMUP_MS: u64 = 2;
const RACK_DEADLINE_MS: u64 = 32;
const RACK_CHURN: f64 = 20_000.0;
/// Largest shaped-victim p99 over the isolated victim's.
const RACK_ISOLATION_BAR: f64 = 2.0;

/// The chaos rack's run length and its flight-recorder interval (the
/// interval `chaos::run_rack_leg` arms).
const CHAOS_SCALE: Scale = Scale {
    packets: 0,
    warmup_ms: 2,
    deadline_ms: 30,
};
const CHAOS_RECORDER: SimDuration = SimDuration::from_micros(10);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FLD-E echo on one 25 GbE node: fig7b sizes at line rate plus the
    /// Table 6 unloaded RTT point.
    EchoLine,
    /// FLD-R 1 KiB echo over the fig7c window sweep.
    RdmaWindow,
    /// The rack experiment's liveness leg and three isolation legs.
    RackMix,
    /// The chaos rack leg: fault-free baseline plus the faulted run.
    ChaosRack,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::EchoLine,
        Workload::RdmaWindow,
        Workload::RackMix,
        Workload::ChaosRack,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EchoLine => "echo_line",
            Workload::RdmaWindow => "rdma_window",
            Workload::RackMix => "rack_mix",
            Workload::ChaosRack => "chaos_rack",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulation points per iteration.
    pub fn points(self) -> usize {
        match self {
            Workload::EchoLine => ECHO_SIZES.len() + 1,
            Workload::RdmaWindow => RDMA_WINDOWS.len(),
            Workload::RackMix => 4,
            Workload::ChaosRack => 2,
        }
    }

    /// Runs every point of the workload once at `seed`.
    pub fn iterate(self, seed: u64, log: &mut SpanLog) -> Iteration {
        let mut it = Iteration::default();
        match self {
            Workload::EchoLine => echo_line(seed, log, &mut it),
            Workload::RdmaWindow => rdma_window(seed, log, &mut it),
            Workload::RackMix => rack_mix(seed, log, &mut it),
            Workload::ChaosRack => chaos_rack(seed, log, &mut it),
        }
        it.finish_counts();
        it
    }
}

/// One simulation point's results.
#[derive(Debug)]
pub struct Point {
    /// `<workload>/<point>`.
    pub name: String,
    /// Host ns constructing and configuring.
    pub setup_ns: u64,
    /// Host ns inside `run()`.
    pub run_ns: u64,
    /// Simulated packets (messages for FLD-R) completed.
    pub pkts: u64,
    /// Calendar events the run scheduled.
    pub events: u64,
    /// Hash of counter snapshots, metrics JSON and audit summary.
    pub digest: u64,
    /// Hash of the counter snapshots alone (unchanged by tracing).
    pub counters_digest: u64,
    /// Engine self-profile (traced runs only).
    pub profile: Profile,
    /// Why the point failed its checks, if it did.
    pub error: Option<String>,
}

/// One pass over every point of a workload.
#[derive(Debug, Default)]
pub struct Iteration {
    /// The points, in run order.
    pub points: Vec<Point>,
    /// Failed workload-level checks (every point then counts as failed).
    pub failures: Vec<String>,
    /// Simulated goodput of the throughput points, Gbps.
    pub goodput_gbps: f64,
    /// The workload's simulated RTT samples, ns.
    pub rtt: Histogram,
    /// Packets (messages) offered.
    pub offered: u64,
    /// Packets dropped: ring, policer, fabric, shaper, blackhole and
    /// boundary drops, plus failed RDMA messages.
    pub dropped: u64,
    /// Per-layer counts by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// FLD-E stage telemetry merged over the points (traced runs).
    pub stages: Vec<(&'static str, Histogram)>,
    /// Host ns of the yardstick around this pass (0 if not measured).
    pub yardstick_ns: f64,
}

/// What one point's run returned, for the common harvest.
struct Outputs<'a> {
    events: u64,
    pkts: u64,
    snaps: Vec<&'a CounterSnapshot>,
    metrics: &'a MetricsRegistry,
    audit: &'a AuditReport,
}

/// Counter-tree sums of one point.
#[derive(Debug, Default, Clone, Copy)]
struct Sums {
    eswitch_miss: u64,
    policer_drops: u64,
    shaper_drops: u64,
    retransmits: u64,
    naks: u64,
    tlps: u64,
    tlp_bytes: u64,
    ring_drops: u64,
    queues_live: u64,
    stalls: u64,
}

impl Sums {
    fn of(snaps: &[&CounterSnapshot]) -> Sums {
        let mut s = Sums::default();
        for &(ref path, v) in snaps.iter().flat_map(|snap| snap.entries()) {
            let root = path.split('/').next().unwrap_or("");
            let leaf = path.rsplit('/').next().unwrap_or("");
            let tx_queue = path.contains("/queue/tx/");
            match (root, leaf) {
                ("eswitch", "miss") => s.eswitch_miss += v,
                ("eswitch", "policer_drop") => s.policer_drops += v,
                ("vf", "shaper_drops") => s.shaper_drops += v,
                ("qp", "retransmits") => s.retransmits += v,
                ("qp", "naks_sent") => s.naks += v,
                ("pcie", "tlps") => s.tlps += v,
                ("pcie", "bytes") => s.tlp_bytes += v,
                ("accel", "stalls") => s.stalls += v,
                ("port", "drops") if tx_queue => s.ring_drops += v,
                ("port", "packets") if tx_queue && v > 0 => s.queues_live += 1,
                _ => {}
            }
        }
        s
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl Iteration {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let slot = self.counts.entry(key).or_insert(0.0);
        *slot = slot.max(v);
    }

    /// The common harvest of one point: digests, counter sums, audit
    /// totals and the point's verdict. Returns the point's counter sums.
    fn record(
        &mut self,
        mut t: PointTimer<'_>,
        name: String,
        out: Outputs<'_>,
        check: Result<(), String>,
    ) -> Sums {
        let (sums, counters_digest, digest) = t.harvest(|| {
            let mut d = Fnv::new();
            d.str(&name);
            for snap in &out.snaps {
                for (k, v) in snap.entries() {
                    d.str(k);
                    d.u64(*v);
                }
            }
            let counters_digest = d.0;
            d.str(&out.metrics.to_json());
            d.u64(out.audit.checks);
            d.u64(out.audit.violations);
            (Sums::of(&out.snaps), counters_digest, d.0)
        });
        self.add("nic.eswitch_miss", sums.eswitch_miss as f64);
        self.add("nic.shaper_drops", sums.shaper_drops as f64);
        self.add("nic.retransmits", sums.retransmits as f64);
        self.add("nic.naks", sums.naks as f64);
        self.add("pcie.tlps", sums.tlps as f64);
        self.add("pcie.bytes", sums.tlp_bytes as f64);
        self.add("hw.ring_drops", sums.ring_drops as f64);
        self.max("hw.queues_live", sums.queues_live as f64);
        self.add("accel.stalls", sums.stalls as f64);
        self.add("audit.checks", out.audit.checks as f64);
        let ticks = out.metrics.counter_value("timeline.ticks").unwrap_or(0);
        self.add("audit.ticks", ticks as f64);
        let error = if out.audit.passed() {
            check.err()
        } else {
            Some(format!("audit: {}", out.audit))
        };
        let (setup_ns, run_ns, profile) = t.finish();
        self.points.push(Point {
            name,
            setup_ns,
            run_ns,
            pkts: out.pkts,
            events: out.events,
            digest,
            counters_digest,
            profile,
            error,
        });
        sums
    }

    /// Derives the per-packet ratios once every point is in.
    fn finish_counts(&mut self) {
        let pkts = self.pkts().max(1) as f64;
        let events: u64 = self.points.iter().map(|p| p.events).sum();
        let tlps = self.counts.remove("pcie.tlps").unwrap_or(0.0);
        let bytes = self.counts.remove("pcie.bytes").unwrap_or(0.0);
        self.counts.insert("pcie.tlps_per_pkt", tlps / pkts);
        self.counts.insert("pcie.bytes_per_pkt", bytes / pkts);
        self.counts
            .insert("engine.events_per_pkt", events as f64 / pkts);
    }

    fn merge_stages(&mut self, stages: &fld_sim::trace::StageLatencies) {
        for (name, h) in stages.stages() {
            match self.stages.iter_mut().find(|(n, _)| *n == name) {
                Some((_, merged)) => merged.merge(h),
                None => self.stages.push((name, h.clone())),
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Packets completed over every point.
    pub fn pkts(&self) -> u64 {
        self.points.iter().map(|p| p.pkts).sum()
    }

    /// Host seconds inside `run()` over every point.
    pub fn run_s(&self) -> f64 {
        self.points.iter().map(|p| p.run_ns).sum::<u64>() as f64 / 1e9
    }

    /// Host seconds of set-up over every point.
    pub fn setup_s(&self) -> f64 {
        self.points.iter().map(|p| p.setup_ns).sum::<u64>() as f64 / 1e9
    }

    /// `host_s` of this pass scaled to the nominal yardstick time.
    pub fn at_yardstick(&self, host_s: f64) -> f64 {
        host_s * crate::host::YARDSTICK_NS / self.yardstick_ns
    }

    /// Calendar events over every point.
    pub fn events(&self) -> u64 {
        self.points.iter().map(|p| p.events).sum()
    }

    /// The workload's simulated-output digest.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::new();
        for p in &self.points {
            d.u64(p.digest);
        }
        d.0
    }

    /// The digest of the counter snapshots alone.
    pub fn counters_digest(&self) -> u64 {
        let mut d = Fnv::new();
        for p in &self.points {
            d.u64(p.counters_digest);
        }
        d.0
    }

    /// Points that failed: each failed point, or all of them when a
    /// workload-level check failed.
    pub fn failed_points(&self) -> usize {
        if self.failures.is_empty() {
            self.points.iter().filter(|p| p.error.is_some()).count()
        } else {
            self.points.len()
        }
    }

    /// Every failure message of this iteration.
    pub fn errors(&self) -> Vec<String> {
        self.points
            .iter()
            .filter_map(|p| p.error.as_ref().map(|e| format!("{}: {e}", p.name)))
            .chain(self.failures.iter().cloned())
            .collect()
    }
}

/// Derives an independent sub-seed (splitmix64 finalizer).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fixed-size UDP packets over `flows` flows whose source ports are drawn
/// from `seed`.
fn seeded_gen(mode: GenMode, total: u64, frame: u32, flows: usize, seed: u64) -> ClientGen {
    let mut rng = SimRng::seed_from(seed);
    let keys: Vec<FlowKey> = (0..flows)
        .map(|_| {
            let port = 1024 + rng.next_below(60_000) as u16;
            FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                port,
                7777,
                17,
            )
        })
        .collect();
    let len = SimPacket::udp_len(frame.saturating_sub(42));
    ClientGen::new(
        mode,
        total,
        Box::new(move |i, _, out| {
            let flow = keys[(i % keys.len() as u64) as usize];
            out.push(SimPacket::synthetic(i, len, flow, SimTime::ZERO));
        }),
    )
}

/// One FLD-E echo point: construct, steer to the accelerator, run.
fn echo_point(
    it: &mut Iteration,
    log: &mut SpanLog,
    name: String,
    cfg: SystemConfig,
    gen: impl FnOnce() -> ClientGen,
    check: impl FnOnce(&fld_core::system::RunStats) -> Result<(), String>,
) -> fld_core::system::RunStats {
    let traced = log.traced();
    let mut t = log.point(&name);
    let mut sys = t.construct(|| {
        FldSystem::new(
            cfg,
            Box::new(EchoAccelerator::prototype()),
            HostMode::Consume,
            gen(),
        )
    });
    t.configure(|| {
        steer_to_accel(&mut sys.nic);
        if traced {
            sys.enable_telemetry(4096);
        }
    });
    let stats = t.run(|| sys.run(SimTime::ZERO, SimTime::from_secs(1)));
    let verdict = check(&stats);
    let pkts = stats.metrics.counter_value("gen.responses").unwrap_or(0);
    it.record(
        t,
        name,
        Outputs {
            events: stats.events,
            pkts,
            snaps: vec![&stats.counters],
            metrics: &stats.metrics,
            audit: &stats.audit,
        },
        verdict,
    );
    it.offered += stats.sent;
    it.dropped += stats.drops.iter().map(|(_, n)| n).sum::<u64>();
    it.add("hw.ring_drops", stats.drops.get("fld_rx_overflow") as f64);
    it.merge_stages(&stats.stages);
    stats
}

fn echo_line(seed: u64, log: &mut SpanLog, it: &mut Iteration) {
    let base = SystemConfig::remote();
    let model = FldModel::new(base.pcie);
    let mut gbps = Vec::new();
    let mut ratios = Vec::new();
    for (i, &size) in ECHO_SIZES.iter().enumerate() {
        let cfg = SystemConfig {
            seed: mix(seed, i as u64),
            ..base
        };
        let mode = GenMode::OpenLoop {
            rate: cfg.client_rate.as_bps() / (f64::from(size) * 8.0),
        };
        let bound = model.echo_throughput(size, cfg.client_rate);
        let stats = echo_point(
            it,
            log,
            format!("echo/{size}B"),
            cfg,
            || seeded_gen(mode, ECHO_PACKETS, size, ECHO_FLOWS, cfg.seed),
            |s| {
                let ratio = s.client_rate.gbps() * 1e9 / bound;
                if (ratio - 1.0).abs() <= ECHO_MODEL_TOLERANCE {
                    Ok(())
                } else {
                    Err(format!(
                        "goodput {:.3} Gbps is x{ratio:.3} the model bound",
                        s.client_rate.gbps()
                    ))
                }
            },
        );
        gbps.push(stats.client_rate.gbps());
        ratios.push(stats.client_rate.gbps() * 1e9 / bound);
    }
    let cfg = SystemConfig {
        seed: mix(seed, ECHO_SIZES.len() as u64),
        ..base
    };
    let stats = echo_point(
        it,
        log,
        "echo/table6".to_string(),
        cfg,
        || {
            seeded_gen(
                GenMode::ClosedLoop { window: 1 },
                TABLE6_PACKETS,
                64,
                1,
                cfg.seed,
            )
        },
        |s| {
            if s.rtt.count() >= MIN_RTT_SAMPLES {
                Ok(())
            } else {
                Err(format!("only {} RTT samples", s.rtt.count()))
            }
        },
    );
    it.rtt = stats.rtt;
    it.goodput_gbps = mean(&gbps);
    it.counts.insert("pcie.model_ratio", mean(&ratios));
}

fn rdma_window(seed: u64, log: &mut SpanLog, it: &mut Iteration) {
    let mut gbps = Vec::new();
    let mut ratios = Vec::new();
    for (i, &window) in RDMA_WINDOWS.iter().enumerate() {
        let total = RDMA_MESSAGES + mix(seed, i as u64) % RDMA_MESSAGE_SPREAD;
        let cfg = RdmaConfig::remote(RDMA_BYTES, window, total);
        let bound = FldModel::new(cfg.pcie).rdma_echo_goodput(
            RDMA_BYTES,
            0,
            cfg.params.roce_mtu,
            cfg.client_rate,
        );
        let name = format!("rdma/w{window}");
        let mut t = log.point(&name);
        let sys = t.construct(|| RdmaSystem::new(cfg, Box::new(MsgEcho)));
        let stats = t.run(|| sys.run(SimTime::ZERO, SimTime::from_secs(10)));
        let goodput = stats.goodput.gbps() * 1e9;
        let p50_us = stats.latency.percentile(50.0) as f64 / 1e3;
        let verdict = if stats.completed != total || stats.failed != 0 {
            Err(format!(
                "{} of {total} messages completed, {} failed",
                stats.completed, stats.failed
            ))
        } else if goodput > bound * 1.01 {
            Err(format!(
                "goodput {:.3} Gbps exceeds the model bound {:.3}",
                goodput / 1e9,
                bound / 1e9
            ))
        } else if window == 1 && !(RDMA_W1_BAND_US.0..=RDMA_W1_BAND_US.1).contains(&p50_us) {
            Err(format!(
                "window-1 median {p50_us:.2} us outside {RDMA_W1_BAND_US:?} us"
            ))
        } else {
            Ok(())
        };
        it.record(
            t,
            name,
            Outputs {
                events: stats.events,
                pkts: stats.completed,
                snaps: vec![&stats.counters],
                metrics: &stats.metrics,
                audit: &stats.audit,
            },
            verdict,
        );
        it.rtt.merge(&stats.latency);
        it.offered += total;
        it.dropped += stats.failed;
        gbps.push(goodput / 1e9);
        ratios.push(goodput / bound);
    }
    it.goodput_gbps = mean(&gbps);
    it.counts.insert("pcie.model_ratio", mean(&ratios));
}

/// One rack run: construct (and configure via `configure`), run over
/// `warmup..deadline`, harvest.
fn rack_point(
    it: &mut Iteration,
    log: &mut SpanLog,
    name: String,
    build: impl FnOnce() -> fld_core::rack::Rack,
    configure: impl FnOnce(&mut fld_core::rack::Rack),
    (warmup, deadline): (SimTime, SimTime),
) -> RackStats {
    let mut t = log.point(&name);
    let mut r = t.construct(build);
    t.configure(|| configure(&mut r));
    let stats = t.run(|| r.run(warmup, deadline));
    let mut snaps = vec![&stats.counters];
    snaps.extend(stats.node_counters.iter());
    let sums = it.record(
        t,
        name,
        Outputs {
            events: stats.events,
            pkts: stats.delivered,
            snaps,
            metrics: &stats.metrics,
            audit: &stats.audit,
        },
        Ok(()),
    );
    it.offered += stats.offered;
    it.dropped += sums.ring_drops
        + sums.policer_drops
        + sums.shaper_drops
        + stats.fabric_drops
        + stats.blackholed
        + stats.boundary_drops;
    it.add("link.fabric_drops", stats.fabric_drops as f64);
    it.add("link.blackholed", stats.blackholed as f64);
    stats
}

/// Rack-wide delivered goodput of one run, Gbps.
fn rack_gbps(stats: &RackStats, deadline: SimTime) -> f64 {
    stats.tenant_rx_bytes.iter().sum::<u64>() as f64 * 8.0 / deadline.as_secs_f64() / 1e9
}

fn rack_mix(seed: u64, log: &mut SpanLog, it: &mut Iteration) {
    let base = RackConfig {
        seed,
        ..RackConfig::default()
    };
    let window = (
        SimTime::from_millis(RACK_WARMUP_MS),
        SimTime::from_millis(RACK_DEADLINE_MS),
    );
    // The liveness leg, then `rack::isolation`'s three legs on the
    // default incast pattern.
    let legs = [
        ("liveness", rack::liveness_cfg(base)),
        (
            "isolated",
            RackConfig {
                aggressor_rate: 0.0,
                vf_shaper: None,
                ..base
            },
        ),
        (
            "unshaped",
            RackConfig {
                vf_shaper: None,
                ..base
            },
        ),
        (
            "shaped",
            RackConfig {
                vf_shaper: Some(rack::default_shaper()),
                ..base
            },
        ),
    ];
    let mut runs: Vec<RackStats> = legs
        .into_iter()
        .map(|(leg, cfg)| {
            rack_point(
                it,
                log,
                format!("rack/{leg}"),
                || rack::build_rack(cfg, RACK_CHURN),
                |_| {},
                window,
            )
        })
        .collect();
    it.goodput_gbps = mean(
        &runs
            .iter()
            .map(|s| rack_gbps(s, window.1))
            .collect::<Vec<_>>(),
    );
    let shaped = runs.pop().expect("four legs");
    let unshaped = runs.pop().expect("four legs");
    let isolated = runs.pop().expect("four legs");
    let live = runs.pop().expect("four legs");
    it.check(
        live.queues_configured >= 2048 && live.queues_live == live.queues_configured,
        || {
            format!(
                "{} of {} rings live",
                live.queues_live, live.queues_configured
            )
        },
    );
    it.check(unshaped.fabric_drops > 0, || {
        "unshaped incast never dropped at the fabric".into()
    });
    it.check(shaped.shaper_drops > 0, || "shapers never dropped".into());
    let victim = base.victim;
    it.rtt = shaped.tenant_rtt[victim as usize].clone();
    let legs = rack::IsolationLegs {
        isolated,
        unshaped,
        shaped,
        victim,
    };
    let ratio = legs.shaped_ratio();
    it.check(ratio <= RACK_ISOLATION_BAR, || {
        format!("shaped victim p99 is x{ratio:.2} the isolated victim's")
    });
    let samples = it.rtt.count();
    it.check(samples >= MIN_RTT_SAMPLES, || {
        format!("only {samples} victim RTT samples")
    });
}

fn chaos_rack(seed: u64, log: &mut SpanLog, it: &mut Iteration) {
    // Mirrors `chaos::run_rack_leg`, with set-up and run timed apart.
    let cfg = chaos::rack_cfg(seed);
    let window = (CHAOS_SCALE.warmup(), CHAOS_SCALE.deadline());
    let baseline = rack_point(
        it,
        log,
        "chaos/baseline".to_string(),
        || rack::build_rack(cfg, chaos::RACK_CHURN),
        |r| r.enable_flight_recorder(CHAOS_RECORDER),
        window,
    );
    let mut scheduled = 0;
    let faulted = rack_point(
        it,
        log,
        "chaos/faulted".to_string(),
        || rack::build_rack(cfg, chaos::RACK_CHURN),
        |r| {
            let schedule = chaos::rack_schedule(CHAOS_SCALE, seed, cfg.nodes, cfg.tenants);
            scheduled = schedule.len() as u64;
            r.enable_flight_recorder(CHAOS_RECORDER);
            r.enable_fault_schedule(schedule, HealthConfig::default());
        },
        window,
    );
    it.goodput_gbps = mean(&[
        rack_gbps(&baseline, window.1),
        rack_gbps(&faulted, window.1),
    ]);
    for h in &faulted.outage_rtt {
        it.rtt.merge(h);
    }
    let fd = faulted.fault_domains.unwrap_or_default();
    it.counts
        .insert("health.detect_max_us", fd.detection_max_ns as f64 / 1e3);
    it.counts
        .insert("health.mttr_max_us", fd.mttr_max_ns as f64 / 1e3);
    it.counts.insert("fault.injected", fd.injected as f64);
    it.counts.insert("fault.unaccounted", fd.unaccounted as f64);
    let legs = chaos::ChaosRackLegs {
        baseline,
        faulted,
        scheduled,
        mttr_bound_ns: CHAOS_SCALE.deadline_ms * 1_000_000,
    };
    if let Err(e) = chaos::validate_rack(&legs) {
        it.failures.push(format!("validate_rack: {e}"));
    }
    let samples = it.rtt.count();
    it.check(samples >= MIN_RTT_SAMPLES, || {
        format!("only {samples} outage RTT samples")
    });
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}
