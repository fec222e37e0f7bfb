//! perfbench — one benchmark for every FlexDriver topology.
//!
//! ```text
//! perfbench --workload <echo_line|rdma_window|rack_mix|chaos_rack>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <a.report> <b.report>
//! ```
//!
//! A run repeats the workload, one simulation at a time on one thread,
//! for `--seconds`: first an untimed warm-up pass, then timed passes,
//! each bracketed by the host yardstick (`host::Yardstick`), then one
//! pass at `seed + 1`. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! passes and reports the per-layer split. The last line of standard
//! output is one JSON object; a report file (host fingerprint, digest,
//! every metric) and, when tracing, the span log are written under
//! `perfbench/out/`. See `perfbench/README.md`.

mod host;
mod layers;
mod spans;
mod workloads;

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fld_sim::json::JsonWriter;
use fld_sim::prof::Profile;

use crate::host::{Fingerprint, Yardstick};
use crate::layers::{Split, HOST_LAYERS};
use crate::spans::SpanLog;
use crate::workloads::{Iteration, Workload};

/// FLD-E stages reported per layer, as `(layer, stage)`.
const STAGES: &[(&str, &str)] = &[
    ("link", "wire"),
    ("link", "tx_wire"),
    ("nic", "eswitch"),
    ("pcie", "pcie_rx"),
    ("pcie", "pcie_tx"),
    ("accel", "accel"),
];

/// Per-layer counts reported as they come from the workload.
const COUNTS: &[(&str, &str)] = &[
    ("engine.events_per_pkt", "count"),
    ("audit.ticks", "count"),
    ("audit.checks", "count"),
    ("health.detect_max_us", "sim_us"),
    ("health.mttr_max_us", "sim_us"),
    ("fault.injected", "count"),
    ("fault.unaccounted", "count"),
    ("link.fabric_drops", "count"),
    ("link.blackholed", "count"),
    ("nic.eswitch_miss", "count"),
    ("nic.shaper_drops", "count"),
    ("nic.retransmits", "count"),
    ("nic.naks", "count"),
    ("pcie.tlps_per_pkt", "count"),
    ("pcie.bytes_per_pkt", "B"),
    ("pcie.model_ratio", "frac"),
    ("hw.queues_live", "count"),
    ("hw.ring_drops", "count"),
    ("accel.stalls", "count"),
];

/// Least share of traced host time the layer table must attribute.
const MIN_ATTRIBUTED: f64 = 0.98;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --compare <a.report> <b.report>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// Points attempted and failed over the whole run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    /// Runs one pass, counting a panic as a failure of every point.
    fn pass(&mut self, w: Workload, seed: u64, log: &mut SpanLog) -> Option<Iteration> {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| w.iterate(seed, log)));
        fld_sim::prof::set_enabled(false);
        match result {
            Ok(it) => {
                self.attempted += it.points.len();
                self.failed += it.failed_points();
                self.errors.extend(it.errors());
                Some(it)
            }
            Err(_) => {
                self.attempted += w.points();
                self.failed += w.points();
                self.errors.push(format!("seed {seed}: a point panicked"));
                None
            }
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Median over passes of a pass's `run()` seconds at the nominal
/// yardstick time.
fn run_s(its: &[Iteration]) -> f64 {
    median(its.iter().map(|it| it.at_yardstick(it.run_s())).collect())
}

fn end_to_end(warm: &Iteration, untraced: &[Iteration]) -> Vec<Metric> {
    let rate = median(
        untraced
            .iter()
            .map(|it| it.pkts() as f64 / it.at_yardstick(it.run_s()))
            .collect(),
    );
    let setup = median(
        untraced
            .iter()
            .map(|it| it.at_yardstick(it.setup_s()))
            .collect(),
    );
    let delivered = 1.0 - warm.dropped as f64 / warm.offered.max(1) as f64;
    vec![
        ("host_pkts_per_s".into(), rate, "pkt/s"),
        ("setup_s".into(), setup, "s"),
        ("peak_rss_mb".into(), host::peak_rss_mb(), "MB"),
        ("sim_goodput_gbps".into(), warm.goodput_gbps, "Gbps"),
        (
            "sim_rtt_p50_us".into(),
            warm.rtt.percentile(50.0) as f64 / 1e3,
            "sim_us",
        ),
        (
            "sim_rtt_p99_us".into(),
            warm.rtt.percentile(99.0) as f64 / 1e3,
            "sim_us",
        ),
        ("sim_delivered_frac".into(), delivered, "frac"),
    ]
}

fn merged_profile<'a>(its: impl IntoIterator<Item = &'a Iteration>) -> Profile {
    let mut merged = Profile::default();
    for it in its {
        for p in &it.points {
            merged.merge(&p.profile);
        }
    }
    merged
}

fn per_layer(
    warm: &Iteration,
    untraced: &[Iteration],
    traced: &[Iteration],
    split: &Split,
    merged: &Profile,
) -> Vec<Metric> {
    let pkts = traced.iter().map(Iteration::pkts).sum::<u64>().max(1) as f64;
    let mut out: Vec<Metric> = Vec::new();
    for &layer in HOST_LAYERS {
        out.push((format!("{layer}.host_frac"), split.frac(layer), "frac"));
        out.push((
            format!("{layer}.host_ns_per_pkt"),
            split.layer_ns(layer) / pkts,
            "ns",
        ));
    }
    let phase = |name: &str| {
        merged
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.total_ns / p.calls.max(1) as f64)
    };
    let calendar = traced
        .first()
        .map(|it| merged_profile([it]).calendar)
        .unwrap_or_default();
    out.push(("queue.host_ns_per_pop".into(), phase("pop"), "ns"));
    out.push(("queue.pops".into(), calendar.pops as f64, "count"));
    out.push((
        "queue.peak_depth".into(),
        calendar.peak_depth as f64,
        "count",
    ));
    out.push((
        "queue.coincident_pops".into(),
        calendar.coincident_pops as f64,
        "count",
    ));
    let ns_per_event = run_s(untraced) * 1e9 / warm.events().max(1) as f64;
    out.push(("engine.ns_per_event".into(), ns_per_event, "ns"));
    out.push(("audit.host_ns_per_tick".into(), phase("sample.audit"), "ns"));
    for &(name, unit) in COUNTS {
        out.push((
            name.into(),
            warm.counts.get(name).copied().unwrap_or(0.0),
            unit,
        ));
    }
    let stages = traced.first().map_or(&warm.stages, |it| &it.stages);
    for &(layer, stage) in STAGES {
        let h = stages.iter().find(|(n, _)| *n == stage).map(|(_, h)| h);
        for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
            let v = h.map_or(0.0, |h| h.percentile(p) as f64);
            out.push((format!("{layer}.{stage}.{tag}_ns"), v, "sim_ns"));
        }
    }
    out.push((
        "trace.overhead_frac".into(),
        run_s(traced) / run_s(untraced) - 1.0,
        "frac",
    ));
    out.push(("trace.attributed_frac".into(), split.frac_sum(), "frac"));
    out
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        match &argv[1..] {
            [a, b] => std::process::exit(host::compare(Path::new(a), Path::new(b))),
            _ => usage(),
        }
    }
    let args = parse_args(&argv);
    let w = args.workload;
    // Calibrate the profiler's timer before anything is timed.
    let _ = fld_sim::prof::timer_overhead_ns();
    let fp = Fingerprint::measure();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: cores={} rustc=\"{}\" git={} calibration_ns={:.0}",
        fp.cores, fp.rustc, fp.git, fp.calibration_ns
    );

    let mut tally = Tally::default();
    let mut log = SpanLog::new(args.trace);
    let mut quiet = SpanLog::new(false);
    let mut yardstick = Yardstick::new();
    let warm = tally.pass(w, args.seed, &mut quiet);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut pass = 0u32;
    loop {
        let tracing = args.trace && pass % 2 == 1;
        let before = yardstick.measure_ns();
        let it = tally.pass(w, args.seed, if tracing { &mut log } else { &mut quiet });
        let after = yardstick.measure_ns();
        let it = it.map(|mut it| {
            it.yardstick_ns = (before + after) / 2.0;
            it
        });
        match (it, tracing) {
            (Some(it), true) => traced.push(it),
            (Some(it), false) => untraced.push(it),
            (None, _) => {}
        }
        pass += 1;
        let enough = !untraced.is_empty() && (!args.trace || !traced.is_empty());
        if (Instant::now() >= deadline && enough) || pass >= 10_000 || (pass > 4 && !enough) {
            break;
        }
    }
    let alt_seed = args.seed.wrapping_add(1);
    let alt = tally.pass(w, alt_seed, &mut quiet);

    let mut problems = std::mem::take(&mut tally.errors);
    let Some(warm) = warm else {
        problems.push("the warm-up pass failed".into());
        finish(&args, &fp, &tally, problems, Vec::new(), None, &log);
        return;
    };
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        problems.push("no timed pass completed".into());
    }
    let digest = warm.digest();
    for (i, it) in untraced.iter().enumerate() {
        if it.digest() != digest {
            problems.push(format!(
                "timed pass {i} digest {:#018x} differs",
                it.digest()
            ));
        }
    }
    for (i, it) in traced.iter().enumerate() {
        if it.counters_digest() != warm.counters_digest() {
            problems.push(format!("traced pass {i} changed the simulated counters"));
        }
    }
    let alt_digest = alt.as_ref().map(Iteration::digest);
    if alt_digest == Some(digest) {
        problems.push(format!(
            "seed {alt_seed} gave the same digest as seed {}",
            args.seed
        ));
    }
    println!(
        "digest {} seed={} {:#018x} (seed={} {})",
        w.name(),
        args.seed,
        digest,
        alt_seed,
        alt_digest.map_or("failed".to_string(), |d| format!("{d:#018x}"))
    );
    println!(
        "passes: 1 warm-up + {} untraced + {} traced + 1 alternate seed; {} points each",
        untraced.len(),
        traced.len(),
        w.points()
    );
    let rates: Vec<String> = untraced
        .iter()
        .map(|it| format!("{:.0}", it.pkts() as f64 / it.run_s()))
        .collect();
    println!("untraced pass pkt/s: {}", rates.join(" "));
    let yard: Vec<String> = untraced
        .iter()
        .map(|it| format!("{:.2}", it.yardstick_ns / 1e6))
        .collect();
    println!("untraced pass yardstick ms: {}", yard.join(" "));

    let rtt = &warm.rtt;
    println!(
        "sim rtt: n={} p50={:.3} us p99={:.3} us; error_frac={} ({} of {} points)",
        rtt.count(),
        rtt.percentile(50.0) as f64 / 1e3,
        rtt.percentile(99.0) as f64 / 1e3,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );

    let metrics = if args.trace {
        let merged = merged_profile(&traced);
        let split = Split::of(&merged);
        if !split.unmapped.is_empty() {
            problems.push(format!(
                "phases missing from the layer table: {:?}",
                split.unmapped
            ));
        }
        if (split.frac_sum() - merged.fractions_sum()).abs() > 1e-9 {
            problems.push(format!(
                "layer fractions sum to {} but the profile's fractions_sum is {}",
                split.frac_sum(),
                merged.fractions_sum()
            ));
        }
        if split.frac_sum() < MIN_ATTRIBUTED {
            problems.push(format!(
                "layers attribute only {:.3} of traced host time",
                split.frac_sum()
            ));
        }
        println!("top layer: {}", split.top());
        per_layer(&warm, &untraced, &traced, &split, &merged)
    } else {
        end_to_end(&warm, &untraced)
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    finish(&args, &fp, &tally, problems, metrics, Some(digest), &log);
}

/// Writes the report file (and span log), prints the verdict and the
/// result line.
fn finish(
    args: &Args,
    fp: &Fingerprint,
    tally: &Tally,
    mut problems: Vec<String>,
    metrics: Vec<Metric>,
    digest: Option<u64>,
    log: &SpanLog,
) {
    problems.sort();
    problems.dedup();
    for p in &problems {
        println!("FAIL: {p}");
    }
    let correct = problems.is_empty() && tally.failed == 0;
    println!("correct: {correct}");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut report = fp.report_lines();
    report.push_str(&format!(
        "workload\t{}\nseed\t{}\ndigest\t{}\ncorrect\t{correct}\n",
        args.workload.name(),
        args.seed,
        digest.map_or("none".to_string(), |d| format!("{d:#018x}"))
    ));
    for (name, value, unit) in &metrics {
        report.push_str(&format!("metric.{name}\t{value}\t{unit}\n"));
    }
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.report")), report))
        .and_then(|()| {
            if args.trace {
                std::fs::write(dir.join(format!("{stem}.spans.json")), log.to_chrome_json())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.display());
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.bool(correct);
    w.field_u64("attempted", tally.attempted as u64);
    w.field_u64("failed", tally.failed as u64);
    w.key("metrics");
    w.begin_object();
    for (name, value, unit) in &metrics {
        w.key(name);
        w.begin_object();
        w.field_f64("value", *value);
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
}
