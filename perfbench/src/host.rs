//! The host fingerprint stamped on every report, the yardstick that
//! host times are scaled by, peak RSS, and the report-file comparison
//! that refuses to blend different hosts.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Steps of the fixed calibration loop.
const CALIBRATION_STEPS: u64 = 1 << 22;
/// Timed repeats of the calibration loop (the median is reported).
const CALIBRATION_REPEATS: usize = 5;
/// Largest calibration drift two reports may show and still compare.
const CALIBRATION_TOLERANCE: f64 = 0.15;

/// What a host number depends on besides the code.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Cores the process may run on.
    pub cores: usize,
    /// The compiler that built this binary.
    pub rustc: &'static str,
    /// Commit of the checkout (`unknown` outside a git repository).
    pub git: String,
    /// Median host ns of the fixed calibration loop.
    pub calibration_ns: f64,
}

impl Fingerprint {
    /// Measures this host.
    pub fn measure() -> Fingerprint {
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            git: git_sha(),
            calibration_ns: calibrate(),
        }
    }

    /// `key<TAB>value` lines for a report file.
    pub fn report_lines(&self) -> String {
        format!(
            "host.cores\t{}\nhost.rustc\t{}\nhost.git\t{}\nhost.calibration_ns\t{}\n",
            self.cores, self.rustc, self.git, self.calibration_ns
        )
    }
}

fn git_sha() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    std::process::Command::new("git")
        .args([
            "--git-dir",
            &format!("{root}/.git"),
            "rev-parse",
            "--short=12",
            "HEAD",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median ns of a fixed integer-mixing loop: a host-speed yardstick
/// that does not depend on the simulator's code.
fn calibrate() -> f64 {
    let mut samples: Vec<f64> = (0..CALIBRATION_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..std::hint::black_box(CALIBRATION_STEPS) {
                x ^= i;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Nominal host ns of one [`Yardstick::measure_ns`]: host times are
/// reported as if every pass had run on a host where the yardstick
/// takes this long.
pub const YARDSTICK_NS: f64 = 16e6;
/// Keys in each of the yardstick's two maps.
const YARDSTICK_KEYS: u64 = 1 << 16;

/// A fixed, memory-bound reference job timed right before and right
/// after every pass. Co-tenants on a shared host slow the simulator's
/// pointer-heavy work by up to a third for minutes at a time, and no
/// statistic of the simulator's own times removes that. A map churn
/// that does not depend on the simulator's code slows with it (per-pass
/// correlation ≈0.8 on a 2-vCPU VM), so scaling each pass's times by
/// `YARDSTICK_NS / measured` cancels most of the drift while any change
/// to the simulator still shows in full.
pub struct Yardstick {
    tree: BTreeMap<u64, u64>,
    hash: HashMap<u64, u64>,
    x: u64,
}

impl Yardstick {
    /// Builds the maps (about 4 MB, resident for the whole run) and
    /// runs the job once untimed.
    pub fn new() -> Yardstick {
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut y = Yardstick {
            tree: (0..YARDSTICK_KEYS).map(|i| (key(i), i)).collect(),
            hash: (0..YARDSTICK_KEYS).map(|i| (key(i), i)).collect(),
            x: 0x2545_F491_4F6C_DD1D,
        };
        y.measure_ns();
        y
    }

    /// Host ns of one job: 2^15 remove-and-reinsert steps on the
    /// B-tree and 2^16 on the hash map, at pseudo-random keys.
    pub fn measure_ns(&mut self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..1 << 15 {
            let k = self.next_key();
            if let Some(v) = self.tree.remove(&k) {
                sum = sum.wrapping_add(v);
                self.tree.insert(k, v);
            }
        }
        for _ in 0..1 << 16 {
            let k = self.next_key();
            if let Some(v) = self.hash.remove(&k) {
                sum = sum.wrapping_add(v);
                self.hash.insert(k, v);
            }
        }
        std::hint::black_box(sum);
        start.elapsed().as_nanos() as f64
    }

    fn next_key(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        (self.x % YARDSTICK_KEYS).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn read_report(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

/// Compares two report files. Returns the exit code: 0 after printing
/// the per-metric ratios, 3 when the fingerprints differ (cores, rustc,
/// or calibration beyond 15 %) so the comparison is refused, 2 when a
/// file cannot be read.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let (a, b) = match (read_report(a), read_report(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let get = |m: &BTreeMap<String, String>, k: &str| m.get(k).cloned().unwrap_or_default();
    let mut refusals = Vec::new();
    for key in ["host.cores", "host.rustc", "workload"] {
        if get(&a, key) != get(&b, key) {
            refusals.push(format!("{key}: {:?} vs {:?}", get(&a, key), get(&b, key)));
        }
    }
    let cal =
        |m: &BTreeMap<String, String>| get(m, "host.calibration_ns").parse::<f64>().unwrap_or(0.0);
    let drift = cal(&b) / cal(&a) - 1.0;
    if !drift.is_finite() || drift.abs() > CALIBRATION_TOLERANCE {
        refusals.push(format!(
            "host.calibration_ns: {} vs {} ({:+.1}%)",
            cal(&a),
            cal(&b),
            drift * 100.0
        ));
    }
    if !refusals.is_empty() {
        println!("refusing to compare reports from different hosts:");
        for r in refusals {
            println!("  {r}");
        }
        return 3;
    }
    println!(
        "same host fingerprint (calibration drift {:+.1}%)",
        drift * 100.0
    );
    println!("{:<28} {:>16} {:>16} {:>9}", "metric", "a", "b", "b/a");
    for (key, va) in a.iter().filter(|(k, _)| k.starts_with("metric.")) {
        let num = |v: &str| v.split('\t').next().and_then(|x| x.parse::<f64>().ok());
        if let (Some(x), Some(y)) = (num(va), b.get(key).and_then(|v| num(v))) {
            println!(
                "{:<28} {:>16.6} {:>16.6} {:>9.4}",
                &key["metric.".len()..],
                x,
                y,
                y / x
            );
        }
    }
    if get(&a, "digest") != get(&b, "digest") {
        println!(
            "simulated digests differ: {} vs {}",
            get(&a, "digest"),
            get(&b, "digest")
        );
    }
    0
}
