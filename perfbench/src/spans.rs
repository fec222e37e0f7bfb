//! Benchmark-side spans around every call into the simulator.
//!
//! Each simulation point opens a root span; its children time the calls
//! the benchmark makes into the simulator's public entry points —
//! `construct` (the system constructors), `configure` (steering rules,
//! recorder and fault-schedule arming), `run` and `harvest` (reading the
//! returned stats and counter snapshots). In a traced run the engine's
//! `fld_sim::prof` phases become children of the point's `run` span:
//! the profiler aggregates them per phase, so each phase span carries
//! the phase's total self time and call count and is laid end to end
//! inside its `run` span (its start is a layout, not an observation).
//!
//! Spans are kept in memory and written out once, when the run ends.
//! With tracing off the log records nothing, but the timings that feed
//! `setup_s` and `host_pkts_per_s` are still measured.

use std::time::Instant;

use fld_sim::json::JsonWriter;
use fld_sim::prof::Profile;

use crate::layers::layer_of;

/// One recorded span.
#[derive(Debug)]
struct Span {
    /// Unique within the log.
    id: u32,
    /// The span that contains this one (`None` for a point's root).
    parent: Option<u32>,
    /// The simulation point this span belongs to (shared by all its spans).
    point: u32,
    /// `point:<name>`, `construct`, `configure`, `run`, `harvest`, or an
    /// engine phase name.
    name: String,
    /// Layer the span's time is charged to.
    layer: &'static str,
    /// Start, ns since the log was created.
    start_ns: u64,
    /// Duration, ns.
    dur_ns: u64,
    /// Times the phase ran (1 for benchmark-side spans).
    calls: u64,
}

/// The in-memory span log of one benchmark run.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_point: u32,
}

impl SpanLog {
    /// A log that records spans (and arms the engine profiler around
    /// `run`) only when `enabled`.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            next_point: 0,
        }
    }

    /// Whether this log traces (spans plus engine profile).
    pub fn traced(&self) -> bool {
        self.enabled
    }

    /// Opens the root span of a new simulation point.
    pub fn point(&mut self, name: &str) -> PointTimer<'_> {
        let point = self.next_point;
        self.next_point += 1;
        let start = Instant::now();
        let root = self.push(None, point, format!("point:{name}"), "point", start, 0, 1);
        PointTimer {
            log: self,
            point,
            root,
            start,
            setup_ns: 0,
            run_ns: 0,
            profile: Profile::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        parent: Option<u32>,
        point: u32,
        name: String,
        layer: &'static str,
        start: Instant,
        dur_ns: u64,
        calls: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            point,
            name,
            layer,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
            calls,
        });
        Some(id)
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, one thread per
    /// simulation point), loadable in Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("displayTimeUnit", "ns");
        w.key("traceEvents");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", &s.name);
            w.field_str("cat", s.layer);
            w.field_str("ph", "X");
            w.field_f64("ts", s.start_ns as f64 / 1e3);
            w.field_f64("dur", s.dur_ns as f64 / 1e3);
            w.field_u64("pid", 1);
            w.field_u64("tid", u64::from(s.point));
            w.key("args");
            w.begin_object();
            w.field_u64("id", u64::from(s.id));
            if let Some(p) = s.parent {
                w.field_u64("parent", u64::from(p));
            }
            w.field_u64("calls", s.calls);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Times one simulation point's calls into the simulator.
#[derive(Debug)]
pub struct PointTimer<'a> {
    log: &'a mut SpanLog,
    point: u32,
    root: Option<u32>,
    start: Instant,
    /// Host ns spent constructing and configuring.
    setup_ns: u64,
    /// Host ns spent inside `run()`.
    run_ns: u64,
    /// The engine self-profile of the run (inert when untraced).
    profile: Profile,
}

impl PointTimer<'_> {
    fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.log
            .push(self.root, self.point, name.to_string(), layer, start, ns, 1);
        (out, ns)
    }

    /// Times a system constructor (counts toward `setup_s`).
    pub fn construct<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.span("construct", "setup", f);
        self.setup_ns += ns;
        out
    }

    /// Times configuration: rules, recorder, fault schedule (counts
    /// toward `setup_s`).
    pub fn configure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.span("configure", "setup", f);
        self.setup_ns += ns;
        out
    }

    /// Times `run()`. When tracing, arms the engine profiler for exactly
    /// this call and records its phases as children of the `run` span.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let traced = self.log.enabled;
        if traced {
            let _ = fld_sim::prof::take_global();
            fld_sim::prof::set_enabled(true);
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        if traced {
            fld_sim::prof::set_enabled(false);
            self.profile = fld_sim::prof::take_global().unwrap_or_default();
        }
        self.run_ns += ns;
        let run = self.log.push(
            self.root,
            self.point,
            "run".to_string(),
            "run",
            start,
            ns,
            1,
        );
        let mut at = start;
        for phase in &self.profile.phases {
            let dur = phase.total_ns.max(0.0) as u64;
            let layer = layer_of(&phase.name).unwrap_or("unmapped");
            self.log.push(
                run,
                self.point,
                phase.name.clone(),
                layer,
                at,
                dur,
                phase.calls,
            );
            at += std::time::Duration::from_nanos(dur);
        }
        out
    }

    /// Times reading the returned stats, snapshots and checks.
    pub fn harvest<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.span("harvest", "harvest", f).0
    }

    /// Closes the point's root span, returning its setup and run times
    /// and its profile.
    pub fn finish(self) -> (u64, u64, Profile) {
        if let Some(root) = self.root {
            let span = &mut self.log.spans[root as usize];
            span.dur_ns = self.start.elapsed().as_nanos() as u64;
        }
        (self.setup_ns, self.run_ns, self.profile)
    }
}
