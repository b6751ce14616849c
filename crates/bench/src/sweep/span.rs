//! Run-level span tracing of the sweep engine itself.
//!
//! The simulator side of the observability stack (DESIGN.md §12–§14)
//! answers "where did the machine's cycles go"; this module answers the
//! same question for the *harness*: where did the wall-clock of a
//! `repro all` go? It records a hierarchical trace of engine work —
//! per-point spans in [`super::SweepEngine::run_series`], warm-pool
//! hits/misses/warmups, checkpoint loads/stores/fallbacks, and batch
//! fork events — tagged with the worker lane that did the work, and
//! exports it as JSONL, a Chrome `trace_event` file (one track per
//! worker), and a Prometheus text summary of the engine counters.
//!
//! Design mirrors the simulator's zero-overhead contract at the harness
//! level: the recorder is process-wide but **disabled by default**, and
//! every entry point checks one relaxed atomic before doing anything
//! else — no allocation, no lock, no clock read on the disabled path.
//! `tests/span_trace.rs` exercises the enabled path end-to-end.
//!
//! Span hierarchy is tracked per thread: each worker keeps a
//! thread-local stack of open span ids, so a `ckpt-load` span started
//! inside a `point` span records that point as its parent. Lanes are
//! explicit ([`set_lane`]) rather than derived from thread ids so the
//! Chrome trace rows are stable across runs: lane 0 is the main thread,
//! lanes 1..=N the executor workers.

use serde::{Serialize, Value};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    /// Worker lane of the current thread (0 = main).
    static LANE: Cell<u32> = const { Cell::new(0) };
    /// Ids of spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One recorded engine event.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanEvent {
    /// A completed begin/end interval.
    Span {
        /// Unique id (process-wide, allocation order).
        id: u64,
        /// Id of the enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Worker lane the span ran on.
        lane: u32,
        /// Human-readable label, e.g. `"point:fixed:MIX01/ICOUNT"`.
        name: String,
        /// Coarse category: `"point"`, `"warm"`, `"ckpt"`, …
        cat: &'static str,
        /// Microseconds since the recorder's epoch.
        start_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker (cache hit, batch fork, fallback, …).
    Instant {
        /// Worker lane the event occurred on.
        lane: u32,
        /// Human-readable label.
        name: String,
        /// Coarse category.
        cat: &'static str,
        /// Microseconds since the recorder's epoch.
        ts_us: u64,
    },
}

impl SpanEvent {
    fn to_value(&self) -> Value {
        match self {
            SpanEvent::Span {
                id,
                parent,
                lane,
                name,
                cat,
                start_us,
                dur_us,
            } => Value::Map(vec![
                ("kind".into(), Value::Str("span".into())),
                ("id".into(), Value::UInt(*id)),
                (
                    "parent".into(),
                    match parent {
                        Some(p) => Value::UInt(*p),
                        None => Value::Null,
                    },
                ),
                ("lane".into(), Value::UInt(u64::from(*lane))),
                ("name".into(), Value::Str(name.clone())),
                ("cat".into(), Value::Str((*cat).into())),
                ("start_us".into(), Value::UInt(*start_us)),
                ("dur_us".into(), Value::UInt(*dur_us)),
            ]),
            SpanEvent::Instant {
                lane,
                name,
                cat,
                ts_us,
            } => Value::Map(vec![
                ("kind".into(), Value::Str("instant".into())),
                ("lane".into(), Value::UInt(u64::from(*lane))),
                ("name".into(), Value::Str(name.clone())),
                ("cat".into(), Value::Str((*cat).into())),
                ("ts_us".into(), Value::UInt(*ts_us)),
            ]),
        }
    }

    /// The event's lane.
    pub fn lane(&self) -> u32 {
        match *self {
            SpanEvent::Span { lane, .. } | SpanEvent::Instant { lane, .. } => lane,
        }
    }

    /// The event's label.
    pub fn name(&self) -> &str {
        match self {
            SpanEvent::Span { name, .. } | SpanEvent::Instant { name, .. } => name,
        }
    }

    /// The event's category.
    pub fn cat(&self) -> &'static str {
        match self {
            SpanEvent::Span { cat, .. } | SpanEvent::Instant { cat, .. } => cat,
        }
    }
}

impl Serialize for SpanEvent {
    fn to_value(&self) -> Value {
        SpanEvent::to_value(self)
    }
}

/// Pending state carried by an open [`SpanGuard`].
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    lane: u32,
    name: String,
    cat: &'static str,
    start: Instant,
}

/// RAII handle for an open span; recording happens on drop. A guard
/// from a disabled recorder is inert.
pub struct SpanGuard<'a> {
    rec: &'a SpanRecorder,
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            self.rec.finish(open);
        }
    }
}

/// Process-wide engine trace: interval spans, instant markers, and
/// monotonic counters, all behind one enable flag.
pub struct SpanRecorder {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// A disabled recorder with its epoch at construction time.
    pub fn new() -> Self {
        SpanRecorder {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turn recording on or off. Spans opened while enabled still record
    /// on drop even if recording was disabled in between (their cost was
    /// already paid).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is the recorder currently accepting events?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_us(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_micros() as u64
    }

    /// Open a span; it records when the returned guard drops. On the
    /// disabled path this is one atomic load and an inert guard.
    pub fn begin(&self, name: &str, cat: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                rec: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        SpanGuard {
            rec: self,
            open: Some(OpenSpan {
                id,
                parent,
                lane: LANE.with(Cell::get),
                name: name.to_string(),
                cat,
                start: Instant::now(),
            }),
        }
    }

    fn finish(&self, open: OpenSpan) {
        let dur_us = open.start.elapsed().as_micros() as u64;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            // Guards normally drop LIFO; tolerate stragglers anyway.
            if o.last() == Some(&open.id) {
                o.pop();
            } else {
                o.retain(|&x| x != open.id);
            }
        });
        self.events
            .lock()
            .expect("span events poisoned")
            .push(SpanEvent::Span {
                id: open.id,
                parent: open.parent,
                lane: open.lane,
                name: open.name,
                cat: open.cat,
                start_us: self.now_us(open.start),
                dur_us,
            });
    }

    /// Record a point-in-time marker.
    pub fn instant(&self, name: &str, cat: &'static str) {
        if !self.enabled() {
            return;
        }
        let ev = SpanEvent::Instant {
            lane: LANE.with(Cell::get),
            name: name.to_string(),
            cat,
            ts_us: self.now_us(Instant::now()),
        };
        self.events.lock().expect("span events poisoned").push(ev);
    }

    /// Add `delta` to the named engine counter.
    pub fn bump(&self, counter: &'static str, delta: u64) {
        if !self.enabled() || delta == 0 {
            return;
        }
        *self
            .counters
            .lock()
            .expect("span counters poisoned")
            .entry(counter)
            .or_insert(0) += delta;
    }

    /// Snapshot of every recorded event, in recording order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().expect("span events poisoned").clone()
    }

    /// Snapshot of the engine counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .lock()
            .expect("span counters poisoned")
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Drop all recorded events and counters (tests; epoch unchanged).
    pub fn clear(&self) {
        self.events.lock().expect("span events poisoned").clear();
        self.counters
            .lock()
            .expect("span counters poisoned")
            .clear();
    }

    /// One JSON object per line, in recording order.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events.lock().expect("span events poisoned").iter() {
            out.push_str(&serde::json::to_string(&ev.to_value()));
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON: one process, one track per lane
    /// (lane 0 = "engine main", lane N = "worker N"), spans as complete
    /// (`ph:"X"`) events and markers as thread-scoped instants.
    pub fn chrome_trace(&self) -> String {
        let events = self.events.lock().expect("span events poisoned");
        let mut lanes: Vec<u32> = events.iter().map(SpanEvent::lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut entries = Vec::new();
        for lane in &lanes {
            let label = if *lane == 0 {
                "engine main".to_string()
            } else {
                format!("worker {lane}")
            };
            entries.push(Value::Map(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::UInt(0)),
                ("tid".into(), Value::UInt(u64::from(*lane))),
                (
                    "args".into(),
                    Value::Map(vec![("name".into(), Value::Str(label))]),
                ),
            ]));
        }
        for ev in events.iter() {
            entries.push(match ev {
                SpanEvent::Span {
                    id,
                    parent,
                    lane,
                    name,
                    cat,
                    start_us,
                    dur_us,
                } => Value::Map(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("cat".into(), Value::Str((*cat).into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::UInt(*start_us)),
                    ("dur".into(), Value::UInt(*dur_us)),
                    ("pid".into(), Value::UInt(0)),
                    ("tid".into(), Value::UInt(u64::from(*lane))),
                    (
                        "args".into(),
                        Value::Map(vec![
                            ("id".into(), Value::UInt(*id)),
                            (
                                "parent".into(),
                                match parent {
                                    Some(p) => Value::UInt(*p),
                                    None => Value::Null,
                                },
                            ),
                        ]),
                    ),
                ]),
                SpanEvent::Instant {
                    lane,
                    name,
                    cat,
                    ts_us,
                } => Value::Map(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("cat".into(), Value::Str((*cat).into())),
                    ("ph".into(), Value::Str("i".into())),
                    ("s".into(), Value::Str("t".into())),
                    ("ts".into(), Value::UInt(*ts_us)),
                    ("pid".into(), Value::UInt(0)),
                    ("tid".into(), Value::UInt(u64::from(*lane))),
                ]),
            });
        }
        serde::json::to_string(&Value::Map(vec![(
            "traceEvents".into(),
            Value::Seq(entries),
        )]))
    }

    /// Prometheus text summary: every engine counter as
    /// `smt_engine_<name>`, plus per-lane busy time (sum of *top-level*
    /// span durations, so nested spans are not double-counted).
    pub fn engine_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            out.push_str(&format!(
                "# TYPE smt_engine_{name} counter\nsmt_engine_{name} {v}\n"
            ));
        }
        let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
        for ev in self.events.lock().expect("span events poisoned").iter() {
            if let SpanEvent::Span {
                parent: None,
                lane,
                dur_us,
                ..
            } = ev
            {
                *busy.entry(*lane).or_insert(0) += dur_us;
            }
        }
        if !busy.is_empty() {
            out.push_str("# TYPE smt_engine_lane_busy_us counter\n");
            for (lane, us) in busy {
                out.push_str(&format!(
                    "smt_engine_lane_busy_us{{lane=\"{lane}\"}} {us}\n"
                ));
            }
        }
        out
    }

    /// Write `spans.jsonl`, `spans.trace.json`, and `engine.prom` under
    /// `dir` (created if missing).
    pub fn write_artifacts(&self, dir: &Path) -> io::Result<SpanArtifacts> {
        std::fs::create_dir_all(dir)?;
        let jsonl = dir.join("spans.jsonl");
        std::fs::write(&jsonl, self.spans_jsonl())?;
        let trace = dir.join("spans.trace.json");
        std::fs::write(&trace, self.chrome_trace())?;
        let prom = dir.join("engine.prom");
        std::fs::write(&prom, self.engine_prometheus())?;
        Ok(SpanArtifacts { jsonl, trace, prom })
    }
}

/// Paths written by [`SpanRecorder::write_artifacts`].
#[derive(Clone, Debug)]
pub struct SpanArtifacts {
    /// One JSON object per event.
    pub jsonl: PathBuf,
    /// Chrome `trace_event` file (`chrome://tracing`, Perfetto).
    pub trace: PathBuf,
    /// Prometheus text summary of the engine counters.
    pub prom: PathBuf,
}

static SPANS: OnceLock<SpanRecorder> = OnceLock::new();

/// The process-wide recorder (disabled until [`set_enabled`]).
pub fn spans() -> &'static SpanRecorder {
    SPANS.get_or_init(SpanRecorder::new)
}

/// Enable/disable the process-wide recorder.
pub fn set_enabled(on: bool) {
    spans().set_enabled(on);
}

/// Tag the calling thread as worker `lane` (0 = main thread). The
/// executor calls this when it spawns sweep workers.
pub fn set_lane(lane: u32) {
    LANE.with(|l| l.set(lane));
}

/// Record one batch quantum's fork events on the process-wide recorder:
/// counters split by fork kind (plan vs boundary divergence) plus an
/// instant marker naming the quantum. No-ops when disabled or when the
/// quantum forked nothing.
pub fn note_batch_forks(quantum: u64, forks: &smt_sim::QuantumForks) {
    let r = spans();
    if !r.enabled() || !forks.forked() {
        return;
    }
    r.bump("batch_plan_forks", forks.plan_forks);
    r.bump("batch_boundary_forks", forks.boundary_forks);
    r.instant(
        &format!(
            "fork q{quantum}: +{} plan, +{} boundary -> {} groups",
            forks.plan_forks, forks.boundary_forks, forks.groups
        ),
        "batch",
    );
}

/// Record cycles covered by the event-horizon fast-forward on the
/// process-wide recorder — the sim→engine bridge for the skip engine,
/// same seam as [`note_batch_forks`]. Called once per scalar point with
/// the machine's odometer (machines restore from warm snapshots with the
/// odometer at zero, so the value is exactly that point's skipped
/// cycles). No-op when disabled or when nothing was skipped.
pub fn note_skipped_cycles(point: &str, skipped: u64) {
    let r = spans();
    if !r.enabled() || skipped == 0 {
        return;
    }
    r.bump("skipped_cycles", skipped);
    r.instant(&format!("{point}: {skipped} cycles fast-forwarded"), "skip");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = SpanRecorder::new();
        {
            let _g = r.begin("nothing", "test");
            r.instant("nor this", "test");
            r.bump("count", 3);
        }
        assert!(r.events().is_empty());
        assert!(r.counters().is_empty());
        assert_eq!(r.spans_jsonl(), "");
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        {
            let _outer = r.begin("outer", "test");
            {
                let _inner = r.begin("inner", "test");
                r.instant("mark", "test");
            }
        }
        let evs = r.events();
        assert_eq!(evs.len(), 3);
        // Drop order: instant first, then inner, then outer.
        assert!(matches!(&evs[0], SpanEvent::Instant { name, .. } if name == "mark"));
        let (inner_parent, inner_id) = match &evs[1] {
            SpanEvent::Span {
                name, id, parent, ..
            } if name == "inner" => (*parent, *id),
            other => panic!("expected inner span, got {other:?}"),
        };
        let outer_id = match &evs[2] {
            SpanEvent::Span {
                name, id, parent, ..
            } if name == "outer" => {
                assert_eq!(*parent, None, "outer span is a root");
                *id
            }
            other => panic!("expected outer span, got {other:?}"),
        };
        assert_eq!(inner_parent, Some(outer_id));
        assert_ne!(inner_id, outer_id);
    }

    #[test]
    fn counters_accumulate_and_render_prometheus() {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        r.bump("cache_hits", 2);
        r.bump("cache_hits", 3);
        r.bump("warmups", 1);
        assert_eq!(r.counters(), vec![("cache_hits", 5), ("warmups", 1)]);
        let prom = r.engine_prometheus();
        assert!(prom.contains("smt_engine_cache_hits 5"), "{prom}");
        assert!(prom.contains("smt_engine_warmups 1"), "{prom}");
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        {
            let _g = r.begin("p:fixed:MIX01", "point");
        }
        r.instant("fork q3 (+1 plan)", "batch");
        let text = r.spans_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v: Value = serde::json::from_str(line).expect("line parses");
            assert!(v.get("kind").is_some(), "{line}");
            assert!(v.get("lane").is_some(), "{line}");
        }
        let first: Value = serde::json::from_str(lines[0]).unwrap();
        assert_eq!(
            first.get("kind"),
            Some(&Value::Str("span".into())),
            "span dropped before the instant was recorded"
        );
    }

    #[test]
    fn chrome_trace_has_lane_metadata_and_events() {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        {
            let _g = r.begin("work", "point");
        }
        let trace = r.chrome_trace();
        let v: Value = serde::json::from_str(&trace).expect("trace parses");
        let events = match v.get("traceEvents") {
            Some(Value::Seq(s)) => s,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // One thread_name metadata record + one complete event.
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph"), Some(&Value::Str("M".into())));
        assert_eq!(events[1].get("ph"), Some(&Value::Str("X".into())));
    }

    #[test]
    fn lane_busy_time_counts_only_roots() {
        let r = SpanRecorder::new();
        r.set_enabled(true);
        {
            let _outer = r.begin("outer", "test");
            let _inner = r.begin("inner", "test");
        }
        let prom = r.engine_prometheus();
        let busy_lines: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("smt_engine_lane_busy_us{"))
            .collect();
        assert_eq!(busy_lines.len(), 1, "{prom}");
        assert!(busy_lines[0].contains("lane=\"0\""), "{prom}");
    }
}
