//! In-memory span tracing, recorded from the benchmark's own files around
//! each call into a workspace layer.
//!
//! A span has a name, a layer, a start, an end and a parent. Spans are kept
//! in memory by a [`Tracer`] and written out when the run ends. Calls too
//! frequent to record one by one (the fetch chooser runs every cycle) are
//! recorded as an [`Aggregate`] on their parent span: a call count and the
//! summed time of the calls.
//!
//! [`budget`] splits the root span's wall time into per-layer self times:
//! each instant goes to the innermost open span of every busy thread, split
//! evenly when several threads are busy, so the layers sum to the wall time
//! even when points run in parallel.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The workspace layer a span's self time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `smt-bench` orchestration: executor, points, warm pool.
    Bench,
    /// `smt-sim` stepping and batch bookkeeping.
    Sim,
    /// `adts-core` detector-thread decisions.
    Core,
    /// `smt-policies` fetch prioritization.
    Policies,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Sim => "sim",
            Layer::Core => "core",
            Layer::Policies => "policies",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Work counted at a span's boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles advanced, skipped ones included.
    pub cycles: u64,
    /// Simulated cycles the skip engine fast-forwarded.
    pub skipped: u64,
    /// µops the workload streams generated.
    pub uops: u64,
    /// Detector-thread decisions taken.
    pub decisions: u64,
}

/// Calls recorded in bulk inside a span: their count and summed time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aggregate {
    pub name: &'static str,
    pub layer: Layer,
    pub calls: u64,
    pub ns: u64,
}

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub layer: Layer,
    /// The thread the span ran on, numbered per tracer.
    pub lane: u32,
    /// `None` only for the root span.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Counts,
    pub aggregate: Option<Aggregate>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn dur_s(&self) -> f64 {
        self.dur_ns() as f64 * 1e-9
    }
}

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

/// Collects the spans of one traced pass. The first span opened is the
/// root; spans opened on other threads with nothing open there are its
/// children.
pub struct Tracer {
    id: u64,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    lanes: AtomicU32,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            lanes: AtomicU32::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The spans recorded so far, in the order they were opened.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

struct Ctx {
    tracer: Arc<Tracer>,
    lane: u32,
    stack: Vec<u32>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// (tracer id, lane) of the last tracer entered on this thread, so one
    /// worker keeps one lane across the points it runs.
    static LANE: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// Restores the thread's previous context, on unwind too.
struct Restore(Option<Ctx>);

impl Drop for Restore {
    fn drop(&mut self) {
        let prev = self.0.take();
        let _ = CTX.try_with(|c| *c.borrow_mut() = prev);
    }
}

/// Run `f` with `tracer` current on this thread; with `None`, just run
/// `f`. Spans opened inside `f` are recorded by `tracer`.
pub fn enter<R>(tracer: Option<&Arc<Tracer>>, f: impl FnOnce() -> R) -> R {
    let Some(t) = tracer else { return f() };
    let nested = CTX.with(|c| c.borrow().as_ref().is_some_and(|ctx| ctx.tracer.id == t.id));
    if nested {
        return f();
    }
    let lane = LANE.with(|l| {
        let (id, lane) = l.get();
        if id == t.id {
            lane
        } else {
            let lane = t.lanes.fetch_add(1, Ordering::Relaxed);
            l.set((t.id, lane));
            lane
        }
    });
    let ctx = Ctx {
        tracer: Arc::clone(t),
        lane,
        stack: Vec::new(),
    };
    let _restore = Restore(CTX.with(|c| c.replace(Some(ctx))));
    f()
}

/// An open span; records its end when dropped. Inert when no tracer is
/// current.
pub struct SpanGuard {
    live: Option<(Arc<Tracer>, u32)>,
    counts: Counts,
    aggregate: Option<Aggregate>,
}

impl SpanGuard {
    pub fn set_counts(&mut self, counts: Counts) {
        self.counts = counts;
    }

    pub fn set_aggregate(&mut self, aggregate: Aggregate) {
        self.aggregate = Some(aggregate);
    }
}

/// Open a span on the current tracer (if any).
pub fn span(name: &'static str, layer: Layer) -> SpanGuard {
    let live = CTX.with(|c| {
        let mut c = c.borrow_mut();
        let ctx = c.as_mut()?;
        let parent = ctx.stack.last().copied();
        let start_ns = ctx.tracer.now_ns();
        let id = {
            let mut spans = ctx.tracer.spans.lock().expect("span store poisoned");
            let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
            // Top-level spans of worker threads hang off the root.
            let parent = parent.or((id > 0).then_some(0));
            spans.push(Span {
                id,
                name,
                layer,
                lane: ctx.lane,
                parent,
                start_ns,
                end_ns: start_ns,
                counts: Counts::default(),
                aggregate: None,
            });
            id
        };
        ctx.stack.push(id);
        Some((Arc::clone(&ctx.tracer), id))
    });
    SpanGuard {
        live,
        counts: Counts::default(),
        aggregate: None,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((tracer, id)) = self.live.take() else {
            return;
        };
        let end_ns = tracer.now_ns();
        if let Ok(mut spans) = tracer.spans.lock() {
            let s = &mut spans[id as usize];
            s.end_ns = end_ns;
            s.counts = self.counts;
            s.aggregate = self.aggregate;
        }
        let _ = CTX.try_with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                if let Some(pos) = ctx.stack.iter().rposition(|&s| s == id) {
                    ctx.stack.truncate(pos);
                }
            }
        });
    }
}

/// The root span's wall time split into per-layer self times.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    pub root_wall_s: f64,
    /// Indexed by [`Layer`] in declaration order.
    pub self_s: [f64; 4],
}

impl Budget {
    pub fn layer_s(&self, layer: Layer) -> f64 {
        self.self_s[layer.index()]
    }

    /// |Σ self times − root wall| / root wall.
    pub fn err_frac(&self) -> f64 {
        let sum: f64 = self.self_s.iter().sum();
        (sum - self.root_wall_s).abs() / self.root_wall_s.max(1e-12)
    }
}

/// Per lane, the intervals in which each span is the innermost open one:
/// `(start, end, span index)`.
fn innermost_segments(spans: &[Span]) -> Vec<(u64, u64, usize)> {
    let mut lanes: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        lanes.entry(s.lane).or_default().push(i);
    }
    let mut segs = Vec::new();
    for mut idx in lanes.into_values() {
        idx.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns), i));
        let mut stack: Vec<usize> = Vec::new();
        let mut cursor = 0u64;
        let mut emit = |i: usize, a: u64, b: u64| {
            if b > a {
                segs.push((a, b, i));
            }
        };
        for i in idx {
            let start = spans[i].start_ns;
            while let Some(&top) = stack.last() {
                if spans[top].end_ns > start {
                    break;
                }
                emit(top, cursor, spans[top].end_ns);
                cursor = cursor.max(spans[top].end_ns);
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                emit(top, cursor, start);
            }
            cursor = cursor.max(start);
            stack.push(i);
        }
        while let Some(top) = stack.pop() {
            emit(top, cursor, spans[top].end_ns);
            cursor = cursor.max(spans[top].end_ns);
        }
    }
    segs
}

/// Split the root span's wall time among the layers (see module docs).
/// `spans[0]` must be the root.
pub fn budget(spans: &[Span]) -> Budget {
    let Some(root) = spans.first() else {
        return Budget::default();
    };
    let segs = innermost_segments(spans);
    let mut raw_self = vec![0u64; spans.len()];
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * segs.len());
    for (k, &(a, b, i)) in segs.iter().enumerate() {
        raw_self[i] += b - a;
        events.push((a, true, k));
        events.push((b, false, k));
    }
    // Ends sort before starts at equal times.
    events.sort_by_key(|&(t, open, k)| (t, open, k));
    let mut share = vec![0f64; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, open, k) in events {
        if t > last && !active.is_empty() {
            let dt = (t - last) as f64;
            let busy: Vec<usize> = active
                .iter()
                .map(|&k| segs[k].2)
                .filter(|&i| i != 0)
                .collect();
            if busy.is_empty() {
                share[0] += dt;
            } else {
                for &i in &busy {
                    share[i] += dt / busy.len() as f64;
                }
            }
        }
        last = t;
        if open {
            active.push(k);
        } else if let Some(pos) = active.iter().position(|&a| a == k) {
            active.swap_remove(pos);
        }
    }
    let mut b = Budget {
        root_wall_s: root.dur_s(),
        self_s: [0.0; 4],
    };
    for (i, s) in spans.iter().enumerate() {
        let w = share[i] * 1e-9;
        match s.aggregate {
            Some(agg) if raw_self[i] > 0 => {
                let frac = (agg.ns as f64 / raw_self[i] as f64).min(1.0);
                b.self_s[agg.layer.index()] += w * frac;
                b.self_s[s.layer.index()] += w * (1.0 - frac);
            }
            _ => b.self_s[s.layer.index()] += w,
        }
    }
    b
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"layer\":\"{}\",\"lane\":{},\"parent\":{},\
             \"start_ns\":{},\"end_ns\":{},\"cycles\":{},\"skipped\":{},\"uops\":{},\"decisions\":{}",
            s.id,
            s.name,
            s.layer.name(),
            s.lane,
            parent,
            s.start_ns,
            s.end_ns,
            s.counts.cycles,
            s.counts.skipped,
            s.counts.uops,
            s.counts.decisions,
        );
        if let Some(a) = s.aggregate {
            let _ = write!(
                out,
                ",\"aggregate\":{{\"name\":\"{}\",\"layer\":\"{}\",\"calls\":{},\"ns\":{}}}",
                a.name,
                a.layer.name(),
                a.calls,
                a.ns
            );
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, layer: Layer, lane: u32, parent: Option<u32>, a: u64, b: u64) -> Span {
        Span {
            id,
            name: "s",
            layer,
            lane,
            parent,
            start_ns: a,
            end_ns: b,
            counts: Counts::default(),
            aggregate: None,
        }
    }

    #[test]
    fn nested_self_times_sum_to_root() {
        let spans = vec![
            span(0, Layer::Bench, 0, None, 0, 100),
            span(1, Layer::Sim, 0, Some(0), 10, 60),
            span(2, Layer::Core, 0, Some(1), 20, 30),
        ];
        let b = budget(&spans);
        assert!((b.layer_s(Layer::Bench) - 50e-9).abs() < 1e-15);
        assert!((b.layer_s(Layer::Sim) - 40e-9).abs() < 1e-15);
        assert!((b.layer_s(Layer::Core) - 10e-9).abs() < 1e-15);
        assert!(b.err_frac() < 1e-12);
    }

    #[test]
    fn parallel_lanes_split_the_wall_time() {
        // Root on lane 0 waits while two workers overlap in [20, 60).
        let spans = vec![
            span(0, Layer::Bench, 0, None, 0, 100),
            span(1, Layer::Sim, 1, Some(0), 0, 60),
            span(2, Layer::Core, 2, Some(0), 20, 90),
        ];
        let b = budget(&spans);
        assert!((b.layer_s(Layer::Sim) - 40e-9).abs() < 1e-15, "{b:?}");
        assert!((b.layer_s(Layer::Core) - 50e-9).abs() < 1e-15, "{b:?}");
        assert!((b.layer_s(Layer::Bench) - 10e-9).abs() < 1e-15, "{b:?}");
        assert!(b.err_frac() < 1e-12);
    }

    #[test]
    fn aggregate_takes_its_share_of_the_parent() {
        let mut step = span(1, Layer::Sim, 0, Some(0), 0, 100);
        step.aggregate = Some(Aggregate {
            name: "prioritize",
            layer: Layer::Policies,
            calls: 10,
            ns: 25,
        });
        let spans = vec![span(0, Layer::Bench, 0, None, 0, 100), step];
        let b = budget(&spans);
        assert!((b.layer_s(Layer::Policies) - 25e-9).abs() < 1e-15);
        assert!((b.layer_s(Layer::Sim) - 75e-9).abs() < 1e-15);
    }

    #[test]
    fn guards_record_parents_lanes_and_unwind() {
        let t = Tracer::new();
        enter(Some(&t), || {
            let _root = super::span("root", Layer::Bench);
            std::thread::scope(|s| {
                s.spawn(|| {
                    enter(Some(&t), || {
                        let _p = super::span("point", Layer::Bench);
                        let _q = super::span("step", Layer::Sim);
                    })
                });
            });
            let r = std::panic::catch_unwind(|| {
                enter(Some(&t), || {
                    let _x = super::span("boom", Layer::Core);
                    panic!("injected");
                })
            });
            assert!(r.is_err());
            let _after = super::span("after", Layer::Bench);
        });
        let spans = t.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("point").parent, Some(0));
        assert_eq!(by("step").parent, Some(by("point").id));
        assert_ne!(by("point").lane, by("root").lane);
        assert_eq!(by("boom").parent, Some(0));
        assert_eq!(by("after").parent, Some(0), "unwound span left the stack");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
