//! Spans around the benchmark's own calls into each crate.
//!
//! A span records the layer and call it wraps, its start and end on one
//! process clock, the span that was open around it on the same thread,
//! and the operation (one solve or one job) it belongs to. Spans stay in
//! memory and are written once, when the run ends. With tracing off,
//! [`span`] costs one atomic load.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The repository's crates, as the layers of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own operation spans (one solve, one job).
    Bench,
    /// `qubo` and `qubo-problems`: problem forms, decode, generators.
    Qubo,
    /// `qubo-search`: the Δ kernel.
    Search,
    /// `vgpu`: blocks, devices, buffers, pool.
    Vgpu,
    /// `qubo-ga`: the host GA.
    Ga,
    /// `abs`: session, audit, cache.
    Core,
    /// `abs-telemetry`.
    Telemetry,
    /// `abs-server`, in process or over HTTP.
    Server,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Bench,
        Layer::Qubo,
        Layer::Search,
        Layer::Vgpu,
        Layer::Ga,
        Layer::Core,
        Layer::Telemetry,
        Layer::Server,
    ];

    /// Stable name used in span files and metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Qubo => "qubo",
            Layer::Search => "search",
            Layer::Vgpu => "vgpu",
            Layer::Ga => "ga",
            Layer::Core => "core",
            Layer::Telemetry => "telemetry",
            Layer::Server => "server",
        }
    }
}

/// One finished span. Times are nanoseconds since the process clock's
/// epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id, in opening order.
    pub id: u64,
    /// The span open around this one on the same thread, if any.
    pub parent: Option<u64>,
    /// Operation this span belongs to (0 = set-up and probes).
    pub op: u64,
    /// Layer of the call.
    pub layer: Layer,
    /// Call name, e.g. `AbsSession::poll`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    // Relaxed: the flag publishes no other data; a span opened just
    // before a toggle may or may not be recorded.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the operation id that spans opened on this thread carry.
pub fn set_op(op: u64) {
    OP.with(|o| o.set(op));
}

/// A span that has started and not yet ended.
struct Open {
    id: u64,
    parent: Option<u64>,
    op: u64,
    layer: Layer,
    name: &'static str,
    start_ns: u64,
}

/// An open span; it is recorded when dropped.
#[must_use = "a span ends when the guard is dropped"]
pub struct Guard {
    open: Option<Open>,
}

/// Opens a span around a call into `layer`.
pub fn span(layer: Layer, name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let op = OP.with(Cell::get);
    Guard {
        open: Some(Open {
            id,
            parent,
            op,
            layer,
            name,
            start_ns: now_ns(),
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(Open {
            id,
            parent,
            op,
            layer,
            name,
            start_ns,
        }) = self.open.take()
        else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id,
                parent,
                op,
                layer,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Opens a span only for operations selected for tracing, so that a
/// traced run can interleave traced and untraced operations.
pub fn span_if(on: bool, layer: Layer, name: &'static str) -> Guard {
    if on {
        span(layer, name)
    } else {
        Guard { open: None }
    }
}

/// Runs `f` inside a span and returns its result with the wall time it
/// took in nanoseconds (measured whether or not tracing is on).
pub fn timed<T>(layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let _g = span(layer, name);
    let t = Instant::now();
    let out = f();
    (
        out,
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
    )
}

/// Takes every recorded span out of the buffer, ordered by id.
#[must_use]
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time of each span (same order as `spans`): its duration minus
/// the part of its interval that its child spans cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            // Union of the child intervals clipped to the parent's.
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in nanoseconds.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(Layer, u64)> {
    let selfs = self_times(spans);
    Layer::ALL
        .iter()
        .map(|&l| {
            let total = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.layer == l)
                .map(|(_, &t)| t)
                .sum();
            (l, total)
        })
        .collect()
}

/// Writes spans as JSON lines, one span per line.
///
/// # Errors
/// Any I/O error creating or writing the file.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            parent,
            s.op,
            s.layer.name(),
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer: Layer::Core,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // 0..100 holds 10..30 and 50..60; 10..30 holds 15..20.
        let spans = vec![
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 30),
            sp(3, Some(2), 15, 20),
            sp(4, Some(1), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 5, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children from other threads may overlap; their union counts.
        let spans = vec![
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 40),
            sp(3, Some(1), 30, 60),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![sp(1, None, 10, 20), sp(2, Some(1), 5, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn guards_nest_on_one_thread_and_record_parents() {
        // The span buffer is process-wide; this is the only test that
        // records, so it may drain it.
        set_enabled(true);
        set_op(7);
        {
            let _outer = span(Layer::Core, "outer");
            let _inner = span(Layer::Search, "inner");
        }
        set_enabled(false);
        let _ignored = span(Layer::Core, "off");
        drop(_ignored);
        let spans = take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.op, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let by_layer = self_time_by_layer(&spans);
        let core = by_layer.iter().find(|(l, _)| *l == Layer::Core).unwrap().1;
        assert_eq!(
            core,
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
    }
}
