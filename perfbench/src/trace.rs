//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code, around each call into a
//! layer of the workspace. Each thread keeps a stack of open spans; when a
//! span closes, its self time (duration minus the time its children on the
//! same thread cover) is final, so no tree is kept. Counters the program
//! returns (for example `RunStats::assign_nanos`) are carved out of the span
//! that returned them as virtual child spans of another layer. Closed spans
//! stay in a thread-local buffer until [`flush`] moves them to the shared
//! log, which the harness drains once per round; nothing is written until
//! the run ends.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers a span can be charged to, named after the workspace crates
/// and modules they cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code: a round's root span.
    Bench,
    /// `fhs_workloads`: instance generators and arrival plans.
    Workloads,
    /// `kdag`: precompute artifacts and lower bounds.
    Kdag,
    /// `fhs_core`: policy construction, `init` and `assign`.
    Core,
    /// `fhs_sim`: the engine and the session.
    Sim,
    /// `fhs_par`: the worker pool.
    Par,
    /// `fhs_experiments::runner`: folding rows into columns.
    Runner,
    /// `fhs_obs` and `fhs_experiments::{obsout, telemetry, shard}`.
    Export,
}

impl Layer {
    /// Every layer a program call can be charged to (all but `Bench`).
    pub const PROGRAM: [Layer; 7] = [
        Layer::Workloads,
        Layer::Kdag,
        Layer::Core,
        Layer::Sim,
        Layer::Par,
        Layer::Runner,
        Layer::Export,
    ];

    /// The metric-name prefix of the layer.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Workloads => "workloads",
            Layer::Kdag => "kdag",
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::Par => "par",
            Layer::Runner => "runner",
            Layer::Export => "export",
        }
    }
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer the span's self time is charged to.
    pub layer: Layer,
    /// Call name, e.g. `"sample"` or `"engine"`.
    pub name: &'static str,
    /// Algorithm index (into `ALGOS`) for per-policy calls.
    pub algo: Option<u8>,
    /// Small per-process thread number; the first thread to record is 0.
    pub thread: u32,
    /// Nesting depth on its thread (0 = outermost).
    pub depth: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Duration minus the children on the same thread. Carving adds a
    /// negative virtual span to the carved layer, so sums of `self_ns`
    /// per layer stay exact.
    pub self_ns: i64,
    /// A span made by [`carve`] from a counter rather than by a clock.
    pub carved: bool,
}

struct Open {
    layer: Layer,
    name: &'static str,
    algo: Option<u8>,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct ThreadBuf {
    open: Vec<Open>,
    closed: Vec<Span>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static LOG: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::default());
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_no() -> u32 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let n = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(n));
            n
        })
    })
}

/// Turns recording on or off for the whole process. Off, [`span`] is a
/// plain call.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span charged to `layer`.
pub fn span<R>(layer: Layer, name: &'static str, algo: Option<u8>, f: impl FnOnce() -> R) -> R {
    timed(layer, name, algo, f).0
}

/// As [`span`], also returning the span's duration in nanoseconds (0 when
/// recording is off).
pub fn timed<R>(
    layer: Layer,
    name: &'static str,
    algo: Option<u8>,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    if !enabled() {
        return (f(), 0);
    }
    BUF.with(|b| {
        b.borrow_mut().open.push(Open {
            layer,
            name,
            algo,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    let end = Instant::now();
    let thread = thread_no();
    let dur = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let open = b.open.pop().expect("span closed without being opened");
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        let depth = b.open.len() as u32;
        if let Some(parent) = b.open.last_mut() {
            parent.child_ns += dur_ns;
        }
        b.closed.push(Span {
            layer: open.layer,
            name: open.name,
            algo: open.algo,
            thread,
            depth,
            start_ns: open.start.duration_since(epoch()).as_nanos() as u64,
            dur_ns,
            self_ns: dur_ns as i64 - open.child_ns as i64,
            carved: false,
        });
        dur_ns
    });
    (out, dur)
}

/// Moves `nanos` of self time from the span kind `from` to the span kind
/// `to`, as a pair of virtual spans on this thread: the time a counter
/// returned by a call says was spent in a deeper layer. `from` may go
/// negative for one span; only sums over a round are reported.
pub fn carve(from: (Layer, &'static str), to: (Layer, &'static str), algo: Option<u8>, nanos: u64) {
    if !enabled() {
        return;
    }
    let thread = thread_no();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let depth = b.open.len() as u32 + 1;
        for (layer, name, dur_ns, self_ns) in [
            (from.0, from.1, 0, -(nanos as i64)),
            (to.0, to.1, nanos, nanos as i64),
        ] {
            b.closed.push(Span {
                layer,
                name,
                algo,
                thread,
                depth,
                start_ns: 0,
                dur_ns,
                self_ns,
                carved: true,
            });
        }
    });
}

/// Moves this thread's closed spans to the shared log. Called at the end
/// of every pool item and of every round, so worker-thread spans reach the
/// harness without a lock per span.
pub fn flush() {
    if !enabled() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if b.closed.is_empty() {
            return;
        }
        LOG.lock()
            .expect("span log poisoned by a panicking round")
            .append(&mut b.closed);
    });
}

/// Takes every span flushed so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *LOG.lock().expect("span log poisoned by a panicking round"))
}

/// The calling thread's number, as spans record it.
pub fn current_thread() -> u32 {
    thread_no()
}
