//! In-memory span tracer for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer ([`crate::traced`]). A span carries a name, start and end in
//! nanoseconds since the trace epoch, the node it ran at, the session it
//! belongs to, and its parent: the span open on the same thread, or else the
//! open root span (the session the closed loop is currently driving), which
//! is how handler spans on the sharded runtime's shard threads find their
//! session.
//!
//! Every thread records into a thread-local buffer, merged into one sink
//! when the thread exits or [`collect`] is called, so the hot path takes no
//! lock. Aggregates (count, total, self time, every duration) are kept for
//! all spans; the raw records written to `trace-<workload>.json` are capped
//! at [`KEEP_SPANS`] so a 10 000-peer flood does not produce a gigabyte of
//! JSON.
//!
//! Span boundaries are read from the CPU's time-stamp counter where there is
//! one (`ticks`), not from `Instant`: the flood workloads' handlers take
//! 0.7 µs, and two `clock_gettime` calls per span through cache-cold vDSO
//! pages cost them 8–12 % (measured as `trace.overhead_share` on
//! `flood_sim`, seeds 2 and 3: 0.085 and 0.120 with `Instant`, 0.047 and
//! 0.031 with the counter). Ticks become nanoseconds in [`collect`], by the
//! ratio of both clocks over the whole traced stretch.
//!
//! A span's self time is its duration minus the durations of its direct
//! children on the same thread. On the single-threaded simulator that makes
//! the self times of all spans add up to the duration of the root spans; on
//! the sharded runtime handler spans run on other threads than their session
//! span and the arithmetic does not apply (README, `net.sched_self_ms`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Raw span records kept for the trace file.
pub const KEEP_SPANS: usize = 100_000;
/// Parent id of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

// Statistics and ids only: none of these publishes other data, so Relaxed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static ROOT_SPAN: AtomicU32 = AtomicU32::new(NO_PARENT);
static KEPT: AtomicUsize = AtomicUsize::new(0);
static SINK: Mutex<Option<Collected>> = Mutex::new(None);
/// When tracing was first enabled, on both clocks.
static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();

/// The span clock: the time-stamp counter on x86-64, nanoseconds elsewhere.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` has no preconditions; it reads a counter every x86-64
    // CPU has and touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn epoch() -> (Instant, u64) {
    *EPOCH.get_or_init(|| (Instant::now(), ticks()))
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id within the process.
    pub id: u32,
    /// Id of the causing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Layer-boundary name: `session`, a `Wire::kind()`, `wal_append`, ….
    pub name: &'static str,
    /// Node the work ran at (`u32::MAX` for driver-level spans).
    pub node: u32,
    /// Session epoch the span belongs to (0 = none).
    pub session: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// Per-name aggregate over every span, kept or not.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus same-thread direct children).
    pub self_ns: u64,
    /// Every duration, in close order (saturating at `u32::MAX` ns ≈ 4.3 s).
    pub durs_ns: Vec<u32>,
}

/// Everything the tracer gathered.
#[derive(Debug, Default)]
pub struct Collected {
    /// Aggregates by span name.
    pub aggs: BTreeMap<&'static str, Agg>,
    /// The first [`KEEP_SPANS`] raw records.
    pub kept: Vec<SpanRec>,
    /// Raw records not kept.
    pub dropped: u64,
}

impl Agg {
    fn absorb(&mut self, other: Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durs_ns.extend(other.durs_ns);
    }
}

impl Collected {
    /// Sum of durations of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.aggs.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e6)
    }

    /// Sum of self times of the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.aggs.get(name).map_or(0.0, |a| a.self_ns as f64 / 1e6)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.count)
    }

    /// Durations (µs) of the spans whose name satisfies `pick`.
    pub fn durations_us(&self, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        self.aggs
            .iter()
            .filter(|(name, _)| pick(name))
            .flat_map(|(_, a)| a.durs_ns.iter().map(|d| *d as f64 / 1e3))
            .collect()
    }
}

struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    node: u32,
    session: u64,
    start_ns: u64,
    child_ns: u64,
}

/// Span ids are handed out to threads in blocks, so that two shard threads
/// closing sub-microsecond handler spans do not fight over one cache line.
const ID_BLOCK: u32 = 4096;

#[derive(Default)]
struct Local {
    stack: Vec<Open>,
    /// Aggregates in first-seen order, found by the name's address: a
    /// handful of entries, scanned faster than any map hashes a string. (One
    /// name at two addresses gets two entries; `flush` merges by content.)
    aggs: Vec<(&'static str, Agg)>,
    kept: Vec<SpanRec>,
    dropped: u64,
    next_id: u32,
    ids_left: u32,
}

impl Local {
    fn new_id(&mut self) -> u32 {
        if self.ids_left == 0 {
            self.next_id = NEXT_ID.fetch_add(ID_BLOCK, Ordering::Relaxed);
            self.ids_left = ID_BLOCK;
        }
        self.ids_left -= 1;
        self.next_id += 1;
        self.next_id - 1
    }

    fn agg(&mut self, name: &'static str) -> &mut Agg {
        let at = self
            .aggs
            .iter()
            .position(|(n, _)| std::ptr::eq(n.as_ptr(), name.as_ptr()) && n.len() == name.len());
        let at = at.unwrap_or_else(|| {
            self.aggs.push((name, Agg::default()));
            self.aggs.len() - 1
        });
        &mut self.aggs[at].1
    }

    fn flush(&mut self) {
        if self.aggs.is_empty() {
            return;
        }
        // A poisoned sink only means another thread panicked mid-merge;
        // the counters it holds are still valid sums.
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = sink.get_or_insert_with(Collected::default);
        for (name, agg) in self.aggs.drain(..) {
            sink.aggs.entry(name).or_default().absorb(agg);
        }
        sink.kept.append(&mut self.kept);
        sink.dropped += std::mem::take(&mut self.dropped);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard {
    active: bool,
    root: bool,
}

/// Turns span recording on (traced pass only).
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Turns span recording off if `was_on` (pairs with a conditional
/// [`enable`], so an untraced pass never touches the switch).
pub fn disable_if(was_on: bool) {
    if was_on {
        disable();
    }
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn open(name: &'static str, node: u32, session: u64, root: bool) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: false,
            root: false,
        };
    }
    let id = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let id = l.new_id();
        let parent = match l.stack.last() {
            Some(top) => top.id,
            None => ROOT_SPAN.load(Ordering::Relaxed),
        };
        l.stack.push(Open {
            id,
            parent,
            name,
            node,
            session,
            start_ns: ticks(),
            child_ns: 0,
        });
        id
    });
    if root {
        ROOT_SPAN.store(id, Ordering::Relaxed);
    }
    SpanGuard { active: true, root }
}

/// Opens a span around one call into a layer.
pub fn span(name: &'static str, node: u32, session: u64) -> SpanGuard {
    open(name, node, session, false)
}

/// Opens a driver-level span (a session, an insert batch, a recovery run)
/// and publishes it as the parent of spans opened on other threads while it
/// lasts. The closed loop has one of these open at a time.
pub fn root_span(name: &'static str, session: u64) -> SpanGuard {
    open(name, u32::MAX, session, true)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = ticks();
        if self.root {
            ROOT_SPAN.store(NO_PARENT, Ordering::Relaxed);
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(o) = l.stack.pop() else { return };
            let dur = end_ns.saturating_sub(o.start_ns);
            if let Some(parent) = l.stack.last_mut() {
                parent.child_ns += dur;
            }
            let agg = l.agg(o.name);
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(o.child_ns);
            agg.durs_ns.push(u32::try_from(dur).unwrap_or(u32::MAX));
            // Past the cap a plain load decides; no shared write.
            if KEPT.load(Ordering::Relaxed) < KEEP_SPANS
                && KEPT.fetch_add(1, Ordering::Relaxed) < KEEP_SPANS
            {
                l.kept.push(SpanRec {
                    id: o.id,
                    parent: o.parent,
                    name: o.name,
                    node: o.node,
                    session: o.session,
                    start_ns: o.start_ns,
                    end_ns,
                });
            } else {
                l.dropped += 1;
            }
        });
    }
}

/// Flushes the calling thread's buffer and takes everything gathered so far
/// (threads that exited have flushed theirs already), converting the span
/// clock's ticks to nanoseconds since tracing was first enabled.
pub fn collect() -> Collected {
    LOCAL.with(|l| l.borrow_mut().flush());
    KEPT.store(0, Ordering::Relaxed);
    let mut c = SINK
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default();
    let (since, tick0) = epoch();
    let elapsed_ns = since.elapsed().as_nanos().max(1) as f64;
    let ns_per_tick = elapsed_ns / ticks().saturating_sub(tick0).max(1) as f64;
    let ns = |t: u64| (t as f64 * ns_per_tick) as u64;
    for agg in c.aggs.values_mut() {
        agg.total_ns = ns(agg.total_ns);
        agg.self_ns = ns(agg.self_ns);
        for d in &mut agg.durs_ns {
            *d = ns(u64::from(*d)).min(u64::from(u32::MAX)) as u32;
        }
    }
    for s in &mut c.kept {
        s.start_ns = ns(s.start_ns.saturating_sub(tick0));
        s.end_ns = ns(s.end_ns.saturating_sub(tick0));
    }
    c
}

/// Self time of every span: its duration minus its direct children's
/// durations (a child is a span naming it as parent). Meaningful where
/// children run inside their parent on one thread. The tracer computes the
/// same thing incrementally as spans close; the tests hold the two together.
#[cfg(test)]
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u32, u64> {
    let mut own: BTreeMap<u32, u64> = spans
        .iter()
        .map(|s| (s.id, s.end_ns.saturating_sub(s.start_ns)))
        .collect();
    for s in spans {
        if let Some(parent) = own.get_mut(&s.parent) {
            *parent = parent.saturating_sub(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    own
}

/// Writes the kept spans and the aggregates as one JSON document.
pub fn write_file(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    collected: &Collected,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{")?;
    writeln!(w, "  \"workload\": \"{workload}\",")?;
    writeln!(w, "  \"seed\": {seed},")?;
    writeln!(w, "  \"time_unit\": \"ns since trace start\",")?;
    writeln!(w, "  \"spans_kept\": {},", collected.kept.len())?;
    writeln!(w, "  \"spans_dropped\": {},", collected.dropped)?;
    writeln!(w, "  \"aggregates\": {{")?;
    let n = collected.aggs.len();
    for (i, (name, a)) in collected.aggs.iter().enumerate() {
        writeln!(
            w,
            "    \"{name}\": {{\"count\": {}, \"total_ms\": {:.6}, \"self_ms\": {:.6}}}{}",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            if i + 1 < n { "," } else { "" }
        )?;
    }
    writeln!(w, "  }},")?;
    writeln!(
        w,
        "  \"columns\": [\"id\", \"parent\", \"name\", \"node\", \"session\", \"start_ns\", \"end_ns\"],"
    )?;
    writeln!(w, "  \"spans\": [")?;
    let mut kept: Vec<&SpanRec> = collected.kept.iter().collect();
    kept.sort_by_key(|s| (s.start_ns, s.id));
    for (i, s) in kept.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let node = if s.node == u32::MAX {
            "null".to_string()
        } else {
            s.node.to_string()
        };
        writeln!(
            w,
            "    [{}, {parent}, \"{}\", {node}, {}, {}, {}]{}",
            s.id,
            s.name,
            s.session,
            s.start_ns,
            s.end_ns,
            if i + 1 < kept.len() { "," } else { "" }
        )?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "t",
            node: 0,
            session: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // session 0..100 ─ handler 10..40 ─ wal 20..25
        //                └ handler 50..90
        let spans = [
            rec(0, NO_PARENT, 0, 100),
            rec(1, 0, 10, 40),
            rec(2, 1, 20, 25),
            rec(3, 0, 50, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 100 - 30 - 40, "grandchildren are not subtracted");
        assert_eq!(own[&1], 30 - 5);
        assert_eq!(own[&2], 5);
        assert_eq!(own[&3], 40);
        // Self times of a tree add up to its root's duration.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    // The tracer is process-global, so every assertion that records spans
    // lives in this one test.
    #[test]
    fn recorded_spans_nest_and_add_up() {
        let _serial = crate::TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let _ = collect();
        {
            let _off = span("ignored", 0, 0);
        }
        assert!(collect().aggs.is_empty(), "disabled tracer records nothing");

        enable();
        let root_id;
        {
            let _root = root_span("session", 7);
            root_id = ROOT_SPAN.load(Ordering::Relaxed);
            {
                let _h = span("Answer", 3, 7);
                let _w = span("wal_append", 3, 7);
                std::hint::black_box((0..10_000).sum::<u64>());
            }
            // A span opened on another thread hangs off the open root.
            std::thread::spawn(|| {
                let _remote = span("Query", 4, 7);
            })
            .join()
            .unwrap();
        }
        disable();
        let c = collect();
        assert_eq!(ROOT_SPAN.load(Ordering::Relaxed), NO_PARENT);

        let by_name = |n: &str| c.kept.iter().find(|s| s.name == n).unwrap().clone();
        let (root, handler, wal, remote) = (
            by_name("session"),
            by_name("Answer"),
            by_name("wal_append"),
            by_name("Query"),
        );
        assert_eq!(root.id, root_id);
        assert_eq!(root.parent, NO_PARENT);
        assert_eq!(handler.parent, root.id);
        assert_eq!(wal.parent, handler.id);
        assert_eq!(remote.parent, root.id);
        assert_eq!((root.session, handler.node), (7, 3));

        // The online aggregates agree with the arithmetic over raw records
        // for everything that ran on the root's thread.
        let local: Vec<SpanRec> = [root.clone(), handler.clone(), wal.clone()].to_vec();
        let own = self_times(&local);
        // (Ticks are converted to nanoseconds sum by sum and record by
        // record, so the two sides may round differently by a nanosecond
        // per term.)
        let close = |a: u64, b: u64| a.abs_diff(b) <= 3;
        assert!(close(c.aggs["session"].self_ns, own[&root.id]));
        assert!(close(c.aggs["Answer"].self_ns, own[&handler.id]));
        assert!(close(c.aggs["wal_append"].self_ns, own[&wal.id]));
        assert!(close(
            c.aggs["session"].self_ns + c.aggs["Answer"].self_ns + c.aggs["wal_append"].self_ns,
            c.aggs["session"].total_ns
        ));
        assert_eq!(c.count("Query"), 1);

        // A span must stay cheap next to the sub-microsecond handlers of the
        // flood workloads (printed with `--nocapture`; the bound is loose on
        // purpose, it only catches an accidental lock or allocation).
        enable();
        let t = std::time::Instant::now();
        {
            let _root = root_span("session", 8);
            for _ in 0..200_000 {
                let _s = span("Ack", 1, 8);
            }
        }
        let per_span_ns = t.elapsed().as_nanos() as f64 / 200_000.0;
        disable();
        let _ = collect();
        println!("span cost: {per_span_ns:.0} ns");
        assert!(per_span_ns < 5_000.0, "a span costs {per_span_ns} ns");
    }
}
