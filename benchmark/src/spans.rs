//! The benchmark's own span recorder. Spans are opened by the driver
//! around calls *into* the engine's layers and by the pass-through
//! source wrapper around adapter calls; nothing inside the engine is
//! instrumented. Spans stay in memory and are written out once, when
//! the run ends.
//!
//! One client thread means one op in flight: the driver thread keeps a
//! stack of its open spans, and a wrapper span — which may run on a
//! pool worker during a parallel fetch — adopts the driver's innermost
//! open span as its parent.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// 0 = root.
    pub parent: u32,
    pub op_id: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recorded while an op was being replayed layer by layer (under a
    /// `replay` root), not while it was served.
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    /// Innermost span open on the driver thread, and the op it belongs to.
    cur_parent: AtomicU32,
    cur_op: AtomicU32,
    replaying: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

pub fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU32::new(1),
        cur_parent: AtomicU32::new(0),
        cur_op: AtomicU32::new(0),
        replaying: AtomicBool::new(false),
        spans: Mutex::new(Vec::new()),
    })
}

/// An open span; records itself when dropped. `None` inside means the
/// recorder was off when it was opened.
pub struct Guard(Option<Open>);

struct Open {
    id: u32,
    parent: u32,
    op_id: u32,
    name: &'static str,
    start_ns: u64,
    replay: bool,
    /// Driver-thread spans restore the parent they displaced.
    restore: Option<u32>,
}

impl Recorder {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of op `op_id` on the driver thread: `op`
    /// while it is served, `replay` while its layers are replayed.
    pub fn op(&self, op_id: u32, replay: bool) -> Guard {
        if !self.is_on() {
            return Guard(None);
        }
        self.cur_op.store(op_id, Ordering::SeqCst);
        self.cur_parent.store(0, Ordering::SeqCst);
        self.replaying.store(replay, Ordering::SeqCst);
        self.enter(if replay { "replay" } else { "op" })
    }

    /// Open a span on the driver thread, nested in its innermost open one.
    pub fn enter(&self, name: &'static str) -> Guard {
        if !self.is_on() {
            return Guard(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.cur_parent.swap(id, Ordering::SeqCst);
        Guard(Some(Open {
            id,
            parent,
            op_id: self.cur_op.load(Ordering::SeqCst),
            name,
            start_ns: self.now_ns(),
            replay: self.replaying.load(Ordering::SeqCst),
            restore: Some(parent),
        }))
    }

    /// Open a leaf span from any thread (the source wrapper): a child of
    /// whatever the driver thread has open, never a parent itself.
    pub fn leaf(&self, name: &'static str) -> Guard {
        if !self.is_on() {
            return Guard(None);
        }
        Guard(Some(Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.cur_parent.load(Ordering::SeqCst),
            op_id: self.cur_op.load(Ordering::SeqCst),
            name,
            start_ns: self.now_ns(),
            replay: self.replaying.load(Ordering::SeqCst),
            restore: None,
        }))
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let r = recorder();
        let end_ns = r.now_ns();
        if let Some(parent) = open.restore {
            r.cur_parent.store(parent, Ordering::SeqCst);
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            op_id: open.op_id,
            name: open.name,
            thread: THREAD.with(|t| *t),
            start_ns: open.start_ns,
            end_ns,
            replay: open.replay,
        };
        r.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it its
/// children cover. Returned index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .remove(&s.id)
                .map(|kids| {
                    union_ns(
                        kids.into_iter()
                            .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                            .filter(|(a, b)| b > a)
                            .collect(),
                    )
                })
                .unwrap_or(0);
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// The span file: every span as `{id, parent, op_id, name, thread,
/// start_ns, end_ns, replay}`. Long runs keep the first `cap` spans and
/// say so.
pub fn to_json(workload: &str, spans: &[Span], cap: usize) -> String {
    let kept = spans.len().min(cap);
    let mut out = String::with_capacity(kept * 110 + 128);
    out.push_str(&format!(
        "{{\"workload\":\"{}\",\"spans_total\":{},\"spans_written\":{},\"spans\":[\n",
        workload,
        spans.len(),
        kept
    ));
    for (i, s) in spans.iter().take(kept).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"replay\":{}}}",
            s.id, s.parent, s.op_id, s.name, s.thread, s.start_ns, s.end_ns, s.replay
        ));
    }
    out.push_str("\n]}\n");
    out
}
