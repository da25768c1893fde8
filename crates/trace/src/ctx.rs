//! Query correlation: trace ids and the per-query context.
//!
//! A [`QueryCtx`] is minted once per query by the engine and made
//! visible to everything that runs on the query's behalf — adapter
//! wrappers, the cleaning pipeline, fetch worker threads — through a
//! thread-local stack ([`QueryCtx::enter`] / [`QueryCtx::current`]).
//! Components that observe work while a context is current tag their
//! records with its [`TraceId`], so one query's journey across engine,
//! cache, adapters, and cleaning can be reassembled offline from the
//! query log, the flight recorder, and the Chrome-trace export.
//!
//! The context also accumulates per-source call records
//! ([`SourceCall`]) in a shared, thread-safe list: the engine appends
//! one for each adapter call, from whichever thread made it.

use crate::sync::Mutex;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-unique query identifier. Minting is a single atomic
/// increment, so ids are strictly monotone in query admission order —
/// sorting merged flight records by trace id recovers start order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mint the next process-unique id.
    pub fn mint() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t-{:012x}", self.0)
    }
}

/// One adapter call observed during a query.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceCall {
    pub source: String,
    /// `execute` (pushed fragment) or `fetch` (whole collection).
    pub kind: String,
    pub ok: bool,
    pub latency_ms: f64,
    /// Rows decoded from the call's result (0 when unknown or failed).
    pub rows: u64,
    pub error: Option<String>,
}

/// Everything one query's work shares: its id, the engine instance
/// serving it, its admission time, and the growing list of source
/// calls made on its behalf. Cloning allocates nothing and shares the
/// call list, so a context can fan out across fetch threads.
#[derive(Clone)]
pub struct QueryCtx {
    pub trace_id: TraceId,
    /// Name of the engine instance serving the query.
    pub instance: Arc<str>,
    pub started: Instant,
    calls: Arc<Mutex<Vec<SourceCall>>>,
}

thread_local! {
    static STACK: RefCell<Vec<QueryCtx>> = const { RefCell::new(Vec::new()) };
}

impl QueryCtx {
    /// Mint a fresh context for one query.
    pub fn new(instance: impl Into<Arc<str>>) -> QueryCtx {
        QueryCtx {
            trace_id: TraceId::mint(),
            instance: instance.into(),
            started: Instant::now(),
            calls: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Make this context current on the calling thread until the guard
    /// drops. Contexts nest: entering while another is current shadows
    /// it, and dropping the guard restores the outer one.
    #[must_use = "the context stays current only while the guard lives"]
    pub fn enter(&self) -> CtxGuard {
        STACK.with(|s| s.borrow_mut().push(self.clone()));
        CtxGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    /// The context current on this thread, if any.
    pub fn current() -> Option<QueryCtx> {
        STACK.with(|s| s.borrow().last().cloned())
    }

    /// Append one adapter-call record.
    pub fn record_source_call(&self, call: SourceCall) {
        self.calls.lock().push(call);
    }

    /// Snapshot of the call records.
    pub fn source_calls(&self) -> Vec<SourceCall> {
        self.calls.lock().clone()
    }

    /// The call records, moved out: the query is over and its report
    /// keeps them.
    pub fn take_source_calls(&self) -> Vec<SourceCall> {
        std::mem::take(&mut *self.calls.lock())
    }
}

/// Pops the entered context when dropped. Not `Send`: the guard must
/// drop on the thread that entered.
pub struct CtxGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert!(b.0 > a.0);
        assert_ne!(a.to_string(), b.to_string());
        assert!(a.to_string().starts_with("t-"));
    }

    #[test]
    fn current_follows_enter_and_nesting() {
        assert!(QueryCtx::current().is_none());
        let outer = QueryCtx::new("engine-0");
        {
            let _g = outer.enter();
            assert_eq!(
                QueryCtx::current().map(|c| c.trace_id),
                Some(outer.trace_id)
            );
            let inner = QueryCtx::new("engine-0");
            {
                let _g2 = inner.enter();
                assert_eq!(
                    QueryCtx::current().map(|c| c.trace_id),
                    Some(inner.trace_id)
                );
            }
            assert_eq!(
                QueryCtx::current().map(|c| c.trace_id),
                Some(outer.trace_id)
            );
        }
        assert!(QueryCtx::current().is_none());
    }

    #[test]
    fn clones_share_the_call_list() {
        let ctx = QueryCtx::new("engine-0");
        let clone = ctx.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                clone.record_source_call(SourceCall {
                    source: "crm".into(),
                    kind: "fetch".into(),
                    ok: true,
                    latency_ms: 1.5,
                    rows: 10,
                    error: None,
                });
            });
        });
        let calls = ctx.source_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].source, "crm");
    }
}
