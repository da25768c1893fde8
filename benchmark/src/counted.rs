//! The benchmark-owned pass-through `SourceAdapter`: counts the calls
//! the mediator makes on a catalog source and the XML nodes it gets
//! back (the load put on autonomous sources, §3.3), and — in the traced
//! run — wraps each call in a span. Two relaxed adds per call; every
//! metadata method delegates untouched.

use crate::spans::recorder;
use nimble_sources::{
    Capabilities, CollectionInfo, SourceAdapter, SourceError, SourceKind, SourceQuery,
};
use nimble_xml::Document;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
pub struct Counters {
    pub execute_calls: AtomicU64,
    pub fetch_calls: AtomicU64,
    pub nodes: AtomicU64,
}

#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub execute_calls: u64,
    pub fetch_calls: u64,
    pub nodes: u64,
}

impl Counters {
    pub fn read(&self) -> Counts {
        Counts {
            execute_calls: self.execute_calls.load(Ordering::Relaxed),
            fetch_calls: self.fetch_calls.load(Ordering::Relaxed),
            nodes: self.nodes.load(Ordering::Relaxed),
        }
    }
}

impl Counts {
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            execute_calls: self.execute_calls - earlier.execute_calls,
            fetch_calls: self.fetch_calls - earlier.fetch_calls,
            nodes: self.nodes - earlier.nodes,
        }
    }

    pub fn add(&mut self, other: &Counts) {
        self.execute_calls += other.execute_calls;
        self.fetch_calls += other.fetch_calls;
        self.nodes += other.nodes;
    }

    pub fn calls(&self) -> u64 {
        self.execute_calls + self.fetch_calls
    }
}

pub struct Counted {
    inner: Arc<dyn SourceAdapter>,
    counters: Arc<Counters>,
}

impl Counted {
    pub fn wrap(inner: Arc<dyn SourceAdapter>, counters: &Arc<Counters>) -> Arc<dyn SourceAdapter> {
        Arc::new(Counted {
            inner,
            counters: Arc::clone(counters),
        })
    }

    fn note(&self, calls: &AtomicU64, result: &Result<Arc<Document>, SourceError>) {
        calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(doc) = result {
            self.counters
                .nodes
                .fetch_add(doc.len() as u64, Ordering::Relaxed);
        }
    }
}

impl SourceAdapter for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn collections(&self) -> Vec<CollectionInfo> {
        self.inner.collections()
    }

    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        let _span = recorder().leaf("sources.execute");
        let result = self.inner.execute(query);
        self.note(&self.counters.execute_calls, &result);
        result
    }

    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        let _span = recorder().leaf("sources.fetch");
        let result = self.inner.fetch_collection(name);
        self.note(&self.counters.fetch_calls, &result);
        result
    }

    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
}
