//! Load balancing over multiple engine instances.
//!
//! "Load balancing is provided; multiple instances of the integration
//! engine can be run simultaneously on one or more servers." An
//! [`EngineCluster`] owns N engines over one shared catalog and a pool of
//! worker threads; queries are dispatched round-robin or to the
//! least-loaded instance. Experiment E6 measures throughput and tail
//! latency against instance count and strategy.

use crate::catalog::Resolved;
use crate::engine::{Engine, EngineConfig, QueryResult};
use crate::error::CoreError;
use crate::shard::{partition_document, ShardNode, ShardRuntime};
use crate::Catalog;
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_store::stats::SampleBuilder;
use nimble_store::{shard_stats_key, ShardSpec};
use nimble_trace::{MetricsSnapshot, ServeReport};
use nimble_trace::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How queries map to engine instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchStrategy {
    RoundRobin,
    LeastLoaded,
}

struct Job {
    text: String,
    reply: SyncSender<Result<QueryResult, CoreError>>,
}

/// A pool of engine instances behind one submission interface.
pub struct EngineCluster {
    engines: Vec<Arc<Engine>>,
    senders: Vec<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    strategy: DispatchStrategy,
    next: AtomicU64,
}

impl EngineCluster {
    /// Spin up `instances` engines (each with `workers_per_instance`
    /// serving threads) over a shared catalog.
    pub fn new(
        catalog: Arc<Catalog>,
        instances: usize,
        workers_per_instance: usize,
        config: EngineConfig,
        strategy: DispatchStrategy,
    ) -> EngineCluster {
        assert!(instances > 0 && workers_per_instance > 0);
        let mut engines = Vec::with_capacity(instances);
        let mut senders = Vec::with_capacity(instances);
        let mut workers = Vec::new();
        for _ in 0..instances {
            let engine = Arc::new(Engine::with_config(Arc::clone(&catalog), config.clone()));
            let (tx, rx) = sync_channel::<Job>(1024);
            // An instance's workers share one queue: whoever holds the
            // lock waits for the next job and releases it before serving.
            let rx = Arc::new(Mutex::new(rx));
            for _ in 0..workers_per_instance {
                let engine = Arc::clone(&engine);
                let rx = Arc::clone(&rx);
                workers.push(std::thread::spawn(move || loop {
                    let next = rx.lock().recv();
                    let Ok(job) = next else { break };
                    let result = engine.query(&job.text);
                    // The client may have given up; that's fine.
                    let _ = job.reply.send(result);
                }));
            }
            engines.push(engine);
            senders.push(tx);
        }
        EngineCluster {
            engines,
            senders,
            workers,
            strategy,
            next: AtomicU64::new(0),
        }
    }

    /// Number of engine instances.
    pub fn instances(&self) -> usize {
        self.engines.len()
    }

    /// Access an instance (tests and experiments poke at stores).
    pub fn engine(&self, idx: usize) -> &Arc<Engine> {
        &self.engines[idx]
    }

    fn pick(&self) -> usize {
        match self.strategy {
            DispatchStrategy::RoundRobin => {
                (self.next.fetch_add(1, Ordering::SeqCst) as usize) % self.engines.len()
            }
            DispatchStrategy::LeastLoaded => self
                .engines
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.load())
                .map(|(i, _)| i)
                .unwrap_or(0),
        }
    }

    /// Submit a query and wait for its result.
    pub fn query(&self, text: &str) -> Result<QueryResult, CoreError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        let idx = self.pick();
        self.senders[idx]
            .send(Job {
                text: text.to_string(),
                reply: reply_tx,
            })
            .map_err(|_| CoreError::Exec("cluster is shut down".into()))?;
        reply_rx
            .recv()
            .map_err(|_| CoreError::Exec("worker dropped the query".into()))?
    }

    /// Submit asynchronously; the receiver yields the result.
    pub fn submit(&self, text: &str) -> Receiver<Result<QueryResult, CoreError>> {
        let (reply_tx, reply_rx) = sync_channel(1);
        let idx = self.pick();
        if self.senders[idx]
            .send(Job {
                text: text.to_string(),
                reply: reply_tx.clone(),
            })
            .is_err()
        {
            let _ = reply_tx.send(Err(CoreError::Exec("cluster is shut down".into())));
        }
        reply_rx
    }

    /// Per-instance query counts (for balance assertions).
    pub fn served_per_instance(&self) -> Vec<u64> {
        self.engines.iter().map(|e| e.query_log().total()).collect()
    }

    /// Cluster-wide metrics: every instance's snapshot merged (counters
    /// and histograms add, gauges take the max).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for engine in &self.engines {
            merged.merge(&engine.metrics_snapshot());
        }
        merged
    }

    /// The `n` slowest queries across all instances, slowest first.
    pub fn slow_queries(&self, n: usize) -> Vec<ServeReport> {
        let mut all: Vec<ServeReport> = self
            .engines
            .iter()
            .flat_map(|e| e.query_log().slow(n))
            .collect();
        all.sort_by(|a, b| b.elapsed_ms.total_cmp(&a.elapsed_ms));
        all.truncate(n);
        all
    }

    /// Every instance's flight records merged, in query admission
    /// order. Trace ids are minted from one process-wide counter, so
    /// sorting by id recovers start order across instances; each
    /// record carries its instance name for attribution.
    pub fn flight_records(&self) -> Vec<ServeReport> {
        let mut all: Vec<ServeReport> = self
            .engines
            .iter()
            .flat_map(|e| e.flight_recorder().records())
            .collect();
        all.sort_by_key(|r| r.trace_id);
        all
    }

    /// Stop accepting work and join the workers.
    pub fn shutdown(mut self) {
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for EngineCluster {
    fn drop(&mut self) {
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// XML-parsed text stays a string atom (adapters produce typed atoms),
/// so shard-slice sampling reads each value as the comparisons do
/// ([`Atomic::numeric`](nimble_xml::Atomic::numeric)) — without this,
/// per-shard min/max bounds never exist and the planner cannot prune
/// shards on key predicates.
fn numeric_view(a: &nimble_xml::Atomic) -> nimble_xml::Atomic {
    use nimble_xml::{Atomic, OrderKey};
    match a.numeric() {
        Some(OrderKey::Int(i)) => Atomic::Int(i),
        Some(OrderKey::Float(f)) => Atomic::Float(f),
        _ => a.clone(),
    }
}

/// A coordinator engine fronting shard-local engines, each owning a
/// slice of every partitioned collection. Unlike [`EngineCluster`]
/// (N whole replicas, queries load-balanced across them), a
/// `ShardedCluster` splits the *data*: one query fans its scans out to
/// every surviving shard, one task of its fetch round each, and folds
/// their rows back into original document order.
pub struct ShardedCluster {
    coordinator: Arc<Engine>,
    runtime: Arc<ShardRuntime>,
}

impl ShardedCluster {
    /// Partition the named collections of `catalog` by their specs and
    /// stand up one shard-local engine per shard. Each spec names a
    /// collection resolvable through the catalog (`"src.items"` or a
    /// unique bare name); views cannot be sharded. Per-shard statistics
    /// are sampled exhaustively at partition time so their min/max
    /// bounds are exact and safe for planner pruning.
    pub fn build(
        catalog: Arc<Catalog>,
        config: EngineConfig,
        specs: &[(&str, ShardSpec)],
    ) -> Result<ShardedCluster, CoreError> {
        // source name -> (collection -> shard slices)
        let mut slices: BTreeMap<String, BTreeMap<String, Vec<Arc<nimble_xml::Document>>>> =
            BTreeMap::new();
        let mut parts: Vec<(String, crate::shard::Partition)> = Vec::new();
        let mut max_shards = 0usize;
        for (name, spec) in specs {
            let (source, collection) = match catalog.resolve(name)? {
                Resolved::Collection { source, collection } => (source, collection),
                Resolved::View(v) => {
                    return Err(CoreError::Catalog(format!(
                        "cannot shard {:?}: it is a view, not a collection",
                        v
                    )))
                }
            };
            let adapter = catalog.source(&source).ok_or_else(|| {
                CoreError::Catalog(format!("source {:?} not registered", source))
            })?;
            let doc = adapter.fetch_collection(&collection)?;
            let (docs, part) = partition_document(&doc, spec);
            let coll_key = format!("{}.{}", source, collection);
            // Exhaustive per-shard stats: every slice row observed, so
            // exact_bounds() holds and satisfiability pruning is sound.
            for (k, slice) in docs.iter().enumerate() {
                let mut b = SampleBuilder::new();
                let mut n = 0u64;
                for row in slice.root().child_elements() {
                    b.add_row();
                    n += 1;
                    for child in row.children() {
                        if let Some(f) = child.name() {
                            b.observe(f, &numeric_view(&child.typed_value()));
                        }
                    }
                }
                catalog.stats().set(&shard_stats_key(k, &coll_key), b.finish(n));
            }
            max_shards = max_shards.max(docs.len());
            slices
                .entry(source.clone())
                .or_default()
                .insert(collection.clone(), docs);
            parts.push((coll_key, part));
        }
        // One shard-local engine per shard, each with its own catalog
        // holding shard k's slice of every partitioned collection.
        let mut nodes = Vec::with_capacity(max_shards);
        for k in 0..max_shards {
            let local = Arc::new(Catalog::new());
            for (source, colls) in &slices {
                let mut adapter = XmlDocAdapter::new(source);
                for (collection, shard_docs) in colls {
                    if let Some(doc) = shard_docs.get(k) {
                        adapter = adapter.add_document(collection, Arc::clone(doc));
                    }
                }
                local.register_source(Arc::new(adapter))?;
            }
            let engine = Arc::new(Engine::with_config(Arc::clone(&local), config.clone()));
            nodes.push(ShardNode::new(local, engine));
        }
        let mut runtime = ShardRuntime::new(nodes);
        for (coll_key, part) in parts {
            runtime.add_partition(coll_key, part);
        }
        let runtime = Arc::new(runtime);
        let coordinator = Arc::new(Engine::with_config(catalog, config));
        coordinator.attach_shards(Arc::clone(&runtime));
        Ok(ShardedCluster {
            coordinator,
            runtime,
        })
    }

    /// The coordinator engine (plans route scans through the shards).
    pub fn coordinator(&self) -> &Arc<Engine> {
        &self.coordinator
    }

    /// The shard runtime (map, partitions, node liveness).
    pub fn runtime(&self) -> &Arc<ShardRuntime> {
        &self.runtime
    }

    /// Number of shard-local nodes.
    pub fn shards(&self) -> usize {
        self.runtime.nodes()
    }

    /// Mark shard `k` up or down. Down shards degrade queries to
    /// annotated partial answers (or errors under a Fail policy).
    pub fn set_shard_alive(&self, k: usize, alive: bool) {
        self.runtime.set_alive(k, alive);
    }

    /// Run a query through the coordinator.
    pub fn query(&self, text: &str) -> Result<QueryResult, CoreError> {
        self.coordinator.query(text)
    }

    /// Run a query through the coordinator, serialized to XML text.
    pub fn query_serialized(&self, text: &str) -> Result<String, CoreError> {
        self.coordinator.query_serialized(text)
    }
}
