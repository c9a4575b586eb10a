//! The traced run: spans recorded from outside the program, around the
//! public call into each layer, and the per-layer figures folded from
//! them.
//!
//! A traced request takes the service's own path with public parts —
//! the worker pool, the plan cache, `compile_*`, `optimize_at`,
//! `execute_at` — so each call can be wrapped in a span. Time inside a
//! request that no layer span covers is reported as `request.gap_us`
//! rather than billed to a neighbouring layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Instant;

use polystorepp::accel::CostLedger;
use polystorepp::common::{Error, Result};
use polystorepp::prelude::*;
use polystorepp::service::{CachedPlan, PlanCache, PlanKey, WorkerPool};

use crate::report::median;
use crate::workload::Class;

/// The root span of a query request; its self time is the gap.
pub const REQUEST: &str = "request";

/// One timed interval. Spans of one request share `request`; `parent`
/// indexes the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub class: Option<Class>,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Plan-time counts the optimizer returns for each compiled query.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanCounts {
    pub compiles: u64,
    pub rewrites: u64,
    pub exchanges: u64,
    pub host_fallbacks: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    plans: Mutex<PlanCounts>,
    next_request: AtomicU64,
}

fn since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            plans: Mutex::new(PlanCounts::default()),
            next_request: AtomicU64::new(0),
        }
    }

    fn now(&self) -> u64 {
        since(self.origin)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` as a span with no parent (set-up steps, rebalances).
    pub fn root<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.spans().push(Span {
            name,
            class: None,
            request,
            parent: None,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    fn record_request(
        &self,
        class: Class,
        start: u64,
        end: u64,
        children: &[Child],
        plan: PlanCounts,
    ) {
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        let mut spans = self.spans();
        let root = spans.len();
        spans.push(Span {
            name: REQUEST,
            class: Some(class),
            request,
            parent: None,
            start_ns: start,
            end_ns: end,
        });
        spans.extend(children.iter().map(|&(name, s, e)| Span {
            name,
            class: Some(class),
            request,
            parent: Some(root),
            start_ns: s,
            end_ns: e,
        }));
        drop(spans);
        let mut p = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        p.compiles += plan.compiles;
        p.rewrites += plan.rewrites;
        p.exchanges += plan.exchanges;
        p.host_fallbacks += plan.host_fallbacks;
    }

    pub fn plan_counts(&self) -> PlanCounts {
        *self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans().iter() {
            writeln!(
                out,
                "{{\"request\":{},\"name\":\"{}\",\"class\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                s.name,
                s.class.map_or("", Class::name),
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    /// Durations in ms of the parentless spans named `name`.
    pub fn root_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Folds the spans into one record per query request.
    pub fn requests(&self) -> Vec<RequestTrace> {
        let spans = self.spans();
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        let self_ns = |i: usize| -> u64 {
            let s = &spans[i];
            s.end_ns - s.start_ns - union_ns(kids[i].iter().map(|&k| &spans[k]), s)
        };
        (0..spans.len())
            .filter(|&i| spans[i].name == REQUEST)
            .map(|i| {
                let root = &spans[i];
                let gap_ns = self_ns(i);
                let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
                let mut self_sum_ns = gap_ns;
                for &k in &kids[i] {
                    let t = self_ns(k);
                    *layers.entry(spans[k].name).or_default() += t;
                    self_sum_ns += t;
                }
                RequestTrace {
                    class: root.class.expect("request spans carry a class"),
                    wall_ns: root.end_ns - root.start_ns,
                    gap_ns,
                    self_sum_ns,
                    layers,
                }
            })
            .collect()
    }
}

/// The part of `parent` that the `children` intervals cover.
fn union_ns<'a>(children: impl Iterator<Item = &'a Span>, parent: &Span) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let (mut covered, mut reach) = (0, 0);
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// One query request after folding: wall time, the uncovered gap and
/// each layer's self time. `self_sum_ns` is the gap plus every span's
/// self time; it equals `wall_ns` unless spans overlapped.
pub struct RequestTrace {
    pub class: Class,
    pub wall_ns: u64,
    pub gap_ns: u64,
    pub self_sum_ns: u64,
    pub layers: BTreeMap<&'static str, u64>,
}

/// The p50 over requests of one layer's self time, in `scale` ns units,
/// counting only requests where the layer ran (0 when none did).
pub fn layer_p50(traces: &[&RequestTrace], layer: &str, scale: f64) -> (f64, usize) {
    let v: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.layers.get(layer))
        .map(|&ns| ns as f64 / scale)
        .collect();
    let n = v.len();
    (median(v), n)
}

type Child = (&'static str, u64, u64);

/// The service's request path rebuilt from public parts, so the call
/// into each layer can be timed: a worker pool with the service's
/// admission settings, a plan cache, and the system's compile,
/// optimize and execute entry points.
pub struct TracedServer {
    inner: Arc<Inner>,
    pool: WorkerPool,
}

struct Inner {
    system: Arc<Polystore>,
    cache: PlanCache,
}

impl TracedServer {
    pub fn new(system: Arc<Polystore>, config: ServiceConfig) -> Result<Self> {
        let pool = WorkerPool::new(config.admission)?;
        pool.set_metrics(system.metrics());
        let cache = PlanCache::new(config.plan_cache_capacity).with_metrics(system.metrics());
        Ok(TracedServer {
            inner: Arc::new(Inner { system, cache }),
            pool,
        })
    }

    /// Runs one query through the pool and records its spans.
    pub fn execute(&self, tracer: &Tracer, class: Class, query: &Query) -> Result<RunReport> {
        let origin = tracer.origin;
        let start = tracer.now();
        let (tx, rx) = mpsc::sync_channel(1);
        let inner = Arc::clone(&self.inner);
        let query = query.clone();
        self.pool.handle().submit(move || {
            let mut children = vec![("service.queue", start, since(origin))];
            let mut plan = PlanCounts::default();
            let out = inner.run(&query, origin, &mut children, &mut plan);
            // The receiver waits until this send; it cannot be gone.
            let _ = tx.send((out, children, plan));
        })?;
        let (out, children, plan) = rx
            .recv()
            .map_err(|_| Error::Execution("traced query worker panicked".into()))?;
        tracer.record_request(class, start, tracer.now(), &children, plan);
        out
    }
}

fn timed<T>(
    origin: Instant,
    children: &mut Vec<Child>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = since(origin);
    let out = f();
    children.push((name, start, since(origin)));
    out
}

impl Inner {
    fn run(
        &self,
        query: &Query,
        origin: Instant,
        children: &mut Vec<Child>,
        counts: &mut PlanCounts,
    ) -> Result<RunReport> {
        let system = &self.system;
        let level = system.opt_level();
        let key = PlanKey {
            dialect: query.dialect(),
            text: query.key_text(),
            opt_level: level,
            epoch: system.epoch(),
        };
        let cached = timed(origin, children, "service.plan_cache", || {
            self.cache.get(&key)
        });
        let plan = match cached {
            Some(plan) => plan,
            None => {
                let mut program = timed(origin, children, "frontend.compile", || match query {
                    Query::Sql(text) => system.compile_sql(text),
                    Query::Nlq(text) => system.compile_nlq(text),
                    Query::Hetero(program) => system.compile(program),
                })?;
                let (rewrites, placement) = timed(origin, children, "optimizer.optimize", || {
                    system.optimize_at(&mut program, level)
                })?;
                counts.compiles += 1;
                counts.rewrites += rewrites.total() as u64;
                if let Some(p) = &placement {
                    counts.exchanges += p.exchanges.total() as u64;
                    counts.host_fallbacks += p.host_fallbacks as u64;
                }
                let plan = Arc::new(CachedPlan {
                    program,
                    rewrites,
                    placement,
                    plan_seconds: 0.0,
                });
                timed(origin, children, "service.plan_cache", || {
                    self.cache.insert(key, Arc::clone(&plan))
                });
                plan
            }
        };
        let ledger = CostLedger::new();
        let execution = timed(origin, children, "runtime.execute", || {
            system.execute_at(&plan.program, level, ledger.clone())
        })?;
        // The report the service hands back with every reply.
        Ok(timed(origin, children, "service.report", || RunReport {
            execution,
            rewrites: plan.rewrites.clone(),
            placement: plan.placement.clone(),
            costs: ledger.total(),
        }))
    }
}
