//! The closed-loop load generator: two clients, each sending its next
//! request when the previous reply arrives, against the query service
//! (or its traced rebuild), plus the lookup workload's rebalances.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use polystorepp::common::{Error, PartitionSpec, Result, ShardId, TableRef};
use polystorepp::prelude::*;
use polystorepp::runtime::RebalanceReport;

use crate::alloc;
use crate::oracle::{model_digest, Truth};
use crate::report::{process_cpu_s, thread_cpu_s};
use crate::trace::{TracedServer, Tracer};
use crate::workload::{Class, RequestStream, Shape, Workload, LOOKUP_PHASE};

/// What every request is checked against.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub truth: &'a Truth,
    /// The pipeline model digest from the warm-up.
    pub reference: Option<u64>,
    /// The two layouts the lookup workload's rebalances alternate
    /// between; empty for the other workloads.
    pub layouts: Vec<PartitionSpec>,
}

/// The admissions table the lookup workload rebalances.
fn admissions() -> TableRef {
    TableRef::new("db1", "admissions")
}

/// For the lookup workload: `hash(pid, 4)` and the range layout the
/// build gave `db1.admissions`.
pub fn layouts(system: &Polystore, workload: Workload) -> Result<Vec<PartitionSpec>> {
    if workload != Workload::Lookup {
        return Ok(Vec::new());
    }
    let range = system
        .registry()
        .partition(&admissions())
        .cloned()
        .ok_or_else(|| Error::Execution("admissions has no partition spec".into()))?;
    Ok(vec![PartitionSpec::hash("pid", 4), range])
}

/// One completed operation: a query or a rebalance.
pub struct Sample {
    pub class: Class,
    pub ms: f64,
    pub ok: bool,
    /// CPU time the benchmark's own check of the reply took.
    pub check_cpu_s: f64,
}

#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub rebalances: Vec<RebalanceReport>,
    pub wall_s: f64,
    /// Process CPU time over the phase (see `process_cpu_s`).
    pub cpu_s: f64,
    /// Allocations and bytes allocated over the phase, the benchmark's
    /// own bookkeeping and checks left out (see `alloc`).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Two workers, blocking admission, plan cache on, result cache off.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        admission: AdmissionConfig {
            workers: 2,
            queue_depth: 64,
            policy: AdmissionPolicy::Block,
        },
        plan_cache_capacity: 256,
        result_cache: Some(false),
        ..ServiceConfig::default()
    }
}

/// Runs one pass of the workload's shapes directly on the system: the
/// warm-up. Returns the summed simulated makespan in ms and, for the
/// pipeline, the model digest later responses must repeat.
pub fn warm_up(
    system: &Polystore,
    workload: Workload,
    seed: u64,
    patients: usize,
) -> Result<(f64, Option<u64>)> {
    let mut sim_ms = 0.0;
    let mut reference = None;
    for shape in workload.pass(seed, patients) {
        let report = match shape.query() {
            Query::Sql(sql) => system.run_sql(&sql)?,
            Query::Nlq(question) => system.run_nlq(&question)?,
            Query::Hetero(program) => system.run(&program)?,
        };
        sim_ms += report.makespan() * 1e3;
        if shape == Shape::Fig2 {
            reference = Some(model_digest(report.execution.outputs[0].try_model()?));
        }
    }
    Ok((sim_ms, reference))
}

enum Server<'t> {
    Service(QueryService),
    Traced(TracedServer, &'t Tracer),
}

/// One client's connection: a service session, or the traced path.
enum Client<'a> {
    Session(Session),
    Traced(&'a TracedServer, &'a Tracer),
}

impl Server<'_> {
    fn client(&self) -> Client<'_> {
        match self {
            Server::Service(service) => Client::Session(service.open_session()),
            Server::Traced(traced, tracer) => Client::Traced(traced, tracer),
        }
    }
}

impl Client<'_> {
    fn execute(&self, class: Class, query: &Query) -> Result<RunReport> {
        match self {
            Client::Session(session) => session.execute(query).map(|r| r.report),
            Client::Traced(traced, tracer) => traced.execute(tracer, class, query),
        }
    }
}

/// Drives the workload for `seconds`. The lookup workload runs in
/// phases of `LOOKUP_PHASE` queries; between phases the service is
/// dropped and `db1.admissions` alternates between its range layout
/// and a hash layout. With a tracer, queries take the traced path.
pub fn measure(
    system: Polystore,
    ctx: &Ctx,
    streams: &mut [RequestStream],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(Polystore, Outcome)> {
    let lookup = ctx.workload == Workload::Lookup;
    let table = admissions();
    let mut system = Arc::new(system);
    let mut outcome = Outcome::default();
    let cpu0 = process_cpu_s();
    let (allocs0, bytes0) = alloc::totals();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    loop {
        let server = match tracer {
            None => {
                let service = QueryService::new(Arc::clone(&system), service_config())?;
                if !lookup {
                    // Analytic and pipeline plans are all cache hits.
                    for shape in ctx.workload.pass(0, ctx.truth.patients()) {
                        service.warm(&shape.query())?;
                    }
                }
                Server::Service(service)
            }
            Some(t) => Server::Traced(TracedServer::new(Arc::clone(&system), service_config())?, t),
        };
        let quota = lookup.then_some(LOOKUP_PHASE);
        outcome
            .samples
            .extend(run_clients(&server, ctx, streams, deadline, quota));
        drop(server);
        if !lookup || Instant::now() >= deadline {
            break;
        }
        let sys = Arc::get_mut(&mut system).expect("the service and its sessions are dropped");
        let current = sys.registry().partition(&table).cloned();
        let spec = ctx
            .layouts
            .iter()
            .find(|l| current.as_ref() != Some(*l))
            .cloned()
            .expect("the two layouts differ");
        let t0 = Instant::now();
        let result = match tracer {
            Some(t) => t.root("registry.rebalance", || sys.rebalance(&table, spec)),
            None => sys.rebalance(&table, spec),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = match result {
            Ok(report) => {
                let held = resident_rows(sys, &table);
                outcome.rebalances.push(report);
                let want = ctx.truth.patients();
                let ok = report.total_rows == want && held == want && report.moved_rows > 0;
                if !ok {
                    eprintln!(
                        "rebalance: {} rows reported, {held} resident, {} moved; expected {want} rows",
                        report.total_rows, report.moved_rows
                    );
                }
                ok
            }
            Err(e) => {
                eprintln!("rebalance failed: {e}");
                false
            }
        };
        outcome.samples.push(Sample {
            class: Class::Rebalance,
            ms,
            ok,
            check_cpu_s: 0.0,
        });
    }
    outcome.wall_s = start.elapsed().as_secs_f64();
    outcome.cpu_s = process_cpu_s() - cpu0;
    let (allocs1, bytes1) = alloc::totals();
    (outcome.allocs, outcome.alloc_bytes) = (allocs1 - allocs0, bytes1 - bytes0);
    let system =
        Arc::try_unwrap(system).map_err(|_| Error::Execution("system still shared".into()))?;
    Ok((system, outcome))
}

/// Rows of `table` summed over every shard replica.
fn resident_rows(system: &Polystore, table: &TableRef) -> usize {
    let engine = &table.engine;
    (0..system.registry().shard_count(engine) as u32)
        .filter_map(|s| system.registry().relational_shard(engine, ShardId(s)).ok())
        .filter_map(|store| store.table(&table.name).ok())
        .map(|t| t.rows().len())
        .sum()
}

fn run_clients(
    server: &Server,
    ctx: &Ctx,
    streams: &mut [RequestStream],
    deadline: Instant,
    quota: Option<usize>,
) -> Vec<Sample> {
    let issued = AtomicUsize::new(0);
    let reported = Mutex::new(BTreeSet::new());
    std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                let (issued, reported) = (&issued, &reported);
                scope.spawn(move || {
                    let client = server.client();
                    let mut samples = Vec::new();
                    while Instant::now() < deadline
                        && quota.is_none_or(|q| issued.fetch_add(1, Ordering::Relaxed) < q)
                    {
                        let (shape, query) = alloc::uncounted(|| {
                            let shape = stream.next_shape();
                            let query = shape.query();
                            (shape, query)
                        });
                        let t0 = Instant::now();
                        let result = client.execute(shape.class(), &query);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        // The check's CPU time and allocations are the
                        // benchmark's, not the program's; dropping the
                        // reply stays on the program.
                        let check0 = thread_cpu_s();
                        let verdict = alloc::uncounted(|| match &result {
                            Ok(r) => ctx.truth.check(&shape, &r.execution.outputs, ctx.reference),
                            Err(e) => Err(e.to_string()),
                        });
                        let check_cpu_s = thread_cpu_s() - check0;
                        drop(result);
                        if let Err(msg) = &verdict {
                            let mut seen = reported.lock().unwrap_or_else(PoisonError::into_inner);
                            if seen.insert(shape.class()) {
                                let msg: String = msg.chars().take(400).collect();
                                eprintln!(
                                    "{} {}: {msg}",
                                    ctx.workload.name(),
                                    shape.class().name()
                                );
                            }
                        }
                        alloc::uncounted(|| {
                            samples.push(Sample {
                                class: shape.class(),
                                ms,
                                ok: verdict.is_ok(),
                                check_cpu_s,
                            })
                        });
                    }
                    samples
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}
