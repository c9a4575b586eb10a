//! The three workloads: what each deploys, the request stream each
//! client sends, and the set-up that turns a seed into a running system.

use std::time::Instant;

use polystorepp::common::{PartitionSpec, Result, SplitMix64, TableRef};
use polystorepp::prelude::*;

use crate::oracle::Truth;
use crate::report::process_cpu_s;
use crate::trace::Tracer;

/// Clients per workload. Each waits for its reply before sending the
/// next request (closed loop); two matches the two cores the benchmark
/// is sized for.
pub const CLIENTS: usize = 2;
/// Times set-up runs per process; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Lookup queries between two rebalances: more than the plan cache's
/// 256 entries, so every phase evicts.
pub const LOOKUP_PHASE: usize = 300;
/// One lookup request in this many is the point-filtered join. It costs
/// about a hundred point lookups, so it stays rare enough that
/// per-request fixed costs, not the join, fill most of the run.
const LOOKUP_JOIN_EVERY: usize = 200;
/// One lookup request in this many (other than the join) is a range.
const LOOKUP_RANGE_EVERY: usize = 5;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Large scans, sorts, joins and aggregations at 4 shards; every
    /// plan is a cache hit.
    Analytic,
    /// Point and narrow-range queries with fresh literals at 4 shards,
    /// interleaved with rebalances.
    Lookup,
    /// The Fig. 2 NLQ program (SQL + text + time series + MLP) at 1 shard.
    Pipeline,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Analytic, Workload::Lookup, Workload::Pipeline];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Analytic => "analytic",
            Workload::Lookup => "lookup",
            Workload::Pipeline => "pipeline",
        }
    }

    pub fn clinical(self, seed: u64) -> ClinicalConfig {
        let (patients, vitals_per_patient) = match self {
            Workload::Analytic | Workload::Lookup => (20_000, 4),
            Workload::Pipeline => (5_000, 48),
        };
        ClinicalConfig {
            patients,
            vitals_per_patient,
            seed,
        }
    }

    fn shards(self) -> usize {
        match self {
            Workload::Analytic | Workload::Lookup => 4,
            Workload::Pipeline => 1,
        }
    }

    /// The query shapes of one pass: what the warm-up runs and `sim_ms`
    /// sums over.
    pub fn pass(self, seed: u64, patients: usize) -> Vec<Shape> {
        match self {
            Workload::Analytic => ANALYTIC.to_vec(),
            Workload::Lookup => {
                let mut stream = RequestStream::new(self, seed, 0, patients);
                let mut shapes: Vec<Shape> = Vec::new();
                while shapes.len() < 3 {
                    let shape = stream.next_shape();
                    if shapes.iter().all(|s| s.class() != shape.class()) {
                        shapes.push(shape);
                    }
                }
                shapes
            }
            Workload::Pipeline => vec![Shape::Fig2],
        }
    }
}

/// A request class: the unit the per-class latencies are reported in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Scan,
    Sort,
    Join,
    Agg,
    Point,
    Range,
    PointJoin,
    Rebalance,
    Pipeline,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Scan => "scan",
            Class::Sort => "sort",
            Class::Join => "join",
            Class::Agg => "agg",
            Class::Point => "point",
            Class::Range => "range",
            Class::PointJoin => "point_join",
            Class::Rebalance => "rebalance",
            Class::Pipeline => "pipeline",
        }
    }
}

/// One request: a query shape plus its literals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    TopK,
    Count,
    OrderByDate,
    AgeRange,
    Join,
    GroupByPid,
    Point(i64),
    PidRange(i64, i64),
    PointJoin(i64),
    Fig2,
}

/// The six E20/E21 analytic shapes, in round-robin order.
pub const ANALYTIC: [Shape; 6] = [
    Shape::TopK,
    Shape::Count,
    Shape::OrderByDate,
    Shape::AgeRange,
    Shape::Join,
    Shape::GroupByPid,
];

pub const FIG2_QUESTION: &str = "Will patients have a long stay at the hospital?";

impl Shape {
    pub fn class(&self) -> Class {
        match self {
            Shape::AgeRange => Class::Scan,
            Shape::TopK | Shape::OrderByDate => Class::Sort,
            Shape::Join => Class::Join,
            Shape::Count | Shape::GroupByPid => Class::Agg,
            Shape::Point(_) => Class::Point,
            Shape::PidRange(..) => Class::Range,
            Shape::PointJoin(_) => Class::PointJoin,
            Shape::Fig2 => Class::Pipeline,
        }
    }

    pub fn query(&self) -> Query {
        let sql = match self {
            Shape::TopK => {
                "SELECT pid, age FROM admissions WHERE age >= 65 ORDER BY age DESC LIMIT 10".into()
            }
            Shape::Count => "SELECT count(*) AS n FROM admissions".into(),
            Shape::OrderByDate => {
                "SELECT pid, age FROM admissions WHERE age >= 40 ORDER BY date".into()
            }
            Shape::AgeRange => "SELECT pid FROM admissions WHERE age >= 30 AND age < 50".into(),
            Shape::Join => {
                "SELECT name, age FROM admissions JOIN db2.patients ON admissions.pid = patients.pid"
                    .into()
            }
            Shape::GroupByPid => {
                "SELECT pid, count(*) AS n, avg(age) AS mean_age FROM admissions GROUP BY pid"
                    .into()
            }
            Shape::Point(pid) => format!("SELECT pid, age, los FROM admissions WHERE pid = {pid}"),
            Shape::PidRange(lo, hi) => format!(
                "SELECT pid, age FROM admissions WHERE pid >= {lo} AND pid < {hi} ORDER BY age"
            ),
            Shape::PointJoin(pid) => format!(
                "SELECT name, age FROM admissions JOIN db2.patients \
                 ON admissions.pid = patients.pid WHERE pid = {pid}"
            ),
            Shape::Fig2 => return Query::nlq(FIG2_QUESTION),
        };
        Query::sql(sql)
    }
}

/// One client's deterministic request sequence. A seed changes lookup
/// literals and the order of analytic shapes within a round, never the
/// class mix: lookup classes depend only on the request's index, and
/// every analytic round holds each shape once.
pub struct RequestStream {
    workload: Workload,
    client: usize,
    next: usize,
    /// Lookup keys: one seeded permutation of the patient ids, which
    /// the clients walk in disjoint strides so no literal repeats
    /// within a phase and every plan-cache lookup misses.
    keys: Vec<i64>,
    /// The analytic shape order of the current round.
    order: [usize; 6],
    rng: SplitMix64,
}

impl RequestStream {
    pub fn new(workload: Workload, seed: u64, client: usize, patients: usize) -> Self {
        let mut keys = Vec::new();
        if workload == Workload::Lookup {
            keys = (0..patients as i64).collect();
            SplitMix64::new(seed ^ 0x5eed_1ec7).shuffle(&mut keys);
        }
        RequestStream {
            workload,
            client,
            next: 0,
            keys,
            order: [0, 1, 2, 3, 4, 5],
            rng: SplitMix64::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1)),
        }
    }

    pub fn next_shape(&mut self) -> Shape {
        let i = self.next;
        self.next += 1;
        match self.workload {
            Workload::Analytic => {
                // Each round visits the six shapes once in a seeded
                // order, so the two clients' pairing of heavy and light
                // shapes varies instead of locking into one phase.
                if i.is_multiple_of(ANALYTIC.len()) {
                    self.rng.shuffle(&mut self.order);
                }
                ANALYTIC[self.order[i % ANALYTIC.len()]].clone()
            }
            Workload::Pipeline => Shape::Fig2,
            Workload::Lookup => {
                let n = self.keys.len();
                let pid = self.keys[(i * CLIENTS + self.client) % n];
                if i % LOOKUP_JOIN_EVERY == LOOKUP_JOIN_EVERY / 2 {
                    Shape::PointJoin(pid)
                } else if i % LOOKUP_RANGE_EVERY == LOOKUP_RANGE_EVERY - 1 {
                    let width = 8 + self.rng.next_index(33) as i64;
                    Shape::PidRange(pid, pid + width)
                } else {
                    Shape::Point(pid)
                }
            }
        }
    }
}

/// A built system plus everything the benchmark keeps from set-up.
pub struct Deployed {
    pub system: Polystore,
    pub truth: Truth,
    pub datagen_s: f64,
    pub build_s: f64,
    /// Process CPU time the oracle's copy took, which set-up leaves out.
    pub oracle_cpu_s: f64,
}

/// Generates the workload's deployment, takes the oracle's copy of its
/// rows, and builds the system: the timed part of set-up. With a
/// tracer, datagen and build are recorded as spans.
pub fn deploy(workload: Workload, seed: u64, tracer: Option<&Tracer>) -> Result<Deployed> {
    let config = workload.clinical(seed);
    let t0 = Instant::now();
    let deployment = traced(tracer, "core.datagen", || datagen::clinical(&config));
    let datagen_s = t0.elapsed().as_secs_f64();
    let cpu0 = process_cpu_s();
    let truth = Truth::new(&deployment)?;
    let oracle_cpu_s = process_cpu_s() - cpu0;
    let mut builder = Polystore::from_deployment(deployment)
        .accelerators(AcceleratorFleet::workstation())
        .opt_level(OptLevel::L2);
    if workload.shards() > 1 {
        // Patients keyed on name make the pid join a ShuffleHash exchange.
        builder = builder
            .partition(
                TableRef::new("db2", "patients"),
                PartitionSpec::hash("name", 1),
            )
            .shards(workload.shards());
    }
    let t1 = Instant::now();
    let system = traced(tracer, "core.build", || builder.build())?;
    let build_s = t1.elapsed().as_secs_f64();
    Ok(Deployed {
        system,
        truth,
        datagen_s,
        build_s,
        oracle_cpu_s,
    })
}

fn traced<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.root(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, client: usize) -> Vec<Shape> {
        let mut s = RequestStream::new(workload, seed, client, 500);
        (0..1200).map(|_| s.next_shape()).collect()
    }

    /// The classes of each 600-request window, sorted: 600 is a whole
    /// number of analytic rounds and of lookup join periods.
    fn mix(shapes: &[Shape]) -> Vec<Vec<Class>> {
        shapes
            .chunks(600)
            .map(|c| {
                let mut classes: Vec<Class> = c.iter().map(Shape::class).collect();
                classes.sort();
                classes
            })
            .collect()
    }

    #[test]
    fn one_seed_always_yields_the_same_stream() {
        for w in Workload::ALL {
            for client in 0..CLIENTS {
                assert_eq!(stream(w, 7, client), stream(w, 7, client));
            }
        }
    }

    #[test]
    fn another_seed_changes_literals_but_not_the_class_mix() {
        for w in Workload::ALL {
            let (a, b) = (stream(w, 7, 0), stream(w, 8, 0));
            assert_eq!(mix(&a), mix(&b), "{w:?}");
            if w == Workload::Lookup {
                assert_ne!(a, b);
                assert!(a.iter().zip(&b).all(|(x, y)| x.class() == y.class()));
            }
        }
    }

    #[test]
    fn lookup_literals_do_not_repeat_across_clients() {
        let mut keys = std::collections::HashSet::new();
        for client in 0..CLIENTS {
            for shape in stream(Workload::Lookup, 3, client).into_iter().take(250) {
                assert!(keys.insert(format!("{:?}", shape.query())));
            }
        }
    }
}
