//! Expected answers computed with plain Rust over the generated rows,
//! read from the deployment before it is built. No relstore operator
//! is used, so a defect in the system cannot hide in its own oracle.

use std::collections::{BTreeMap, HashSet};

use polystorepp::common::partition::{fnv1a, FNV_OFFSET};
use polystorepp::common::{EngineId, Error, Result, Row, Value};
use polystorepp::core::Deployment;
use polystorepp::runtime::Dataset;

use crate::workload::Shape;

#[derive(Clone)]
struct Admission {
    age: i64,
    date: i64,
    los: f64,
}

/// The generated rows the answers are computed from, plus the answers
/// of the fixed analytic shapes (as sorted row multisets).
pub struct Truth {
    admissions: BTreeMap<i64, Admission>,
    names: BTreeMap<i64, String>,
    top_ages: Vec<i64>,
    order_by_date: Vec<Row>,
    age_range: Vec<Row>,
    join: Vec<Row>,
    group_by_pid: Vec<Row>,
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn column(rows: &[Row], idx: usize, pick: impl Fn(&Value) -> Option<i64>) -> Result<Vec<i64>> {
    rows.iter()
        .map(|r| pick(&r[idx]).ok_or_else(|| Error::Execution("unexpected value type".into())))
        .collect()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

impl Truth {
    pub fn new(deployment: &Deployment) -> Result<Self> {
        let db1 = deployment.registry.relational(&EngineId::new("db1"))?;
        let adm = db1.table("admissions")?;
        let s = adm.schema();
        let (pid, age, date, los) = (
            s.require("pid")?,
            s.require("age")?,
            s.require("date")?,
            s.require("los")?,
        );
        let pids = column(adm.rows(), pid, Value::as_i64)?;
        let ages = column(adm.rows(), age, Value::as_i64)?;
        let dates = column(adm.rows(), date, Value::as_i64)?;
        let mut admissions = BTreeMap::new();
        for (i, row) in adm.rows().iter().enumerate() {
            let los = row[los]
                .as_f64()
                .ok_or_else(|| Error::Execution("los is not a float".into()))?;
            admissions.insert(
                pids[i],
                Admission {
                    age: ages[i],
                    date: dates[i],
                    los,
                },
            );
        }
        let db2 = deployment.registry.relational(&EngineId::new("db2"))?;
        let pat = db2.table("patients")?;
        let (ppid, pname) = (pat.schema().require("pid")?, pat.schema().require("name")?);
        let mut names = BTreeMap::new();
        for row in pat.rows() {
            let p = row[ppid]
                .as_i64()
                .ok_or_else(|| Error::Execution("pid is not an int".into()))?;
            let n = row[pname]
                .as_str()
                .ok_or_else(|| Error::Execution("name is not a string".into()))?;
            names.insert(p, n.to_string());
        }

        let mut top_ages: Vec<i64> = admissions
            .values()
            .map(|a| a.age)
            .filter(|&a| a >= 65)
            .collect();
        top_ages.sort_unstable_by(|a, b| b.cmp(a));
        top_ages.truncate(10);
        let filtered = |keep: &dyn Fn(&Admission) -> bool,
                        cols: &dyn Fn(i64, &Admission) -> Row| {
            sorted(
                admissions
                    .iter()
                    .filter(|(_, a)| keep(a))
                    .map(|(&p, a)| cols(p, a))
                    .collect(),
            )
        };
        let order_by_date = filtered(&|a| a.age >= 40, &|p, a| {
            Row::from(vec![int(p), int(a.age)])
        });
        let age_range = filtered(&|a| (30..50).contains(&a.age), &|p, _| {
            Row::from(vec![int(p)])
        });
        let join = sorted(
            admissions
                .iter()
                .filter_map(|(p, a)| {
                    names
                        .get(p)
                        .map(|n| Row::from(vec![Value::Str(n.clone()), int(a.age)]))
                })
                .collect(),
        );
        let group_by_pid = filtered(&|_| true, &|p, a| {
            Row::from(vec![int(p), int(1), Value::Float(a.age as f64)])
        });
        Ok(Truth {
            admissions,
            names,
            top_ages,
            order_by_date,
            age_range,
            join,
            group_by_pid,
        })
    }

    pub fn patients(&self) -> usize {
        self.admissions.len()
    }

    /// Checks one response. `reference` is the pipeline model digest the
    /// warm-up produced; every later model must match it.
    pub fn check(
        &self,
        shape: &Shape,
        outputs: &[Dataset],
        reference: Option<u64>,
    ) -> std::result::Result<(), String> {
        if outputs.len() != 1 {
            return Err(format!("{} outputs, expected 1", outputs.len()));
        }
        if let Shape::Fig2 = shape {
            let model = outputs[0].try_model().map_err(|e| e.to_string())?;
            let got = model_digest(model);
            return match reference {
                Some(want) if want == got => Ok(()),
                _ => Err(format!(
                    "model digest {got:016x}, expected {reference:016x?}"
                )),
            };
        }
        let rows = outputs[0].try_rows().map_err(|e| e.to_string())?;
        match shape {
            Shape::TopK => self.check_top_k(rows),
            Shape::Count => same(rows, &[Row::from(vec![int(self.patients() as i64)])]),
            Shape::OrderByDate => {
                same_multiset(rows, &self.order_by_date)?;
                self.non_decreasing(rows, |a| a.date)
            }
            Shape::AgeRange => same_multiset(rows, &self.age_range),
            Shape::Join => same_multiset(rows, &self.join),
            Shape::GroupByPid => same_multiset(rows, &self.group_by_pid),
            Shape::Point(p) => {
                let want: Vec<Row> = self
                    .admissions
                    .get(p)
                    .map(|a| Row::from(vec![int(*p), int(a.age), Value::Float(a.los)]))
                    .into_iter()
                    .collect();
                same(rows, &want)
            }
            Shape::PidRange(lo, hi) => {
                let want = sorted(
                    self.admissions
                        .range(lo..hi)
                        .map(|(&p, a)| Row::from(vec![int(p), int(a.age)]))
                        .collect(),
                );
                same_multiset(rows, &want)?;
                self.non_decreasing(rows, |a| a.age)
            }
            Shape::PointJoin(p) => {
                let want: Vec<Row> = match (self.admissions.get(p), self.names.get(p)) {
                    (Some(a), Some(n)) => vec![Row::from(vec![Value::Str(n.clone()), int(a.age)])],
                    _ => Vec::new(),
                };
                same(rows, &want)
            }
            Shape::Fig2 => unreachable!("handled above"),
        }
    }

    /// Any valid top-k: right length, each row real and qualifying, no
    /// pid twice, ages descending, and the same age multiset as the true
    /// top-k (rows tied at the boundary may be any of the tied ones).
    fn check_top_k(&self, rows: &[Row]) -> std::result::Result<(), String> {
        if rows.len() != self.top_ages.len() {
            return Err(format!(
                "{} rows, expected {}",
                rows.len(),
                self.top_ages.len()
            ));
        }
        let mut seen = HashSet::new();
        for (i, row) in rows.iter().enumerate() {
            let (p, age) = (row[0].as_i64(), row[1].as_i64());
            let real = p.and_then(|p| self.admissions.get(&p)).map(|a| a.age);
            if real.is_none() || real != age || age != Some(self.top_ages[i]) {
                return Err(format!("row {i} {row:?} is not a valid top-k row"));
            }
            if !seen.insert(p) {
                return Err(format!("pid {p:?} appears twice"));
            }
        }
        Ok(())
    }

    /// The rows' sort key (looked up by the pid in column 0) never
    /// decreases; rows with equal keys may come in any order.
    fn non_decreasing(
        &self,
        rows: &[Row],
        key: impl Fn(&Admission) -> i64,
    ) -> std::result::Result<(), String> {
        let keys: Vec<i64> = rows
            .iter()
            .map(|r| {
                r[0].as_i64()
                    .and_then(|p| self.admissions.get(&p))
                    .map(&key)
                    .ok_or_else(|| format!("row {r:?} has no known pid"))
            })
            .collect::<std::result::Result<_, _>>()?;
        match keys.windows(2).position(|w| w[0] > w[1]) {
            Some(i) => Err(format!("sort key decreases at row {}", i + 1)),
            None => Ok(()),
        }
    }
}

/// The canonical digest of a trained model.
pub fn model_digest(model: &polystorepp::mlengine::Mlp) -> u64 {
    fnv1a(format!("{model:?}").as_bytes(), FNV_OFFSET)
}

fn same(got: &[Row], want: &[Row]) -> std::result::Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("got {got:?}, expected {want:?}"))
    }
}

fn same_multiset(got: &[Row], want_sorted: &[Row]) -> std::result::Result<(), String> {
    if got.len() != want_sorted.len() {
        return Err(format!(
            "{} rows, expected {}",
            got.len(),
            want_sorted.len()
        ));
    }
    let got = sorted(got.to_vec());
    match got.iter().zip(want_sorted).position(|(g, w)| g != w) {
        Some(i) => Err(format!(
            "row multisets differ: {:?} vs expected {:?}",
            got[i], want_sorted[i]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ANALYTIC, FIG2_QUESTION};
    use polystorepp::common::{PartitionSpec, TableRef};
    use polystorepp::prelude::*;

    fn system(shards: usize) -> (Polystore, Truth) {
        let deployment = datagen::clinical(&ClinicalConfig {
            patients: 300,
            vitals_per_patient: 4,
            seed: 5,
        });
        let truth = Truth::new(&deployment).unwrap();
        let system = Polystore::from_deployment(deployment)
            .accelerators(AcceleratorFleet::workstation())
            .partition(
                TableRef::new("db2", "patients"),
                PartitionSpec::hash("name", 1),
            )
            .shards(shards)
            .build()
            .unwrap();
        (system, truth)
    }

    #[test]
    fn oracle_agrees_with_the_system_at_1_and_4_shards() {
        for shards in [1, 4] {
            let (system, truth) = system(shards);
            let mut shapes = ANALYTIC.to_vec();
            shapes.extend([
                Shape::Point(17),
                Shape::Point(299),
                Shape::PidRange(40, 75),
                Shape::PointJoin(123),
            ]);
            for shape in shapes {
                let report = system.run_sql(&sql_of(&shape)).unwrap();
                if let Err(e) = truth.check(&shape, &report.execution.outputs, None) {
                    panic!("{shards} shards, {shape:?}: {e}");
                }
            }
        }
    }

    #[test]
    fn oracle_rejects_wrong_answers() {
        let (system, truth) = system(4);
        let report = system.run_sql(&sql_of(&Shape::Point(17))).unwrap();
        assert!(truth
            .check(&Shape::Point(18), &report.execution.outputs, None)
            .is_err());
        let report = system.run_sql(&sql_of(&Shape::OrderByDate)).unwrap();
        let mut outputs = report.execution.outputs.clone();
        if let polystorepp::runtime::Payload::Rows { rows, .. } = &mut outputs[0].payload {
            rows.reverse();
        }
        assert!(truth.check(&Shape::OrderByDate, &outputs, None).is_err());
    }

    #[test]
    fn pipeline_model_digest_repeats() {
        let (system, truth) = system(1);
        let first = system.run_nlq(FIG2_QUESTION).unwrap();
        let digest = model_digest(first.execution.outputs[0].try_model().unwrap());
        let again = system.run_nlq(FIG2_QUESTION).unwrap();
        assert!(truth
            .check(&Shape::Fig2, &again.execution.outputs, Some(digest))
            .is_ok());
        assert!(truth
            .check(&Shape::Fig2, &again.execution.outputs, Some(!digest))
            .is_err());
    }

    fn sql_of(shape: &Shape) -> String {
        match shape.query() {
            Query::Sql(sql) => sql,
            q => panic!("not SQL: {q:?}"),
        }
    }
}
