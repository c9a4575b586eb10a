//! Adapter for inverted-index text stores.

use pspp_common::{DataModel, DataType, EngineId, Error, Result, Row, Schema, Value};
use pspp_ir::{Operator, TextSearchMode};

use crate::dataset::Dataset;
use crate::physical::adapters::relational::unsupported;
use crate::physical::{EngineAdapter, ExecCtx};
use crate::registry::{EngineInstance, EngineRegistry};

/// Executes boolean and ranked term searches against a text store.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextAdapter;

impl EngineAdapter for TextAdapter {
    fn name(&self) -> &'static str {
        "text"
    }

    fn supports(&self, op: &Operator) -> bool {
        matches!(op, Operator::TextSearch { .. })
    }

    fn run(
        &self,
        op: &Operator,
        _inputs: &[Dataset],
        _target: Option<&EngineId>,
        registry: &EngineRegistry,
        _ctx: &ExecCtx<'_>,
    ) -> Result<Dataset> {
        match op {
            Operator::TextSearch { table, terms, mode } => {
                let EngineInstance::Text(t) = registry.get(&table.engine)? else {
                    return Err(Error::Invalid(format!(
                        "{} is not a text store",
                        table.engine
                    )));
                };
                let term_refs: Vec<&str> = terms.iter().map(String::as_str).collect();
                let (schema, rows) = match mode {
                    TextSearchMode::All => {
                        let ids = t.search_all(&term_refs);
                        (
                            Schema::new(vec![("doc_id", DataType::Int)]),
                            ids.into_iter()
                                .map(|d| Row::from([Value::Int(d as i64)]))
                                .collect::<Vec<Row>>(),
                        )
                    }
                    TextSearchMode::Any => {
                        let ids = t.search_any(&term_refs);
                        (
                            Schema::new(vec![("doc_id", DataType::Int)]),
                            ids.into_iter()
                                .map(|d| Row::from([Value::Int(d as i64)]))
                                .collect::<Vec<Row>>(),
                        )
                    }
                    TextSearchMode::Ranked(k) => {
                        let hits = t.search_ranked(&terms.join(" "), *k);
                        (
                            Schema::new(vec![
                                ("doc_id", DataType::Int),
                                ("score", DataType::Float),
                            ]),
                            hits.into_iter()
                                .map(|(d, s)| Row::from([Value::Int(d as i64), Value::Float(s)]))
                                .collect::<Vec<Row>>(),
                        )
                    }
                };
                Ok(Dataset::rows(
                    schema,
                    rows,
                    DataModel::Text,
                    table.engine.clone(),
                ))
            }
            other => unsupported(self, other),
        }
    }
}
