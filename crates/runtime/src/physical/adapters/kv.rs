//! Adapter for key/value stores.

use pspp_common::{DataModel, DataType, EngineId, Error, Result, Row, Schema, Value};
use pspp_ir::Operator;

use crate::dataset::Dataset;
use crate::physical::adapters::relational::unsupported;
use crate::physical::{EngineAdapter, ExecCtx};
use crate::registry::{EngineInstance, EngineRegistry};

/// Executes prefix scans against a key/value store, materializing the
/// hits as `(key, value)` rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvAdapter;

impl EngineAdapter for KvAdapter {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn supports(&self, op: &Operator) -> bool {
        matches!(op, Operator::KvPrefixScan { .. })
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
            Operator::KvPrefixScan { table, prefix } => {
                let EngineInstance::KeyValue(kv) = registry.get(&table.engine)? else {
                    return Err(Error::Invalid(format!(
                        "{} is not a kv store",
                        table.engine
                    )));
                };
                let pairs = kv.scan_prefix(prefix);
                let value_type = pairs
                    .iter()
                    .find_map(|(_, v)| v.data_type())
                    .unwrap_or(DataType::Str);
                let schema = Schema::new(vec![("key", DataType::Str), ("value", value_type)]);
                let rows = pairs
                    .into_iter()
                    .map(|(k, v)| Row::from([Value::from(k.to_owned()), v.clone()]))
                    .collect();
                Ok(Dataset::rows(
                    schema,
                    rows,
                    DataModel::KeyValue,
                    table.engine.clone(),
                ))
            }
            other => unsupported(self, other),
        }
    }
}
