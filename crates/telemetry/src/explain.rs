//! `EXPLAIN ANALYZE`: planned cost next to executed cost, per node.
//!
//! The optimizer prices a plan before execution ([`PlannedCosts`], produced
//! from `CostModel::place`'s `PlacementPlan`); the executor reports what
//! actually ran ([`NodeTrace`]s on the simulated clock). [`explain_analyze`]
//! joins the two into a text tree: one row per node with planned vs. executed
//! critical-path seconds, one row per (shard) task with its device pick and
//! any host fallback, and one row per exchange edge with routed rows/bytes.

use crate::trace::NodeTrace;
use pspp_accel::SimDuration;
use pspp_ir::NodeId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The optimizer's pre-execution cost estimates, keyed for the join
/// against executed traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlannedCosts {
    /// Planned critical-path seconds per node.
    pub node_seconds: HashMap<NodeId, f64>,
    /// Planned end-to-end seconds.
    pub total_seconds: f64,
    /// Planned exchange seconds across all edges.
    pub exchange_seconds: f64,
    /// Planned number of host fallbacks (planned device missing from a
    /// shard's fleet).
    pub host_fallbacks: usize,
}

fn dur(seconds: f64) -> String {
    format!("{}", SimDuration::from_secs(seconds))
}

fn planned_cell(planned: Option<f64>) -> String {
    planned.map_or_else(|| "-".to_string(), dur)
}

/// Renders the planned-vs-executed tree. `traces` must be in executor
/// merge order; `planned` is optional (plain `L0`/`L1` runs have no
/// placement), `makespan` is the report's effective makespan.
pub fn explain_analyze(
    traces: &[NodeTrace],
    planned: Option<&PlannedCosts>,
    makespan: f64,
) -> String {
    let mut rows: Vec<(String, String, String)> = Vec::new();
    for trace in traces {
        let planned_node = planned.and_then(|p| p.node_seconds.get(&trace.id).copied());
        rows.push((
            format!(
                "{}@{} stage={} rows={}",
                trace.op, trace.id, trace.stage, trace.rows
            ),
            planned_cell(planned_node),
            dur(trace.critical_seconds),
        ));
        for task in &trace.tasks {
            let fallback = if task.fallback() {
                format!(" (planned {:?}, host fallback)", task.planned)
            } else {
                String::new()
            };
            let fused = task.fused.map_or_else(String::new, |tag| {
                format!(" fused=#{}[{}/{}]", tag.chain, tag.pos + 1, tag.len)
            });
            let queue = if task.queue_seconds > 0.0 {
                format!(" queue={}", dur(task.queue_seconds))
            } else {
                String::new()
            };
            rows.push((
                format!(
                    "  {}[{}] device={:?}{}{}{} rows={}",
                    task.shard, task.slot, task.device, fallback, fused, queue, task.rows
                ),
                String::new(),
                dur(task.critical_seconds),
            ));
        }
        for exchange in &trace.exchanges {
            rows.push((
                format!(
                    "  exchange.{} rows={} bytes={} device={:?}",
                    exchange.kind, exchange.rows, exchange.bytes, exchange.device
                ),
                String::new(),
                dur(exchange.seconds),
            ));
        }
    }
    let fallbacks: usize = traces.iter().map(NodeTrace::fallbacks).sum();
    let exchange_rows: usize = traces.iter().map(NodeTrace::exchange_rows).sum();
    rows.push((
        format!("makespan (fallbacks={fallbacks}, exchange_rows={exchange_rows})"),
        planned
            .map(|p| dur(p.total_seconds))
            .unwrap_or_else(|| "-".to_string()),
        dur(makespan),
    ));

    let name_w = rows
        .iter()
        .map(|(n, _, _)| n.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let planned_w = rows
        .iter()
        .map(|(_, p, _)| p.len())
        .max()
        .unwrap_or(0)
        .max("planned".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>planned_w$}  {:>10}",
        "node", "planned", "actual"
    );
    for (name, planned, actual) in &rows {
        let _ = writeln!(out, "{name:<name_w$}  {planned:>planned_w$}  {actual:>10}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ExchangeTrace, TaskTrace};
    use pspp_common::{DeviceKind, ShardId};

    fn traces() -> Vec<NodeTrace> {
        vec![NodeTrace {
            id: NodeId(3),
            op: "hash_join".to_string(),
            stage: 1,
            rows: 120,
            exec_seconds: 4e-4,
            migration_seconds: 2e-4,
            critical_seconds: 6e-4,
            tasks: vec![TaskTrace {
                shard: ShardId(0),
                slot: 0,
                planned: DeviceKind::Gpu,
                device: DeviceKind::Cpu,
                rows: 120,
                exec_seconds: 4e-4,
                migration_seconds: 1e-4,
                critical_seconds: 5e-4,
                queue_seconds: 2e-5,
                fused: Some(pspp_ir::FusionTag {
                    chain: 0,
                    pos: 1,
                    len: 2,
                }),
                fused_saved_seconds: 0.0,
            }],
            exchanges: vec![ExchangeTrace {
                kind: "shuffle",
                rows: 240,
                bytes: 9_600,
                seconds: 1e-4,
                device: DeviceKind::Cpu,
            }],
        }]
    }

    #[test]
    fn joins_planned_and_actual_costs() {
        let mut planned = PlannedCosts::default();
        planned.node_seconds.insert(NodeId(3), 5.5e-4);
        planned.total_seconds = 5.5e-4;
        let text = explain_analyze(&traces(), Some(&planned), 6e-4);
        assert!(text.contains("hash_join@n3"));
        assert!(
            text.contains("550.000us"),
            "planned column rendered: {text}"
        );
        assert!(text.contains("600.000us"), "actual column rendered: {text}");
        assert!(text.contains("host fallback"));
        assert!(
            text.contains("fused=#0[2/2]"),
            "fused chain rendered: {text}"
        );
        assert!(
            text.contains("queue=20.000us"),
            "queue wait rendered: {text}"
        );
        assert!(text.contains("exchange.shuffle rows=240"));
        assert!(text.contains("exchange_rows=240"));
    }

    #[test]
    fn renders_without_planned_costs() {
        let text = explain_analyze(&traces(), None, 6e-4);
        assert!(text.contains("hash_join@n3"));
        assert!(text.lines().next().unwrap().contains("planned"));
        assert!(
            text.contains(" - "),
            "missing planned cells render as dashes"
        );
    }
}
