//! Machine-readable metrics emission — the `rescheck-metrics-v2` schema
//! shared by the CLI's metrics flags and the table binaries' `--json`
//! flag.
//!
//! The document shape is:
//!
//! ```json
//! {
//!   "schema": "rescheck-metrics-v2",
//!   "command": "check",
//!   "phases": {"parse": 0.01, "solve:search": 1.2, ...},
//!   "counters": {"solver.conflicts": 1234, ...},
//!   "gauges": {"check.peak_memory_bytes": 65536.0, ...},
//!   "histograms": {"check.resolve.chain_len": {"count": …, "buckets": […]}, ...},
//!   "spans": [{"name": "check", "wall_seconds": …, "children": […]}, ...],
//!   ...command-specific sections ("solver", "check", "rows")...
//! }
//! ```
//!
//! v2 is a strict superset of v1: the two new top-level keys
//! (`histograms`, `spans`) are additive, so v1 consumers that only read
//! `phases`/`counters`/`gauges` keep working, and
//! [`Registry::from_json`] reads both shapes.

use crate::{CheckReport, InstanceReport};
use rescheck_checker::{CheckStats, ProofStats};
use rescheck_obs::{Json, Registry};
use rescheck_solver::SolverStats;
use std::io::Write;
use std::path::Path;

/// The schema tag stamped on every metrics document.
pub const SCHEMA: &str = "rescheck-metrics-v2";

/// The previous schema tag, still accepted by readers (checked-in
/// baselines from earlier PRs carry it).
pub const SCHEMA_V1: &str = "rescheck-metrics-v1";

/// The skeleton of a metrics document: schema tag, the producing
/// command, and the registry's phases / counters / gauges / histograms
/// / span tree at top level.
pub fn metrics_document(command: &str, registry: &Registry) -> Json {
    let mut root = Json::object();
    root.set("schema", SCHEMA).set("command", command);
    let reg = registry.to_json();
    for key in ["phases", "counters", "gauges", "histograms", "spans"] {
        root.set(
            key,
            reg.get(key).cloned().unwrap_or_else(|| {
                if key == "spans" {
                    Json::Array(Vec::new())
                } else {
                    Json::object()
                }
            }),
        );
    }
    root
}

/// Solver statistics as a JSON object (every counter plus the derived
/// average learned-clause length).
pub fn solver_stats_json(stats: &SolverStats) -> Json {
    let mut json = Json::object();
    json.set("decisions", stats.decisions)
        .set("propagations", stats.propagations)
        .set("conflicts", stats.conflicts)
        .set("learned_clauses", stats.learned_clauses)
        .set("learned_literals", stats.learned_literals)
        .set("avg_learned_len", stats.avg_learned_len())
        .set("deleted_clauses", stats.deleted_clauses)
        .set("restarts", stats.restarts)
        .set("db_reductions", stats.db_reductions)
        .set("reused_conflicts", stats.reused_conflicts)
        .set("minimized_literals", stats.minimized_literals)
        .set("watch_visits", stats.watch_visits)
        .set("clause_visits", stats.clause_visits);
    json
}

/// Check statistics as a JSON object (the per-run half-row of Table 2).
pub fn check_stats_json(stats: &CheckStats) -> Json {
    let mut json = Json::object();
    json.set("strategy", stats.strategy.to_string())
        .set("learned_in_trace", stats.learned_in_trace)
        .set("clauses_built", stats.clauses_built)
        .set("built_percent", stats.built_percent())
        .set("resolutions", stats.resolutions)
        .set("peak_memory_bytes", stats.peak_memory_bytes)
        .set("runtime_seconds", stats.runtime.as_secs_f64());
    if let Some(bytes) = stats.trace_bytes {
        json.set("trace_bytes", bytes);
    }
    json
}

/// Flushes the authoritative end-of-run solver totals into a registry as
/// `solver.*` counters. The solver's per-event stream is too hot to
/// total in the sink, so the final [`SolverStats`] is the source of
/// truth.
pub fn flush_solver_stats(registry: &mut Registry, stats: &SolverStats) {
    registry.inc("solver.decisions", stats.decisions);
    registry.inc("solver.propagations", stats.propagations);
    registry.inc("solver.conflicts", stats.conflicts);
    registry.inc("solver.learned_clauses", stats.learned_clauses);
    registry.inc("solver.learned_literals", stats.learned_literals);
    registry.inc("solver.deleted_clauses", stats.deleted_clauses);
    registry.inc("solver.restarts", stats.restarts);
    registry.inc("solver.db_reductions", stats.db_reductions);
    registry.inc("solver.reused_conflicts", stats.reused_conflicts);
    registry.inc("solver.minimized_literals", stats.minimized_literals);
    registry.inc("solver.watch_visits", stats.watch_visits);
    registry.inc("solver.clause_visits", stats.clause_visits);
}

/// Trace-level proof statistics ([`ProofStats`]) as a JSON object.
pub fn proof_stats_json(stats: &ProofStats) -> Json {
    let mut json = Json::object();
    json.set("learned_total", stats.learned_total)
        .set("needed", stats.needed)
        .set("needed_percent", stats.needed_percent())
        .set("derivation_resolutions", stats.derivation_resolutions)
        .set("final_phase_bound", stats.final_phase_bound)
        .set("depth", stats.depth)
        .set("max_sources", stats.max_sources)
        .set("avg_sources", stats.avg_sources)
        .set("core_clauses", stats.core_clauses);
    json
}

/// An [`InstanceReport`] as a JSON object (a row of Table 1).
pub fn instance_json(report: &InstanceReport) -> Json {
    let mut json = Json::object();
    json.set("name", report.name.as_str())
        .set("num_vars", report.num_vars)
        .set("num_clauses", report.num_clauses)
        .set("learned_clauses", report.learned_clauses)
        .set(
            "time_trace_off_seconds",
            report.time_trace_off.as_secs_f64(),
        )
        .set("time_trace_on_seconds", report.time_trace_on.as_secs_f64())
        .set("overhead_percent", report.overhead_percent())
        .set("trace_ascii_bytes", report.trace_ascii_bytes)
        .set("trace_binary_bytes", report.trace_binary_bytes)
        .set("solver", solver_stats_json(&report.solver_stats));
    json
}

/// A [`CheckReport`] as a JSON object; failed checks (memory-out) carry
/// an `error` field instead of the stats.
pub fn check_report_json(report: &CheckReport) -> Json {
    let mut json = Json::object();
    json.set("runtime_seconds", report.runtime.as_secs_f64());
    match &report.outcome {
        Ok(outcome) => {
            json.set("stats", check_stats_json(&outcome.stats));
            if let Some(core) = &outcome.core {
                let mut core_json = Json::object();
                core_json
                    .set("num_clauses", core.num_clauses())
                    .set("num_vars", core.num_vars());
                json.set("core", core_json);
            }
        }
        Err(message) => {
            json.set("error", message.as_str());
        }
    }
    json
}

/// Writes a document to `path` in pretty form.
pub fn write_json(path: &Path, json: &Json) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.to_pretty_string().as_bytes())
}

/// Extracts a `--json <path>` flag from an argument list, if present.
pub fn take_json_flag(args: &mut Vec<String>) -> Option<String> {
    let pos = args.iter().position(|a| a == "--json")?;
    if pos + 1 < args.len() {
        args.remove(pos);
        Some(args.remove(pos))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescheck_checker::Strategy;
    use std::time::Duration;

    #[test]
    fn document_skeleton_has_stable_keys() {
        let mut reg = Registry::new();
        reg.inc("solver.conflicts", 1);
        reg.record_phase("solve", Duration::from_millis(5));
        let doc = metrics_document("solve", &reg);
        assert_eq!(
            doc.keys(),
            vec![
                "schema",
                "command",
                "phases",
                "counters",
                "gauges",
                "histograms",
                "spans"
            ]
        );
        assert_eq!(doc.path("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(SCHEMA, "rescheck-metrics-v2");
        assert_eq!(SCHEMA_V1, "rescheck-metrics-v1");
        assert!(doc.get("phases").unwrap().get("solve").is_some());
    }

    #[test]
    fn check_stats_json_roundtrips_through_parser() {
        let stats = CheckStats {
            strategy: Strategy::DepthFirst,
            learned_in_trace: 200,
            clauses_built: 50,
            resolutions: 420,
            peak_memory_bytes: 65536,
            runtime: Duration::from_millis(12),
            trace_bytes: Some(1024),
        };
        let json = check_stats_json(&stats);
        let reparsed = rescheck_obs::json::parse(&json.to_pretty_string()).unwrap();
        assert_eq!(reparsed.get("clauses_built").unwrap().as_u64(), Some(50));
        assert_eq!(reparsed.get("built_percent").unwrap().as_f64(), Some(25.0));
        assert_eq!(reparsed.get("trace_bytes").unwrap().as_u64(), Some(1024));
    }

    #[test]
    fn solver_stats_json_has_all_counters() {
        let json = solver_stats_json(&SolverStats::default());
        for key in [
            "decisions",
            "propagations",
            "conflicts",
            "learned_clauses",
            "reused_conflicts",
            "minimized_literals",
            "watch_visits",
            "clause_visits",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn flush_solver_stats_populates_counters() {
        let mut reg = Registry::new();
        let stats = SolverStats {
            decisions: 9,
            conflicts: 7,
            watch_visits: 40,
            clause_visits: 12,
            ..SolverStats::default()
        };
        flush_solver_stats(&mut reg, &stats);
        assert_eq!(reg.counter("solver.decisions"), Some(9));
        assert_eq!(reg.counter("solver.conflicts"), Some(7));
        assert_eq!(reg.counter("solver.watch_visits"), Some(40));
        assert_eq!(reg.counter("solver.clause_visits"), Some(12));
        assert_eq!(reg.counter("solver.restarts"), Some(0));
    }

    #[test]
    fn take_json_flag_extracts_path() {
        let mut args = vec![
            "16".to_string(),
            "--json".to_string(),
            "out.json".to_string(),
        ];
        assert_eq!(take_json_flag(&mut args), Some("out.json".to_string()));
        assert_eq!(args, vec!["16".to_string()]);
        assert_eq!(take_json_flag(&mut args), None);
    }
}
