//! Bench trend tooling: load two `BENCH_*.json` documents, align their
//! numeric series, and gate on regressions.
//!
//! The documents are read with the same [`json`](crate::json) module
//! that wrote them; this module is a flattener that turns nested sections
//! and row arrays into stable `(key, value)` series, and a
//! direction-aware comparator. `--bin benchdiff` is the CLI; CI runs it
//! against the committed baseline.
//!
//! Flattening rules, chosen so keys survive row reordering:
//!
//! * object members nest with `.` (`c100k.sessions`);
//! * array elements are keyed by their identifying member —
//!   `threads`, `shards`, `link`, `scenario`, `label`, `protocol`, or
//!   `workload` — so
//!   `c100k.rows[shards=2].sessions_per_sec` names the same series in
//!   both files even if the sweep order changed (positional index is
//!   the fallback);
//! * only numeric leaves become series; strings, booleans, and nulls
//!   are provenance, not trends;
//! * `telemetry` subtrees are skipped — raw counter dumps are
//!   reconciliation artifacts, not benchmark metrics.
//!
//! Comparison is direction-aware: only `*_per_sec` throughput series
//! (higher is better) gate by default. Latency members (`*_ms`, `*_ns`,
//! `p50`/`p99`) are reported but never fail the run — on shared 1-CPU
//! CI they swing far too wildly to gate on.

use std::fmt;

use crate::json::Json;

// ---------------------------------------------------------------------------
// Flattening
// ---------------------------------------------------------------------------

/// Members that identify an array row — checked in order; the first one
/// present keys the row.
const ROW_KEYS: [&str; 7] =
    ["threads", "shards", "link", "scenario", "label", "protocol", "workload"];

/// Subtrees that are reconciliation artifacts, not trend series.
const SKIP_SUBTREES: [&str; 1] = ["telemetry"];

/// Flattens a parsed bench document into `(series key, value)` pairs,
/// in document order. See the module docs for the key grammar.
pub fn flatten(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(doc, String::new(), &mut out);
    out
}

fn walk(v: &Json, path: String, out: &mut Vec<(String, f64)>) {
    if let Some(n) = v.as_f64() {
        out.push((path, n));
        return;
    }
    match v {
        Json::Obj(members) => {
            for (k, child) in members {
                if SKIP_SUBTREES.contains(&k.as_str()) {
                    continue;
                }
                let next = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                walk(child, next, out);
            }
        }
        Json::Arr(items) => {
            for (ix, item) in items.iter().enumerate() {
                let tag = ROW_KEYS.iter().find_map(|rk| {
                    item.get(rk).map(|id| match id {
                        Json::Str(s) => format!("{rk}={s}"),
                        Json::Int(n) => format!("{rk}={n}"),
                        Json::Num(n) => format!("{rk}={n}"),
                        _ => format!("{rk}?"),
                    })
                });
                let next = format!("{path}[{}]", tag.unwrap_or_else(|| ix.to_string()));
                walk(item, next, out);
            }
        }
        // Strings, booleans, nulls: provenance, not series.
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// How a series may gate the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Higher is better; gated (throughput).
    HigherBetter,
    /// Reported, never gated (latency and counts on noisy CI).
    Informational,
}

/// The gating direction of a series key.
pub fn direction(key: &str) -> Direction {
    let metric = key.rsplit('.').next().unwrap_or(key);
    if metric.ends_with("_per_sec") {
        Direction::HigherBetter
    } else {
        Direction::Informational
    }
}

/// One aligned series: its value in both documents.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Flattened series key.
    pub key: String,
    /// Value in the baseline document.
    pub base: f64,
    /// Value in the fresh document.
    pub fresh: f64,
}

impl Delta {
    /// Percent change, fresh vs base (`None` when base is 0).
    pub fn pct(&self) -> Option<f64> {
        (self.base != 0.0).then(|| (self.fresh - self.base) / self.base * 100.0)
    }

    /// Whether this delta fails the gate: a gated series that lost more
    /// than `tolerance_pct` percent.
    pub fn regressed(&self, tolerance_pct: f64) -> bool {
        direction(&self.key) == Direction::HigherBetter
            && self.fresh < self.base * (1.0 - tolerance_pct / 100.0)
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = match self.pct() {
            Some(p) => format!("{p:+.1}%"),
            None => "n/a".into(),
        };
        write!(f, "{}: {} -> {} ({pct})", self.key, self.base, self.fresh)
    }
}

/// The aligned comparison of two flattened documents.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Series present in both documents, in baseline order.
    pub deltas: Vec<Delta>,
    /// Series only in the baseline (removed by the fresh run).
    pub only_base: Vec<String>,
    /// Series only in the fresh document (new metrics).
    pub only_fresh: Vec<String>,
}

impl DiffReport {
    /// Aligns two parsed documents by flattened series key.
    pub fn compare(base: &Json, fresh: &Json) -> DiffReport {
        let base_series = flatten(base);
        let fresh_series = flatten(fresh);
        let fresh_map: std::collections::HashMap<&str, f64> =
            fresh_series.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let base_keys: std::collections::HashSet<&str> =
            base_series.iter().map(|(k, _)| k.as_str()).collect();
        let mut report = DiffReport::default();
        for (key, bval) in &base_series {
            match fresh_map.get(key.as_str()) {
                Some(&fval) => {
                    report.deltas.push(Delta { key: key.clone(), base: *bval, fresh: fval })
                }
                None => report.only_base.push(key.clone()),
            }
        }
        for (key, _) in &fresh_series {
            if !base_keys.contains(key.as_str()) {
                report.only_fresh.push(key.clone());
            }
        }
        report
    }

    /// The deltas that fail the gate at `tolerance_pct`, optionally
    /// restricted to keys containing `only`.
    pub fn regressions(&self, tolerance_pct: f64, only: Option<&str>) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| only.is_none_or(|s| d.key.contains(s)))
            .filter(|d| d.regressed(tolerance_pct))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "bench": "throughput",
        "negotiations": 1000,
        "rows": [
            {"shards": 1, "sessions_per_sec": 200, "polls": 5000},
            {"shards": 2, "sessions_per_sec": 110, "polls": 5000}
        ],
        "links": [
            {"link": "WLAN", "negotiation_ms": 8.5}
        ],
        "knees": [
            {"protocol": "Gzip", "max_sustainable_rps": 32},
            {"protocol": "Bitmap", "max_sustainable_rps": 96}
        ],
        "telemetry": {"counters": {"noise_total": 9}}
    }"#;

    #[test]
    fn flatten_keys_rows_by_identity_and_skips_telemetry() {
        let doc = Json::parse(BASE).unwrap();
        let series = flatten(&doc);
        let keys: Vec<&str> = series.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"rows[shards=1].sessions_per_sec"), "{keys:?}");
        assert!(keys.contains(&"links[link=WLAN].negotiation_ms"), "{keys:?}");
        assert!(keys.contains(&"negotiations"), "{keys:?}");
        assert!(
            !keys.iter().any(|k| k.contains("telemetry") || k.contains("noise_total")),
            "telemetry subtree must be skipped: {keys:?}"
        );
        // Strings never become series.
        assert!(!keys.contains(&"bench"), "{keys:?}");
    }

    #[test]
    fn row_identity_survives_reordering() {
        let reordered = BASE.replace(
            r#"{"shards": 1, "sessions_per_sec": 200, "polls": 5000},
            {"shards": 2, "sessions_per_sec": 110, "polls": 5000}"#,
            r#"{"shards": 2, "sessions_per_sec": 110, "polls": 5000},
            {"shards": 1, "sessions_per_sec": 200, "polls": 5000}"#,
        );
        // BENCH_capacity.json's rows carry no shard/thread count: they are
        // keyed by protocol (BENCH_vm_dispatch.json's by workload).
        let reordered = reordered.replace(
            r#"{"protocol": "Gzip", "max_sustainable_rps": 32},
            {"protocol": "Bitmap", "max_sustainable_rps": 96}"#,
            r#"{"protocol": "Bitmap", "max_sustainable_rps": 96},
            {"protocol": "Gzip", "max_sustainable_rps": 32}"#,
        );
        assert_ne!(reordered.find("Bitmap"), BASE.find("Bitmap"), "the knees did swap");
        let report =
            DiffReport::compare(&Json::parse(BASE).unwrap(), &Json::parse(&reordered).unwrap());
        assert!(report.only_base.is_empty() && report.only_fresh.is_empty());
        assert!(report.deltas.iter().all(|d| d.base == d.fresh), "pure reorder: no deltas");
    }

    #[test]
    fn gate_is_direction_aware_and_tolerant() {
        // Throughput halves (gated), latency triples (informational).
        let fresh = BASE
            .replace("\"sessions_per_sec\": 200", "\"sessions_per_sec\": 90")
            .replace("\"negotiation_ms\": 8.5", "\"negotiation_ms\": 25.5");
        let report =
            DiffReport::compare(&Json::parse(BASE).unwrap(), &Json::parse(&fresh).unwrap());
        let bad = report.regressions(50.0, None);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].key, "rows[shards=1].sessions_per_sec");
        assert!(bad[0].regressed(50.0));
        // 55% drop passes a 60% tolerance.
        assert!(report.regressions(60.0, None).is_empty());
        // The filter narrows by substring.
        assert!(report.regressions(50.0, Some("links")).is_empty());
        // Latency never gates regardless of tolerance.
        assert_eq!(direction("links[link=WLAN].negotiation_ms"), Direction::Informational);
    }

    #[test]
    fn identical_documents_diff_to_nothing() {
        let doc = Json::parse(BASE).unwrap();
        let report = DiffReport::compare(&doc, &doc);
        assert!(report.only_base.is_empty() && report.only_fresh.is_empty());
        assert!(report.regressions(0.0, None).is_empty(), "zero tolerance, zero regressions");
        assert!(report.deltas.iter().all(|d| d.pct() == Some(0.0) || d.base == 0.0));
    }
}
