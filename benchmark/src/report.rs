//! Rendering: the human table, `results.json`, the driver's result line and
//! the run-to-run comparison behind `bench check`.

use crate::json::Value;
use crate::loadgen::Ledger;
use crate::spec::{layer_row, Contract, MetricSpec, EXACT_METRICS};
use std::collections::BTreeMap;

/// One workload's reported numbers.
pub struct Row {
    pub workload: String,
    pub ledger: Ledger,
    /// Metric name → value; end-to-end or per-layer depending on the mode.
    pub metrics: BTreeMap<String, f64>,
    pub violations: Vec<String>,
    pub digest: u64,
    pub notes: Vec<String>,
}

impl Row {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Facts about the host and build that every result file records.
pub fn host_facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        (
            "rayon_threads",
            Value::Num(rayon::current_num_threads() as f64),
        ),
        // One paces and one collects, both asleep most of the time; the
        // closed loop uses one.
        ("loadgen_threads", Value::Num(2.0)),
        (
            "kernel_isa",
            Value::str(appeal_tensor::kernels::active_isa().to_string()),
        ),
        (
            "numeric_contract",
            Value::str(appeal_tensor::kernels::numeric_contract().name()),
        ),
        (
            "quantized_contract",
            Value::str(appeal_tensor::kernels::quantized_contract().name()),
        ),
    ])
}

/// The metrics of `specs` in contract order, each with its unit. A metric
/// the run did not produce reads 0: its layer is not on this workload's path.
fn metrics_json(specs: &[MetricSpec], values: &BTreeMap<String, f64>) -> Value {
    Value::Obj(
        specs
            .iter()
            .map(|m| {
                let value = values.get(&m.name).copied().unwrap_or(0.0);
                (
                    m.name.clone(),
                    Value::obj(vec![
                        ("value", Value::Num(value)),
                        ("unit", Value::str(&m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The driver's result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(row: &Row, specs: &[MetricSpec]) -> String {
    Value::obj(vec![
        ("correct", Value::Bool(row.correct())),
        ("attempted", Value::Num(row.ledger.offered.max(1) as f64)),
        ("failed", Value::Num(row.ledger.failures() as f64)),
        ("metrics", metrics_json(specs, &row.metrics)),
    ])
    .render()
}

/// Prints one workload: ledger, notes, metrics by name and unit, violations.
pub fn print_row(row: &Row, specs: &[MetricSpec]) {
    println!("== {} ==", row.workload);
    println!("  {}", row.ledger.render());
    for note in &row.notes {
        println!("  note: {note}");
    }
    for m in specs {
        if let Some(value) = row.metrics.get(&m.name) {
            // Per-layer rows carry their prediction: the end-to-end metric
            // the layer should move, and on which workload.
            let moves =
                layer_row(&m.name)
                    .filter(|_| m.bound.is_none())
                    .map_or(String::new(), |r| match r.flat_on {
                        "" => format!("  -> {} on {}", r.moves, r.on),
                        flat => format!("  -> {} on {}; flat on {flat}", r.moves, r.on),
                    });
            println!("  {:<44} {:>16.6} {:<8}{moves}", m.name, value, m.unit);
        }
    }
    for v in &row.violations {
        println!("  SELF-CHECK FAILED: {v}");
    }
}

/// `results.json` for a set of rows.
pub fn results_json(seed: u64, seconds: f64, rows: &[Row], specs: &[MetricSpec]) -> Value {
    let workloads = rows
        .iter()
        .map(|row| {
            let ledger = &row.ledger;
            (
                row.workload.clone(),
                Value::obj(vec![
                    ("correct", Value::Bool(row.correct())),
                    (
                        "ledger",
                        Value::obj(vec![
                            ("sent", Value::Num(ledger.offered as f64)),
                            ("answered", Value::Num(ledger.answered as f64)),
                            ("shed", Value::Num(ledger.shed as f64)),
                            ("rejected", Value::Num(ledger.rejected as f64)),
                            ("failed", Value::Num(ledger.failed as f64)),
                            ("wrong", Value::Num(ledger.mismatched as f64)),
                        ]),
                    ),
                    ("digest", Value::str(format!("{:016x}", row.digest))),
                    ("metrics", metrics_json(specs, &row.metrics)),
                    (
                        "notes",
                        Value::Arr(row.notes.iter().map(Value::str).collect()),
                    ),
                    (
                        "violations",
                        Value::Arr(row.violations.iter().map(Value::str).collect()),
                    ),
                ]),
            )
        })
        .collect();
    Value::obj(vec![
        ("host", host_facts()),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("workloads", Value::Obj(workloads)),
    ])
}

/// One line of the `check` comparison.
pub struct Gap {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    /// |first − second| as a share of the first.
    pub gap: f64,
    pub bound: f64,
    pub exact: bool,
    /// Whether the bound applies: timing rows of a workload `BENCHMARK.json`
    /// does not register are shown for information only.
    pub gated: bool,
    pub ok: bool,
}

/// Compares two same-seed runs metric by metric: exact metrics and digests
/// must be equal, timing metrics must agree within their bound.
pub fn compare(contract: &Contract, first: &[Row], second: &[Row]) -> (Vec<Gap>, Vec<String>) {
    let mut gaps = Vec::new();
    let mut problems = Vec::new();
    for (a, b) in first.iter().zip(second) {
        if a.digest != b.digest {
            problems.push(format!(
                "{}: digests differ ({:016x} vs {:016x})",
                a.workload, a.digest, b.digest
            ));
        }
        let gated = contract.has_workload(&a.workload);
        for m in &contract.end_to_end {
            let (Some(&x), Some(&y)) = (a.metrics.get(&m.name), b.metrics.get(&m.name)) else {
                // The closed loops have no latency limit to report against.
                if gated {
                    problems.push(format!("{}: {} missing", a.workload, m.name));
                }
                continue;
            };
            let exact = EXACT_METRICS.contains(&m.name.as_str());
            let gap = if x == y { 0.0 } else { (x - y).abs() / x.abs() };
            let bound = m.bound.unwrap_or(0.0);
            let ok = if exact {
                x == y
            } else {
                !gated || gap <= bound
            };
            gaps.push(Gap {
                workload: a.workload.clone(),
                metric: m.name.clone(),
                first: x,
                second: y,
                gap,
                bound,
                exact,
                gated,
                ok,
            });
        }
    }
    (gaps, problems)
}

pub fn print_gaps(gaps: &[Gap]) {
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for g in gaps {
        println!(
            "{:<20} {:<18} {:>14.6} {:>14.6} {:>7.2}% {:>7} {}",
            g.workload,
            g.metric,
            g.first,
            g.second,
            100.0 * g.gap,
            if g.exact {
                "exact".to_string()
            } else if g.gated {
                format!("{:.0}%", 100.0 * g.bound)
            } else {
                "info".to_string()
            },
            if g.ok { "" } else { "<-- OVER" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, throughput: f64, accuracy: f64, digest: u64) -> Row {
        let contract = Contract::embedded();
        let mut metrics: BTreeMap<String, f64> = contract
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), 1.0))
            .collect();
        metrics.insert("throughput_rps".into(), throughput);
        metrics.insert("accuracy".into(), accuracy);
        Row {
            workload: workload.into(),
            ledger: Ledger {
                offered: 800,
                answered: 800,
                ..Ledger::default()
            },
            metrics,
            violations: Vec::new(),
            digest,
            notes: Vec::new(),
        }
    }

    #[test]
    fn compare_applies_bounds_and_exactness() {
        let contract = Contract::embedded();
        let bound = contract
            .end_to_end
            .iter()
            .find(|m| m.name == "throughput_rps")
            .and_then(|m| m.bound)
            .unwrap();
        let a = [row("serve-steady", 1000.0, 0.96, 7)];
        let within = [row("serve-steady", 1000.0 * (1.0 - bound / 2.0), 0.96, 7)];
        let (gaps, problems) = compare(&contract, &a, &within);
        assert!(problems.is_empty() && gaps.iter().all(|g| g.ok));

        let over = [row("serve-steady", 1000.0 * (1.0 - 2.0 * bound), 0.96, 7)];
        let (gaps, _) = compare(&contract, &a, &over);
        assert!(gaps.iter().any(|g| g.metric == "throughput_rps" && !g.ok));

        // An exact metric may not move at all, and digests must match.
        let drift = [row("serve-steady", 1000.0, 0.9600001, 8)];
        let (gaps, problems) = compare(&contract, &a, &drift);
        assert!(gaps.iter().any(|g| g.metric == "accuracy" && !g.ok));
        assert_eq!(problems.len(), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let contract = Contract::embedded();
        let line = result_line(&row("train", 10.0, 0.9, 1), &contract.end_to_end);
        let doc = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), contract.end_to_end.len());
        for (_, m) in metrics {
            assert!(m.get("value").unwrap().as_f64().is_some());
            assert!(m.get("unit").unwrap().as_str().is_some());
        }
        assert!(!line.contains('\n'));
    }
}
