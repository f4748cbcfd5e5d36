//! The benchmark's registry: workload and metric names, units and bounds come
//! from `BENCHMARK.json` (embedded at build time so the binary and the file
//! cannot drift apart), and [`LAYER_MAP`] records which end-to-end metric
//! each per-layer metric is expected to move, on which workload.

use crate::json::{self, Value};

/// `BENCHMARK.json` as committed at the root of the repository.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const SERVE_STEADY: &str = "serve-steady";
pub const SERVE_APPEAL: &str = "serve-appeal";
pub const SERVE_BURST_APPEAL: &str = "serve-burst-appeal";
pub const SERVE_SATURATE: &str = "serve-saturate";
pub const OFFLINE_EVAL: &str = "offline-eval";
pub const OFFLINE_Q8: &str = "offline-q8";
pub const TRAIN: &str = "train";
pub const FLEET_CHAOS: &str = "fleet-chaos";

/// Every workload the binary can run. `BENCHMARK.json` registers the ones
/// whose timing repeats on a shared host: the open loops whose latency is at
/// least half timer. The rest are CPU-bound, follow the host's speed from
/// minute to minute, and are measured in traced runs as the per-layer metrics
/// [`demoted_metric`] names.
pub const ALL_WORKLOADS: [&str; 8] = [
    SERVE_STEADY,
    SERVE_APPEAL,
    SERVE_BURST_APPEAL,
    SERVE_SATURATE,
    OFFLINE_EVAL,
    OFFLINE_Q8,
    TRAIN,
    FLEET_CHAOS,
];

/// The workloads that may be left out of `BENCHMARK.json`, in the order
/// their phases run in a traced run, each with the end-to-end value it is
/// reported by.
pub const DEMOTABLE: [(&str, &str); 6] = [
    (SERVE_BURST_APPEAL, "lat_p50_ms"),
    (SERVE_SATURATE, "throughput_rps"),
    (OFFLINE_EVAL, "throughput_rps"),
    (OFFLINE_Q8, "throughput_rps"),
    (TRAIN, "throughput_rps"),
    (FLEET_CHAOS, "throughput_rps"),
];

/// The per-layer metric that carries a demoted workload's own number:
/// `capacity.<workload>` for a closed loop's `throughput_rps`,
/// `latency.<workload>` for an open loop's `lat_p50_ms`.
pub fn demoted_metric(workload: &str) -> String {
    match DEMOTABLE.iter().find(|(name, _)| *name == workload) {
        Some((_, "lat_p50_ms")) => format!("latency.{workload}"),
        _ => format!("capacity.{workload}"),
    }
}

/// Metrics that repeat exactly for a seed: `check` demands equality, not a
/// relative gap.
pub const EXACT_METRICS: [&str; 2] = ["accuracy", "energy_mj_per_req"];

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the reference; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn embedded() -> Contract {
        Contract::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or(format!("missing key {key:?}"));
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            field(key)?
                .as_arr()
                .ok_or(format!("{key} is not a list"))?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("better is {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: field("workloads")?
                .as_arr()
                .ok_or("workloads is not a list")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("run_seconds is not a number")?,
        })
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(n, _)| n == name)
    }
}

/// One row of the layer → metric → workload table: every per-layer metric
/// whose name starts with the row's prefix is expected to move `moves` on
/// `on`. `flat_on` names a workload that bypasses the layer, where the
/// prediction is no change ("" when every workload crosses it).
pub struct LayerRow {
    pub moves: &'static str,
    pub on: &'static str,
    pub flat_on: &'static str,
}

const P50: &str = "lat_p50_ms";
const SLO: &str = "slo_met_share";
const SETUP: &str = "setup_s";
const CAP_SATURATE: &str = "capacity.serve-saturate";
const CAP_OFFLINE: &str = "capacity.offline-eval";
const CAP_Q8: &str = "capacity.offline-q8";
const CAP_TRAIN: &str = "capacity.train";
const CAP_FLEET: &str = "capacity.fleet-chaos";

/// `(prefix, moves, on, flat_on)`; the longest matching prefix wins (see
/// [`layer_row`]). `moves` is an end-to-end metric where a registered
/// workload shows the layer, else the capacity of the closed loop that does.
#[rustfmt::skip]
const LAYER_MAP: &[(&str, &str, &str, &str)] = &[
    ("lat_p99_ms",              SLO,          SERVE_STEADY,       ""),
    ("capacity.",               P50,          SERVE_APPEAL,       SERVE_STEADY),
    ("latency.",                P50,          SERVE_APPEAL,       SERVE_STEADY),
    ("loadgen.",                P50,          SERVE_STEADY,       OFFLINE_EVAL),
    ("fail_share",              SLO,          SERVE_STEADY,       ""),
    ("server.admit_us_p50",     CAP_SATURATE, SERVE_SATURATE,     OFFLINE_EVAL),
    ("server.queue_wait_ms",    P50,          SERVE_STEADY,       SERVE_BURST_APPEAL),
    ("server.post_dispatch_ms", P50,          SERVE_APPEAL,       SERVE_STEADY),
    ("server.flush_",           P50,          SERVE_STEADY,       OFFLINE_EVAL),
    ("server.mean_batch",       CAP_SATURATE, SERVE_SATURATE,     OFFLINE_EVAL),
    ("server.fairness_index",   SLO,          SERVE_STEADY,       OFFLINE_EVAL),
    ("server.start_ms",         SETUP,        SERVE_STEADY,       ""),
    ("server.shutdown_ms",      SETUP,        SERVE_STEADY,       ""),
    ("coalescer.",              P50,          SERVE_STEADY,       SERVE_BURST_APPEAL),
    ("engine.busy_share",       CAP_SATURATE, SERVE_SATURATE,     SERVE_STEADY),
    ("engine.",                 CAP_OFFLINE,  OFFLINE_EVAL,       FLEET_CHAOS),
    ("scorer.",                 CAP_OFFLINE,  OFFLINE_EVAL,       SERVE_BURST_APPEAL),
    ("policy.",                 CAP_OFFLINE,  OFFLINE_EVAL,       SERVE_STEADY),
    ("parallel.",               P50,          SERVE_APPEAL,       OFFLINE_Q8),
    ("layers.little.",          CAP_OFFLINE,  OFFLINE_EVAL,       SERVE_BURST_APPEAL),
    ("layers.big.",             P50,          SERVE_APPEAL,       OFFLINE_Q8),
    ("kernels.gemm.",           P50,          SERVE_APPEAL,       OFFLINE_Q8),
    ("kernels.quant_gemm.",     CAP_Q8,       OFFLINE_Q8,         OFFLINE_EVAL),
    ("kernels.im2col",          P50,          SERVE_APPEAL,       ""),
    ("kernels.relu",            P50,          SERVE_APPEAL,       ""),
    ("quant.",                  CAP_Q8,       OFFLINE_Q8,         OFFLINE_EVAL),
    ("training.prepare_s",      SETUP,        SERVE_STEADY,       ""),
    ("training.",               CAP_TRAIN,    TRAIN,              OFFLINE_EVAL),
    ("dataset.",                SETUP,        SERVE_STEADY,       ""),
    ("hw.",                     CAP_FLEET,    FLEET_CHAOS,        OFFLINE_EVAL),
    ("fleet.",                  CAP_FLEET,    FLEET_CHAOS,        OFFLINE_EVAL),
    ("trace.",                  P50,          SERVE_STEADY,       ""),
];

/// The table row a per-layer metric falls under.
pub fn layer_row(metric: &str) -> Option<LayerRow> {
    LAYER_MAP
        .iter()
        .filter(|(prefix, ..)| metric.starts_with(prefix))
        .max_by_key(|(prefix, ..)| prefix.len())
        .map(|&(_, moves, on, flat_on)| LayerRow { moves, on, flat_on })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_named(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let c = Contract::embedded();
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        let mut names: Vec<&str> = c
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(c.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(c.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            assert!(well_named(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in &c.workloads {
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "unit {:?}",
                m.unit
            );
            assert!(m.unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
        }
        for m in &c.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn the_registered_workloads_are_known_and_the_open_loops_are_among_them() {
        let c = Contract::embedded();
        for (name, _) in &c.workloads {
            assert!(ALL_WORKLOADS.contains(&name.as_str()), "unknown {name}");
        }
        for name in [SERVE_STEADY, SERVE_APPEAL] {
            assert!(c.has_workload(name), "{name} missing from BENCHMARK.json");
        }
        // The rest are either registered or reported per layer.
        for (name, _) in DEMOTABLE {
            let listed = c.per_layer.iter().any(|m| m.name == demoted_metric(name));
            assert!(listed != c.has_workload(name), "{name}");
        }
        for exact in EXACT_METRICS {
            assert!(c.end_to_end.iter().any(|m| m.name == exact));
        }
    }

    #[test]
    fn every_per_layer_metric_names_a_metric_and_workload_it_moves() {
        let c = Contract::embedded();
        for m in &c.per_layer {
            let row =
                layer_row(&m.name).unwrap_or_else(|| panic!("{} has no row in LAYER_MAP", m.name));
            let moved = c.end_to_end.iter().chain(&c.per_layer);
            assert!(
                moved.clone().any(|e| e.name == row.moves),
                "{} -> unknown metric {}",
                m.name,
                row.moves
            );
            assert!(
                ALL_WORKLOADS.contains(&row.on),
                "{} -> unknown workload",
                m.name
            );
            assert!(row.flat_on.is_empty() || ALL_WORKLOADS.contains(&row.flat_on));
            // A prediction about an unregistered workload is read off the
            // only number the benchmark reports for it.
            if !c.has_workload(row.on) {
                assert_eq!(row.moves, demoted_metric(row.on), "{}", m.name);
            }
        }
        for (prefix, ..) in LAYER_MAP {
            let used = c.per_layer.iter().any(|m| m.name.starts_with(prefix));
            assert!(used, "LAYER_MAP row {prefix:?} matches no metric");
        }
    }
}
