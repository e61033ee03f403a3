//! Every metric the benchmark reports: its name, unit, better direction
//! and, for end-to-end metrics, the regression bound. `BENCHMARK.json`
//! mirrors this list (a test keeps the two equal).
//!
//! Each per-layer metric also names its layer (the module it measures)
//! and the end-to-end metric and workload it is expected to move, written
//! down before any optimisation is measured against it.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]`, at most 64 characters.
    pub name: String,
    /// Unit, as in `ms`, `1/s` or `count/op`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer only: the module the metric measures.
    pub layer: &'static str,
    /// Per-layer only: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: Some(bound), layer: "", moves: "" }
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None, layer, moves }
}

/// Task-category slugs (`Task::cat`) of the resident-panel factorization DAG.
pub const FACTOR_CATS: [&str; 7] =
    ["panel_elect", "panel_reduce", "panel_finish", "panel_apply", "swap", "trsm", "gemm"];
/// Task-category slugs of the batched solve DAG.
pub const SOLVE_CATS: [&str; 5] =
    ["solve_piv", "solve_trsm_l", "solve_gemm_l", "solve_trsm_u", "solve_gemm_u"];
/// Task-category slugs only the distributed DAG has.
pub const DIST_CATS: [&str; 11] = [
    "cand",
    "tslu_leg",
    "panel_getf2",
    "piv_send",
    "piv_recv",
    "w_send",
    "second",
    "panel_send",
    "panel_recv",
    "u_send",
    "u_recv",
];
/// Communication-ledger terms of distributed CALU.
pub const COMM_TERMS: [&str; 6] =
    ["tslu_leg", "piv_bcast", "w_bcast", "panel_bcast", "u_bcast", "swap"];

/// The end-to-end metrics, measured with tracing off on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        e2e("ops_per_s", "1/s", Higher, 0.25),
        e2e("latency_p50_ms", "ms", Lower, 0.25),
        e2e("latency_tail_ms", "ms", Lower, 0.25),
        e2e("setup_s", "s", Lower, 0.25),
        e2e("peak_rss_mb", "MiB", Lower, 0.1),
    ]
}

/// The per-layer metrics of the traced run. Every workload reports all of
/// them; a layer the workload bypasses reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    const F: &str = "ops_per_s on factor";
    const FD: &str = "ops_per_s on factor and dist";
    // `serve` runs by hand only (see `serve.rs`); its layer is measured in
    // the `factor` workload's traced run.
    const S_LAT: &str = "latency_p50_ms on factor, and on serve (by hand)";
    const S_ALL: &str = "latency_p50_ms, latency_tail_ms and ops_per_s on serve (by hand)";
    const D: &str = "ops_per_s on dist";
    let mut v = Vec::new();
    for k in ["gemm", "trsm", "rgetf2"] {
        v.push(layer(format!("matrix.{k}.gflops"), "GFLOP/s", Higher, "matrix", F));
        v.push(layer(format!("matrix.{k}.flops_per_byte"), "flop/B", Higher, "matrix", F));
    }
    v.push(layer("core.tournament.reduce_pair_us", "us", Lower, "core.tournament", FD));
    for cat in FACTOR_CATS.iter().chain(&SOLVE_CATS).chain(&DIST_CATS) {
        // The solve DAG runs only in the serve traffic; its op is a request.
        let moves = if SOLVE_CATS.contains(cat) { S_ALL } else { F };
        v.push(layer(format!("runtime.task_ms.{cat}"), "ms/op", Lower, "runtime", moves));
        v.push(layer(format!("runtime.tasks.{cat}"), "count/op", Lower, "runtime", moves));
    }
    v.extend([
        layer("runtime.queue_delay_ms", "ms/op", Lower, "runtime", S_LAT),
        layer("runtime.queue_delay_p99_ms", "ms", Lower, "runtime", S_LAT),
        layer("runtime.utilization", "ratio", Higher, "runtime", F),
        layer("runtime.entry_overhead_ms", "ms/call", Lower, "runtime", S_LAT),
        layer("runtime.measured_cp_ms", "ms/call", Lower, "runtime", F),
        layer("runtime.speedup_vs_serial", "ratio", Higher, "runtime", F),
        layer("core.gflops", "GFLOP/s", Higher, "core.rt", F),
        layer("serve.cache_hit_ratio", "ratio", Higher, "core.serve", S_ALL),
        layer("serve.refactors", "count/1k_req", Lower, "core.serve", S_ALL),
        layer("serve.evictions", "count/1k_req", Lower, "core.serve", S_ALL),
        layer("serve.rejected", "count/1k_req", Lower, "core.serve", S_ALL),
        layer("serve.batches_per_pass", "count", Lower, "core.serve", S_ALL),
        layer("serve.mean_batch", "count", Higher, "core.serve", S_ALL),
        layer("serve.factor_ms", "ms/refactor", Lower, "core.serve", S_ALL),
        layer("serve.solve_ms", "ms/pass", Lower, "core.serve", S_ALL),
        layer("serve.process_self_ms", "ms/pass", Lower, "core.serve", S_ALL),
        layer("serve.threaded_speedup", "ratio", Higher, "core.serve", S_ALL),
    ]);
    for term in COMM_TERMS {
        v.push(layer(format!("comm.msgs.{term}"), "count/op", Lower, "core.comm", D));
        v.push(layer(format!("comm.words.{term}"), "count/op", Lower, "core.comm", D));
        v.push(layer(format!("comm.wait_ms.{term}"), "ms/op", Lower, "core.comm", D));
    }
    v.extend([
        layer("dist.compute_ms", "ms/op", Lower, "core.dist_rt", D),
        layer("dist.comm_wait_ms", "ms/op", Lower, "core.dist_rt", D),
        layer("dist.overhead_ms", "ms/op", Lower, "core.dist_rt", D),
        layer("dist.idle_ms", "ms/op", Lower, "core.dist_rt", D),
        layer("dist.measured_vs_modeled_cp", "ratio", Lower, "core.dist_rt", D),
        layer(
            "obs.trace_overhead",
            "ratio",
            Lower,
            "obs",
            "none: tracing is off in end-to-end runs",
        ),
        layer(
            "obs.spans_per_op",
            "count/op",
            Lower,
            "obs",
            "none: tracing is off in end-to-end runs",
        ),
    ]);
    for l in ["bench", "core", "runtime", "stability"] {
        v.push(layer(
            format!("obs.self_ms.{l}"),
            "ms/op",
            Lower,
            "obs",
            "ops_per_s on every workload",
        ));
    }
    v
}

/// Whether a name meets the benchmark's naming rule: starts with a letter
/// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_obs::JsonValue;

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(all.len() <= 16 + 128);
        let mut seen = std::collections::HashSet::new();
        for m in &all {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate metric name {:?}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
        }
        assert!(!valid_name("comm.msgs.u bcast"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("p99/ms"));
    }

    #[test]
    fn end_to_end_bounds_are_within_contract() {
        let defs = end_to_end();
        let setup = defs.iter().find(|m| m.name == "setup_s").expect("setup_s is reported");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &defs {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap(), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` lists exactly these metrics, in this order, with
    /// these units, directions and bounds.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s =
                        |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(JsonValue::as_f64))
                })
                .collect()
        };
        let ours = |defs: Vec<MetricDef>| -> Vec<(String, String, String, Option<f64>)> {
            defs.into_iter()
                .map(|m| {
                    let better = if m.better == Better::Higher { "higher" } else { "lower" };
                    (m.name, m.unit.to_string(), better.to_string(), m.bound)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(end_to_end()));
        assert_eq!(listed("per_layer"), ours(per_layer()));
    }
}
