//! # calu-bench — the paper's evaluation harness
//!
//! One regenerator binary per table/figure of the paper (see
//! `DESIGN.md`'s per-experiment index and `EXPERIMENTS.md` for recorded
//! results):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig2_growth` | Figure 2: growth factor + minimum threshold |
//! | `table1_hpl_calu` | Table 1: HPL accuracy tests for ca-pivoting |
//! | `table2_hpl_gepp` | Table 2: HPL accuracy tests for GEPP |
//! | `table3_tslu_power5` | Table 3: PDGETF2/TSLU ratios, IBM POWER5 |
//! | `table4_tslu_xt4` | Table 4: PDGETF2/TSLU ratios, Cray XT4 |
//! | `table5_calu_power5` | Table 5: PDGETRF/CALU ratios + GFLOP/s, POWER5 |
//! | `table6_calu_xt4` | Table 6: PDGETRF/CALU ratios + GFLOP/s, XT4 |
//! | `table7_best` | Table 7: best-vs-best speedups |
//! | `model_check` | Eqs. 1-3 vs simulator + row-swap ablation |
//! | `table_ensembles` | Section 6.1 remark: five-ensemble stability sweep |
//! | `fig_trend` | Introduction: future-architecture speedup trend |
//! | `ablation_lookahead` | Section 4: HPL-style look-ahead gain |
//! | `ablation_tree_stability` | tournament tree shape vs pivot quality |
//! | `fig_scaling` | strong/weak scaling curves, incl. a modern cluster |
//! | `section5_comparison` | Section 5's term-by-term cost comparison |
//! | `runtime_calu` | Section 7 multicore: serial vs threaded task-graph runtime, `BENCH_runtime.json` perf record |
//! | `kernel_calu` | kernel layer: `gemm`/`trsm`/`getf2`/`rgetf2` GFLOP/s per ISA variant vs the micro-kernel ceiling, `BENCH_kernels.json` |
//!
//! Numerics binaries accept `--full` (paper-scale sizes; slow) and default
//! to a reduced sweep; all accept `--csv`.
//!
//! The `benches/` directory holds criterion microbenchmarks of the real
//! (wall-clock) kernels on the host machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calu_table;
pub mod stability_table;
pub mod tslu_table;

use calu_obs::{JsonValue, Metrics};

/// Command-line options shared by the regenerator binaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cli {
    /// Run the paper-scale sweep (hours) instead of the reduced one.
    pub full: bool,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

impl Cli {
    /// Parses `--full` / `--csv` from `std::env::args`.
    pub fn parse() -> Self {
        let mut cli = Cli::default();
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--full" => cli.full = true,
                "--csv" => cli.csv = true,
                "--help" | "-h" => {
                    eprintln!("options: --full (paper-scale sweep), --csv");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        cli
    }
}

/// A simple aligned-text / CSV table writer.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders to stdout, aligned text or CSV.
    pub fn print(&self, csv: bool) {
        if csv {
            println!("{}", self.headers.join(","));
            for r in &self.rows {
                println!("{}", r.join(","));
            }
            return;
        }
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{:>width$}  ", c, width = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
        for r in &self.rows {
            line(r);
        }
    }
}

/// Formats a ratio with two decimals (the paper's table style).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats in scientific notation with two significant decimals
/// (the paper's `4.22e-14` style).
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

/// The paper's processor-count-to-grid mapping used in every table.
pub fn paper_grids() -> Vec<(usize, usize, usize)> {
    vec![(4, 2, 2), (8, 2, 4), (16, 4, 4), (32, 4, 8), (64, 8, 8)]
}

/// Host-parallelism detection shared by every `BENCH_*.json` regenerator.
///
/// The container running CI may be single-core, in which case a
/// "threaded vs serial" wall-clock ratio measures executor overhead, not
/// a parallel win. Each perf-record binary used to re-derive this flag
/// by hand; this is the one place the rule lives now: a measured speedup
/// is valid only when the executor actually gets more than one thread
/// *and* the host has more than one core to run them on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostInfo {
    /// Cores reported by `available_parallelism` (1 when unknown).
    pub host_threads: usize,
    /// Threads the threaded executor actually gets: the explicit request,
    /// or the host parallelism when the request is 0 ("use all cores").
    pub exec_threads: usize,
    /// Whether a threaded-vs-serial wall-clock ratio means anything here.
    pub measured_speedup_valid: bool,
}

impl HostInfo {
    /// Detects the host, resolving a `--threads` flag (0 = all cores).
    pub fn detect(threads_flag: usize) -> Self {
        let host_threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        let exec_threads = if threads_flag == 0 { host_threads } else { threads_flag };
        HostInfo {
            host_threads,
            exec_threads,
            measured_speedup_valid: exec_threads > 1 && host_threads > 1,
        }
    }

    /// Stamps the host fields onto a `BENCH_*.json` record object,
    /// together with the kernel variant `gemm`/`trsm` ran on
    /// ([`calu_matrix::blas3::kernel_variant`]).
    pub fn stamp(&self, record: JsonValue) -> JsonValue {
        record
            .set("kernel", calu_matrix::blas3::kernel_variant())
            .set("host_threads", self.host_threads)
            .set("executor_threads", self.exec_threads)
            .set("measured_speedup_valid", self.measured_speedup_valid)
    }

    /// Records the same facts as gauges on a metrics registry, so a
    /// snapshot taken later carries the host context alongside the
    /// benchmark's own counters.
    pub fn record(&self, metrics: &Metrics) {
        metrics.gauge_set("host.threads", self.host_threads as f64);
        metrics.gauge_set("host.executor_threads", self.exec_threads as f64);
        metrics.gauge_set(
            "host.measured_speedup_valid",
            if self.measured_speedup_valid { 1.0 } else { 0.0 },
        );
    }
}

/// Writes a `BENCH_*.json` / `TRACE_*.json` record to `path` (pretty,
/// newline-terminated — the committed-artifact convention) and logs it.
pub fn write_record(path: &str, record: &JsonValue) {
    let mut text = record.pretty();
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.239), "1.24");
        assert_eq!(sci(4.22e-14), "4.22e-14");
    }

    #[test]
    fn grids_match_paper() {
        let g = paper_grids();
        assert_eq!(g[0], (4, 2, 2));
        assert_eq!(g[4], (64, 8, 8));
    }

    #[test]
    fn host_info_resolves_thread_flags() {
        let host = HostInfo::detect(0);
        assert!(host.host_threads >= 1);
        assert_eq!(host.exec_threads, host.host_threads);
        assert_eq!(host.measured_speedup_valid, host.exec_threads > 1 && host.host_threads > 1);

        let pinned = HostInfo::detect(1);
        assert_eq!(pinned.exec_threads, 1);
        assert!(!pinned.measured_speedup_valid, "one executor thread is never a parallel win");
    }

    #[test]
    fn host_info_stamps_record_and_metrics() {
        let host = HostInfo { host_threads: 4, exec_threads: 2, measured_speedup_valid: true };
        let rec = host.stamp(JsonValue::obj().set("bench", "t"));
        assert_eq!(rec.get("host_threads").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(rec.get("executor_threads").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(rec.get("measured_speedup_valid").and_then(JsonValue::as_bool), Some(true));
        let kernel = rec.get("kernel").and_then(JsonValue::as_str).expect("kernel stamped");
        assert!(["avx512f", "avx2", "portable"].contains(&kernel), "{kernel}");

        let m = Metrics::new();
        host.record(&m);
        assert_eq!(m.gauge("host.threads"), Some(4.0));
        assert_eq!(m.gauge("host.measured_speedup_valid"), Some(1.0));

        // Round-trip through the deterministic writer/parser.
        let parsed = JsonValue::parse(&rec.pretty()).expect("own output parses");
        assert_eq!(parsed, rec);
    }
}
