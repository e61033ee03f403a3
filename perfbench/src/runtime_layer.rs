//! The `runtime` layer's metrics, read from the `ExecReport`s the entry
//! points return (or, for the service, from the task spans it keeps).

use crate::stats::{quantile, sorted};
use calu_obs::analyze::longest_chain_ns;
use calu_runtime::ExecReport;
use std::collections::BTreeMap;

/// Runtime observations summed over a traced phase.
#[derive(Debug, Default)]
pub struct RuntimeAcc {
    /// Per task category: busy seconds and task count.
    pub cats: BTreeMap<&'static str, (f64, u64)>,
    /// Every task's ready-to-start gap, in seconds.
    pub queue_delays: Vec<f64>,
    /// Summed queue delay and its p99, in seconds, where only a summary
    /// is available instead of the per-task gaps.
    pub queue_summary: Option<(f64, f64)>,
    /// Busy seconds summed over workers.
    pub busy_s: f64,
    /// Wall seconds times workers, summed over executor runs.
    pub capacity_s: f64,
    /// Call wall time minus executor wall time (thread spawn, DAG build,
    /// copies), summed over calls.
    pub entry_overhead_s: f64,
    /// Executor calls observed.
    pub calls: u64,
    /// Measured critical path (longest chain of executed task
    /// intervals), summed over calls.
    pub cp_s: f64,
}

impl RuntimeAcc {
    /// Adds a task of category `cat` that ran for `dur_s` seconds.
    pub fn add_task(&mut self, cat: &'static str, dur_s: f64) {
        let e = self.cats.entry(cat).or_default();
        e.0 += dur_s;
        e.1 += 1;
    }

    /// Adds one entry-point call that took `call_s` seconds and returned
    /// `rep`.
    pub fn add_report(&mut self, rep: &ExecReport, call_s: f64) {
        let mut intervals = Vec::with_capacity(rep.timings.len());
        for t in &rep.timings {
            self.add_task(t.task.cat(), t.end - t.start);
            self.queue_delays.push(t.queue_delay());
            intervals.push(((t.start * 1e9) as u64, (t.end * 1e9) as u64));
        }
        self.busy_s += rep.busy();
        self.capacity_s += rep.wall * rep.workers as f64;
        self.entry_overhead_s += call_s - rep.wall;
        self.calls += 1;
        self.cp_s += longest_chain_ns(&intervals) as f64 / 1e9;
    }

    /// The `runtime.*` metrics, per operation where the unit says so.
    pub fn metrics(&self, ops: f64, out: &mut Vec<(String, f64)>) {
        for (cat, (s, n)) in &self.cats {
            out.push((format!("runtime.task_ms.{cat}"), s * 1e3 / ops));
            out.push((format!("runtime.tasks.{cat}"), *n as f64 / ops));
        }
        let (qsum, qp99) = self.queue_summary.unwrap_or_else(|| {
            let q = sorted(&self.queue_delays);
            (q.iter().sum(), if q.is_empty() { 0.0 } else { quantile(&q, 0.99) })
        });
        let calls = self.calls.max(1) as f64;
        out.extend([
            ("runtime.queue_delay_ms".into(), qsum * 1e3 / ops),
            ("runtime.queue_delay_p99_ms".into(), qp99 * 1e3),
            ("runtime.utilization".into(), self.busy_s / self.capacity_s.max(f64::MIN_POSITIVE)),
            ("runtime.entry_overhead_ms".into(), self.entry_overhead_s * 1e3 / calls),
            ("runtime.measured_cp_ms".into(), self.cp_s * 1e3 / calls),
        ]);
    }
}
