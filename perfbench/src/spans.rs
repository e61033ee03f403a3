//! The traced run's timeline: the benchmark's own spans around each call
//! it makes into a layer, merged with the spans the program returns, and
//! the per-layer self times derived from them.

use calu_obs::analyze::{intersection_ns, merge_intervals, span_interval_ns};
use calu_obs::{Recorder, Span};
use calu_runtime::ExecReport;
use std::time::Instant;

/// Chrome `pid` lane of the benchmark's own spans, apart from the
/// program's rank lanes.
const BENCH_PID: u32 = 1000;

/// Span categories of the benchmark's own spans, one per layer it calls.
pub const BENCH: &str = "bench";
/// Calls into `calu_core` (factor, solve, service, distributed entry points).
pub const CORE: &str = "core";
/// The result checks (`calu_stability`).
pub const STABILITY: &str = "stability";

/// A clock shared by every phase, plus a span recorder when tracing is on.
pub struct Tracer {
    epoch: Instant,
    rec: Option<Recorder>,
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), rec: None }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.rec.is_some()
    }

    /// Starts recording spans.
    pub fn enable(&mut self) {
        self.rec.get_or_insert_with(Recorder::new);
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records one of the benchmark's own spans, `[start, end]` in epoch
    /// seconds.
    pub fn span(&self, name: &str, cat: &'static str, start: f64, end: f64) {
        if let Some(r) = &self.rec {
            r.record_interval(name.to_string(), cat, BENCH_PID, 0, start, end);
        }
    }

    /// Merges an executor report whose call ended at `call_end` (epoch
    /// seconds). The run is placed to end with the call; self times do not
    /// depend on where inside the call it is placed.
    pub fn merge_report(&self, rep: &ExecReport, call_end: f64) {
        if let Some(r) = &self.rec {
            rep.record_into(r, call_end - rep.wall);
        }
    }

    /// Merges spans the program recorded on its own timeline, shifted by
    /// `offset_s` epoch seconds.
    pub fn merge_spans(&self, spans: &[Span], offset_s: f64) {
        if let Some(r) = &self.rec {
            for s in spans {
                r.record(Span { ts_us: s.ts_us + offset_s * 1e6, ..s.clone() });
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.rec.as_ref().map(Recorder::snapshot).unwrap_or_default()
    }
}

/// Nesting depth of a span's layer: the benchmark's operation spans
/// enclose its calls into `calu_core` and the checks, which enclose the
/// program's task spans. The service's own `process` spans (category
/// `serve`) duplicate the benchmark's `process` call span and are left
/// out.
fn depth(cat: &str) -> Option<usize> {
    match cat {
        BENCH => Some(0),
        CORE | STABILITY => Some(1),
        "serve" => None,
        _ => Some(2),
    }
}

/// Self time of each layer in nanoseconds: the time its spans cover minus
/// the part of it their child spans (the next layer down) cover. Task
/// spans are leaves; their self time is their summed duration, so
/// parallel workers each count.
pub fn self_ns(spans: &[Span]) -> [(&'static str, u64); 4] {
    let mut by_depth: [Vec<(u64, u64)>; 3] = Default::default();
    let mut stability = Vec::new();
    let mut tasks_sum = 0u64;
    for s in spans {
        let Some(d) = depth(s.cat) else { continue };
        let iv = span_interval_ns(s);
        by_depth[d].push(iv);
        if s.cat == STABILITY {
            stability.push(iv);
        }
        if d == 2 {
            tasks_sum += iv.1 - iv.0;
        }
    }
    let covered =
        |ivs: &[(u64, u64)]| -> u64 { merge_intervals(ivs).iter().map(|(s, e)| e - s).sum() };
    let self_of = |d: usize| {
        let parents = merge_intervals(&by_depth[d]);
        let children = merge_intervals(&by_depth[d + 1]);
        covered(&parents) - intersection_ns(&parents, &children)
    };
    let stability_ns = covered(&stability);
    [
        ("bench", self_of(0)),
        // The checks are leaves of their own layer; the rest of depth 1 is core.
        ("core", self_of(1) - stability_ns),
        ("runtime", tasks_sum),
        ("stability", stability_ns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, tid: u32, start_us: f64, dur_us: f64) -> Span {
        Span { name: cat.into(), cat, pid: 0, tid, ts_us: start_us, dur_us }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(BENCH, 0, 0.0, 100.0),
            span(CORE, 0, 10.0, 60.0),
            span(STABILITY, 0, 80.0, 10.0),
            span("gemm", 0, 20.0, 30.0),
            span("gemm", 1, 30.0, 30.0),
            span("serve", 0, 10.0, 60.0),
        ];
        let got = self_ns(&spans);
        assert_eq!(got[0], ("bench", 30_000));
        // Core span 10..70 µs, children cover 20..60 µs.
        assert_eq!(got[1], ("core", 20_000));
        assert_eq!(got[2], ("runtime", 60_000));
        assert_eq!(got[3], ("stability", 10_000));
    }
}
