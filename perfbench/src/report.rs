//! The result line and the small statistics the benchmark reports.

use std::fmt::Write as _;

use ssr_linearize::LinearizeRun;

use crate::route::RouteAcc;

/// One run's result: the metrics plus the operation ledger.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic counts that differed between repeats or passes: the
    /// timing seams changed behaviour, so no figure of the run is trusted.
    pub mismatches: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records one operation and whether it passed its correctness gate;
    /// a failure is named on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: {}", what());
        }
    }

    /// Checks that a deterministic quantity repeats exactly.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        if a != b {
            self.mismatches.push(format!("{what}: {a:?} != {b:?}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The JSON result line. Non-finite values have no JSON form and mark
    /// the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && finite,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table for stderr.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            writeln!(out, "  {name:<28} {value:>16.6} {unit}").expect("String write");
        }
        for m in &self.mismatches {
            writeln!(out, "  MISMATCH {m}").expect("String write");
        }
        out
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// Nearest-rank quantile of `xs` (0 when empty); reorders `xs`.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    *xs.select_nth_unstable_by(rank, f64::total_cmp).1
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end figures accumulated over a run.
#[derive(Default)]
pub struct E2e {
    /// One sample per set-up instance.
    pub setup_s: Vec<f64>,
    /// One sample per pass.
    pub converge_s: Vec<f64>,
    /// Runs that reached their goal; the sums below cover only these.
    pub goals: u64,
    pub ticks: u64,
    pub msgs: u64,
    pub node_runs: u64,
    pub engine_rounds: u64,
    pub engine_runs: u64,
    /// Sum over goal runs of each run's largest per-node state.
    pub peak_state: u64,
    pub route: RouteAcc,
}

impl E2e {
    /// Adds the rounds of one engine run that reached the line.
    pub fn add_engine_run(&mut self, run: &LinearizeRun) {
        if let Some(rounds) = run.line_at {
            self.engine_runs += 1;
            self.engine_rounds += rounds as u64;
        }
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn emit(&self, report: &mut Report) {
        let per_goal = |x: u64| x as f64 / self.goals.max(1) as f64;
        report.put("setup_s", median(&self.setup_s), "s");
        report.put("converge_s", median(&self.converge_s), "s");
        report.put("converge_ticks", per_goal(self.ticks), "ticks");
        report.put(
            "engine_rounds",
            self.engine_rounds as f64 / self.engine_runs.max(1) as f64,
            "rounds",
        );
        report.put(
            "msgs_per_node",
            self.msgs as f64 / self.node_runs.max(1) as f64,
            "msgs",
        );
        report.put("peak_state", per_goal(self.peak_state), "entries");
        report.put("route_ns_p50", self.route.p50_ns(), "ns");
        report.put("route_ns_p99", self.route.p99_ns(), "ns");
        report.put("route_stretch", self.route.stats.stretch(), "ratio");
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.put("ok_ratio", ok, "ratio");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }
}
