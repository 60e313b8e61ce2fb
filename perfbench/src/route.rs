//! Greedy routing queries over a converged structure, timed one by one.

use std::hint::black_box;
use std::time::Instant;

use ssr_core::routing::{RouteOutcome, RoutingStats, RoutingView};
use ssr_core::RouteCache;
use ssr_graph::{algo, Graph};
use ssr_types::NodeId;

use crate::layers::Span;
use crate::report::{median, quantile, Report};

/// Timed passes over each kept query set, at least.
const KEPT_PASSES: usize = 8;
/// Share of a batch run's elapsed time spent re-timing kept query sets.
const RETIME_SHARE: f64 = 0.05;
/// Query sets kept for re-timing at once; the oldest is closed when
/// another would exceed this, which bounds the memory they hold.
const KEPT_SETS: usize = 16;

/// An output check's queries, kept after the check so they can be timed
/// again while later instances run. On a shared two-vCPU Xeon VM, one
/// pass over the same queries took up to half again as long from one
/// second to the next, so a query's fastest pass is only its own cost
/// when the passes are spread over several seconds.
struct QuerySet {
    /// Copies of the nodes' route caches at the goal.
    caches: Vec<RouteCache>,
    ids: Vec<NodeId>,
    pairs: Vec<(usize, usize)>,
    outcomes: Vec<RouteOutcome>,
    best: Vec<f64>,
    passes: usize,
}

/// Routing figures gathered across a run.
#[derive(Default)]
pub struct RouteAcc {
    pub stats: RoutingStats,
    /// Latency percentiles in nanoseconds, one per query set (an
    /// instance's output check, or one ring of `routing`), over each
    /// query's lowest timed pass.
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    /// Timed queries, passes included.
    pub queries: u64,
    /// Sum of all timed queries, passes included, in nanoseconds.
    pub query_ns: f64,
    /// `RoutingView` construction.
    pub view: Span,
    /// Query sets still being re-timed, oldest first.
    kept: Vec<QuerySet>,
    /// The kept set that [`RouteAcc::retime`] times next.
    next: usize,
}

impl RouteAcc {
    /// Routes `pairs` once through `view` (see [`time_pass`]) and counts
    /// the queries and their time.
    pub fn pass(
        &mut self,
        view: &RoutingView<'_>,
        ids: &[NodeId],
        pairs: &[(usize, usize)],
        best: &mut [f64],
    ) -> Vec<RouteOutcome> {
        let (outcomes, ns) = time_pass(view, ids, pairs, best);
        self.queries += pairs.len() as u64;
        self.query_ns += ns;
        outcomes
    }

    /// Routes `pairs` through `view` once and keeps the percentiles of
    /// that pass; returns the outcomes. For a structure too large to keep
    /// for [`RouteAcc::retime`] (an engine line of n = 10 000). Passes
    /// repeated back to back would time it with warm caches, which on a
    /// shared two-vCPU Xeon VM spread twice as far between runs as one
    /// pass did.
    pub fn check(
        &mut self,
        view: &RoutingView<'_>,
        ids: &[NodeId],
        pairs: &[(usize, usize)],
    ) -> Vec<RouteOutcome> {
        let mut best = vec![f64::INFINITY; pairs.len()];
        let outcomes = self.pass(view, ids, pairs, &mut best);
        self.keep(&mut best);
        outcomes
    }

    /// The output check of a converged structure: builds the view over
    /// `caches` (node `i`'s is `caches[i]`, its address `ids[i]`), routes
    /// `pairs` once, returns the outcomes to score and keeps the set for
    /// [`RouteAcc::retime`].
    pub fn check_and_keep(
        &mut self,
        caches: Vec<RouteCache>,
        ids: Vec<NodeId>,
        pairs: Vec<(usize, usize)>,
        report: &mut Report,
    ) -> Vec<RouteOutcome> {
        let mut best = vec![f64::INFINITY; pairs.len()];
        let start = Instant::now();
        let view = RoutingView::from_caches(caches.iter());
        self.view.stop(start);
        let outcomes = self.pass(&view, &ids, &pairs, &mut best);
        drop(view);
        if self.kept.len() == KEPT_SETS {
            self.top_up(0, report);
            let mut oldest = self.kept.remove(0);
            self.next = self.next.saturating_sub(1);
            self.keep(&mut oldest.best);
        }
        self.kept.push(QuerySet {
            caches,
            ids,
            pairs,
            outcomes: outcomes.clone(),
            best,
            passes: 1,
        });
        outcomes
    }

    /// Times kept sets, one pass each in turn, until the time spent on
    /// queries reaches [`RETIME_SHARE`] of `elapsed` seconds. Every pass
    /// must route every query as the check did.
    pub fn retime(&mut self, elapsed: f64, report: &mut Report) {
        while !self.kept.is_empty() && self.query_ns * 1e-9 < RETIME_SHARE * elapsed {
            self.next %= self.kept.len();
            let i = self.next;
            self.retime_one(i, report);
            self.next += 1;
        }
    }

    /// Tops every kept set up to [`KEPT_PASSES`] passes and records its
    /// percentiles.
    pub fn finish(&mut self, report: &mut Report) {
        for i in 0..self.kept.len() {
            self.top_up(i, report);
        }
        for mut set in std::mem::take(&mut self.kept) {
            self.keep(&mut set.best);
        }
        self.next = 0;
    }

    fn top_up(&mut self, i: usize, report: &mut Report) {
        while self.kept[i].passes < KEPT_PASSES {
            self.retime_one(i, report);
        }
    }

    fn retime_one(&mut self, i: usize, report: &mut Report) {
        let set = &mut self.kept[i];
        let view = RoutingView::from_caches(set.caches.iter());
        let (again, ns) = time_pass(&view, &set.ids, &set.pairs, &mut set.best);
        set.passes += 1;
        report.same("routing outcomes, repeat", &set.outcomes, &again);
        self.queries += again.len() as u64;
        self.query_ns += ns;
    }

    /// Records the percentiles of one query set's latencies, each query's
    /// lowest timed pass (reorders them).
    pub fn keep(&mut self, best: &mut [f64]) {
        self.p50.push(quantile(best, 0.50));
        self.p99.push(quantile(best, 0.99));
    }

    pub fn p50_ns(&self) -> f64 {
        median(&self.p50)
    }

    pub fn p99_ns(&self) -> f64 {
        median(&self.p99)
    }
}

/// Routes every `(src, dst)` pair (node indices; `ids[i]` is node `i`'s
/// address) through `view` once, in order, one closed-loop caller. Each
/// query is timed, and `best[q]` is lowered to query `q`'s time when this
/// pass was faster. Returns the outcomes and the nanoseconds timed.
fn time_pass(
    view: &RoutingView<'_>,
    ids: &[NodeId],
    pairs: &[(usize, usize)],
    best: &mut [f64],
) -> (Vec<RouteOutcome>, f64) {
    let max_hops = ids.len() as u32 + 16;
    let mut total = 0.0;
    let outcomes = pairs
        .iter()
        .zip(best.iter_mut())
        .map(|(&(s, d), best)| {
            let start = Instant::now();
            let out = black_box(view.route(black_box(ids[s]), black_box(ids[d]), max_hops));
            let ns = start.elapsed().as_nanos() as f64;
            total += ns;
            *best = best.min(ns);
            out
        })
        .collect();
    (outcomes, total)
}

/// Scores the outcomes of the queries on instance `seed` against BFS hop
/// distances in `g` (stretch) and counts one operation per query: a query
/// that is not delivered failed.
pub fn score(
    seed: u64,
    outcomes: &[RouteOutcome],
    pairs: &[(usize, usize)],
    g: &Graph,
    stats: &mut RoutingStats,
    report: &mut Report,
) {
    let mut dist: Vec<Option<Vec<u32>>> = vec![None; g.node_count()];
    for (&out, &(s, d)) in outcomes.iter().zip(pairs) {
        let from_s = dist[s].get_or_insert_with(|| algo::bfs_distances(g, s));
        stats.record(out, from_s[d]);
        report.op(out.delivered(), || {
            format!("query {s} -> {d} on instance seed {seed}: {out:?}")
        });
    }
}
