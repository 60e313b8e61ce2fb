//! The abstract LSN engine: the `engine_powerlaw` workload, and the
//! reference run every simulator workload makes on its own instances.

use std::time::Instant;

use ssr_core::routing::RoutingView;
use ssr_core::{RouteCache, SourceRoute};
use ssr_graph::{Graph, Labeling};
use ssr_linearize::convergence::relabel_to_ranks;
use ssr_linearize::{chain_edges_present, run, step_round, LinearizeRun, Semantics, Variant};
use ssr_types::{NodeId, Rng};

use ssr_workloads::Topology;

use crate::layers::{LayerTally, Span};
use crate::report::{E2e, Report};
use crate::route::{score, RouteAcc};
use crate::ssr::instance_seed;

/// The paper quotes fewer than 39 rounds to the line per instance; a run
/// that needs more fails, so the engine is never driven past this.
pub const MAX_ROUNDS: usize = 38;

/// Sources × destinations per routing check over the engine's line.
const ROUTE_SOURCES: usize = 16;
const ROUTE_DESTS: usize = 64;

/// Time spent in `ssr-linearize`, split by the traced replay.
#[derive(Default)]
pub struct EngineLayers {
    /// `relabel_to_ranks`.
    pub relabel: Span,
    /// Whole `run` calls, untraced.
    pub run: Span,
    /// `step_round` calls of the replay.
    pub step: Span,
    /// `chain_edges_present` calls of the replay.
    pub check: Span,
    /// Wall time of the replays.
    pub replay: Span,
}

/// Brings `g` into rank space, the engine's input form.
pub fn to_ranks(g: &Graph, labels: &Labeling, layers: &mut EngineLayers) -> Graph {
    layers.relabel.time(|| relabel_to_ranks(g, labels).0)
}

/// LSN on a rank-space graph, stopped at the line or after [`MAX_ROUNDS`].
pub fn lsn(rg: &Graph, layers: &mut EngineLayers) -> LinearizeRun {
    layers
        .run
        .time(|| run(rg, Variant::lsn(), Semantics::Star, MAX_ROUNDS))
}

/// Replays an LSN run round by round through `step_round` and
/// `chain_edges_present` to split its time; the replay must reach the
/// line in the same round as `lsn` did.
pub fn replay(rg: &Graph, line_at: Option<usize>, layers: &mut EngineLayers, report: &mut Report) {
    let start = Instant::now();
    let mut g = rg.clone();
    let mut rounds = 0;
    let mut line = layers.check.time(|| chain_edges_present(&g));
    while !line && rounds < MAX_ROUNDS {
        g = layers
            .step
            .time(|| step_round(&g, Variant::lsn(), Semantics::Star));
        rounds += 1;
        line = layers.check.time(|| chain_edges_present(&g));
    }
    layers.replay.stop(start);
    report.same(
        "engine rounds, run vs replay",
        line_at,
        line.then_some(rounds),
    );
}

/// Edge insertions per node over the run: each is one introduction
/// message in a distributed execution of the rounds.
pub fn introductions(out: &LinearizeRun) -> u64 {
    out.rounds.iter().skip(1).map(|r| r.added as u64).sum()
}

/// Greedy routing over the engine's result: the line with its LSN
/// shortcuts, closed into a ring by the edge between the extreme ranks
/// (the discovery step of SSR). Every virtual edge is one hop, cached
/// pinned in a `RouteCache` per node, and queries run through
/// `RoutingView::route`, the lookup SSR uses.
pub fn route_line(
    line: &Graph,
    labels: &Labeling,
    seed: u64,
    acc: &mut RouteAcc,
    report: &mut Report,
) {
    let n = line.node_count();
    let mut ids: Vec<NodeId> = labels.ids().to_vec();
    ids.sort_unstable();
    let mut ring = line.clone();
    ring.add_edge(0, n - 1);
    let start = Instant::now();
    let caches: Vec<RouteCache> = (0..n)
        .map(|r| {
            let mut cache = RouteCache::new(ids[r]);
            for v in ring.neighbors(r) {
                cache.insert(SourceRoute::direct(ids[r], ids[v]), true);
            }
            cache
        })
        .collect();
    let view = RoutingView::from_caches(caches.iter());
    acc.view.stop(start);
    let mut rng = Rng::new(seed ^ 0x00E6_0C4E);
    let pairs: Vec<(usize, usize)> = (0..ROUTE_SOURCES)
        .flat_map(|_| {
            let s = rng.index(n);
            (0..ROUTE_DESTS)
                .map(|_| (s, (s + 1 + rng.index(n - 1)) % n))
                .collect::<Vec<_>>()
        })
        .collect();
    let outcomes = acc.check(&view, &ids, &pairs);
    score(seed, &outcomes, &pairs, &ring, &mut acc.stats, report);
}

/// `engine_powerlaw`: α = 2 power-law graphs at n = 10 000 in rank space,
/// the E5 shape at the largest size of its quick sweep.
const POWERLAW: Topology = Topology::PowerLaw {
    n: 10_000,
    alpha: 2.0,
};

/// Instances in an untraced and in a traced run.
fn instances(traced: bool) -> usize {
    if traced {
        4
    } else {
        16
    }
}

/// `engine_powerlaw`: passes over the fixed seed set until `seconds` would
/// be exceeded (at least one; a traced run makes one). The first pass
/// gates every run and routes over every line; later passes re-time the
/// runs and must repeat their rounds and edge work exactly.
pub fn run_workload(
    seed: u64,
    seconds: f64,
    traced: bool,
    e: &mut E2e,
    t: &mut LayerTally,
    report: &mut Report,
) {
    let k = instances(traced);
    let mut first: Vec<(Option<usize>, u64)> = Vec::new();
    let started = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut converge = 0.0;
        for i in 0..k {
            let s = instance_seed(seed, i);
            let wall = Instant::now();
            let (g, labels) = t.gen.time(|| POWERLAW.instance(s));
            let rg = to_ranks(&g, &labels, &mut t.engine);
            drop(g);
            e.setup_s.push(wall.elapsed().as_secs_f64());
            let start = Instant::now();
            let out = lsn(&rg, &mut t.engine);
            let took = start.elapsed().as_secs_f64();
            let work = (out.line_at, introductions(&out));
            let ok = out.line_at.is_some();
            if let Some(&seen) = first.get(i) {
                report.same(&format!("engine run of instance {i}, repeat"), seen, work);
            } else {
                first.push(work);
                report.op(ok, || {
                    format!("engine run of instance seed {s}: no line within {MAX_ROUNDS} rounds")
                });
                e.add_engine_run(&out);
                if let Some(rounds) = out.line_at {
                    e.goals += 1;
                    e.ticks += rounds as u64;
                    e.msgs += work.1;
                    e.node_runs += rg.node_count() as u64;
                    e.peak_state += out.peak_degree() as u64;
                    route_line(&out.final_graph, &labels, s, &mut e.route, report);
                }
                t.wall += wall.elapsed().as_secs_f64();
                if traced {
                    replay(&rg, out.line_at, &mut t.engine, report);
                }
            }
            if ok {
                converge += took;
            }
        }
        e.converge_s.push(converge / e.goals.max(1) as f64);
        let pass = pass_start.elapsed().as_secs_f64();
        if traced || started.elapsed().as_secs_f64() + pass > seconds {
            break;
        }
    }
}
