//! The three simulator workloads: `bootstrap`, `observed_chaos` and
//! `routing`. Instance `i` of a run derives every input from
//! [`instance_seed`]`(seed, i)`: the graph, the labels, the simulator's RNG,
//! the corruption and the query pairs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use ssr_core::bootstrap::{make_ssr_nodes, BootstrapConfig};
use ssr_core::chaos::{self, SharedInvariants};
use ssr_core::consistency::check_ring;
use ssr_core::node::SsrNode;
use ssr_core::routing::{RouteOutcome, RoutingView};
use ssr_core::SourceRoute;
use ssr_graph::{algo, Graph, Labeling};
use ssr_sim::{
    shared_watchdog, watchdog_probe, LinkConfig, ProbeView, Protocol, QueueBackend, RunOutcome,
    SharedWatchdog, Simulator, Time, TraceSink,
};
use ssr_types::{NodeId, Rng};
use ssr_workloads::scenario::traffic_pairs;
use ssr_workloads::Topology;

use crate::engine;
use crate::layers::{timed_probe, HandlerClock, LayerTally, Span, Timed};
use crate::report::{E2e, Report};
use crate::route::score;

/// Tick budget of one run to the goal; a run that spends it failed. The
/// slowest successful runs seen take about 1 400 ticks on `bootstrap` and
/// 5 000 on `observed_chaos`.
pub const BUDGET: u64 = 10_000;
/// Freeze window of the watchdog, as `exp_chaos` runs it.
const FREEZE_WINDOW: u64 = 3_000;
const CORRUPT_SALT: u64 = 0x00C4_A05C;
const QUERY_SALT: u64 = 0x9E37;
/// Queries routed over each converged ring as its output check.
const CHECK_QUERIES: usize = 2_000;
/// Queries per ring and pass on the `routing` workload.
const ROUTING_QUERIES: usize = 1_000;

/// The inputs of instance `i` of a run with seed `seed`.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ssr {
    Bootstrap,
    ObservedChaos,
    Routing,
}

impl Ssr {
    fn topology(self) -> Topology {
        match self {
            Ssr::ObservedChaos => Topology::UnitDisk { n: 200, scale: 1.4 },
            Ssr::Bootstrap | Ssr::Routing => Topology::UnitDisk { n: 200, scale: 1.3 },
        }
    }

    fn link(self) -> LinkConfig {
        match self {
            Ssr::ObservedChaos => LinkConfig::adversarial(0.05, 0.05, 0.1, 6),
            Ssr::Bootstrap | Ssr::Routing => LinkConfig::ideal(),
        }
    }

    /// Instances in an untraced run and in a traced run. Instances differ
    /// a lot (ticks to consistency vary by a coefficient of about 0.5
    /// between graphs), so a run averages over many to be steady across
    /// seeds.
    pub fn instances(self, traced: bool) -> usize {
        match (self, traced) {
            (Ssr::Bootstrap, false) => 120,
            (Ssr::ObservedChaos, false) => 12,
            (Ssr::Routing, false) => 90,
            (Ssr::Bootstrap | Ssr::Routing, true) => 12,
            (Ssr::ObservedChaos, true) => 4,
        }
    }
}

/// Work and link counters of one run. Every field is deterministic for a
/// seed, so repeats and passes must agree on all of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ticks: u64,
    pub events: u64,
    pub deliveries: u64,
    pub activations: u64,
    pub peak_queue: u64,
    pub tx: u64,
    pub dropped: u64,
    pub dup: u64,
    pub reordered: u64,
    pub lost_in_flight: u64,
    pub rx: u64,
    pub wasted: u64,
    pub floods: u64,
}

impl Counts {
    fn of<P: Protocol>(sim: &Simulator<P>) -> Counts {
        let m = sim.metrics();
        Counts {
            ticks: sim.now().ticks(),
            events: sim.events_processed(),
            deliveries: sim.messages_delivered(),
            activations: sim.node_activations(),
            peak_queue: sim.peak_pending_events() as u64,
            tx: m.counter("tx.total"),
            dropped: m.counter("tx.dropped"),
            dup: m.counter("tx.dup"),
            reordered: m.counter("tx.reordered"),
            lost_in_flight: m.counter("tx.lost_in_flight"),
            rx: m.counter("rx.total"),
            wasted: m.counter("rx.wasted"),
            floods: m.counter("msg.flood"),
        }
    }

    /// Sums `other` into `self`; the queue peak is a maximum.
    pub fn add(&mut self, other: Counts) {
        self.ticks += other.ticks;
        self.events += other.events;
        self.deliveries += other.deliveries;
        self.activations += other.activations;
        self.peak_queue = self.peak_queue.max(other.peak_queue);
        self.tx += other.tx;
        self.dropped += other.dropped;
        self.dup += other.dup;
        self.reordered += other.reordered;
        self.lost_in_flight += other.lost_in_flight;
        self.rx += other.rx;
        self.wasted += other.wasted;
        self.floods += other.floods;
    }
}

/// The observation and probes of an `observed_chaos` instance.
struct Watch {
    wd: SharedWatchdog,
    inv: SharedInvariants,
    sink: TraceSink,
}

fn corruption(labels: &Labeling, seed: u64) -> BTreeMap<NodeId, NodeId> {
    chaos::random_succ(labels.ids(), &mut Rng::new(seed ^ CORRUPT_SALT))
}

/// The routes `chaos::apply_succ_corruption` injects for `succ` (mutual
/// edges along physical shortest paths), rebuilt here because that
/// function only takes a simulator of plain `SsrNode`s. The traced run
/// checks that both give the same run.
fn corruption_routes(
    g: &Graph,
    labels: &Labeling,
    succ: &BTreeMap<NodeId, NodeId>,
) -> Vec<(usize, SourceRoute)> {
    let mut routes = Vec::new();
    for (&a, &b) in succ {
        if a == b {
            continue;
        }
        let (Some(ia), Some(ib)) = (labels.index(a), labels.index(b)) else {
            continue;
        };
        let Some(path) = algo::shortest_path(g, ia, ib) else {
            continue;
        };
        let fwd = SourceRoute::from_hops(path.iter().map(|&u| labels.id(u)).collect());
        routes.push((ib, fwd.reversed()));
        routes.push((ia, fwd));
    }
    routes
}

/// The simulator of an instance. An observed `observed_chaos` run gets the
/// JSONL trace on the null device, so every record is formatted and
/// written with no disk involved, and the causal ledger. The sink is
/// returned so the trace can be counted.
fn simulator<P: Protocol>(
    kind: Ssr,
    observe: bool,
    graph: &Graph,
    nodes: Vec<P>,
    seed: u64,
) -> (Simulator<P>, TraceSink) {
    if kind == Ssr::ObservedChaos && observe {
        let sink = TraceSink::jsonl_file("/dev/null").expect("the null device opens for writing");
        let sim = Simulator::instrumented(
            graph.clone(),
            nodes,
            kind.link(),
            seed,
            sink.clone(),
            QueueBackend::default(),
        );
        (sim, sink)
    } else {
        let sim = Simulator::new(graph.clone(), nodes, kind.link(), seed);
        (sim, TraceSink::disabled())
    }
}

fn add_probe(
    sim: &mut Simulator<SsrNode>,
    every: u64,
    span: Option<&Rc<RefCell<Span>>>,
    probe: impl FnMut(&mut ProbeView<'_, SsrNode>) + 'static,
) {
    match span {
        Some(span) => sim.add_probe(every, timed_probe(Rc::clone(span), probe)),
        None => sim.add_probe(every, probe),
    }
}

/// One set-up instance, ready to run to its goal.
pub struct Instance {
    seed: u64,
    graph: Graph,
    labels: Labeling,
    sim: Simulator<SsrNode>,
    watch: Option<Watch>,
}

impl Instance {
    /// Graph generation and labelling (timed into `gen`), node and
    /// simulator construction, and for `observed_chaos` the corruption,
    /// observation and probes (probe firings timed into `probe_span`).
    /// `observe: false` leaves the trace sink and causal ledger off.
    fn new(
        kind: Ssr,
        seed: u64,
        observe: bool,
        gen: &mut Span,
        probe_span: Option<&Rc<RefCell<Span>>>,
    ) -> Instance {
        let (graph, labels) = gen.time(|| kind.topology().instance(seed));
        let nodes = make_ssr_nodes(&labels, BootstrapConfig::default().ssr);
        let (mut sim, sink) = simulator(kind, observe, &graph, nodes, seed);
        let watch = (kind == Ssr::ObservedChaos).then(|| {
            chaos::apply_succ_corruption(&mut sim, &labels, &corruption(&labels, seed), true);
            let wd = shared_watchdog();
            add_probe(
                &mut sim,
                8,
                probe_span,
                watchdog_probe(
                    FREEZE_WINDOW,
                    Rc::clone(&wd),
                    chaos::ssr_signature,
                    |nodes| check_ring(nodes).consistent(),
                    chaos::ssr_all_locally_consistent,
                ),
            );
            let inv = chaos::shared_invariants(0);
            add_probe(
                &mut sim,
                16,
                probe_span,
                chaos::invariant_probe(labels.clone(), Rc::clone(&inv)),
            );
            Watch { wd, inv, sink }
        });
        Instance {
            seed,
            graph,
            labels,
            sim,
            watch,
        }
    }

    /// Runs to a consistent ring, a freeze or the budget; the ring check
    /// is timed into `check` when given.
    fn converge(&mut self, mut check: Option<&mut Span>) -> RunOutcome {
        let wd = self.watch.as_ref().map(|w| Rc::clone(&w.wd));
        self.sim.run_until_stable(8, BUDGET, |nodes, _| {
            let consistent = match check.as_deref_mut() {
                Some(span) => span.time(|| check_ring(nodes).consistent()),
                None => check_ring(nodes).consistent(),
            };
            consistent || wd.as_ref().is_some_and(|wd| wd.borrow().is_frozen())
        })
    }

    /// The gate of one run: it stopped before the budget on a consistent
    /// ring, sent no flood, and under observation the watchdog saw no
    /// freeze and the union graph never split.
    fn reached_goal(&self, outcome: RunOutcome) -> bool {
        let mut ok = outcome.is_quiescent()
            && check_ring(self.sim.protocols()).consistent()
            && self.sim.metrics().counter("msg.flood") == 0;
        if let Some(w) = &self.watch {
            let inv = w.inv.borrow();
            ok &= !w.wd.borrow().is_frozen() && inv.union_disconnected == 0 && inv.flood_msgs == 0;
        }
        ok
    }

    /// How a failed run is named.
    fn failure(&self) -> String {
        format!(
            "run of instance seed {}, stopped at tick {}",
            self.seed,
            self.sim.now().ticks()
        )
    }

    fn peak_state(&self) -> u64 {
        self.sim
            .protocols()
            .iter()
            .map(|node| node.cache().len() as u64)
            .max()
            .unwrap_or(0)
    }

    fn pairs(&self, count: usize) -> Vec<(usize, usize)> {
        traffic_pairs(
            self.labels.len(),
            count,
            &mut Rng::new(self.seed ^ QUERY_SALT),
        )
    }

    fn view(&self, span: &mut Span) -> RoutingView<'_> {
        span.time(|| RoutingView::new(self.sim.protocols()))
    }

    /// The output checks after the goal: the state held, greedy routing
    /// over the ring (its queries kept for re-timing), and the abstract
    /// engine on the same instance.
    fn check_outputs(&self, e: &mut E2e, t: &mut LayerTally, traced: bool, report: &mut Report) {
        e.peak_state += self.peak_state();
        let pairs = self.pairs(CHECK_QUERIES);
        let caches = self.sim.protocols().iter().map(|n| n.cache().clone());
        let outcomes = e.route.check_and_keep(
            caches.collect(),
            self.labels.ids().to_vec(),
            pairs.clone(),
            report,
        );
        score(
            self.seed,
            &outcomes,
            &pairs,
            &self.graph,
            &mut e.route.stats,
            report,
        );
        engine_reference(self.seed, &self.graph, &self.labels, e, t, traced, report);
    }
}

/// The abstract engine on a simulator instance's own graph: the
/// reference the paper holds the protocol against. One operation, failed
/// if the line is not reached; a traced run replays it outside the
/// traced phase's wall time.
fn engine_reference(
    seed: u64,
    g: &Graph,
    labels: &Labeling,
    e: &mut E2e,
    t: &mut LayerTally,
    traced: bool,
    report: &mut Report,
) {
    let rg = engine::to_ranks(g, labels, &mut t.engine);
    let out = engine::lsn(&rg, &mut t.engine);
    report.op(out.line_at.is_some(), || {
        format!(
            "engine run on the graph of instance seed {seed}: no line within {} rounds",
            engine::MAX_ROUNDS
        )
    });
    e.add_engine_run(&out);
    if traced {
        let replay = Instant::now();
        engine::replay(&rg, out.line_at, &mut t.engine, report);
        t.wall -= replay.elapsed().as_secs_f64();
    }
}

/// Records the end-to-end counts of one run that reached its goal.
fn absorb(e: &mut E2e, c: Counts, n: usize) {
    e.goals += 1;
    e.ticks += c.ticks;
    e.msgs += c.tx;
    e.node_runs += n as u64;
}

/// `bootstrap` and `observed_chaos`, untraced: passes over the fixed seed
/// set until `seconds` would be exceeded (at least one). The first pass
/// gates and checks every output; later passes only re-time the runs and
/// must repeat every count exactly. A run that fails its gate is counted,
/// and left out of the timings and counts. Between instances, the kept
/// routing checks are timed again.
pub fn run_batch(kind: Ssr, seed: u64, seconds: f64, e: &mut E2e, report: &mut Report) {
    let k = kind.instances(false);
    let mut unused = LayerTally::default();
    let mut first: Vec<(Counts, bool)> = Vec::new();
    let started = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut converge = 0.0;
        for i in 0..k {
            let s = instance_seed(seed, i);
            let t = Instant::now();
            let mut inst = Instance::new(kind, s, true, &mut Span::default(), None);
            e.setup_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let outcome = inst.converge(None);
            let took = t.elapsed().as_secs_f64();
            let c = Counts::of(&inst.sim);
            let ok = match first.get(i) {
                Some(&(seen, ok)) => {
                    report.same(&format!("counts of instance {i}, repeat"), seen, c);
                    ok
                }
                None => {
                    let ok = inst.reached_goal(outcome);
                    report.op(ok, || inst.failure());
                    if ok {
                        absorb(e, c, inst.labels.len());
                        inst.check_outputs(e, &mut unused, false, report);
                    }
                    first.push((c, ok));
                    ok
                }
            };
            if ok {
                converge += took;
            }
            e.route.retime(started.elapsed().as_secs_f64(), report);
        }
        e.converge_s.push(converge / e.goals.max(1) as f64);
        let pass = pass_start.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + pass > seconds {
            break;
        }
    }
    e.route.finish(report);
}

/// `routing`, untraced. Set-up bootstraps each ring and builds its
/// `RoutingView`; then passes over every ring's fixed query set until
/// `seconds` is spent. Each pass gives one `converge_s` sample and must
/// route every query identically; each ring gives one p50/p99, over its
/// queries' fastest passes.
pub fn run_routing(seed: u64, seconds: f64, e: &mut E2e, report: &mut Report) {
    let rings = ready_rings(
        Ssr::Routing.instances(false),
        seed,
        e,
        &mut LayerTally::default(),
        false,
        report,
    );
    route_passes(&rings, seconds, e, report);
}

/// Bootstraps the rings of a `routing` run (set-up) and checks them;
/// traced, through [`trace_instance`].
fn ready_rings(
    k: usize,
    seed: u64,
    e: &mut E2e,
    t: &mut LayerTally,
    traced: bool,
    report: &mut Report,
) -> Vec<Instance> {
    let mut rings = Vec::new();
    for i in 0..k {
        let s = instance_seed(seed, i);
        let start = Instant::now();
        let (inst, ok) = if traced {
            trace_instance(Ssr::Routing, s, t, report)
        } else {
            let mut inst = Instance::new(Ssr::Routing, s, false, &mut Span::default(), None);
            let outcome = inst.converge(None);
            let ok = inst.reached_goal(outcome);
            (inst, ok)
        };
        report.op(ok, || inst.failure());
        if ok {
            e.setup_s.push(start.elapsed().as_secs_f64());
            let wall = Instant::now();
            absorb(e, Counts::of(&inst.sim), inst.labels.len());
            e.peak_state += inst.peak_state();
            engine_reference(inst.seed, &inst.graph, &inst.labels, e, t, traced, report);
            if traced {
                t.wall += wall.elapsed().as_secs_f64();
            }
            rings.push(inst);
        }
    }
    rings
}

fn route_passes(rings: &[Instance], seconds: f64, e: &mut E2e, report: &mut Report) {
    let start = Instant::now();
    let views: Vec<RoutingView<'_>> = rings.iter().map(|r| r.view(&mut e.route.view)).collect();
    let view_s = start.elapsed().as_secs_f64() / rings.len().max(1) as f64;
    // the view is part of each ring's set-up
    let n = e.setup_s.len();
    for s in &mut e.setup_s[n - rings.len()..] {
        *s += view_s;
    }
    let pairs: Vec<Vec<(usize, usize)>> = rings.iter().map(|r| r.pairs(ROUTING_QUERIES)).collect();
    let mut first: Option<Vec<Vec<RouteOutcome>>> = None;
    let mut best = vec![vec![f64::INFINITY; ROUTING_QUERIES]; rings.len()];
    let started = Instant::now();
    loop {
        let pass_start = Instant::now();
        let outcomes: Vec<Vec<RouteOutcome>> = rings
            .iter()
            .zip(&views)
            .zip(&pairs)
            .zip(&mut best)
            .map(|(((ring, view), pairs), best)| e.route.pass(view, ring.labels.ids(), pairs, best))
            .collect();
        e.converge_s.push(pass_start.elapsed().as_secs_f64());
        match &first {
            None => {
                for ((ring, out), pairs) in rings.iter().zip(&outcomes).zip(&pairs) {
                    score(
                        ring.seed,
                        out,
                        pairs,
                        &ring.graph,
                        &mut e.route.stats,
                        report,
                    );
                }
                first = Some(outcomes);
            }
            Some(seen) => report.same("routing outcomes, repeat", seen, &outcomes),
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    for best in &mut best {
        e.route.keep(best);
    }
}

/// Replays a run on `Timed` nodes up to tick `until`: same graph, labels,
/// link model, seed, corruption and observation, no probes (they only
/// read). Adds the run's wall time and its handler time by kind to `t`
/// (`on_init` during construction excluded) and returns its counts.
fn wrapped_run(kind: Ssr, seed: u64, until: u64, t: &mut LayerTally) -> Counts {
    let clock = Rc::new(HandlerClock::default());
    let (graph, labels) = kind.topology().instance(seed);
    let nodes = Timed::wrap(
        make_ssr_nodes(&labels, BootstrapConfig::default().ssr),
        &clock,
    );
    let (mut sim, _sink) = simulator(kind, true, &graph, nodes, seed);
    if kind == Ssr::ObservedChaos {
        for (idx, route) in corruption_routes(&graph, &labels, &corruption(&labels, seed)) {
            sim.protocol_mut(idx).inner.inject_neighbor(route);
        }
    }
    let before = clock.spans();
    let start = Instant::now();
    sim.run_until(Time(until));
    t.wrapped.stop(start);
    for ((acc, after), before) in t.handlers.iter_mut().zip(clock.spans()).zip(before) {
        acc.calls += after.calls - before.calls;
        acc.ns += after.ns - before.ns;
    }
    Counts::of(&sim)
}

/// One instance of a traced run, in passes over the same seed:
/// 1. with its ring checks and probes timed: the traced phase, whose
///    wall time the layers must account for;
/// 2. untraced, as the end-to-end run makes it;
/// 3. on `Timed` nodes, to split handler time by kind;
/// 4. for `observed_chaos`, with observation off, for its overhead.
///
/// Passes 2–4 follow each other, so the differences between them see
/// the same machine state. All passes must agree on every count. Returns
/// pass 1's instance and whether it reached its goal.
fn trace_instance(
    kind: Ssr,
    seed: u64,
    t: &mut LayerTally,
    report: &mut Report,
) -> (Instance, bool) {
    let wall = Instant::now();
    let gen_before = t.gen.ns;
    let mut inst = Instance::new(kind, seed, true, &mut t.gen, Some(&t.probe));
    t.build.stop(wall);
    t.build.ns -= t.gen.ns - gen_before;
    let start = Instant::now();
    let outcome = inst.converge(Some(&mut t.check));
    t.run.stop(start);
    let traced = Counts::of(&inst.sim);
    t.wall += wall.elapsed().as_secs_f64();
    t.counts.add(traced);
    if let Some(w) = &inst.watch {
        t.trace_events += w.sink.len() as u64;
    }

    let mut plain = Instance::new(kind, seed, true, &mut Span::default(), None);
    let start = Instant::now();
    plain.converge(None);
    t.untraced.stop(start);
    report.same(
        "counts, timed vs untraced pass",
        traced,
        Counts::of(&plain.sim),
    );
    drop(plain);

    let wrapped = wrapped_run(kind, seed, traced.ticks, t);
    report.same("counts, timed vs handler-timed pass", traced, wrapped);

    if kind == Ssr::ObservedChaos {
        let mut bare = Instance::new(kind, seed, false, &mut Span::default(), None);
        let start = Instant::now();
        bare.converge(None);
        t.obs_off.stop(start);
        report.same(
            "counts, observed vs unobserved",
            traced,
            Counts::of(&bare.sim),
        );
    }
    let ok = inst.reached_goal(outcome);
    (inst, ok)
}

/// `bootstrap` and `observed_chaos`, traced, over the first instances of
/// the seed set.
pub fn trace_batch(kind: Ssr, seed: u64, e: &mut E2e, t: &mut LayerTally, report: &mut Report) {
    for i in 0..kind.instances(true) {
        let (inst, ok) = trace_instance(kind, instance_seed(seed, i), t, report);
        report.op(ok, || inst.failure());
        if ok {
            absorb(e, Counts::of(&inst.sim), inst.labels.len());
            let wall = Instant::now();
            inst.check_outputs(e, t, true, report);
            t.wall += wall.elapsed().as_secs_f64();
        }
    }
    let wall = Instant::now();
    e.route.finish(report);
    t.wall += wall.elapsed().as_secs_f64();
}

/// `routing`, traced: the rings' bootstraps split as in [`trace_batch`],
/// then the query passes as untraced (they time every query anyway).
pub fn trace_routing(
    seed: u64,
    seconds: f64,
    e: &mut E2e,
    t: &mut LayerTally,
    report: &mut Report,
) {
    let rings = ready_rings(Ssr::Routing.instances(true), seed, e, t, true, report);
    let wall = Instant::now();
    route_passes(&rings, seconds, e, report);
    t.wall += wall.elapsed().as_secs_f64();
}
