//! Benchmark-side timing seams. Every span here wraps a call into a public
//! function of the program from the outside; nothing inside the program is
//! instrumented.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use ssr_core::message::SsrMsg;
use ssr_core::node::SsrNode;
use ssr_sim::{Ctx, ProbeView, Protocol};

use crate::engine::EngineLayers;
use crate::report::{E2e, Report};
use crate::ssr::Counts;

/// Calls into one layer and the wall time they took.
#[derive(Clone, Copy, Default, Debug)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stop(start);
        out
    }

    /// Closes one call that began at `start`.
    pub fn stop(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Wraps a probe so each firing is timed into `span`.
pub fn timed_probe<P: Protocol>(
    span: Rc<RefCell<Span>>,
    mut probe: impl FnMut(&mut ProbeView<'_, P>) + 'static,
) -> impl FnMut(&mut ProbeView<'_, P>) + 'static {
    move |view| span.borrow_mut().time(|| probe(view))
}

/// Handler kinds reported as `core.*.<kind>`. `other` collects `on_init`,
/// neighbour up/down and the message kinds outside this list, so the kinds
/// sum to every protocol callback.
pub const KINDS: [&str; 7] = [
    "hello", "notify", "ack", "teardown", "discover", "timer", "other",
];
const TIMER: usize = 5;
const OTHER: usize = 6;

fn kind_slot(kind: &str) -> usize {
    KINDS[..TIMER]
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(OTHER)
}

/// Per-kind handler call counts and nanoseconds, shared by every [`Timed`]
/// node of one simulator.
#[derive(Default)]
pub struct HandlerClock {
    calls: [Cell<u64>; KINDS.len()],
    ns: [Cell<u64>; KINDS.len()],
}

impl HandlerClock {
    fn time(&self, slot: usize, f: impl FnOnce()) {
        let start = Instant::now();
        f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls[slot].set(self.calls[slot].get() + 1);
        self.ns[slot].set(self.ns[slot].get() + ns);
    }

    pub fn spans(&self) -> [Span; KINDS.len()] {
        std::array::from_fn(|i| Span {
            calls: self.calls[i].get(),
            ns: self.ns[i].get(),
        })
    }
}

/// An `SsrNode` whose callbacks are timed by kind. It delegates every
/// callback unchanged, so a simulator of `Timed` nodes makes the same run
/// as one of plain nodes; the benchmark checks that it does.
pub struct Timed {
    pub inner: SsrNode,
    clock: Rc<HandlerClock>,
}

impl Timed {
    pub fn wrap(nodes: Vec<SsrNode>, clock: &Rc<HandlerClock>) -> Vec<Timed> {
        nodes
            .into_iter()
            .map(|inner| Timed {
                inner,
                clock: Rc::clone(clock),
            })
            .collect()
    }
}

impl Protocol for Timed {
    type Msg = SsrMsg;

    fn on_init(&mut self, ctx: &mut Ctx<'_, SsrMsg>) {
        let inner = &mut self.inner;
        self.clock.time(OTHER, || inner.on_init(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SsrMsg>, from: usize, msg: SsrMsg) {
        let slot = kind_slot(SsrNode::kind(&msg));
        let inner = &mut self.inner;
        self.clock.time(slot, || inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SsrMsg>, token: u64) {
        let inner = &mut self.inner;
        self.clock.time(TIMER, || inner.on_timer(ctx, token));
    }

    fn on_neighbor_up(&mut self, ctx: &mut Ctx<'_, SsrMsg>, neighbor: usize) {
        let inner = &mut self.inner;
        self.clock
            .time(OTHER, || inner.on_neighbor_up(ctx, neighbor));
    }

    fn on_neighbor_down(&mut self, ctx: &mut Ctx<'_, SsrMsg>, neighbor: usize) {
        let inner = &mut self.inner;
        self.clock
            .time(OTHER, || inner.on_neighbor_down(ctx, neighbor));
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn kind(msg: &SsrMsg) -> &'static str {
        SsrNode::kind(msg)
    }
}

/// Everything a traced run measures, per layer.
#[derive(Default)]
pub struct LayerTally {
    /// Wall time of the traced phase: set-up, the timed run to the goal
    /// and the output checks of each traced instance (replays excluded).
    pub wall: f64,
    /// `Topology::instance`: graph generation and labelling.
    pub gen: Span,
    /// The rest of set-up: nodes, simulator, corruption, probes.
    pub build: Span,
    pub probe: Rc<RefCell<Span>>,
    /// `check_ring` inside `run_until_stable`.
    pub check: Span,
    /// `run_until_stable` in the timed pass.
    pub run: Span,
    /// The same runs untraced.
    pub untraced: Span,
    /// The same runs on `Timed` nodes.
    pub wrapped: Span,
    /// `observed_chaos` runs with observation off.
    pub obs_off: Span,
    pub handlers: [Span; KINDS.len()],
    pub counts: Counts,
    pub trace_events: u64,
    pub engine: EngineLayers,
}

impl LayerTally {
    /// The per-layer metrics. Layers a workload does not pass through
    /// read 0.
    pub fn emit(&self, e: &E2e, report: &mut Report) {
        let c = &self.counts;
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let wall = self.wall;
        let probe = *self.probe.borrow();
        let handler_s: f64 = self.handlers.iter().map(Span::secs).sum();
        let obs_overhead = if self.obs_off.calls > 0 {
            self.untraced.secs() - self.obs_off.secs()
        } else {
            0.0
        };
        // the event core's own time: what the run spent outside handlers,
        // ring checks, probes and observation
        let outside_core = self.check.secs() + probe.secs() + obs_overhead;
        let sim_self = if self.run.calls > 0 {
            self.run.secs() - handler_s - outside_core
        } else {
            0.0
        };
        report.put("sim.events", c.events as f64, "count");
        report.put("sim.deliveries", c.deliveries as f64, "count");
        report.put("sim.activations", c.activations as f64, "count");
        report.put("sim.peak_queue", c.peak_queue as f64, "events");
        report.put("sim.self_s", sim_self, "s");
        report.put(
            "sim.ns_per_event",
            per(sim_self * 1e9, c.events as f64),
            "ns",
        );
        report.put("sim.self_share", per(sim_self, wall), "ratio");

        report.put("link.tx", c.tx as f64, "count");
        report.put("link.dropped", c.dropped as f64, "count");
        report.put("link.dup", c.dup as f64, "count");
        report.put("link.reordered", c.reordered as f64, "count");
        report.put("link.lost_in_flight", c.lost_in_flight as f64, "count");

        report.put("obs.trace_events", self.trace_events as f64, "count");
        report.put("obs.overhead_s", obs_overhead, "s");

        report.put("probe.calls", probe.calls as f64, "count");
        report.put("probe.s", probe.secs(), "s");

        for (kind, span) in KINDS.iter().zip(&self.handlers) {
            report.put(format!("core.calls.{kind}"), span.calls as f64, "count");
            report.put(format!("core.s.{kind}"), span.secs(), "s");
            let ns = per(span.ns as f64, span.calls as f64);
            report.put(format!("core.ns_per_call.{kind}"), ns, "ns");
        }
        report.put("core.handler_share", per(handler_s, wall), "ratio");
        let wasted = per(c.wasted as f64 * 1000.0, c.rx as f64);
        report.put("core.wasted_per_mille", wasted, "per_mille");
        report.put("core.checks", self.check.calls as f64, "count");
        report.put("core.check_s", self.check.secs(), "s");

        let stats = &e.route.stats;
        report.put("routing.view_build_s", e.route.view.secs(), "s");
        report.put("routing.queries", e.route.queries as f64, "count");
        report.put("routing.query_s", e.route.query_ns * 1e-9, "s");
        report.put(
            "routing.virtual_hops_mean",
            stats.mean_virtual_hops(),
            "hops",
        );
        let phys = per(stats.physical_hops as f64, stats.delivered as f64);
        report.put("routing.phys_hops_mean", phys, "hops");

        let lin = &self.engine;
        let lin_stats = lin.run.secs() - lin.step.secs() - lin.check.secs();
        report.put("linearize.run_s", lin.run.secs(), "s");
        report.put("linearize.step_s", lin.step.secs(), "s");
        let round_ns = per(lin.step.ns as f64, lin.step.calls as f64);
        report.put("linearize.round_ns_mean", round_ns, "ns");
        report.put("linearize.check_s", lin.check.secs(), "s");
        report.put("linearize.stats_s", lin_stats, "s");

        report.put("graph.gen_s", self.gen.secs(), "s");
        report.put("graph.relabel_s", lin.relabel.secs(), "s");
        report.put("setup.build_s", self.build.secs(), "s");

        let attributed = self.gen.secs()
            + self.build.secs()
            + self.run.secs()
            + e.route.view.secs()
            + e.route.query_ns * 1e-9
            + lin.relabel.secs()
            + lin.run.secs();
        report.put("trace.wall_s", wall, "s");
        report.put(
            "trace.unattributed_share",
            per(wall - attributed, wall),
            "ratio",
        );
        // The handler-timed pass runs without ring checks and probes, so it
        // is held against the untraced run less those; the engine replay
        // against the calls it times.
        let sim_overhead = if self.wrapped.calls > 0 {
            self.wrapped.secs() - (self.untraced.secs() - self.check.secs() - probe.secs())
        } else {
            0.0
        };
        let lin_overhead = lin.replay.secs() - lin.step.secs() - lin.check.secs();
        let overhead = sim_overhead + lin_overhead;
        report.put("trace.overhead_s", overhead, "s");
    }
}
