//! **E8 — self-stabilization under churn, without flooding.**
//!
//! Linearization is self-stabilizing: it converges from *any* state, which
//! in a live network means after node crashes, rejoins, and link flaps.
//! This experiment converges a linearized-SSR network, injects a churn
//! burst (Poisson crash/rejoin plus link flaps), and measures the time and
//! messages to **re**-converge — still with zero flood messages.
//!
//! The n × seed sweep runs through the deterministic orchestrator
//! (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_churn`
//! Flags: `--seeds K` (default 5), `--quick`, `--rate R` (crash rate per
//! tick, default 0.02), `--workers N`, `--matrix SPEC` (e.g.
//! `n=100;seeds=3`), `--csv PATH`.

use ssr_bench::{fmt_count, Args, Flag, CSV, MATRIX, QUICK, SEEDS, WORKERS};
use ssr_core::bootstrap::{make_ssr_nodes, ssr_timeline_probe, BootstrapConfig};
use ssr_core::consistency;
use ssr_sim::faults::{poisson_crash_rejoin_trace, poisson_link_flap_trace};
use ssr_sim::{LinkConfig, Metrics, Simulator, Time};
use ssr_types::Rng;
use ssr_workloads::{run_matrix, summarize_counts, Table, Topology};

struct Outcome {
    reconverged: bool,
    recovery_ticks: u64,
    recovery_msgs: u64,
    floods: u64,
    // representative-seed observability capture: the full converge → churn
    // → re-converge timeline plus the final metrics registry
    observed: Option<(Vec<ssr_core::ConvergencePoint>, Metrics)>,
}

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[
    QUICK,
    SEEDS,
    WORKERS,
    MATRIX,
    CSV,
    Flag::value("rate", "R", "crash rate per tick (default 0.02)"),
];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(
        "exp_churn",
        "E8: self-stabilization under churn, without flooding.",
        FLAGS,
    );
    let seeds: u64 = args.get("seeds", 5);
    let rate: f64 = args.get("rate", 0.02);
    let sizes: Vec<usize> = if args.quick() {
        vec![50]
    } else {
        vec![50, 100, 200]
    };
    let churn_window = 400u64;

    let mut man = ssr_bench::manifest(&args, "exp_churn");
    man.seed(0)
        .config("rate", rate)
        .config("churn_window", churn_window);
    let matrix = ssr_bench::resolve_matrix(
        &args,
        &mut man,
        ssr_workloads::Matrix::new(["churn-burst"], sizes, seeds),
    );
    let rep_seed = matrix.seeds[0];

    let sweep = run_matrix(&matrix, args.workers(), |job| {
        let (n, seed) = (job.n, job.seed);
        let topo = Topology::UnitDisk { n, scale: 1.4 };
        let (g, labels) = topo.instance(seed.wrapping_mul(577) ^ n as u64);
        let cfg = BootstrapConfig::default();
        let nodes = make_ssr_nodes(&labels, cfg.ssr);
        let mut sim = Simulator::new(g.clone(), nodes, LinkConfig::ideal(), seed);
        let timeline = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        if seed == rep_seed {
            sim.add_probe(8, ssr_timeline_probe(std::rc::Rc::clone(&timeline)));
        }
        // phase 1: converge
        let outcome = sim.run_until_stable(8, 300_000, |nodes, _| {
            consistency::check_ring(nodes).consistent()
        });
        assert!(outcome.is_quiescent(), "initial bootstrap failed");
        let t0 = sim.now();
        // phase 2: churn burst
        let mut frng = Rng::new(seed ^ 0xC0FFEE);
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let crash_trace = poisson_crash_rejoin_trace(
            n,
            t0 + 1,
            Time(t0.ticks() + churn_window),
            rate,
            40,
            |u| g.neighbors(u).collect(),
            &mut frng,
        );
        let flap_trace = poisson_link_flap_trace(
            &edges,
            t0 + 1,
            Time(t0.ticks() + churn_window),
            rate / 2.0,
            30,
            &mut frng,
        );
        for f in crash_trace.into_iter().chain(flap_trace) {
            sim.schedule_fault(f.at, f.fault);
        }
        let msgs_before = sim.metrics().counter("tx.total");
        // phase 3: let the churn play out, then measure recovery
        sim.run_until(Time(t0.ticks() + churn_window + 50));
        let recover_from = sim.now();
        let outcome = sim.run_until_stable(8, 300_000, |nodes, _| {
            consistency::check_ring(nodes).consistent()
        });
        Outcome {
            reconverged: consistency::check_ring(sim.protocols()).consistent(),
            recovery_ticks: outcome.time() - recover_from,
            recovery_msgs: sim.metrics().counter("tx.total") - msgs_before,
            floods: sim.metrics().counter("msg.flood"),
            observed: (seed == rep_seed)
                .then(|| (timeline.borrow().clone(), sim.metrics().clone())),
        }
    });

    let mut table = Table::new(
        format!("E8: churn recovery (crash rate {rate}/tick over {churn_window} ticks)"),
        &[
            "n",
            "reconverged",
            "recovery ticks (mean)",
            "recovery msgs (mean)",
            "flood msgs",
        ],
    );
    let mut rep_observed: Option<(usize, Vec<ssr_core::ConvergencePoint>, Metrics)> = None;

    for (_, n, outcomes) in sweep.cells() {
        if let Some((tl, m)) = outcomes.iter().find_map(|o| o.observed.clone()) {
            rep_observed = Some((n, tl, m));
        }
        let runs = outcomes.len();
        let ok = outcomes.iter().filter(|o| o.reconverged).count();
        let ticks = summarize_counts(
            outcomes
                .iter()
                .filter(|o| o.reconverged)
                .map(|o| o.recovery_ticks),
        );
        let msgs = summarize_counts(outcomes.iter().map(|o| o.recovery_msgs));
        let floods: u64 = outcomes.iter().map(|o| o.floods).sum();
        table.row(&[
            n.to_string(),
            format!("{ok}/{runs}"),
            format!("{:.0}", ticks.mean),
            fmt_count(msgs.mean as u64),
            floods.to_string(),
        ]);
    }

    table.print();
    println!("\npaper claim: self-stabilization means churn recovery needs no flooding —");
    println!("the flood column must be zero; recovery is local repair plus re-discovery.");
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }

    // Manifest: the representative-seed run at the largest n, whose timeline
    // shows the full dip — converged ring, churn burst, re-convergence.
    if let Some((n, tl, m)) = &rep_observed {
        man.config("timeline_n", n).record_metrics(m);
        ssr_bench::record_bootstrap_timeline(&mut man, tl);
    }
    ssr_bench::emit_manifest(&mut man, started);
}
