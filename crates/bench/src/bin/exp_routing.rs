//! **E7 — routing over the converged ring.**
//!
//! "If the virtual ring has been formed consistently, this routing
//! algorithm is guaranteed to succeed for any source and destination
//! pair." This experiment bootstraps linearized SSR on unit-disk networks,
//! then routes `10·n` random pairs over the converged state: success rate
//! (must be 100%), mean virtual hops (polylog thanks to the cached LSN
//! shortcuts), and physical path stretch versus BFS shortest paths. It
//! also measures mid-convergence success (stopping the bootstrap early) to
//! show the guarantee is really about *consistency*, not luck.
//!
//! The n × seed sweep runs through the deterministic orchestrator
//! (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_routing`
//! Flags: `--seeds K` (default 5), `--quick`, `--workers N`,
//! `--matrix SPEC` (e.g. `n=100,200;seeds=3`), `--csv PATH`.

use ssr_bench::{Args, Flag, CSV, MATRIX, QUICK, SEEDS, WORKERS};
use ssr_core::bootstrap::{make_ssr_nodes, run_linearized_bootstrap, BootstrapConfig};
use ssr_core::routing::{RoutingStats, RoutingView};
use ssr_graph::algo;
use ssr_sim::{LinkConfig, Metrics, Simulator, Time};
use ssr_types::Rng;
use ssr_workloads::{run_matrix, scenario::traffic_pairs, Summary, Table, Topology};

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[QUICK, SEEDS, WORKERS, MATRIX, CSV];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse("exp_routing", "E7: routing over the converged ring.", FLAGS);
    let seeds: u64 = args.get("seeds", 5);
    let sizes: Vec<usize> = if args.quick() {
        vec![50, 100]
    } else {
        vec![50, 100, 200, 400]
    };

    let mut man = ssr_bench::manifest(&args, "exp_routing");
    man.seed(0);
    let matrix = ssr_bench::resolve_matrix(
        &args,
        &mut man,
        ssr_workloads::Matrix::new(["unit-disk"], sizes, seeds),
    );
    let rep_seed = matrix.seeds[0];

    let sweep = run_matrix(&matrix, args.workers(), |job| {
        let (n, seed) = (job.n, job.seed);
        let topo = Topology::UnitDisk { n, scale: 1.3 };
        let (g, labels) = topo.instance(seed.wrapping_mul(7919) ^ n as u64);
        let cfg = BootstrapConfig {
            seed,
            max_ticks: 300_000,
            ..Default::default()
        };
        // mid-convergence snapshot: run the same system for only a few
        // ticks and measure routability
        let mut early_sim = Simulator::new(
            g.clone(),
            make_ssr_nodes(&labels, cfg.ssr),
            LinkConfig::ideal(),
            seed,
        );
        early_sim.run_until(Time(6));
        let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
        assert!(report.converged, "bootstrap failed for n={n} seed={seed}");
        let mut rng = Rng::new(seed ^ 0xABCD);
        let pairs = traffic_pairs(n, 10 * n, &mut rng);
        let mut full = RoutingStats::default();
        let mut early = RoutingStats::default();
        // converged-phase routes feed the route.len / route.stretch_milli
        // histograms; registries merge across seeds after the sweep
        let mut metrics = Metrics::new();
        let view = RoutingView::new(sim.protocols());
        let early_view = RoutingView::new(early_sim.protocols());
        for &(a, b) in &pairs {
            let (src, dst) = (labels.id(a), labels.id(b));
            let shortest = algo::bfs_distances(&g, a)[b];
            full.record_observed(view.route(src, dst, 4 * n as u32), shortest, &mut metrics);
            early.record(early_view.route(src, dst, 4 * n as u32), shortest);
        }
        let timeline = (seed == rep_seed).then(|| report.timeline.clone());
        (full, early, metrics, timeline)
    });

    let mut table = Table::new(
        "E7: greedy routing after the linearized bootstrap (unit-disk)",
        &[
            "n",
            "phase",
            "success rate",
            "virt hops (mean)",
            "stretch (mean)",
        ],
    );
    let merged = sweep.merge_metrics(|r| &r.2);
    let mut rep_timeline: Option<(usize, Vec<ssr_core::ConvergencePoint>)> = None;

    type SeedResult = (
        RoutingStats,
        RoutingStats,
        Metrics,
        Option<Vec<ssr_core::ConvergencePoint>>,
    );
    for (_, n, results) in sweep.cells() {
        if let Some(tl) = results.iter().find_map(|r| r.3.as_ref()) {
            rep_timeline = Some((n, tl.clone()));
        }
        let agg = |get: &dyn Fn(&SeedResult) -> RoutingStats, phase: &str, table: &mut Table| {
            let srs: Vec<f64> = results
                .iter()
                .map(|r| get(r).success_rate() * 100.0)
                .collect();
            let hops: Vec<f64> = results.iter().map(|r| get(r).mean_virtual_hops()).collect();
            let stretch: Vec<f64> = results.iter().map(|r| get(r).stretch()).collect();
            table.row(&[
                n.to_string(),
                phase.into(),
                format!("{:.1}%", Summary::of(&srs).mean),
                format!("{:.2}", Summary::of(&hops).mean),
                format!("{:.2}", Summary::of(&stretch).mean),
            ]);
        };
        agg(&|r| r.0, "converged", &mut table);
        agg(&|r| r.1, "t = 6 (mid-bootstrap)", &mut table);
    }

    table.print();
    println!("\npaper claim: 100% delivery once the ring is globally consistent; the");
    println!("mid-bootstrap row shows the guarantee comes from consistency, not chance.");
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }

    // Manifest: route.len / route.stretch_milli histograms merged across
    // every seed and size; timeline from the representative-seed run at the
    // largest n.
    man.record_metrics(&merged);
    if let Some((n, tl)) = &rep_timeline {
        man.config("timeline_n", n);
        ssr_bench::record_bootstrap_timeline(&mut man, tl);
    }
    ssr_bench::emit_manifest(&mut man, started);
}
