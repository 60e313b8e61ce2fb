//! **E9 — router state: the LSN memory bound.**
//!
//! "Keeping all edges may require significant memory at the nodes.
//! Therefore, Onus et al. propose linearization with shortcut neighbors" —
//! at most one remembered edge per exponentially growing interval, so state
//! stays `O(log n)` per side while convergence stays polylogarithmic. This
//! experiment measures per-node state versus `n`:
//!
//! * abstract engine: peak degree under memory vs LSN retention;
//! * SSR protocol: cache entries at the end of the bootstrap (the cache
//!   *is* the LSN structure), with the interval base as ablation
//!   (`--base 4`).
//!
//! Both sweeps run through the deterministic orchestrator (docs/SWEEPS.md):
//! output bytes never depend on `--workers`. `--matrix` governs the SSR
//! cache sweep (the protocol-level measurement); the engine comparison
//! keeps its fixed size ladder, recorded as `matrix_engine`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_state`
//! Flags: `--seeds K` (default 5), `--quick`, `--base B` (default 2),
//! `--workers N`, `--matrix SPEC` (e.g. `n=100,200;seeds=3`), `--csv PATH`.

use ssr_bench::{Args, Flag, CSV, MATRIX, QUICK, SEEDS, WORKERS};
use ssr_core::bootstrap::{run_linearized_bootstrap, BootstrapConfig};
use ssr_linearize::{run, Semantics, Variant};
use ssr_sim::Metrics;
use ssr_types::IntervalPartition;
use ssr_workloads::{run_matrix, stats::percentile, Matrix, Summary, Table, Topology};

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[
    QUICK,
    SEEDS,
    WORKERS,
    MATRIX,
    CSV,
    Flag::value("base", "B", "LSN interval base (default 2)"),
];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(
        "exp_state",
        "E9: router state, the LSN memory bound.",
        FLAGS,
    );
    let seeds: u64 = args.get("seeds", 5);
    let base: u64 = args.get("base", 2);
    let engine_sizes: Vec<usize> = if args.quick() {
        vec![64, 256]
    } else {
        vec![64, 256, 1024, 4096]
    };
    let ssr_sizes: Vec<usize> = if args.quick() {
        vec![50, 100]
    } else {
        vec![50, 100, 200, 400]
    };

    let mut man = ssr_bench::manifest(&args, "exp_state");
    man.seed(0).config("base", base);
    let ssr_matrix = ssr_bench::resolve_matrix(
        &args,
        &mut man,
        Matrix::new(["ssr-cache"], ssr_sizes, seeds),
    );
    let engine_matrix = Matrix::new(["engine/memory", "engine/lsn"], engine_sizes, seeds);
    man.config("matrix_engine", engine_matrix.describe());
    let rep_seed = ssr_matrix.seeds[0];

    let mut table = Table::new(
        format!("E9: per-node state (LSN interval base {base})"),
        &["n", "system", "peak degree / max cache", "mean", "p99"],
    );

    let mut merged = Metrics::new();
    let mut rep_timeline: Option<(usize, Vec<ssr_core::ConvergencePoint>)> = None;

    // abstract engine: memory vs LSN peak degree
    let engine = run_matrix(&engine_matrix, args.workers(), |job| {
        let variant = if engine_matrix.name(job) == "engine/memory" {
            Variant::Memory
        } else {
            Variant::Lsn(IntervalPartition::new(base))
        };
        let topo = Topology::Gnp { n: job.n, c: 2.0 };
        let (g, labels) = topo.instance(job.seed.wrapping_mul(3));
        let (rg, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
        let r = run(&rg, variant, Semantics::Star, 4000);
        r.peak_degree() as f64
    });
    for (scenario, n, peaks) in engine.cells() {
        let s = Summary::of(peaks);
        for &p in peaks {
            merged.observe_hist("state.peak_degree", p as u64);
        }
        let variant = scenario.strip_prefix("engine/").unwrap_or(scenario);
        table.row(&[
            n.to_string(),
            format!("engine/{variant}"),
            format!("{:.0}", s.max),
            format!("{:.1}", s.mean),
            "-".into(),
        ]);
    }

    // SSR protocol: cache entries at the end of the bootstrap
    let sweep = run_matrix(&ssr_matrix, args.workers(), |job| {
        let (n, seed) = (job.n, job.seed);
        let topo = Topology::UnitDisk { n, scale: 1.3 };
        let (g, labels) = topo.instance(seed.wrapping_mul(11) ^ n as u64);
        let mut cfg = BootstrapConfig {
            seed,
            max_ticks: 300_000,
            ..Default::default()
        };
        cfg.ssr.partition_base = base;
        let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
        assert!(report.converged, "n={n} seed={seed}");
        let entries: Vec<f64> = sim
            .protocols()
            .iter()
            .map(|p| p.cache().len() as f64)
            .collect();
        // the bootstrap runner already observed state.entries into the
        // sim's registry; carry it (and the timeline, on the
        // representative seed) out
        let timeline = (seed == rep_seed).then(|| report.timeline.clone());
        (entries, sim.metrics().clone(), timeline)
    });
    for (_, n, all) in sweep.cells() {
        for (_, m, tl) in all {
            merged.merge(m);
            if let Some(tl) = tl {
                rep_timeline = Some((n, tl.clone()));
            }
        }
        let mut flat: Vec<f64> = all.iter().flat_map(|(e, _, _)| e.iter().copied()).collect();
        let s = Summary::of(&flat);
        let p99 = percentile(&mut flat, 99.0);
        table.row(&[
            n.to_string(),
            "ssr cache".into(),
            format!("{:.0}", s.max),
            format!("{:.1}", s.mean),
            format!("{p99:.0}"),
        ]);
    }

    table.print();
    println!("\npaper claim: with-memory state grows with n; LSN state stays O(log n) per");
    println!("side — the SSR route cache realizes the same bound (compare rows across n).");
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }

    // Manifest: state.entries / state.peak_degree histograms merged across
    // every seed and size; timeline from the representative-seed run at the
    // largest n.
    man.record_metrics(&merged);
    if let Some((n, tl)) = &rep_timeline {
        man.config("timeline_n", n);
        ssr_bench::record_bootstrap_timeline(&mut man, tl);
    }
    ssr_bench::emit_manifest(&mut man, started);
}
