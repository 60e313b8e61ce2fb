//! **E5 — the power-law datapoint: "α = 2 converges in less than 39
//! rounds".**
//!
//! The paper quotes Onus et al.: LSN linearization on "a power law graph
//! with [100 000] nodes and α = 2 converges in less than 39 rounds". This
//! sweep runs LSN (and the with-memory variant for reference) on erased
//! configuration-model power-law graphs with α = 2 for n up to 100 000 and
//! checks (a) the absolute bound at the largest n and (b) the polylog
//! shape of the growth.
//!
//! The variant × n × seed sweep runs through the deterministic
//! orchestrator (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_powerlaw`
//! Flags: `--seeds K` (default 5), `--quick` (up to n = 10⁴), `--alpha A`,
//! `--workers N`, `--matrix SPEC` (e.g. `scenario=lsn;n=1000,10000`),
//! `--csv PATH`.

use ssr_bench::{Args, Flag, CSV, MATRIX, QUICK, SEEDS, WORKERS};
use ssr_linearize::{run, Semantics, Variant};
use ssr_sim::Metrics;
use ssr_workloads::{run_matrix, stats, Summary, Table, Topology};

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[
    QUICK,
    SEEDS,
    WORKERS,
    MATRIX,
    CSV,
    Flag::value("alpha", "A", "power-law exponent (default 2)"),
];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(
        "exp_powerlaw",
        "E5: linearization on power-law graphs.",
        FLAGS,
    );
    let seeds: u64 = args.get("seeds", 5);
    let alpha: f64 = args.get("alpha", 2.0);
    let sizes: Vec<usize> = if args.quick() {
        vec![1_000, 3_000, 10_000]
    } else {
        vec![1_000, 3_000, 10_000, 30_000, 100_000]
    };

    let mut man = ssr_bench::manifest(&args, "exp_powerlaw");
    man.config("alpha", alpha);
    let matrix = ssr_bench::resolve_matrix(
        &args,
        &mut man,
        ssr_workloads::Matrix::new(["lsn", "memory"], sizes, seeds),
    );

    let sweep = run_matrix(&matrix, args.workers(), |job| {
        let variant = if matrix.name(job) == "lsn" {
            Variant::lsn()
        } else {
            Variant::Memory
        };
        let topo = Topology::PowerLaw { n: job.n, alpha };
        let (g, labels) = topo.instance(job.seed.wrapping_mul(31) ^ job.n as u64);
        let (rg, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
        let r = run(&rg, variant, Semantics::Star, 2000);
        (
            r.line_at.map(|x| x as f64).unwrap_or(f64::NAN),
            r.peak_degree(),
        )
    });

    let mut table = Table::new(
        format!("E5: LSN on power-law graphs (alpha = {alpha})"),
        &["variant", "n", "rounds (mean ± ci)", "max", "peak degree"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut largest_max = 0f64;
    let mut metrics = Metrics::new();

    for (variant, n, results) in sweep.cells() {
        let rounds: Vec<f64> = results
            .iter()
            .map(|&(r, _)| r)
            .filter(|r| r.is_finite())
            .collect();
        let peak = results.iter().map(|&(_, p)| p).max().unwrap_or(0);
        for &(r, p) in results {
            metrics.incr("runs.total");
            if r.is_finite() {
                metrics.incr("runs.converged");
                metrics.observe_hist("rounds.to_line", r as u64);
            }
            metrics.observe_hist("state.peak_degree", p as u64);
        }
        let s = Summary::of(&rounds);
        table.row(&[
            variant.to_string(),
            n.to_string(),
            s.fmt(1),
            format!("{:.0}", s.max),
            peak.to_string(),
        ]);
        if variant == "lsn" {
            xs.push((n as f64).log2());
            ys.push(s.mean.log2());
            if n == *matrix.sizes.last().unwrap() {
                largest_max = s.max;
            }
        }
    }

    table.print();
    println!(
        "\nLSN growth exponent (log2 rounds vs log2 n): {:.2} — polylog expected (≪ 1)",
        stats::slope(&xs, &ys)
    );
    println!(
        "paper datapoint: < 39 rounds at the largest size; measured max at n = {}: {:.0} rounds — {}",
        matrix.sizes.last().unwrap(),
        largest_max,
        if largest_max < 39.0 { "HOLDS" } else { "EXCEEDED" }
    );
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }

    // Manifest: merged round/degree histograms plus one representative LSN
    // run's round-by-round timeline (first matrix seed, smallest n).
    let rep_n = matrix.sizes[0];
    let rep_seed = matrix.seeds[0];
    man.seed(rep_seed).config("timeline_n", rep_n);
    let (g, labels) =
        Topology::PowerLaw { n: rep_n, alpha }.instance(rep_seed.wrapping_mul(31) ^ rep_n as u64);
    let (rg, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
    let rep = run(&rg, Variant::lsn(), Semantics::Star, 2000);
    for rs in &rep.rounds {
        let formed = rep.line_at.is_some_and(|at| rs.round >= at);
        man.timeline_point(ssr_obs::TimelinePoint {
            tick: rs.round as u64,
            shape: if formed { "line" } else { "line-forming" }.to_string(),
            locally_consistent: (rep_n.saturating_sub(rs.missing_chain)) as u64,
            nodes: rep_n as u64,
            churn: (rs.added + rs.removed) as u64,
        });
    }
    man.record_metrics(&metrics)
        .extra("lsn_growth_exponent", stats::slope(&xs, &ys).into())
        .extra("largest_max_rounds", largest_max.into());
    ssr_bench::emit_manifest(&mut man, started);
}
