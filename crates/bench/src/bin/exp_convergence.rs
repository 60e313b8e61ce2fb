//! **E4 — convergence class of the linearization variants.**
//!
//! Onus et al. (as summarized in the paper's Section 2): *pure*
//! linearization "may require many iterations for some graphs" (average
//! runtime linear), while *linearization with memory* and *LSN* converge in
//! polylogarithmically many rounds on average for random graphs. This sweep
//! measures rounds-to-line versus `n` for all three variants over four
//! topology families, and reports the fitted growth exponent
//! `slope(log₂ rounds / log₂ n)` — ≈ 1 means linear, ≪ 1 (with rounds ~
//! polylog) means the memory/LSN class.
//!
//! The sweep matrix is `family/variant` scenarios × n × seed, dispatched
//! through the deterministic orchestrator (docs/SWEEPS.md): output bytes
//! never depend on `--workers`.
//!
//! Ablation: `--semantics pairwise` runs Onus et al.'s original one-pair
//! actions (pure variant only) instead of the paper's star rule.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_convergence`
//! Flags: `--seeds K` (default 10), `--quick`, `--semantics star|pairwise`,
//! `--workers N`, `--matrix SPEC` (e.g. `scenario=ring/pure;n=256;seeds=3`),
//! `--csv PATH`.

use ssr_bench::{Args, Flag, CSV, MATRIX, QUICK, SEEDS, WORKERS};
use ssr_linearize::{run, Semantics, Variant};
use ssr_obs::Value;
use ssr_sim::Metrics;
use ssr_workloads::{run_matrix, stats, Summary, Table, Topology};

/// Topology families swept (the scrambled ring — random labels over a
/// cycle — is where pure linearization's ≈ linear behaviour shows; random
/// graphs are "nice" for every variant).
const FAMILIES: [&str; 4] = ["ring", "regular", "gnp", "small-world"];

fn topo_for(family: &str, n: usize) -> Topology {
    match family {
        "ring" => Topology::Ring { n },
        "regular" => Topology::Regular { n, d: 4 },
        "gnp" => Topology::Gnp { n, c: 2.0 },
        "small-world" => Topology::SmallWorld { n, k: 4, beta: 0.2 },
        other => panic!("unknown family {other}"),
    }
}

fn variant_for(name: &str) -> Variant {
    match name {
        "pure" => Variant::Pure,
        "memory" => Variant::Memory,
        "lsn" => Variant::lsn(),
        other => panic!("unknown variant {other}"),
    }
}

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[
    QUICK,
    SEEDS,
    WORKERS,
    MATRIX,
    CSV,
    Flag::value(
        "semantics",
        "star|pairwise",
        "round semantics (default star)",
    ),
];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(
        "exp_convergence",
        "E4: convergence class of the linearization variants.",
        FLAGS,
    );
    let seeds: u64 = args.get("seeds", 10);
    let semantics = match args.opt("semantics").unwrap_or("star") {
        "star" => Semantics::Star,
        "pairwise" => Semantics::Pairwise,
        other => panic!("unknown semantics {other}"),
    };
    let sizes: Vec<usize> = if args.quick() {
        vec![64, 128, 256]
    } else {
        vec![64, 128, 256, 512, 1024, 2048, 4096]
    };
    let variants: &[&str] = if semantics == Semantics::Pairwise {
        &["pure"]
    } else {
        &["pure", "memory", "lsn"]
    };

    let mut man = ssr_bench::manifest(&args, "exp_convergence");
    man.seed(0).config("semantics", semantics.name());
    let scenarios: Vec<String> = FAMILIES
        .iter()
        .flat_map(|f| variants.iter().map(move |v| format!("{f}/{v}")))
        .collect();
    let matrix = ssr_bench::resolve_matrix(
        &args,
        &mut man,
        ssr_workloads::Matrix::new(scenarios, sizes, seeds),
    );

    let sweep = run_matrix(&matrix, args.workers(), |job| {
        let (family, vname) = matrix.name(job).split_once('/').expect("family/variant");
        let topo = topo_for(family, job.n);
        let variant = variant_for(vname);
        let (g, labels) = topo.instance(job.seed.wrapping_mul(0x9E37) ^ job.n as u64);
        // rank-relabel so index order = identifier order
        let (rg, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
        let budget = if matches!(variant, Variant::Pure) {
            80 * job.n
        } else {
            4000
        };
        let r = run(&rg, variant, semantics, budget);
        (
            r.line_at.map(|x| x as f64).unwrap_or(f64::NAN),
            r.peak_degree(),
        )
    });

    let mut table = Table::new(
        format!(
            "E4: rounds to the sorted line ({} semantics)",
            semantics.name()
        ),
        &[
            "family",
            "variant",
            "n",
            "rounds (mean ± ci)",
            "max",
            "peak degree",
        ],
    );
    // per (family, variant): (log2 n, log2 mean rounds) series for the fit
    let mut fits: std::collections::BTreeMap<(String, String), (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    let mut metrics = Metrics::new();

    for (scenario, n, results) in sweep.cells() {
        let (family, vname) = scenario.split_once('/').expect("family/variant");
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
            family.to_string(),
            vname.to_string(),
            n.to_string(),
            s.fmt(1),
            format!("{:.0}", s.max),
            peak.to_string(),
        ]);
        let key = (family.to_string(), vname.to_string());
        let entry = fits.entry(key).or_default();
        if s.mean > 0.0 {
            entry.0.push((n as f64).log2());
            entry.1.push(s.mean.log2());
        }
    }

    table.print();
    println!("\nfitted growth exponents (slope of log2 rounds vs log2 n; 1 ≈ linear):");
    let mut fit_values: Vec<(String, Value)> = Vec::new();
    for ((family, variant), (xs, ys)) in &fits {
        let slope = stats::slope(xs, ys);
        println!("  {family:<12} {variant:<7}: {slope:.2}");
        fit_values.push((format!("{family}/{variant}"), slope.into()));
    }
    println!("\npaper claim: pure ≈ linear; memory/LSN polylogarithmic (exponent ≪ 1).");
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }

    // Manifest: the sweep's merged histograms plus one representative run's
    // round-by-round convergence timeline (first matrix seed, smallest
    // scrambled ring, last variant in the sweep).
    let rep_n = matrix.sizes[0];
    let rep_seed = matrix.seeds[0];
    let rep_variant = variant_for(
        matrix
            .scenarios
            .last()
            .and_then(|s| s.split_once('/'))
            .map(|(_, v)| v)
            .unwrap_or("lsn"),
    );
    let (g, labels) =
        Topology::Ring { n: rep_n }.instance(rep_seed.wrapping_mul(0x9E37) ^ rep_n as u64);
    let (rg, _) = ssr_linearize::convergence::relabel_to_ranks(&g, &labels);
    let budget = if matches!(rep_variant, Variant::Pure) {
        80 * rep_n
    } else {
        4000
    };
    let rep = run(&rg, rep_variant, semantics, budget);
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
    man.config("timeline_variant", rep_variant.name())
        .config("timeline_n", rep_n)
        .record_metrics(&metrics)
        .extra("fit_exponent", Value::Obj(fit_values));
    if let Some(at) = rep.line_at {
        man.extra("timeline_line_at", (at as u64).into());
    }
    ssr_bench::emit_manifest(&mut man, started);
}
