//! **E6 — the headline: consistency without flooding.**
//!
//! ISPRP "achieves global consistency by having one node flood the network
//! with its identifier"; the paper's contribution is that linearization
//! "does not require any flooding at all". This experiment bootstraps both
//! mechanisms on connected unit-disk networks (the MANET substrate SSR
//! targets) and meters every link-layer transmission by kind, plus
//! convergence time and end-state router state.
//!
//! The mechanism × n × seed sweep runs through the deterministic
//! orchestrator (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Ablations: `--no-ccw` disables the redundant counter-clockwise probes;
//! `--keep-edges` disables tear-downs (the with-memory variant: fewer
//! messages per step, more state).
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_flooding_cost`
//! Flags: `--seeds K` (default 5), `--quick`, `--no-ccw`, `--keep-edges`,
//! `--workers N`, `--matrix SPEC` (e.g. `scenario=linearized;n=200`),
//! `--csv PATH`.

use ssr_bench::{fmt_count, Args, Flag, CSV, MATRIX, QUICK, SEEDS, WORKERS};
use ssr_core::bootstrap::{run_isprp_bootstrap, run_linearized_bootstrap, BootstrapConfig};
use ssr_obs::Value;
use ssr_workloads::{run_matrix, summarize_counts, Table, Topology};

struct Row {
    converged: bool,
    ticks: u64,
    total: u64,
    flood: u64,
    notify: u64,
    max_state: usize,
}

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[
    QUICK,
    SEEDS,
    WORKERS,
    MATRIX,
    CSV,
    Flag::switch("no-ccw", "disable the redundant counter-clockwise probes"),
    Flag::switch("keep-edges", "disable tear-downs (the with-memory variant)"),
];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(
        "exp_flooding_cost",
        "E6: consistency without flooding, messages per bootstrap.",
        FLAGS,
    );
    let seeds: u64 = args.get("seeds", 5);
    let sizes: Vec<usize> = if args.quick() {
        vec![50, 100]
    } else {
        vec![50, 100, 200, 400, 800]
    };
    let mut cfg = BootstrapConfig {
        max_ticks: 300_000,
        ..Default::default()
    };
    cfg.ssr.ccw_redundancy = !args.flag("no-ccw");
    cfg.ssr.teardown = !args.flag("keep-edges");

    let mut man = ssr_bench::manifest(&args, "exp_flooding_cost");
    man.seed(0)
        .config("no-ccw", args.flag("no-ccw"))
        .config("keep-edges", args.flag("keep-edges"));
    let matrix = ssr_bench::resolve_matrix(
        &args,
        &mut man,
        ssr_workloads::Matrix::new(["linearized", "isprp"], sizes, seeds),
    );

    let sweep = run_matrix(&matrix, args.workers(), |job| {
        let (n, seed) = (job.n, job.seed);
        let topo = Topology::UnitDisk { n, scale: 1.3 };
        let (g, labels) = topo.instance(seed.wrapping_mul(101) ^ n as u64);
        let mut cfg = cfg;
        cfg.seed = seed;
        let report = if matrix.name(job) == "linearized" {
            run_linearized_bootstrap(&g, &labels, &cfg).0
        } else {
            run_isprp_bootstrap(&g, &labels, &cfg).0
        };
        let kind = |k: &str| {
            report
                .messages
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        Row {
            converged: report.converged,
            ticks: report.ticks,
            total: report.total_messages,
            flood: kind("msg.flood"),
            notify: kind("msg.notify") + kind("msg.succ"),
            max_state: report.max_state,
        }
    });

    let mut table = Table::new(
        "E6: bootstrap cost — ISPRP + flood vs linearized SSR (unit-disk)",
        &[
            "n",
            "mechanism",
            "conv",
            "ticks (mean)",
            "msgs total (mean)",
            "flood msgs",
            "notify msgs",
            "max state",
        ],
    );
    let mut sweep_means: Vec<(String, Value)> = Vec::new();

    for (mech, n, rows) in sweep.cells() {
        let runs = rows.len() as u64;
        let conv = rows.iter().filter(|r| r.converged).count();
        let ticks = summarize_counts(rows.iter().map(|r| r.ticks));
        let total = summarize_counts(rows.iter().map(|r| r.total));
        let flood: u64 = rows.iter().map(|r| r.flood).sum::<u64>() / runs.max(1);
        let notify: u64 = rows.iter().map(|r| r.notify).sum::<u64>() / runs.max(1);
        let max_state = rows.iter().map(|r| r.max_state).max().unwrap_or(0);
        sweep_means.push((
            format!("{mech}/n={n}"),
            Value::Obj(vec![
                ("msgs_mean".into(), total.mean.into()),
                ("ticks_mean".into(), ticks.mean.into()),
                ("flood_mean".into(), flood.into()),
                ("converged".into(), (conv as u64).into()),
            ]),
        ));
        table.row(&[
            n.to_string(),
            mech.into(),
            format!("{conv}/{runs}"),
            format!("{:.0}", ticks.mean),
            fmt_count(total.mean as u64),
            fmt_count(flood),
            fmt_count(notify),
            max_state.to_string(),
        ]);
    }

    table.print();
    println!("\npaper claim: the linearized bootstrap reaches the same globally consistent");
    println!("ring with zero flood messages; ISPRP's flood costs ≈ 2·|E_p| transmissions");
    println!("plus the claim/update cascade it triggers.");
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }

    // Manifest: one representative linearized run (first matrix seed,
    // largest n) for the full metric/timeline dump; the sweep means ride
    // along as extras.
    let rep_n = *matrix.sizes.last().unwrap();
    let rep_seed = matrix.seeds[0];
    man.config("timeline_n", rep_n);
    let (g, labels) = Topology::UnitDisk {
        n: rep_n,
        scale: 1.3,
    }
    .instance(rep_seed.wrapping_mul(101) ^ rep_n as u64);
    let mut rep_cfg = cfg;
    rep_cfg.seed = rep_seed;
    let (report, sim) = run_linearized_bootstrap(&g, &labels, &rep_cfg);
    man.record_metrics(sim.metrics());
    ssr_bench::record_bootstrap_timeline(&mut man, &report.timeline);
    man.extra("rep_converged", Value::Bool(report.converged));
    man.extra("rep_ticks", report.ticks.into());
    man.extra("rep_msgs_total", report.total_messages.into());
    man.extra("sweep", Value::Obj(sweep_means));
    ssr_bench::emit_manifest(&mut man, started);
}
