//! **E10 — the VRR transfer: "the proposed mechanism also applies to other
//! routing mechanisms such as Virtual Ring Routing".**
//!
//! Runs the *same* linearized bootstrap over both protocols on the same
//! topologies and compares: convergence, message cost, and — the structural
//! contrast — per-node router state, which for VRR includes path state at
//! every *intermediate* node, not just the endpoints. Also runs VRR's
//! baseline (hello beacons carrying the representative) to show the
//! standing dissemination cost linearization removes.
//!
//! The system × n × seed sweep runs through the deterministic orchestrator
//! (docs/SWEEPS.md): output bytes never depend on `--workers`.
//!
//! Known limitation (see DESIGN.md): VRR's hop-by-hop path state is more
//! fragile than SSR's source routes; a small fraction of runs at larger n
//! freeze in a crossing state, reported honestly in the `conv` column.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_vrr_compare`
//! Flags: `--seeds K` (default 5), `--quick`, `--workers N`,
//! `--matrix SPEC` (e.g. `scenario=ssr,vrr-linearized;n=30`), `--csv PATH`.

use ssr_bench::{fmt_count, Args, Flag, CSV, MATRIX, QUICK, SEEDS, WORKERS};
use ssr_core::bootstrap::{run_linearized_bootstrap, BootstrapConfig};
use ssr_obs::Value;
use ssr_sim::LinkConfig;
use ssr_vrr::bootstrap::run_vrr_bootstrap;
use ssr_vrr::node::VrrMode;
use ssr_workloads::{run_matrix, summarize_counts, Table, Topology};

struct Row {
    converged: bool,
    ticks: u64,
    msgs: u64,
    hello: u64,
    max_state: usize,
    mean_state: f64,
}

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[QUICK, SEEDS, WORKERS, MATRIX, CSV];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(
        "exp_vrr_compare",
        "E10: linearization applied to VRR.",
        FLAGS,
    );
    let seeds: u64 = args.get("seeds", 5);
    let sizes: Vec<usize> = if args.quick() {
        vec![16, 30]
    } else {
        vec![16, 30, 50]
    };

    let mut man = ssr_bench::manifest(&args, "exp_vrr_compare");
    man.seed(0);
    let matrix = ssr_bench::resolve_matrix(
        &args,
        &mut man,
        ssr_workloads::Matrix::new(["ssr", "vrr-linearized", "vrr-baseline"], sizes, seeds),
    );

    let sweep = run_matrix(&matrix, args.workers(), |job| {
        let (n, seed) = (job.n, job.seed);
        let topo = Topology::UnitDisk { n, scale: 1.3 };
        let (g, labels) = topo.instance(seed.wrapping_mul(53) ^ n as u64);
        match matrix.name(job) {
            "ssr" => {
                let cfg = BootstrapConfig {
                    seed,
                    max_ticks: 200_000,
                    ..Default::default()
                };
                let (r, _) = run_linearized_bootstrap(&g, &labels, &cfg);
                Row {
                    converged: r.converged,
                    ticks: r.ticks,
                    msgs: r.total_messages,
                    hello: r
                        .messages
                        .iter()
                        .find(|(k, _)| k == "msg.hello")
                        .map(|(_, v)| *v)
                        .unwrap_or(0),
                    max_state: r.max_state,
                    mean_state: r.mean_state,
                }
            }
            mode => {
                let vmode = if mode == "vrr-linearized" {
                    VrrMode::Linearized
                } else {
                    VrrMode::Baseline
                };
                // non-convergent VRR runs burn their whole budget at
                // high message rates; cap it so the sweep stays
                // tractable (convergent runs finish far earlier)
                let budget = if vmode == VrrMode::Baseline {
                    30_000
                } else {
                    60_000
                };
                let (r, _) =
                    run_vrr_bootstrap(&g, &labels, vmode, LinkConfig::ideal(), seed, budget);
                Row {
                    converged: r.converged,
                    ticks: r.ticks,
                    msgs: r.total_messages,
                    hello: r
                        .messages
                        .iter()
                        .find(|(k, _)| k == "msg.hello")
                        .map(|(_, v)| *v)
                        .unwrap_or(0),
                    max_state: r.max_state,
                    mean_state: r.mean_state,
                }
            }
        }
    });

    let mut table = Table::new(
        "E10: linearized SSR vs linearized/baseline VRR (unit-disk)",
        &[
            "n",
            "system",
            "conv",
            "ticks (mean)",
            "msgs (mean)",
            "hello msgs",
            "state max",
            "state mean",
        ],
    );
    let mut sweep_means: Vec<(String, Value)> = Vec::new();

    for (system, n, rows) in sweep.cells() {
        let runs = rows.len();
        let conv = rows.iter().filter(|r| r.converged).count();
        let ticks = summarize_counts(rows.iter().filter(|r| r.converged).map(|r| r.ticks));
        let msgs = summarize_counts(rows.iter().map(|r| r.msgs));
        let hello = summarize_counts(rows.iter().map(|r| r.hello));
        let max_state = rows.iter().map(|r| r.max_state).max().unwrap_or(0);
        let mean_state: f64 =
            rows.iter().map(|r| r.mean_state).sum::<f64>() / rows.len().max(1) as f64;
        sweep_means.push((
            format!("{system}/n={n}"),
            Value::Obj(vec![
                ("converged".into(), (conv as u64).into()),
                ("ticks_mean".into(), ticks.mean.into()),
                ("msgs_mean".into(), msgs.mean.into()),
                ("hello_mean".into(), hello.mean.into()),
                ("state_max".into(), (max_state as u64).into()),
                ("state_mean".into(), mean_state.into()),
            ]),
        ));
        table.row(&[
            n.to_string(),
            system.into(),
            format!("{conv}/{runs}"),
            format!("{:.0}", ticks.mean),
            fmt_count(msgs.mean as u64),
            fmt_count(hello.mean as u64),
            max_state.to_string(),
            format!("{mean_state:.1}"),
        ]);
    }

    table.print();
    println!("\nexpected shape: both linearized systems converge without flooding; the VRR");
    println!("baseline's hello volume dwarfs the others (beacons never stop); VRR's state");
    println!("exceeds SSR's because intermediate nodes hold path entries.");
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }

    // Manifest: one representative SSR run (first matrix seed, largest n)
    // for the full metric/timeline dump; the three-system sweep means ride
    // as extras.
    let rep_n = *matrix.sizes.last().unwrap();
    let rep_seed = matrix.seeds[0];
    man.config("timeline_n", rep_n);
    let (g, labels) = Topology::UnitDisk {
        n: rep_n,
        scale: 1.3,
    }
    .instance(rep_seed.wrapping_mul(53) ^ rep_n as u64);
    let cfg = BootstrapConfig {
        seed: rep_seed,
        max_ticks: 200_000,
        ..Default::default()
    };
    let (report, sim) = run_linearized_bootstrap(&g, &labels, &cfg);
    man.record_metrics(sim.metrics());
    ssr_bench::record_bootstrap_timeline(&mut man, &report.timeline);
    man.extra("sweep", Value::Obj(sweep_means));
    ssr_bench::emit_manifest(&mut man, started);
}
