//! **E1 — Figure 1: the loopy state.**
//!
//! The paper's Figure 1 shows a virtual ring over the addresses
//! {1, 4, 9, 13, 18, 21, 25, 29} that is *locally* consistent — every node
//! has exactly one successor and one predecessor — yet winds the address
//! space twice: 1 → 9 → 18 → 25 → 4 → 13 → 21 → 29 → 1. Read on the line
//! instead, the inconsistency becomes locally visible: nodes 1 and 4 have
//! two right neighbors, nodes 21 and 25 two left neighbors.
//!
//! This binary reproduces the figure operationally. The physical topology
//! *is* the doubly-wound cycle and the loopy pointers are injected as the
//! initial condition (the self-stabilization setting — each loopy successor
//! is the clockwise-closest physical neighbor, so the state is a genuine
//! flood-free fixpoint):
//!
//! 1. **ISPRP without the flood** — stays loopy forever (local consistency
//!    cannot detect the winding);
//! 2. **ISPRP with the representative flood** — detects and unwinds it;
//! 3. **linearized SSR** — resolves it with *zero* flood messages.
//!
//! This is a *narrative replay* of one fixed 8-node instance, not a sweep:
//! the three mechanism sections run serially in story order, so the
//! orchestrator's `--workers`/`--matrix` flags do not apply here (see
//! docs/SWEEPS.md for the sweep binaries).
//!
//! Run: `cargo run --release -p ssr-bench --bin fig1_loopy [-- --csv out.csv]`
//! Flags: `--trace-jsonl PATH` streams the ISPRP-with-flood run's event
//! trace to PATH as JSONL (one object per line; see `ssr_sim::trace`).

use std::collections::BTreeMap;

use ssr_bench::{Args, Flag, CSV};
use ssr_core::bootstrap::{
    isprp_shape, make_isprp_nodes, run_linearized_bootstrap, BootstrapConfig,
};
use ssr_core::chaos;
use ssr_core::consistency::{classify_succ_map, RingShape};
use ssr_core::isprp::IsprpConfig;
use ssr_graph::{Graph, Labeling};
use ssr_obs::Value;
use ssr_sim::{LinkConfig, Simulator, TraceSink};
use ssr_types::NodeId;
use ssr_workloads::Table;

/// Figure 1's addresses.
const IDS: [u64; 8] = [1, 4, 9, 13, 18, 21, 25, 29];

/// The figure's world: the doubly-wound successor map comes from the chaos
/// scenario library (`wound_ring_succ` with 2 windings reproduces exactly
/// the figure's order 1,9,18,25,4,13,21,29), and the physical cycle *is*
/// that loopy order — each loopy successor is the clockwise-closest
/// physical neighbor, so the state is a fixpoint of flood-free ISPRP.
fn loopy_world() -> (Graph, Labeling, BTreeMap<NodeId, NodeId>) {
    let ids: Vec<NodeId> = IDS.iter().map(|&i| NodeId(i)).collect();
    let succ = chaos::wound_ring_succ(&ids, 2);
    let labels = Labeling::from_ids(ids);
    let mut g = Graph::new(IDS.len());
    for (&a, &b) in &succ {
        g.add_edge(labels.index(a).unwrap(), labels.index(b).unwrap());
    }
    (g, labels, succ)
}

/// Injects the doubly-wound successor pointers.
fn inject_loopy(
    nodes: &mut [ssr_core::isprp::IsprpNode],
    labels: &Labeling,
    succ: &BTreeMap<NodeId, NodeId>,
) {
    for (&a, &b) in succ {
        let ia = labels.index(a).unwrap();
        nodes[ia].inject_succ(ssr_core::route::SourceRoute::direct(a, b));
    }
}

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[
    CSV,
    Flag::value("trace-jsonl", "PATH", "stream the run trace as JSONL"),
    Flag::switch("quick", "no effect: the figure is one fixed instance"),
];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse("fig1_loopy", "E1: Figure 1, the loopy state.", FLAGS);
    let (topo, labels, loopy_succ) = loopy_world();
    assert_eq!(
        classify_succ_map(&loopy_succ),
        RingShape::Loopy(2),
        "scenario library must reproduce the figure's double winding"
    );
    let mut man = ssr_bench::manifest(&args, "fig1_loopy");
    man.seed(1);

    println!("Figure 1 reproduction — the loopy state");
    println!("addresses: {IDS:?}");
    println!("physical cycle (= initial virtual ring): 1–9–18–25–4–13–21–29–1\n");

    let mut table = Table::new(
        "E1: resolving the loopy state",
        &[
            "mechanism",
            "converged",
            "final shape",
            "ticks",
            "flood msgs",
            "total msgs",
        ],
    );

    // -- ISPRP without flood ---------------------------------------------------
    // The loopy state is *injected* as the starting condition (the
    // self-stabilization setting: it may arise from a network merge or
    // stale state). Injection must precede the first protocol action —
    // otherwise transient hello-phase claims can leak cross-winding
    // knowledge through redirects and dissolve the loop by accident.
    {
        let cfg = IsprpConfig {
            enable_flood: false,
            ..IsprpConfig::default()
        };
        let mut nodes = make_isprp_nodes(&labels, cfg);
        inject_loopy(&mut nodes, &labels, &loopy_succ);
        let mut sim = Simulator::new(topo.clone(), nodes, LinkConfig::ideal(), 1);
        sim.run_until(ssr_sim::Time(5_000));
        let shape = isprp_shape(sim.protocols());
        let succ: std::collections::BTreeMap<NodeId, NodeId> = sim
            .protocols()
            .iter()
            .filter_map(|p| p.succ().map(|s| (p.id(), s)))
            .collect();
        println!("ISPRP (no flood) successor pointers after 5000 ticks:");
        for (a, b) in &succ {
            println!("  {a} → {b}");
        }
        println!(
            "  shape: {:?}  (locally consistent, globally loopy)\n",
            shape
        );
        assert_eq!(
            classify_succ_map(&succ),
            RingShape::Loopy(2),
            "expected the doubly-wound ring to persist"
        );
        table.row(&[
            "ISPRP, no flood".into(),
            "no".into(),
            format!("{shape:?}"),
            "5000+".into(),
            sim.metrics().counter("msg.flood").to_string(),
            sim.metrics().counter("tx.total").to_string(),
        ]);
        man.extra(
            "isprp_no_flood_tx",
            sim.metrics().counter("tx.total").into(),
        );
        man.extra("isprp_no_flood_shape", Value::Str(shape.label()));
    }

    // -- ISPRP with flood (same injected loopy start) ----------------------------
    {
        let cfg = IsprpConfig::default();
        let mut nodes = make_isprp_nodes(&labels, cfg);
        inject_loopy(&mut nodes, &labels, &loopy_succ);
        let sink = match args.opt("trace-jsonl") {
            Some(path) => {
                man.config("trace-jsonl", path);
                TraceSink::jsonl_file(path).expect("open trace file")
            }
            None => TraceSink::disabled(),
        };
        let mut sim =
            Simulator::with_trace(topo.clone(), nodes, LinkConfig::ideal(), 1, sink.clone());
        let outcome = sim.run_until_stable(8, 20_000, |nodes, _| {
            isprp_shape(nodes) == RingShape::ConsistentRing
        });
        let shape = isprp_shape(sim.protocols());
        println!(
            "ISPRP (with flood): {shape:?} at t={} (flood msgs: {})",
            outcome.time().ticks(),
            sim.metrics().counter("msg.flood")
        );
        assert_eq!(shape, RingShape::ConsistentRing);
        table.row(&[
            "ISPRP + flood".into(),
            "yes".into(),
            format!("{shape:?}"),
            outcome.time().ticks().to_string(),
            sim.metrics().counter("msg.flood").to_string(),
            sim.metrics().counter("tx.total").to_string(),
        ]);
        man.extra("isprp_flood_tx", sim.metrics().counter("tx.total").into());
        man.extra(
            "isprp_flood_msgs",
            sim.metrics().counter("msg.flood").into(),
        );
        man.extra("isprp_flood_ticks", outcome.time().ticks().into());
        sink.flush().expect("flush trace");
        if let Some(path) = args.opt("trace-jsonl") {
            println!("({} trace events streamed to {path})", sink.len());
        }
    }

    // -- linearized SSR -----------------------------------------------------------
    {
        let cfg = BootstrapConfig {
            max_ticks: 20_000,
            ..Default::default()
        };
        let (report, sim) = run_linearized_bootstrap(&topo, &labels, &cfg);
        println!(
            "linearized SSR: converged={} at t={} with zero floods",
            report.converged, report.ticks
        );
        println!("final ring (successor walk from node 1):");
        let mut cur = NodeId(1);
        for _ in 0..8 {
            let node = sim.protocols().iter().find(|p| p.id() == cur).unwrap();
            let next = node.ring_succ().unwrap();
            println!("  {cur} → {next}");
            cur = next;
        }
        assert!(report.converged);
        assert_eq!(
            report.messages.iter().find(|(k, _)| k == "msg.flood"),
            None,
            "the linearized bootstrap must not flood"
        );
        table.row(&[
            "linearized SSR".into(),
            "yes".into(),
            format!("{:?}", report.consistency.shape),
            report.ticks.to_string(),
            "0".into(),
            report.total_messages.to_string(),
        ]);
        // the manifest's full metrics + timeline come from the paper's
        // mechanism (the linearized run); the baselines are extras above
        man.record_metrics(sim.metrics());
        ssr_bench::record_bootstrap_timeline(&mut man, &report.timeline);
        man.extra("linearized_tx", report.total_messages.into());
        man.extra("linearized_ticks", report.ticks.into());
    }

    println!();
    table.print();
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }
    ssr_bench::emit_manifest(&mut man, started);
}
