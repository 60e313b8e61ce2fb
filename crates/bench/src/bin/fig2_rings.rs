//! **E2 — Figure 2: separate rings.**
//!
//! The paper's Figure 2 shows nodes {1, 9, 18} and {4, 13, 21} forming two
//! *disjoint* virtual rings — a second class of global inconsistency that
//! local ring maintenance cannot detect: every node has exactly one
//! successor and one predecessor, all claims are locally consistent, yet
//! the virtual graph is partitioned even though the physical network is
//! connected.
//!
//! Construction: two physical triangles bridged by the single link 18–4
//! (chosen so that *neither* bridge endpoint sees a better successor across
//! the bridge — the disjoint rings are then a genuine fixpoint of
//! flood-free ISPRP). The two-ring state is injected, then:
//!
//! 1. **ISPRP without flood** — the two rings persist forever;
//! 2. **ISPRP with flood** — the representative (21) floods, ring A's
//!    members claim toward it, and the rings merge;
//! 3. **linearized SSR** — merges them with zero floods: linearization
//!    "preserves the connectedness of the input graph", so a connected
//!    physical network can never stay partitioned.
//!
//! This is a *narrative replay* of one fixed 6-node instance, not a sweep:
//! the three mechanism sections run serially in story order, so the
//! orchestrator's `--workers`/`--matrix` flags do not apply here (see
//! docs/SWEEPS.md for the sweep binaries).
//!
//! Run: `cargo run --release -p ssr-bench --bin fig2_rings [-- --csv out.csv]`

use std::collections::BTreeMap;

use ssr_bench::{Args, Flag, CSV};
use ssr_core::bootstrap::{
    isprp_shape, make_isprp_nodes, run_linearized_bootstrap, BootstrapConfig,
};
use ssr_core::chaos;
use ssr_core::consistency::{classify_succ_map, RingShape};
use ssr_core::isprp::IsprpConfig;
use ssr_core::route::SourceRoute;
use ssr_graph::{Graph, Labeling};
use ssr_obs::Value;
use ssr_sim::{LinkConfig, Simulator};
use ssr_types::NodeId;
use ssr_workloads::Table;

/// Figure 2's addresses: ring A = {1, 9, 18}, ring B = {4, 13, 21}.
const IDS: [u64; 6] = [1, 9, 18, 4, 13, 21];

/// The figure's world. The two-ring successor map comes from the chaos
/// scenario library: `split_rings_succ` with 2 parts closes each
/// interleaved residue class of the sorted addresses on itself, which is
/// exactly the figure's rings 1→9→18→1 and 4→13→21→4. The physical
/// topology mirrors them as two triangles plus the single bridge 18–4
/// (chosen so neither bridge endpoint sees a better successor across it —
/// the disjoint rings are a genuine fixpoint of flood-free ISPRP).
fn world() -> (Graph, Labeling, BTreeMap<NodeId, NodeId>) {
    let ids: Vec<NodeId> = IDS.iter().map(|&i| NodeId(i)).collect();
    let succ = chaos::split_rings_succ(&ids, 2);
    let labels = Labeling::from_ids(ids);
    let mut g = Graph::new(IDS.len());
    // each ring's edges are physical triangle links
    for (&a, &b) in &succ {
        g.add_edge(labels.index(a).unwrap(), labels.index(b).unwrap());
    }
    // the bridge 18–4 (see above for why this pair)
    g.add_edge(
        labels.index(NodeId(18)).unwrap(),
        labels.index(NodeId(4)).unwrap(),
    );
    (g, labels, succ)
}

/// Injects the two disjoint virtual rings into freshly initialized ISPRP
/// nodes (routes are the triangle links).
fn inject_two_rings(
    sim: &mut Simulator<ssr_core::isprp::IsprpNode>,
    labels: &Labeling,
    succ: &BTreeMap<NodeId, NodeId>,
) {
    for (&a, &b) in succ {
        let ia = labels.index(a).unwrap();
        sim.protocol_mut(ia).inject_succ(SourceRoute::direct(a, b));
    }
}

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[
    CSV,
    Flag::switch("quick", "no effect: the figure is one fixed instance"),
];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse("fig2_rings", "E2: Figure 2, separate rings.", FLAGS);
    let (topo, labels, ring_succ) = world();
    assert_eq!(
        classify_succ_map(&ring_succ),
        RingShape::Partitioned(2),
        "scenario library must reproduce the figure's two rings"
    );
    let mut man = ssr_bench::manifest(&args, "fig2_rings");
    man.seed(1);

    println!("Figure 2 reproduction — separate rings over a connected physical network");
    println!("ring A: 1→9→18→1   ring B: 4→13→21→4   bridge: 18–4\n");

    let mut table = Table::new(
        "E2: merging separate rings",
        &[
            "mechanism",
            "converged",
            "final shape",
            "ticks",
            "flood msgs",
            "total msgs",
        ],
    );

    // -- ISPRP without flood -------------------------------------------------------
    {
        let cfg = IsprpConfig {
            enable_flood: false,
            ..IsprpConfig::default()
        };
        let nodes = make_isprp_nodes(&labels, cfg);
        let mut sim = Simulator::new(topo.clone(), nodes, LinkConfig::ideal(), 1);
        inject_two_rings(&mut sim, &labels, &ring_succ);
        sim.run_until(ssr_sim::Time(5_000));
        let shape = isprp_shape(sim.protocols());
        println!("ISPRP (no flood) after 5000 ticks: {shape:?}");
        for p in sim.protocols() {
            println!("  {} → {:?}", p.id(), p.succ());
        }
        println!();
        assert_eq!(
            shape,
            RingShape::Partitioned(2),
            "expected the two rings to persist"
        );
        man.extra(
            "isprp_no_flood_tx",
            sim.metrics().counter("tx.total").into(),
        );
        man.extra("isprp_no_flood_shape", Value::Str(shape.label()));
        table.row(&[
            "ISPRP, no flood".into(),
            "no".into(),
            format!("{shape:?}"),
            "5000+".into(),
            sim.metrics().counter("msg.flood").to_string(),
            sim.metrics().counter("tx.total").to_string(),
        ]);
    }

    // -- ISPRP with flood --------------------------------------------------------------
    {
        let cfg = IsprpConfig::default();
        let nodes = make_isprp_nodes(&labels, cfg);
        let mut sim = Simulator::new(topo.clone(), nodes, LinkConfig::ideal(), 1);
        inject_two_rings(&mut sim, &labels, &ring_succ);
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
        man.extra("isprp_flood_tx", sim.metrics().counter("tx.total").into());
        man.extra(
            "isprp_flood_msgs",
            sim.metrics().counter("msg.flood").into(),
        );
        man.extra("isprp_flood_ticks", outcome.time().ticks().into());
        table.row(&[
            "ISPRP + flood".into(),
            "yes".into(),
            format!("{shape:?}"),
            outcome.time().ticks().to_string(),
            sim.metrics().counter("msg.flood").to_string(),
            sim.metrics().counter("tx.total").to_string(),
        ]);
    }

    // -- linearized SSR -------------------------------------------------------------------
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
        for _ in 0..6 {
            let node = sim.protocols().iter().find(|p| p.id() == cur).unwrap();
            let next = node.ring_succ().unwrap();
            println!("  {cur} → {next}");
            cur = next;
        }
        assert!(report.converged);
        assert_eq!(report.messages.iter().find(|(k, _)| k == "msg.flood"), None);
        man.record_metrics(sim.metrics());
        ssr_bench::record_bootstrap_timeline(&mut man, &report.timeline);
        man.extra("linearized_tx", report.total_messages.into());
        man.extra("linearized_ticks", report.ticks.into());
        table.row(&[
            "linearized SSR".into(),
            "yes".into(),
            format!("{:?}", report.consistency.shape),
            report.ticks.to_string(),
            "0".into(),
            report.total_messages.to_string(),
        ]);
    }

    println!();
    table.print();
    if let Some(path) = args.csv() {
        table.to_csv(path).expect("csv");
        println!("(csv written to {path})");
    }
    ssr_bench::emit_manifest(&mut man, started);
}
