//! **E3 — Figure 3: the linearization algorithm at work.**
//!
//! The paper's Figure 3 walks the running example through linearization
//! rounds until the sorted line emerges. This binary replays that process
//! with the abstract round engine on the Figure-1 example (the doubly-wound
//! ring over eight addresses), printing the full virtual edge set and each
//! node's left/right neighbor sets per round, for all three variants.
//!
//! This is a pure narrative replay of one fixed 8-node instance — it runs
//! serially and the orchestrator's `--workers`/`--matrix` flags do not
//! apply (see docs/SWEEPS.md for the sweep binaries).
//!
//! Run: `cargo run --release -p ssr-bench --bin fig3_trace [-- --variant pure|memory|lsn]`

use ssr_bench::{Args, Flag};
use ssr_graph::Graph;
use ssr_linearize::{chain_edges_present, is_exact_chain, run, step_round, Semantics, Variant};
use ssr_obs::Value;

/// The Figure-1 example in rank space: ranks 0..8 stand for addresses
/// 1, 4, 9, 13, 18, 21, 25, 29; the initial virtual graph is the doubly
/// wound ring 0–2–4–6–1–3–5–7–0.
fn example() -> (Graph, [u64; 8]) {
    let order = [0usize, 2, 4, 6, 1, 3, 5, 7];
    let mut g = Graph::new(8);
    for i in 0..8 {
        g.add_edge(order[i], order[(i + 1) % 8]);
    }
    (g, [1, 4, 9, 13, 18, 21, 25, 29])
}

fn show(g: &Graph, ids: &[u64; 8]) {
    let edges: Vec<String> = g
        .edges()
        .map(|(u, v)| format!("{}–{}", ids[u], ids[v]))
        .collect();
    println!("  edges: {}", edges.join(", "));
    for v in 0..8 {
        let left: Vec<u64> = g.neighbors(v).filter(|&u| u < v).map(|u| ids[u]).collect();
        let right: Vec<u64> = g.neighbors(v).filter(|&u| u > v).map(|u| ids[u]).collect();
        println!("    node {:>2}: left {:?} right {:?}", ids[v], left, right);
    }
}

/// The flags this binary reads (`--help` lists them).
const FLAGS: &[Flag] = &[
    Flag::value(
        "variant",
        "pure|memory|lsn",
        "linearization variant to trace (default pure)",
    ),
    Flag::switch("quick", "no effect: the figure is one fixed instance"),
];

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(
        "fig3_trace",
        "E3: Figure 3, the linearization algorithm at work.",
        FLAGS,
    );
    let variant = match args.opt("variant").unwrap_or("pure") {
        "pure" => Variant::Pure,
        "memory" => Variant::Memory,
        "lsn" => Variant::lsn(),
        other => panic!("unknown variant {other}"),
    };
    let (g0, ids) = example();

    println!(
        "Figure 3 reproduction — linearization at work ({})",
        variant.name()
    );
    println!("initial virtual graph (the loopy state, drawn as edges):");
    show(&g0, &ids);

    let mut g = g0.clone();
    let mut round = 0;
    while !chain_edges_present(&g) || (matches!(variant, Variant::Pure) && !is_exact_chain(&g)) {
        round += 1;
        g = step_round(&g, variant, Semantics::Star);
        println!("\nafter round {round}:");
        show(&g, &ids);
        if round > 100 {
            println!("(stopping at 100 rounds)");
            break;
        }
    }
    println!(
        "\nline formed after {round} round(s); exact chain: {}",
        is_exact_chain(&g)
    );

    // summary across variants for the same example
    let mut man = ssr_bench::manifest(&args, "fig3_trace");
    man.config("variant", variant.name());
    println!("\nrounds to the line, by variant (star semantics):");
    let mut by_variant: Vec<(String, Value)> = Vec::new();
    for v in [Variant::Pure, Variant::Memory, Variant::lsn()] {
        let r = run(&g0, v, Semantics::Star, 1000);
        println!(
            "  {:<6}: line at round {:?}, exact chain at {:?}, peak degree {}",
            v.name(),
            r.line_at,
            r.exact_at,
            r.peak_degree()
        );
        by_variant.push((
            v.name().to_string(),
            Value::Obj(vec![
                (
                    "line_at".into(),
                    r.line_at
                        .map(|x| Value::from(x as u64))
                        .unwrap_or(Value::Null),
                ),
                (
                    "exact_at".into(),
                    r.exact_at
                        .map(|x| Value::from(x as u64))
                        .unwrap_or(Value::Null),
                ),
                ("peak_degree".into(), (r.peak_degree() as u64).into()),
            ]),
        ));
    }

    // Manifest: the traced variant's per-round timeline plus the summary.
    let traced = run(&g0, variant, Semantics::Star, 1000);
    for rs in &traced.rounds {
        let formed = traced.line_at.is_some_and(|at| rs.round >= at);
        man.timeline_point(ssr_obs::TimelinePoint {
            tick: rs.round as u64,
            shape: if formed { "line" } else { "line-forming" }.to_string(),
            locally_consistent: (8usize.saturating_sub(rs.missing_chain)) as u64,
            nodes: 8,
            churn: (rs.added + rs.removed) as u64,
        });
    }
    man.extra("by_variant", Value::Obj(by_variant));
    ssr_bench::emit_manifest(&mut man, started);
}
