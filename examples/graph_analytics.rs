//! Graph analytics on a generated social-network-like graph: connected
//! components, single-source shortest paths and PageRank — the three
//! graph workloads of the paper's evaluation — in one session.
//!
//! ```text
//! cargo run --release --example graph_analytics [scale-divisor]
//! ```

use dcdatalog_repro::datagen;
use dcdatalog_repro::engine::{queries, Engine, EngineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let edges = datagen::livejournal_like(scale, 42);
    let nv = datagen::vertex_count(&edges);
    println!(
        "graph: {} vertices, {} edges (LiveJournal-like / {scale})",
        nv,
        edges.len()
    );

    // Connected components (min-label propagation; undirected).
    let mut engine = Engine::new(queries::cc()?, EngineConfig::default())?;
    engine.load_edges("arc", &datagen::symmetrize(&edges))?;
    let t = std::time::Instant::now();
    let cc = engine.run()?;
    let mut labels: Vec<i64> = cc
        .relation("cc")
        .iter()
        .map(|r| r.values()[1].expect_int())
        .collect();
    labels.sort_unstable();
    labels.dedup();
    println!(
        "CC: {} components in {:?} ({} local iterations)",
        labels.len(),
        t.elapsed(),
        cc.stats.report.total(|w| w.iterations)
    );

    // Single-source shortest paths over random weights.
    let weighted = datagen::weighted(&edges, 100, 42);
    let source = weighted[0].0;
    let mut engine = Engine::new(queries::sssp(source)?, EngineConfig::default())?;
    engine.load_weighted_edges("warc", &weighted)?;
    let t = std::time::Instant::now();
    let sp = engine.run()?;
    println!(
        "SSSP from {source}: reached {} vertices in {:?}",
        sp.relation("results").len(),
        t.elapsed()
    );

    // PageRank with damping 0.85 (sum aggregate in recursion).
    let cfg = EngineConfig {
        sum_epsilon: 1e-7,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(queries::pagerank(0.85, nv)?, cfg)?;
    engine.load_edb("matrix", datagen::pagerank_matrix(&edges))?;
    let t = std::time::Instant::now();
    let pr = engine.run()?;
    let mut ranks: Vec<(f64, i64)> = pr
        .relation("results")
        .iter()
        .map(|r| (r.values()[1].as_f64(), r.values()[0].expect_int()))
        .collect();
    ranks.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("PageRank converged in {:?}; top 5:", t.elapsed());
    for (rank, v) in ranks.iter().take(5) {
        println!("  vertex {v}: {rank:.6}");
    }
    Ok(())
}
