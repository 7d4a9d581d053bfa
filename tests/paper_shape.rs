//! Shape checks against the paper's claims, at test-sized scale: these
//! assert the *relative* behaviours the paper reports (who wins, what
//! grows), not absolute seconds.

use dcdatalog_repro::datagen;
use dcdatalog_repro::engine::{queries, Engine, EngineConfig, Strategy, Tuple};
use dcdatalog_repro::runtime::simulator::{
    figure3_workload, simulate, SimConfig, SimStrategy, SimWorkload,
};

/// Figure 3: DWS ≺ SSP ≺ Global on the worked example, with DWS roughly
/// halving Global (paper: 67 vs 128 units).
#[test]
fn fig3_schedule_ordering() {
    let w = figure3_workload();
    let cfg = SimConfig::default();
    let g = simulate(&w, &cfg, SimStrategy::Global).makespan;
    let s = simulate(&w, &cfg, SimStrategy::Ssp(1)).makespan;
    let d = simulate(&w, &cfg, SimStrategy::Dws { omega: 4, tau: 3 }).makespan;
    assert!(
        d < s && s < g,
        "expected DWS < SSP < Global, got {d}/{s}/{g}"
    );
    let ratio = d as f64 / g as f64;
    let paper = 67.0 / 128.0;
    assert!(
        (ratio - paper).abs() < 0.15,
        "DWS/Global {ratio:.2} should be near the paper's {paper:.2}"
    );
}

/// Figure 8 shape (simulated, 32 workers, realistic cost model): DWS best,
/// Global worst.
#[test]
fn fig8_strategy_ordering_at_32_workers() {
    let edges: Vec<(u64, u64)> = datagen::livejournal_like(20_000, 0xDC_DA7A ^ 0x11)
        .iter()
        .map(|&(a, b)| (a as u64, b as u64))
        .collect();
    let cfg = SimConfig::realistic();
    let w = |n| SimWorkload::cc_partitioned(&edges, n);
    let g = simulate(&w(32), &cfg, SimStrategy::Global).makespan;
    let s = simulate(&w(32), &cfg, SimStrategy::Ssp(5)).makespan;
    let d = simulate(&w(32), &cfg, SimStrategy::DwsAuto).makespan;
    assert!(d < g, "DWS ({d}) must beat Global ({g})");
    assert!(s < g, "SSP ({s}) must beat Global ({g})");
    assert!(d <= s, "DWS ({d}) must be at least as good as SSP ({s})");
}

/// Figure 9(a) shape: simulated makespan shrinks with workers.
#[test]
fn fig9a_worker_scaling_shape() {
    let edges: Vec<(u64, u64)> = datagen::livejournal_like(20_000, 1)
        .iter()
        .map(|&(a, b)| (a as u64, b as u64))
        .collect();
    let cfg = SimConfig::default();
    let mut prev = u64::MAX;
    for n in [1usize, 4, 16] {
        let m = simulate(
            &SimWorkload::cc_partitioned(&edges, n),
            &cfg,
            SimStrategy::DwsAuto,
        )
        .makespan;
        assert!(m < prev, "{n} workers: {m} should beat {prev}");
        prev = m;
    }
}

/// Figure 9(b) shape: evaluation work grows roughly linearly with data.
/// Work is counted (delta rows through the Iterate kernel on one worker
/// under `Global`, which is schedule-independent), not timed; timing
/// shapes live in the `repro` binary and the benchmark.
#[test]
fn fig9b_data_scaling_shape() {
    let mut work = Vec::new();
    for n in [2_000usize, 4_000, 8_000] {
        let edges = datagen::symmetrize(&datagen::rmat(n, 5));
        let cfg = EngineConfig::with_workers(1).strategy(Strategy::Global);
        let mut e = Engine::new(queries::cc().unwrap(), cfg).unwrap();
        e.load_edges("arc", &edges).unwrap();
        let rep = e.run().unwrap().stats.report;
        work.push(rep.total(|w| w.kernel_rows) as f64);
    }
    // Doubling the data should roughly double the work (paper: time
    // proportional to size); at these sizes the ratios are about 1.97.
    for w in work.windows(2) {
        let ratio = w[1] / w[0];
        assert!(
            (1.5..3.0).contains(&ratio),
            "doubling data changed kernel rows by {ratio:.2} ({work:?})"
        );
    }
}

/// Table 3 shape: broadcast routing exchanges strictly more tuples than
/// two-partition routing on the non-linear APSP. Under `Global` every
/// round drains exactly the previous round's sends, so the counts do not
/// depend on the thread schedule.
#[test]
fn tab3_broadcast_exchanges_more() {
    for n in [32usize, 64] {
        let edges = datagen::weighted(&datagen::rmat(n, 3), 50, 3);
        let rows: Vec<Tuple> = edges
            .iter()
            .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
            .collect();
        let sent = |broadcast_routing: bool| {
            let cfg = EngineConfig {
                broadcast_routing,
                ..EngineConfig::with_workers(4).strategy(Strategy::Global)
            };
            let mut e = Engine::new(queries::apsp().unwrap(), cfg).unwrap();
            e.load_edb("warc", rows.clone()).unwrap();
            e.run().unwrap().stats.report.total(|w| w.tuples_sent)
        };
        let (routed_sent, bcast_sent) = (sent(false), sent(true));
        assert!(
            bcast_sent > routed_sent,
            "n={n}: broadcast {bcast_sent} ≤ routed {routed_sent}"
        );
    }
}

/// Table 4 shape: disabling the §6.2 optimizations removes Distribute's
/// sent-filter without changing results. The filter's hit count is the
/// exchange work the ablation gives up; timing shapes live in `repro`.
///
/// Both facts hold on any schedule. The fan 0 → {1..=5} → 6 derives
/// tc(0, 6) once per middle vertex, all in the same round. Each
/// derivation happens on the worker that owns its delta row, and five
/// middles over at most four workers put two on one worker. That worker
/// routes tc(0, 6) twice, so its filter hits.
#[test]
fn tab4_optimizations_speed_shape() {
    let mut edges = datagen::rmat(150, 7);
    let fan = |v: i64| 1_000 + v;
    for m in 1..=5 {
        edges.push((fan(0), fan(m)));
        edges.push((fan(m), fan(6)));
    }
    for workers in [2, 4] {
        let run = |optimized: bool| {
            let cfg = EngineConfig::with_workers(workers)
                .strategy(Strategy::Global)
                .optimizations(optimized);
            let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
            e.load_edges("arc", &edges).unwrap();
            let r = e.run().unwrap();
            (r.stats.report.total(|w| w.cache_hits), r.sorted("tc"))
        };
        let (hits_on, rows_on) = run(true);
        let (hits_off, rows_off) = run(false);
        assert_eq!(rows_on, rows_off, "x{workers}");
        assert_eq!(
            hits_off, 0,
            "x{workers}: w/o optimizations there is no filter"
        );
        assert!(
            hits_on > 0,
            "x{workers}: w/ optimizations the sent-filter must hit"
        );
    }
}
