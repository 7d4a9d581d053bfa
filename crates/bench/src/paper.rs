//! Paper-reported numbers (§7, Tables 2–4 and the figures), kept so the
//! `repro` binary can print measured-vs-paper columns and EXPERIMENTS.md
//! can check *shape* (who wins, by roughly what factor).
//!
//! The authors' testbed was a 32-core AMD Opteron server; absolute
//! seconds are not expected to transfer to this machine or to the scaled
//! datasets — ratios are what we compare.

/// One Table-2 row: DCDatalog vs the five baseline systems (seconds);
/// `None` = OOM/NS/TO in the paper.
pub struct Tab2Row {
    /// Query name.
    pub query: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// DCDatalog seconds.
    pub dcdatalog: f64,
    /// SociaLite seconds.
    pub socialite: Option<f64>,
    /// DeALS-MC seconds.
    pub deals_mc: Option<f64>,
    /// Souffle seconds.
    pub souffle: Option<f64>,
    /// RecStep seconds.
    pub recstep: Option<f64>,
    /// DDlog seconds.
    pub ddlog: Option<f64>,
}

/// Table 2 (selected rows; the full table is in the paper).
pub const TABLE2: &[Tab2Row] = &[
    Tab2Row {
        query: "SG",
        dataset: "Tree-11",
        dcdatalog: 40.37,
        socialite: Some(30687.42),
        deals_mc: Some(71.99),
        souffle: Some(1438.98),
        recstep: None,
        ddlog: None,
    },
    Tab2Row {
        query: "SG",
        dataset: "G-10K",
        dcdatalog: 15.95,
        socialite: Some(4762.25),
        deals_mc: Some(76.18),
        souffle: Some(194.09),
        recstep: Some(458.41),
        ddlog: Some(285.78),
    },
    Tab2Row {
        query: "SG",
        dataset: "RMAT-10K",
        dcdatalog: 12.02,
        socialite: Some(5013.76),
        deals_mc: Some(80.11),
        souffle: Some(143.46),
        recstep: Some(512.48),
        ddlog: Some(184.57),
    },
    Tab2Row {
        query: "SG",
        dataset: "RMAT-20K",
        dcdatalog: 54.33,
        socialite: Some(21048.49),
        deals_mc: Some(299.16),
        souffle: Some(664.65),
        recstep: Some(2378.16),
        ddlog: Some(728.15),
    },
    Tab2Row {
        query: "SG",
        dataset: "RMAT-40K",
        dcdatalog: 231.56,
        socialite: None,
        deals_mc: Some(1358.42),
        souffle: Some(2879.03),
        recstep: None,
        ddlog: None,
    },
    Tab2Row {
        query: "Delivery",
        dataset: "N-40M",
        dcdatalog: 3.27,
        socialite: Some(233.71),
        deals_mc: None,
        souffle: Some(88.06),
        recstep: Some(40.26),
        ddlog: Some(163.03),
    },
    Tab2Row {
        query: "Delivery",
        dataset: "N-80M",
        dcdatalog: 5.07,
        socialite: Some(854.73),
        deals_mc: None,
        souffle: Some(167.67),
        recstep: Some(71.71),
        ddlog: Some(313.24),
    },
    Tab2Row {
        query: "Delivery",
        dataset: "N-160M",
        dcdatalog: 11.01,
        socialite: Some(2332.05),
        deals_mc: None,
        souffle: Some(369.81),
        recstep: Some(154.13),
        ddlog: Some(741.26),
    },
    Tab2Row {
        query: "Delivery",
        dataset: "N-300M",
        dcdatalog: 18.37,
        socialite: Some(8170.65),
        deals_mc: None,
        souffle: Some(729.52),
        recstep: Some(334.43),
        ddlog: None,
    },
    Tab2Row {
        query: "CC",
        dataset: "LiveJournal",
        dcdatalog: 8.44,
        socialite: Some(31.70),
        deals_mc: Some(319.88),
        souffle: None,
        recstep: Some(55.12),
        ddlog: Some(556.90),
    },
    Tab2Row {
        query: "CC",
        dataset: "Orkut",
        dcdatalog: 11.02,
        socialite: Some(40.91),
        deals_mc: Some(379.30),
        souffle: None,
        recstep: Some(49.41),
        ddlog: Some(942.60),
    },
    Tab2Row {
        query: "CC",
        dataset: "Arabic",
        dcdatalog: 50.31,
        socialite: Some(184.55),
        deals_mc: None,
        souffle: None,
        recstep: Some(495.54),
        ddlog: None,
    },
    Tab2Row {
        query: "CC",
        dataset: "Twitter",
        dcdatalog: 77.22,
        socialite: None,
        deals_mc: None,
        souffle: None,
        recstep: Some(637.51),
        ddlog: None,
    },
    Tab2Row {
        query: "SSSP",
        dataset: "LiveJournal",
        dcdatalog: 11.82,
        socialite: Some(42.36),
        deals_mc: Some(791.83),
        souffle: None,
        recstep: Some(212.50),
        ddlog: Some(891.49),
    },
    Tab2Row {
        query: "SSSP",
        dataset: "Orkut",
        dcdatalog: 8.60,
        socialite: Some(36.84),
        deals_mc: Some(361.71),
        souffle: None,
        recstep: Some(88.01),
        ddlog: Some(611.01),
    },
    Tab2Row {
        query: "SSSP",
        dataset: "Arabic",
        dcdatalog: 9.83,
        socialite: Some(61.69),
        deals_mc: None,
        souffle: None,
        recstep: Some(113.96),
        ddlog: None,
    },
    Tab2Row {
        query: "SSSP",
        dataset: "Twitter",
        dcdatalog: 23.79,
        socialite: None,
        deals_mc: None,
        souffle: None,
        recstep: Some(178.24),
        ddlog: None,
    },
    Tab2Row {
        query: "PageRank",
        dataset: "LiveJournal",
        dcdatalog: 112.29,
        socialite: Some(12339.52),
        deals_mc: None,
        souffle: None,
        recstep: None,
        ddlog: Some(2295.93),
    },
    Tab2Row {
        query: "PageRank",
        dataset: "Orkut",
        dcdatalog: 45.45,
        socialite: Some(4770.41),
        deals_mc: None,
        souffle: None,
        recstep: None,
        ddlog: Some(1672.18),
    },
    Tab2Row {
        query: "PageRank",
        dataset: "Arabic",
        dcdatalog: 202.81,
        socialite: None,
        deals_mc: None,
        souffle: None,
        recstep: None,
        ddlog: None,
    },
    Tab2Row {
        query: "PageRank",
        dataset: "Twitter",
        dcdatalog: 2008.95,
        socialite: None,
        deals_mc: None,
        souffle: None,
        recstep: None,
        ddlog: None,
    },
];

/// Table 3 — APSP: (dataset, DCDatalog, SociaLite, DDlog).
pub const TABLE3: &[(&str, f64, Option<f64>, Option<f64>)] = &[
    ("RMAT-256", 0.47, Some(68.69), Some(111.74)),
    ("RMAT-512", 1.35, Some(2517.42), Some(1560.47)),
    ("RMAT-1K", 5.99, None, None),
    ("RMAT-2K", 80.13, None, None),
    ("RMAT-4K", 317.02, None, None),
];

/// Table 4 — CC/SSSP seconds without/with the §6.2 optimizations:
/// (query, dataset, w/o, w/).
pub const TABLE4: &[(&str, &str, f64, f64)] = &[
    ("CC", "LiveJournal", 16.11, 8.44),
    ("CC", "Orkut", 25.41, 11.02),
    ("CC", "Arabic", 105.64, 50.31),
    ("CC", "Twitter", 224.81, 77.22),
    ("SSSP", "LiveJournal", 29.50, 11.82),
    ("SSSP", "Orkut", 23.03, 8.60),
    ("SSSP", "Arabic", 18.32, 9.83),
    ("SSSP", "Twitter", 58.03, 23.79),
];

/// Figure 8 — SSSP on LiveJournal under Global / SSP / DWS (seconds),
/// quoted in §7.3's text.
pub const FIG8_SSSP_LJ: (f64, f64, f64) = (131.68, 34.45, 11.82);

/// Figure 3 — the worked example's schedule lengths in abstract time
/// units under Global / SSP / DWS.
pub const FIG3_UNITS: (u64, u64, u64) = (128, 88, 67);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_dcdatalog_wins_every_reported_row() {
        for r in TABLE2 {
            for other in [r.socialite, r.deals_mc, r.souffle, r.recstep, r.ddlog]
                .into_iter()
                .flatten()
            {
                assert!(
                    r.dcdatalog < other,
                    "{} / {}: paper reports DCDatalog {} ≥ {}",
                    r.query,
                    r.dataset,
                    r.dcdatalog,
                    other
                );
            }
        }
    }
}
