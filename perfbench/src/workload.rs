//! The three benchmark workloads: which program runs over which generated
//! graph, and how each run's answer is checked.

use dcd_baselines::Reference;
use dcd_common::hash::{combine, mix64};
use dcdatalog::{queries, DcdError, Program, Result, Tuple, Value};

/// Workload names as the `--workload` flag takes them.
pub const NAMES: [&str; 3] = ["tc-rmat", "sssp-web", "apsp-rmat"];

/// Which query × dataset a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `queries::tc()` over `rmat(n)`: set relation, linear recursion.
    TcRmat,
    /// `queries::sssp(0)` over `weighted(livejournal_like(scale), 100)`:
    /// `min` inside recursion, many iterations with small deltas.
    SsspWeb,
    /// `queries::apsp()` over `weighted(rmat(n), 100)`: non-linear
    /// recursion with `min`, routed to two partitions.
    ApspRmat,
}

/// One sized, seeded workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Query × dataset.
    pub kind: Kind,
    /// `n` for the RMAT graphs, the scale divisor for the web graph.
    pub size: usize,
    /// Dataset seed; the engine sees only the generated tuples.
    pub seed: u64,
}

/// `(src, dst)` rows.
fn edge_tuples(edges: &[(i64, i64)]) -> Vec<Tuple> {
    edges
        .iter()
        .map(|&(a, b)| Tuple::from_ints(&[a, b]))
        .collect()
}

/// `(src, dst, weight)` rows with weights in `1..=100`.
fn weighted_tuples(edges: &[(i64, i64)], seed: u64) -> Vec<Tuple> {
    dcd_datagen::weighted(edges, 100, seed)
        .iter()
        .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
        .collect()
}

impl Workload {
    /// The named workload at its benchmark size.
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        let (kind, size) = match name {
            "tc-rmat" => (Kind::TcRmat, 512),
            "sssp-web" => (Kind::SsspWeb, 200),
            "apsp-rmat" => (Kind::ApspRmat, 128),
            _ => return None,
        };
        Some(Workload { kind, size, seed })
    }

    /// The same workload at another size (the tests' tiny runs).
    pub fn sized(self, size: usize) -> Workload {
        Workload { size, ..self }
    }

    /// The `--workload` name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::TcRmat => NAMES[0],
            Kind::SsspWeb => NAMES[1],
            Kind::ApspRmat => NAMES[2],
        }
    }

    /// Datalog source of the program.
    pub fn source(&self) -> &'static str {
        match self.kind {
            Kind::TcRmat => queries::TC,
            Kind::SsspWeb => queries::SSSP,
            Kind::ApspRmat => queries::APSP,
        }
    }

    /// Named parameters the program needs.
    pub fn params(&self) -> &'static [(&'static str, i64)] {
        match self.kind {
            Kind::SsspWeb => &[("start", 0)],
            Kind::TcRmat | Kind::ApspRmat => &[],
        }
    }

    /// `Program::parse` plus the parameter bindings — the frontend layer.
    pub fn program(&self) -> Result<Program> {
        let mut p = Program::parse(self.source())?;
        for &(name, v) in self.params() {
            p = p.with_param(name, v);
        }
        Ok(p)
    }

    /// The base relation the inputs load into.
    pub fn edb(&self) -> &'static str {
        match self.kind {
            Kind::TcRmat => "arc",
            Kind::SsspWeb | Kind::ApspRmat => "warc",
        }
    }

    /// The relation whose rows are the answer.
    pub fn result_rel(&self) -> &'static str {
        match self.kind {
            Kind::TcRmat => "tc",
            Kind::SsspWeb => "results",
            Kind::ApspRmat => "apsp",
        }
    }

    /// The recursive relation the store layer replays.
    pub fn recursive_rel(&self) -> &'static str {
        match self.kind {
            Kind::TcRmat => "tc",
            Kind::SsspWeb => "sp",
            Kind::ApspRmat => "path",
        }
    }

    /// Generates the base rows from the seed.
    pub fn inputs(&self) -> Vec<Tuple> {
        match self.kind {
            Kind::TcRmat => edge_tuples(&dcd_datagen::rmat(self.size, self.seed)),
            Kind::SsspWeb => weighted_tuples(
                &dcd_datagen::livejournal_like(self.size, self.seed),
                self.seed,
            ),
            Kind::ApspRmat => weighted_tuples(&dcd_datagen::rmat(self.size, self.seed), self.seed),
        }
    }

    /// The result relation as the reference interpreter computes it.
    pub fn reference_answer(&self, inputs: Vec<Tuple>) -> Result<Answer> {
        let mut r = Reference::new(self.source())?;
        for &(name, v) in self.params() {
            r = r.with_param(name, v);
        }
        r.load(self.edb(), inputs);
        let rels = r.run()?;
        let rows = rels
            .get(self.result_rel())
            .ok_or_else(|| DcdError::MissingRelation(self.result_rel().to_string()))?;
        Ok(Answer::of(rows))
    }

    /// The result relation as a 1-worker engine run computes it: the
    /// benchmark's oracle, because the reference interpreter takes minutes
    /// at benchmark sizes. The tests pin it to [`Self::reference_answer`]
    /// on the same generators at smaller sizes.
    pub fn engine_answer(&self, inputs: Vec<Tuple>) -> Result<Answer> {
        let mut e = dcdatalog::Engine::new(self.program()?, crate::measure::config(1, false))?;
        e.load_edb(self.edb(), inputs)?;
        Ok(Answer::of(e.run()?.relation(self.result_rel())))
    }
}

/// Row count plus an order-independent hash of a relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Number of rows.
    pub rows: usize,
    /// Wrapping sum of per-row hashes (independent of row order).
    pub hash: u64,
}

impl Answer {
    /// Summarizes `rows`.
    pub fn of(rows: &[Tuple]) -> Answer {
        let hash = rows
            .iter()
            .map(|t| {
                mix64(
                    t.values()
                        .iter()
                        .fold(t.arity() as u64, |h, v: &Value| combine(h, v.key_bits())),
                )
            })
            .fold(0u64, u64::wrapping_add);
        Answer {
            rows: rows.len(),
            hash,
        }
    }
}
