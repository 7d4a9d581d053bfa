//! Pinned physical plans for the paper's queries and `programs/*.dl`.
//!
//! The planner decides, per rule variant, the join order, each step's
//! access path, where every constraint runs, the register layout, the
//! delta route and every relation's placement. A change to any of them
//! changes what the workers execute, so it must be deliberate. This test
//! hardcodes an FNV-1a digest of `format!("{:?}", plan)` for each of the
//! eight `queries::*` programs (fixed parameters) and for each program
//! under `programs/`.
//!
//! A planner refactor that keeps the plans must keep these digests. A
//! change that means to alter plans (typed registers with compiled
//! expressions, ROADMAP item 1; per-variant Δ×Δ stamps, item 2) updates
//! the constants below and says so in CHANGES.md.

use dcd_common::Value;
use dcd_frontend::physical::{plan, PlannerConfig};
use dcdatalog::{queries, Program};

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of the plan of `program` under `params`.
fn plan_digest(program: &Program, params: &[(&str, Value)]) -> u64 {
    let mut cfg = PlannerConfig::default();
    for (name, v) in params {
        cfg.params.insert(name.to_string(), *v);
    }
    let p = plan(program.analyzed(), &cfg).expect("plans");
    fnv1a(&format!("{p:?}"))
}

fn check(checks: &[(String, u64, u64)]) {
    let drifted: Vec<String> = checks
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, _)| format!("  {name}: {got:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "plan digests drifted; current values:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn query_plans_are_pinned() {
    let pin = |name: &str, prog: Program, params: &[(&str, Value)], want: u64| {
        (name.to_string(), plan_digest(&prog, params), want)
    };
    let alpha = ("alpha", Value::Float(0.85));
    let vnum = ("vnum", Value::Float(100.0));
    check(&[
        pin("tc", queries::tc().unwrap(), &[], PIN_TC),
        pin("cc", queries::cc().unwrap(), &[], PIN_CC),
        pin("apsp", queries::apsp().unwrap(), &[], PIN_APSP),
        pin(
            "attend",
            queries::attend(3).unwrap(),
            &[("threshold", Value::Int(3))],
            PIN_ATTEND,
        ),
        pin("sg", queries::sg().unwrap(), &[], PIN_SG),
        pin(
            "pagerank",
            queries::pagerank(0.85, 100).unwrap(),
            &[alpha, vnum],
            PIN_PAGERANK,
        ),
        pin(
            "sssp",
            queries::sssp(1).unwrap(),
            &[("start", Value::Int(1))],
            PIN_SSSP,
        ),
        pin("delivery", queries::delivery().unwrap(), &[], PIN_DELIVERY),
    ]);
}

#[test]
fn program_file_plans_are_pinned() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dl"))
        .collect();
    files.sort();
    let mut checks = Vec::new();
    for f in &files {
        let name = f.file_name().unwrap().to_string_lossy().to_string();
        let want = PROGRAM_PINS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .unwrap_or_else(|| panic!("programs/{name} has no pinned plan digest"));
        let prog = Program::parse(&std::fs::read_to_string(f).unwrap()).unwrap();
        let got = plan_digest(&prog, &[("start", Value::Int(1))]);
        checks.push((format!("programs/{name}"), got, want));
    }
    assert_eq!(checks.len(), PROGRAM_PINS.len(), "a pinned program is gone");
    check(&checks);
}

// Taken at the planner that compiled a separate logical plan first; the
// one-walk planner reproduces them byte for byte.
const PIN_TC: u64 = 0x6c6e_2aae_0b65_23f6;
const PIN_CC: u64 = 0x6ebd_8887_67f9_6695;
const PIN_APSP: u64 = 0x5890_ae5f_778c_4ddc;
const PIN_ATTEND: u64 = 0x63fe_bb8b_b5ad_2c02;
const PIN_SG: u64 = 0xe95c_d451_f1df_7c70;
const PIN_PAGERANK: u64 = 0xa88c_7eb3_7803_6829;
const PIN_SSSP: u64 = 0xb229_9c56_9365_73c3;
const PIN_DELIVERY: u64 = 0x2447_7d6a_9629_9e4a;

const PROGRAM_PINS: &[(&str, u64)] = &[
    ("apsp.dl", 0x5890_ae5f_778c_4ddc),
    ("cc.dl", 0x6ebd_8887_67f9_6695),
    ("delivery.dl", 0x2447_7d6a_9629_9e4a),
    ("sg.dl", 0xe95c_d451_f1df_7c70),
    ("sssp.dl", 0xb229_9c56_9365_73c3),
    ("tc.dl", 0x6c6e_2aae_0b65_23f6),
];
