//! Fuzz tests for the two text inputs a user hands the CLI: Datalog
//! source (`parse_program`) and delimited EDB files (the loader). Inputs
//! are arbitrary bytes, decoded lossily as UTF-8, plus bytes drawn mostly
//! from each grammar's own alphabet so the generator reaches deep parser
//! and loader states. Neither may panic: every malformed input must come
//! back as a typed `DcdError`. Loaded rows then go through a full run,
//! which must refuse ragged rows with an error, and the two-column ones
//! through a second run, so odd values (NaN, infinities, `-0.0`,
//! full-width integers) reach the seal, the merge and the exchange too.
//!
//! The harness seed is fixed (`dcd_common::proptest`'s default), so every
//! run replays the same cases; inputs found by earlier runs are pinned in
//! `regressions_do_not_panic`.

use dcd_cli::loader::load_str;
use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_frontend::parser::parse_program;
use dcdatalog::{queries, Engine, EngineConfig, Program, Tuple};

/// Bytes that make up Datalog source: identifiers, punctuation, numbers,
/// aggregates and comments.
const DATALOG: &[u8] = b"tcarXYZ_01239(),.<-=!<>+-*/% \n\t#minaxsuoct'\"@.";

/// Bytes that make up EDB files: digits, signs, exponents, separators,
/// comment markers and the letters of `nan`/`inf`.
const EDB: &[u8] = b"0123456789-+.eE, \t\n#%naifNAIF";

/// Up to `max` arbitrary bytes, decoded lossily.
fn bytes(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Up to `max` bytes, each drawn from `alphabet` or, one time in four,
/// from all 256 values.
fn text(alphabet: &'static [u8], max: usize) -> impl Strategy<Value = String> {
    let byte = prop_oneof![
        3 => (0..alphabet.len()).prop_map(move |i| alphabet[i]),
        1 => any::<u8>(),
    ];
    proptest::collection::vec(byte, 0..max).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Parses `src` through the parser and the full frontend; only a panic
/// fails.
fn parse_never_panics(src: &str) {
    let _ = parse_program(src);
    let _ = Program::parse(src);
}

/// Loads `content` as `tc`'s `arc` relation (a run over ragged rows must
/// fail with an error), then evaluates the program over its two-column
/// rows; only a panic fails.
fn load_never_panics(content: &str) {
    let Ok(rows) = load_str(content, "fuzz") else {
        return;
    };
    let cfg = EngineConfig::with_workers(2);
    let mut engine = Engine::new(queries::tc().unwrap(), cfg).unwrap();
    let pairs: Vec<Tuple> = rows.iter().filter(|t| t.arity() == 2).cloned().collect();
    let ragged = pairs.len() < rows.len();
    engine.load_edb("arc", rows).unwrap();
    assert_eq!(engine.run().is_err(), ragged);
    engine.load_edb("arc", pairs).unwrap();
    engine.run().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_never_panics_on_datalog_like_bytes(src in text(DATALOG, 160)) {
        parse_never_panics(&src);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(src in bytes(160)) {
        parse_never_panics(&src);
    }

    #[test]
    fn loader_never_panics_on_edb_like_bytes(content in text(EDB, 120)) {
        load_never_panics(&content);
    }

    #[test]
    fn loader_never_panics_on_arbitrary_bytes(content in bytes(120)) {
        load_never_panics(&content);
    }
}

#[test]
fn regressions_do_not_panic() {
    let sources = [
        "",
        "(",
        "tc(X) <-",
        "tc(X, min<Y>) <- .",
        "a(1) <- b(X), X = 1 / 0.",
    ];
    for src in sources {
        parse_never_panics(src);
    }
    let files = [
        "1 2 3\n1 2\n",
        "nan inf\n-0 0\n",
        "9223372036854775807 -9223372036854775808\n",
    ];
    for content in files {
        load_never_panics(content);
    }
}
