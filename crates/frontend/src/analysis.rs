//! Program analysis: catalog construction, the Predicate Connection Graph,
//! recursion detection (Tarjan SCC), stratification and safety checks.
//!
//! This is the first half of the paper's Query Processor (§3, §5): it turns
//! a parsed [`ProgramAst`] into an [`AnalyzedProgram`] whose strata are
//! ready for physical planning. Aggregates are allowed in
//! recursion (the whole point of DCDatalog); negation is not part of the
//! language (the paper leaves negation-in-recursion as an open problem).

use crate::ast::*;
use dcd_common::hash::FastMap;
use dcd_common::{DcdError, PredicateId, Result, Tuple, Value};
use std::collections::BTreeSet;

/// Aggregate specification for an IDB predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Index of the aggregate head term — always the last term (enforced).
    pub term_idx: usize,
}

/// Catalog entry for a predicate.
#[derive(Clone, Debug)]
pub struct PredInfo {
    /// Predicate name.
    pub name: String,
    /// Arity of the logical relation.
    pub arity: usize,
    /// Whether the predicate is extensional (loaded, never derived by a
    /// rule with a body).
    pub is_edb: bool,
    /// Aggregate spec if the predicate's rules aggregate.
    pub agg: Option<AggSpec>,
}

/// Name ↔ id catalog of every predicate in the program.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    preds: Vec<PredInfo>,
    by_name: FastMap<String, PredicateId>,
}

impl Catalog {
    /// Resolves a name.
    pub fn id(&self, name: &str) -> Option<PredicateId> {
        self.by_name.get(name).copied()
    }

    /// Info for `id`.
    pub fn info(&self, id: PredicateId) -> &PredInfo {
        &self.preds[id]
    }

    /// All predicates.
    pub fn iter(&self) -> impl Iterator<Item = (PredicateId, &PredInfo)> {
        self.preds.iter().enumerate()
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    fn intern(&mut self, name: &str, arity: usize) -> Result<PredicateId> {
        if let Some(&id) = self.by_name.get(name) {
            let known = self.preds[id].arity;
            if known != arity {
                return Err(DcdError::Analysis(format!(
                    "predicate '{name}' used with arity {arity} but previously {known}"
                )));
            }
            return Ok(id);
        }
        let id = self.preds.len();
        self.preds.push(PredInfo {
            name: name.to_string(),
            arity,
            is_edb: true, // flipped to false when seen in a rule head
            agg: None,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }
}

/// A rule annotated with catalog ids and recursion info.
#[derive(Clone, Debug)]
pub struct RuleInfo {
    /// Index into `ast.rules`.
    pub rule_idx: usize,
    /// Head predicate.
    pub head: PredicateId,
    /// Indices (into the rule's *atom list*) of atoms whose predicate is in
    /// the same SCC as the head — the recursive atoms.
    pub recursive_atoms: Vec<usize>,
}

/// One stratum: an SCC of the predicate connection graph plus all rules
/// defining its members.
#[derive(Clone, Debug)]
pub struct StratumInfo {
    /// Member predicates.
    pub preds: Vec<PredicateId>,
    /// Whether the stratum is recursive (self-loop or |SCC| > 1).
    pub recursive: bool,
    /// Rules whose head lies in this stratum.
    pub rules: Vec<RuleInfo>,
}

/// The fully analyzed program.
#[derive(Clone, Debug)]
pub struct AnalyzedProgram {
    /// The source AST.
    pub ast: ProgramAst,
    /// Predicate catalog.
    pub catalog: Catalog,
    /// Strata in dependency (evaluation) order.
    pub strata: Vec<StratumInfo>,
    /// Ground facts written inline in the program, per predicate.
    pub facts: Vec<(PredicateId, Tuple)>,
    /// Names of parameters the program references (must be supplied).
    pub params: BTreeSet<String>,
}

/// Analyzes a parsed program.
pub fn analyze(ast: ProgramAst) -> Result<AnalyzedProgram> {
    let mut catalog = Catalog::default();
    let mut facts = Vec::new();
    let mut params = BTreeSet::new();
    let mut derivation_rules: Vec<usize> = Vec::new();

    // Pass 1: intern predicates, split facts from rules, basic head checks.
    for (idx, rule) in ast.rules.iter().enumerate() {
        let head_id = catalog.intern(&rule.head.pred, rule.head.terms.len())?;
        collect_params_rule(rule, &mut params);
        if rule.body.is_empty() {
            let vals = ground_head(&rule.head).ok_or_else(|| {
                DcdError::Analysis(format!("fact '{}' must have constant arguments", rule.head))
            })?;
            facts.push((head_id, Tuple::new(&vals)));
            continue;
        }
        catalog.preds[head_id].is_edb = false;
        derivation_rules.push(idx);
        for atom in rule.body_atoms() {
            catalog.intern(&atom.pred, atom.terms.len())?;
        }
        check_safety(rule)?;
        check_head_aggregate(rule)?;
    }

    // Predicates that only have facts stay EDB; their facts are loaded as
    // base data. Facts for derived predicates seed the base rules instead.
    // Aggregate consistency per predicate.
    let mut agg_specs: FastMap<PredicateId, Option<AggSpec>> = FastMap::default();
    for &idx in &derivation_rules {
        let rule = &ast.rules[idx];
        let head_id = catalog.id(&rule.head.pred).expect("interned");
        let spec = rule.head.aggregate().map(|(i, f, _)| AggSpec {
            func: *f,
            term_idx: i,
        });
        match agg_specs.entry(head_id) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(spec);
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                if *o.get() != spec {
                    return Err(DcdError::Analysis(format!(
                        "predicate '{}' mixes aggregate and non-aggregate rules",
                        rule.head.pred
                    )));
                }
            }
        }
    }
    for (id, spec) in agg_specs {
        catalog.preds[id].agg = spec;
    }

    // Pass 2: Predicate Connection Graph over IDB predicates and SCCs.
    let n = catalog.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &idx in &derivation_rules {
        let rule = &ast.rules[idx];
        let head_id = catalog.id(&rule.head.pred).expect("interned");
        for atom in rule.body_atoms() {
            let dep = catalog.id(&atom.pred).expect("interned");
            if !catalog.preds[dep].is_edb {
                edges[head_id].push(dep);
            }
        }
    }
    let sccs = tarjan_sccs(n, &edges);

    // Build strata in reverse-topological (dependency-first) order — Tarjan
    // emits SCCs in reverse topological order of the condensation already.
    let mut scc_of = vec![usize::MAX; n];
    for (si, scc) in sccs.iter().enumerate() {
        for &p in scc {
            scc_of[p] = si;
        }
    }
    let mut strata = Vec::new();
    for scc in &sccs {
        let members: Vec<PredicateId> = scc
            .iter()
            .copied()
            .filter(|&p| !catalog.preds[p].is_edb)
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut rules = Vec::new();
        let mut recursive = members.len() > 1;
        for &idx in &derivation_rules {
            let rule = &ast.rules[idx];
            let head_id = catalog.id(&rule.head.pred).expect("interned");
            if !members.contains(&head_id) {
                continue;
            }
            let recursive_atoms: Vec<usize> = rule
                .body_atoms()
                .map(|a| catalog.id(&a.pred).expect("interned"))
                .enumerate()
                .filter(|&(_, p)| scc_of[p] == scc_of[head_id] && !catalog.preds[p].is_edb)
                .map(|(i, _)| i)
                .collect();
            if !recursive_atoms.is_empty() {
                recursive = true;
            }
            rules.push(RuleInfo {
                rule_idx: idx,
                head: head_id,
                recursive_atoms,
            });
        }
        strata.push(StratumInfo {
            preds: members,
            recursive,
            rules,
        });
    }

    // Every IDB predicate needs at least one rule (or inline facts).
    for (id, p) in catalog.iter() {
        if !p.is_edb {
            let has_rule = strata.iter().any(|s| s.rules.iter().any(|r| r.head == id));
            let has_fact = facts.iter().any(|(f, _)| *f == id);
            if !has_rule && !has_fact {
                return Err(DcdError::Analysis(format!(
                    "derived predicate '{}' has no rules",
                    p.name
                )));
            }
        }
    }

    Ok(AnalyzedProgram {
        ast,
        catalog,
        strata,
        facts,
        params,
    })
}

fn ground_head(head: &Head) -> Option<Vec<Value>> {
    head.terms
        .iter()
        .map(|t| match t {
            HeadTerm::Plain(Term::Const(v)) => Some(*v),
            _ => None,
        })
        .collect()
}

fn collect_params_expr(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Term(Term::Param(p)) => {
            out.insert(p.clone());
        }
        Expr::Term(_) => {}
        Expr::Binary { lhs, rhs, .. } => {
            collect_params_expr(lhs, out);
            collect_params_expr(rhs, out);
        }
    }
}

fn collect_params_rule(rule: &Rule, out: &mut BTreeSet<String>) {
    for t in &rule.head.terms {
        match t {
            HeadTerm::Plain(Term::Param(p)) => {
                out.insert(p.clone());
            }
            HeadTerm::Agg { args, .. } => {
                for a in args {
                    collect_params_expr(a, out);
                }
            }
            _ => {}
        }
    }
    for l in &rule.body {
        match l {
            BodyLit::Atom(a) => {
                for t in &a.terms {
                    if let Term::Param(p) = t {
                        out.insert(p.clone());
                    }
                }
            }
            BodyLit::Compare { lhs, rhs, .. } => {
                collect_params_expr(lhs, out);
                collect_params_expr(rhs, out);
            }
        }
    }
}

/// Safety: every head variable must be bound by a body atom or by a chain
/// of `=` bindings rooted in bound variables/constants/parameters; every
/// constraint variable must be bound too. Wildcards may not appear in
/// heads.
fn check_safety(rule: &Rule) -> Result<()> {
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    for atom in rule.body_atoms() {
        for t in &atom.terms {
            if let Term::Var(v) = t {
                bound.insert(v);
            }
        }
    }
    // Fixpoint over `=` bindings (either side may be the defined variable).
    loop {
        let mut changed = false;
        for l in &rule.body {
            if let BodyLit::Compare {
                op: CmpOp::Eq,
                lhs,
                rhs,
            } = l
            {
                for (a, b) in [(lhs, rhs), (rhs, lhs)] {
                    if let Expr::Term(Term::Var(v)) = a {
                        if !bound.contains(v.as_str()) {
                            let mut vs = Vec::new();
                            b.vars(&mut vs);
                            if vs.iter().all(|x| bound.contains(x)) {
                                bound.insert(v);
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // All comparison variables must be bound, the one an `=` defines
    // included: the fixpoint binds it only if the other side does not
    // mention it, so `Y = Y + 1` and `Z = Z` can never run.
    for l in &rule.body {
        if let BodyLit::Compare { lhs, rhs, .. } = l {
            let mut vs = Vec::new();
            lhs.vars(&mut vs);
            rhs.vars(&mut vs);
            for v in vs {
                if !bound.contains(v) {
                    return Err(DcdError::Analysis(format!(
                        "variable '{v}' in constraint '{l}' is never bound (rule: {rule})"
                    )));
                }
            }
        }
    }
    // Head variables must be bound.
    let mut head_vars: Vec<&str> = Vec::new();
    for t in &rule.head.terms {
        match t {
            HeadTerm::Plain(Term::Var(v)) => head_vars.push(v),
            HeadTerm::Plain(Term::Wildcard) => {
                return Err(DcdError::Analysis(format!(
                    "wildcard not allowed in rule head: {rule}"
                )))
            }
            HeadTerm::Agg { args, .. } => {
                for a in args {
                    a.vars(&mut head_vars);
                }
            }
            _ => {}
        }
    }
    for v in head_vars {
        if !bound.contains(v) {
            return Err(DcdError::Analysis(format!(
                "head variable '{v}' is not bound by the body (rule: {rule})"
            )));
        }
    }
    Ok(())
}

/// Aggregate heads must place the aggregate as the last term (the storage
/// layout groups on the leading columns).
fn check_head_aggregate(rule: &Rule) -> Result<()> {
    let n = rule.head.terms.len();
    let mut seen = 0;
    for (i, t) in rule.head.terms.iter().enumerate() {
        if matches!(t, HeadTerm::Agg { .. }) {
            seen += 1;
            if i + 1 != n {
                return Err(DcdError::Analysis(format!(
                    "aggregate must be the last head term: {rule}"
                )));
            }
        }
    }
    if seen > 1 {
        return Err(DcdError::Analysis(format!(
            "at most one aggregate per head: {rule}"
        )));
    }
    Ok(())
}

/// Iterative Tarjan SCC. Returns SCCs in reverse topological order of the
/// condensation (dependencies before dependents), which is exactly the
/// stratum evaluation order.
fn tarjan_sccs(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut st = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut next_index = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS stack: (node, edge cursor).
    for start in 0..n {
        if st[start].visited {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor == 0 {
                st[v].visited = true;
                st[v].index = next_index;
                st[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                st[v].on_stack = true;
            }
            if *cursor < edges[v].len() {
                let w = edges[v][*cursor];
                *cursor += 1;
                if !st[w].visited {
                    dfs.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let low = st[v].lowlink;
                    st[parent].lowlink = st[parent].lowlink.min(low);
                }
                if st[v].lowlink == st[v].index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack non-empty");
                        st[w].on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn analyze_src(src: &str) -> AnalyzedProgram {
        analyze(parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn tc_classification() {
        let a = analyze_src("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).");
        assert_eq!(a.strata.len(), 1);
        let s = &a.strata[0];
        assert!(s.recursive);
        assert_eq!(s.preds.len(), 1, "not mutual");
        assert!(
            s.rules.iter().all(|r| r.recursive_atoms.len() <= 1),
            "linear"
        );
        let arc = a.catalog.id("arc").unwrap();
        assert!(a.catalog.info(arc).is_edb);
        let tc = a.catalog.id("tc").unwrap();
        assert!(!a.catalog.info(tc).is_edb);
    }

    #[test]
    fn apsp_is_nonlinear() {
        let a = analyze_src(
            "path(A, B, min<D>) <- warc(A, B, D).
             path(A, B, min<D>) <- path(A, C, D1), path(C, B, D2), D = D1 + D2.
             apsp(A, B, min<D>) <- path(A, B, D).",
        );
        // Two strata: {path} (recursive, nonlinear), then {apsp}.
        assert_eq!(a.strata.len(), 2);
        assert!(a.strata[0].recursive);
        assert!(a.strata[0]
            .rules
            .iter()
            .any(|r| r.recursive_atoms.len() > 1));
        assert!(!a.strata[1].recursive);
        let path = a.catalog.id("path").unwrap();
        assert_eq!(
            a.catalog.info(path).agg,
            Some(AggSpec {
                func: AggFunc::Min,
                term_idx: 2
            })
        );
    }

    #[test]
    fn attend_is_mutual() {
        let a = analyze_src(
            "attend(X) <- organizer(X).
             cnt(Y, count<X>) <- attend(X), friend(Y, X).
             attend(X) <- cnt(X, N), N >= 3.",
        );
        let rec: Vec<_> = a.strata.iter().filter(|s| s.recursive).collect();
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].preds.len(), 2);
    }

    #[test]
    fn strata_order_respects_dependencies() {
        let a = analyze_src(
            "b(X) <- e(X).
             c(X) <- b(X).
             d(X) <- c(X), b(X).",
        );
        let pos = |name: &str| {
            let id = a.catalog.id(name).unwrap();
            a.strata.iter().position(|s| s.preds.contains(&id)).unwrap()
        };
        assert!(pos("b") < pos("c"));
        assert!(pos("c") < pos("d"));
    }

    #[test]
    fn facts_are_collected_and_fact_only_preds_stay_edb() {
        let a = analyze_src("arc(1, 2). arc(2, 3). tc(X, Y) <- arc(X, Y).");
        assert_eq!(a.facts.len(), 2);
        let arc = a.catalog.id("arc").unwrap();
        assert!(a.catalog.info(arc).is_edb);
    }

    #[test]
    fn params_collected() {
        let a = analyze_src(
            "sp(To, min<C>) <- sp(F, C1), warc(F, To, C2), C = C1 + C2.
                             sp(To, min<C>) <- w(To), To = start, C = 0.",
        );
        assert!(a.params.contains("start"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = analyze(parse_program("p(X) <- q(X). r(X) <- q(X, X).").unwrap()).unwrap_err();
        assert!(e.to_string().contains("arity"));
    }

    #[test]
    fn unbound_head_variable_rejected() {
        let e = analyze(parse_program("p(X, Y) <- q(X).").unwrap()).unwrap_err();
        assert!(e.to_string().contains("not bound"));
    }

    #[test]
    fn assignment_chain_binds() {
        // C bound via C = C1 + C2 where C1, C2 come from atoms.
        let a = analyze_src("p(C) <- q(C1, C2), C = C1 + C2.");
        assert_eq!(a.strata.len(), 1);
    }

    #[test]
    fn unbound_constraint_variable_rejected() {
        let e = analyze(parse_program("p(X) <- q(X), Y > 3.").unwrap()).unwrap_err();
        assert!(e.to_string().contains("never bound"));
    }

    #[test]
    fn self_referencing_assignment_rejected() {
        // `=` defines a variable only if the other side does not mention
        // it: neither rule can ever bind `Y` / `Z`.
        for src in ["p(X) <- q(X), Y = Y + 1.", "p(X) <- q(X), Z = Z."] {
            let e = analyze(parse_program(src).unwrap()).unwrap_err();
            assert!(matches!(e, DcdError::Analysis(_)), "{src}: {e}");
            assert!(e.to_string().contains("never bound"), "{src}: {e}");
        }
        // A bound variable may still be compared with itself.
        analyze_src("p(X) <- q(X), X = X.");
    }

    #[test]
    fn aggregate_not_last_rejected() {
        let e = analyze(parse_program("p(min<X>, Y) <- q(X, Y).").unwrap()).unwrap_err();
        assert!(e.to_string().contains("last head term"));
    }

    #[test]
    fn mixed_agg_plain_rules_rejected() {
        let e = analyze(parse_program("p(X, min<Y>) <- q(X, Y). p(X, Y) <- r(X, Y).").unwrap())
            .unwrap_err();
        assert!(e.to_string().contains("mixes aggregate"));
    }

    #[test]
    fn wildcard_in_head_rejected() {
        let e = analyze(parse_program("p(_) <- q(X).").unwrap()).unwrap_err();
        assert!(e.to_string().contains("wildcard"));
    }

    #[test]
    fn non_ground_fact_rejected() {
        let e = analyze(parse_program("arc(X, 2).").unwrap()).unwrap_err();
        assert!(e.to_string().contains("constant arguments"));
    }

    #[test]
    fn cc_program_shape() {
        let a = analyze_src(
            "cc2(Y, min<Y>) <- arc(Y, _).
             cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).
             cc(Y, min<Z>) <- cc2(Y, Z).",
        );
        assert_eq!(a.strata.len(), 2);
        assert!(a.strata[0].recursive);
        assert!(a.strata[0]
            .rules
            .iter()
            .all(|r| r.recursive_atoms.len() <= 1));
        let cc2 = a.catalog.id("cc2").unwrap();
        assert_eq!(a.catalog.info(cc2).agg.as_ref().unwrap().func, AggFunc::Min);
    }
}
