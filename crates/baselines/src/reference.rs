//! A deliberately simple single-threaded semi-naive interpreter.
//!
//! This is the workspace's correctness oracle: it shares *no* code with the
//! parallel engine's planner or evaluator (it interprets the analyzed AST
//! directly with naive join resolution), so agreement between the two is
//! strong evidence both are right. It is also the "single-node Datalog
//! engine" comparison point in the benchmark harness.

use dcd_common::hash::{FastMap, FastSet};
use dcd_common::{DcdError, Result, Tuple, Value};
use dcd_frontend::ast::{AggFunc, ArithOp, BodyLit, CmpOp, Expr, HeadTerm, Rule, Term};
use dcd_frontend::{analyze, parse_program, AnalyzedProgram};

/// Relation contents in the reference engine.
#[derive(Clone, Debug, Default)]
struct RefRelation {
    /// Set semantics rows.
    rows: FastSet<Tuple>,
    /// Aggregate state: group → value (min/max) or contributor map (sum).
    agg: FastMap<Vec<Value>, AggState>,
}

#[derive(Clone, Debug)]
enum AggState {
    Extremum(Value),
    Contribs(FastMap<u64, f64>),
}

/// The reference interpreter.
pub struct Reference {
    prog: AnalyzedProgram,
    params: FastMap<String, Value>,
    /// ε for sum convergence.
    pub sum_epsilon: f64,
    edb: FastMap<String, Vec<Tuple>>,
}

impl Reference {
    /// Parses and analyzes a program.
    pub fn new(src: &str) -> Result<Reference> {
        Ok(Reference {
            prog: analyze(parse_program(src)?)?,
            params: FastMap::default(),
            sum_epsilon: 1e-9,
            edb: FastMap::default(),
        })
    }

    /// Binds a parameter.
    pub fn with_param(mut self, name: &str, v: impl Into<Value>) -> Reference {
        self.params.insert(name.to_string(), v.into());
        self
    }

    /// Loads base relation rows.
    pub fn load(&mut self, name: &str, rows: Vec<Tuple>) {
        self.edb.insert(name.to_string(), rows);
    }

    /// Convenience edge loader.
    pub fn load_edges(&mut self, name: &str, edges: &[(i64, i64)]) {
        self.load(
            name,
            edges
                .iter()
                .map(|&(a, b)| Tuple::from_ints(&[a, b]))
                .collect(),
        );
    }

    /// Convenience weighted edge loader.
    pub fn load_weighted_edges(&mut self, name: &str, edges: &[(i64, i64, i64)]) {
        self.load(
            name,
            edges
                .iter()
                .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
                .collect(),
        );
    }

    /// Evaluates to fixpoint; returns every derived relation's rows.
    pub fn run(&self) -> Result<FastMap<String, Vec<Tuple>>> {
        let mut rels: FastMap<String, RefRelation> = FastMap::default();
        // Base relations as plain row sets.
        for (id, info) in self.prog.catalog.iter() {
            let _ = id;
            if info.is_edb {
                let rows = self.edb.get(&info.name).cloned().unwrap_or_default();
                let mut r = RefRelation::default();
                r.rows.extend(rows);
                rels.insert(info.name.clone(), r);
            } else {
                rels.insert(info.name.clone(), RefRelation::default());
            }
        }
        // Inline facts.
        for (pred, t) in &self.prog.facts {
            let info = self.prog.catalog.info(*pred);
            let rel = rels.get_mut(&info.name).expect("interned");
            if let Some(spec) = &info.agg {
                // min/max facts merge through the aggregate path.
                self.merge_agg(rel, spec.func, t.clone(), t.arity() - 1)?;
            } else {
                rel.rows.insert(t.clone());
            }
        }
        // Strata in order; naive iteration within each stratum. The
        // iteration cap guards against non-converging float sums.
        for stratum in &self.prog.strata {
            let mut rounds = 0u32;
            loop {
                rounds += 1;
                if rounds > 100_000 {
                    return Err(DcdError::Execution(
                        "reference evaluation did not converge".into(),
                    ));
                }
                let mut changed = false;
                for ri in &stratum.rules {
                    let rule = &self.prog.ast.rules[ri.rule_idx];
                    let derived = self.derive(rule, &rels)?;
                    let head_info = self.prog.catalog.info(ri.head);
                    let name = head_info.name.clone();
                    match &head_info.agg {
                        None => {
                            let rel = rels.get_mut(&name).expect("present");
                            for t in derived {
                                changed |= rel.rows.insert(t);
                            }
                        }
                        Some(spec) => {
                            let group_cols = spec.term_idx;
                            let rel = rels.get_mut(&name).expect("present");
                            for t in derived {
                                changed |= self.merge_agg(rel, spec.func, t, group_cols)?;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        // Materialize derived relations.
        let mut out = FastMap::default();
        for (_, info) in self.prog.catalog.iter() {
            if info.is_edb {
                continue;
            }
            let rel = &rels[&info.name];
            let mut rows: Vec<Tuple> = rel.rows.iter().cloned().collect();
            for (group, state) in &rel.agg {
                let v = match state {
                    AggState::Extremum(v) => *v,
                    AggState::Contribs(m) => {
                        let total: f64 = m.values().sum();
                        match info.agg.as_ref().map(|s| s.func) {
                            Some(AggFunc::Count) => Value::Int(m.len() as i64),
                            _ => Value::Float(total),
                        }
                    }
                };
                let mut vals = group.clone();
                vals.push(v);
                rows.push(Tuple::new(&vals));
            }
            rows.sort();
            out.insert(info.name.clone(), rows);
        }
        Ok(out)
    }

    /// Merges a derived merge-layout tuple into an aggregate relation.
    /// Returns whether anything changed (for the naive fixpoint).
    fn merge_agg(
        &self,
        rel: &mut RefRelation,
        func: AggFunc,
        t: Tuple,
        group_cols: usize,
    ) -> Result<bool> {
        let group = t.values()[..group_cols].to_vec();
        Ok(match func {
            AggFunc::Min | AggFunc::Max => {
                let v = t.values()[group_cols];
                match rel.agg.get_mut(&group) {
                    None => {
                        rel.agg.insert(group, AggState::Extremum(v));
                        true
                    }
                    Some(AggState::Extremum(cur)) => {
                        let better = if func == AggFunc::Min {
                            v < *cur
                        } else {
                            v > *cur
                        };
                        if better {
                            *cur = v;
                        }
                        better
                    }
                    _ => unreachable!("extremum relation"),
                }
            }
            AggFunc::Count | AggFunc::Sum => {
                let contributor = t.values()[group_cols].key_bits();
                let v = if func == AggFunc::Count {
                    1.0
                } else {
                    t.values()[group_cols + 1].as_f64()
                };
                let state = rel
                    .agg
                    .entry(group)
                    .or_insert_with(|| AggState::Contribs(FastMap::default()));
                let AggState::Contribs(m) = state else {
                    unreachable!("contribution relation")
                };
                match m.insert(contributor, v) {
                    None => true,
                    Some(old) => (old - v).abs() > self.sum_epsilon,
                }
            }
        })
    }

    /// All merge-layout tuples derivable from `rule` in the current state.
    fn derive(&self, rule: &Rule, rels: &FastMap<String, RefRelation>) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        let mut env: FastMap<String, Value> = FastMap::default();
        let mut remaining: Vec<&BodyLit> = rule.body.iter().collect();
        self.solve(rule, rels, &mut env, &mut remaining, &mut out)?;
        Ok(out)
    }

    /// Tiny resolution loop: repeatedly pick the next evaluable literal.
    fn solve(
        &self,
        rule: &Rule,
        rels: &FastMap<String, RefRelation>,
        env: &mut FastMap<String, Value>,
        remaining: &mut Vec<&BodyLit>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        if remaining.is_empty() {
            out.push(self.emit(rule, env)?);
            return Ok(());
        }
        // Pick an evaluable constraint first (cheap pruning), else the
        // first atom.
        let pick = remaining
            .iter()
            .position(|l| match l {
                BodyLit::Compare { op, lhs, rhs } => {
                    let mut vs = Vec::new();
                    lhs.vars(&mut vs);
                    rhs.vars(&mut vs);
                    let unbound: Vec<_> = vs.iter().filter(|v| !env.contains_key(**v)).collect();
                    unbound.is_empty()
                        || (*op == CmpOp::Eq
                            && unbound.len() == 1
                            && (matches!(lhs, Expr::Term(Term::Var(x)) if x == *unbound[0])
                                || matches!(rhs, Expr::Term(Term::Var(x)) if x == *unbound[0])))
                }
                BodyLit::Atom(_) => false,
            })
            .or_else(|| remaining.iter().position(|l| matches!(l, BodyLit::Atom(_))));
        let Some(pick) = pick else {
            return Err(DcdError::Execution(format!(
                "cannot schedule remaining literals of rule {rule}"
            )));
        };
        let lit = remaining.remove(pick);
        match lit {
            BodyLit::Compare { op, lhs, rhs } => {
                let l_unbound = matches!(lhs, Expr::Term(Term::Var(x)) if !env.contains_key(x));
                let r_unbound = matches!(rhs, Expr::Term(Term::Var(x)) if !env.contains_key(x));
                if *op == CmpOp::Eq && (l_unbound || r_unbound) {
                    let (var, expr) = if l_unbound { (lhs, rhs) } else { (rhs, lhs) };
                    let Expr::Term(Term::Var(name)) = var else {
                        unreachable!()
                    };
                    let v = self.eval_expr(expr, env)?;
                    env.insert(name.clone(), v);
                    self.solve(rule, rels, env, remaining, out)?;
                    env.remove(name);
                } else {
                    let a = self.eval_expr(lhs, env)?;
                    let b = self.eval_expr(rhs, env)?;
                    let ok = match op {
                        CmpOp::Eq => a == b,
                        CmpOp::Ne => a != b,
                        CmpOp::Lt => a < b,
                        CmpOp::Le => a <= b,
                        CmpOp::Gt => a > b,
                        CmpOp::Ge => a >= b,
                    };
                    if ok {
                        self.solve(rule, rels, env, remaining, out)?;
                    }
                }
            }
            BodyLit::Atom(atom) => {
                let rel = rels
                    .get(&atom.pred)
                    .ok_or_else(|| DcdError::MissingRelation(atom.pred.clone()))?;
                // Current logical rows of the relation.
                let info_agg = self
                    .prog
                    .catalog
                    .id(&atom.pred)
                    .map(|id| self.prog.catalog.info(id).agg.clone())
                    .unwrap_or(None);
                let rows: Vec<Tuple> = if info_agg.is_some() {
                    rel.agg
                        .iter()
                        .map(|(g, s)| {
                            let v = match s {
                                AggState::Extremum(v) => *v,
                                AggState::Contribs(m) => match info_agg.as_ref().map(|s| s.func) {
                                    Some(AggFunc::Count) => Value::Int(m.len() as i64),
                                    _ => Value::Float(m.values().sum()),
                                },
                            };
                            let mut vals = g.clone();
                            vals.push(v);
                            Tuple::new(&vals)
                        })
                        .collect()
                } else {
                    rel.rows.iter().cloned().collect()
                };
                for row in rows {
                    let mut bound_here: Vec<&str> = Vec::new();
                    let mut ok = true;
                    for (t, v) in atom.terms.iter().zip(row.values().iter()) {
                        match t {
                            Term::Var(name) => match env.get(name) {
                                Some(b) => {
                                    if b != v {
                                        ok = false;
                                        break;
                                    }
                                }
                                None => {
                                    env.insert(name.clone(), *v);
                                    bound_here.push(name);
                                }
                            },
                            Term::Const(c) => {
                                if c != v {
                                    ok = false;
                                    break;
                                }
                            }
                            Term::Param(p) => {
                                let c = self.param(p)?;
                                if c != *v {
                                    ok = false;
                                    break;
                                }
                            }
                            Term::Wildcard => {}
                        }
                    }
                    if ok {
                        self.solve(rule, rels, env, remaining, out)?;
                    }
                    for name in bound_here {
                        env.remove(name);
                    }
                }
            }
        }
        remaining.insert(pick, lit);
        Ok(())
    }

    fn param(&self, name: &str) -> Result<Value> {
        self.params
            .get(name)
            .copied()
            .ok_or_else(|| DcdError::Execution(format!("parameter '{name}' not supplied")))
    }

    fn eval_expr(&self, e: &Expr, env: &FastMap<String, Value>) -> Result<Value> {
        Ok(match e {
            Expr::Term(Term::Var(v)) => *env
                .get(v)
                .ok_or_else(|| DcdError::Execution(format!("unbound variable '{v}'")))?,
            Expr::Term(Term::Const(c)) => *c,
            Expr::Term(Term::Param(p)) => self.param(p)?,
            Expr::Term(Term::Wildcard) => {
                return Err(DcdError::Execution("wildcard in expression".into()))
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval_expr(lhs, env)?;
                let b = self.eval_expr(rhs, env)?;
                match op {
                    ArithOp::Add => a.add(b),
                    ArithOp::Sub => a.sub(b),
                    ArithOp::Mul => a.mul(b),
                    ArithOp::Div => a.div(b),
                }
            }
        })
    }

    /// Builds the merge-layout output tuple for a complete binding.
    fn emit(&self, rule: &Rule, env: &FastMap<String, Value>) -> Result<Tuple> {
        let term_val = |t: &Term| -> Result<Value> {
            Ok(match t {
                Term::Var(v) => *env
                    .get(v)
                    .ok_or_else(|| DcdError::Execution(format!("unbound head var '{v}'")))?,
                Term::Const(c) => *c,
                Term::Param(p) => self.param(p)?,
                Term::Wildcard => return Err(DcdError::Execution("wildcard in head".into())),
            })
        };
        let mut vals = Vec::with_capacity(rule.head.terms.len() + 1);
        for t in &rule.head.terms {
            match t {
                HeadTerm::Plain(t) => vals.push(term_val(t)?),
                HeadTerm::Agg { func, args } => match func {
                    AggFunc::Min | AggFunc::Max | AggFunc::Count => {
                        vals.push(self.eval_expr(&args[0], env)?)
                    }
                    AggFunc::Sum => {
                        vals.push(self.eval_expr(&args[0], env)?);
                        vals.push(self.eval_expr(&args[1], env)?);
                    }
                },
            }
        }
        Ok(Tuple::new(&vals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tc_chain() {
        let mut r =
            Reference::new("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).").unwrap();
        r.load_edges("arc", &[(1, 2), (2, 3)]);
        let out = r.run().unwrap();
        assert_eq!(
            out["tc"],
            vec![
                Tuple::from_ints(&[1, 2]),
                Tuple::from_ints(&[1, 3]),
                Tuple::from_ints(&[2, 3]),
            ]
        );
    }

    #[test]
    fn sssp_with_params() {
        let mut r = Reference::new(
            "sp(To, min<C>) <- To = start, C = 0.
             sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.",
        )
        .unwrap()
        .with_param("start", 1i64);
        r.load_weighted_edges("warc", &[(1, 2, 10), (1, 3, 2), (3, 2, 3)]);
        let out = r.run().unwrap();
        assert_eq!(
            out["sp"],
            vec![
                Tuple::from_ints(&[1, 0]),
                Tuple::from_ints(&[2, 5]),
                Tuple::from_ints(&[3, 2]),
            ]
        );
    }

    #[test]
    fn count_mutual_recursion() {
        let mut r = Reference::new(
            "attend(X) <- organizer(X).
             cnt(Y, count<X>) <- attend(X), friend(Y, X).
             attend(X) <- cnt(X, N), N >= 2.",
        )
        .unwrap();
        r.load(
            "organizer",
            vec![Tuple::from_ints(&[1]), Tuple::from_ints(&[2])],
        );
        r.load_edges("friend", &[(9, 1), (9, 2), (8, 9), (8, 1)]);
        let out = r.run().unwrap();
        assert_eq!(
            out["attend"],
            vec![
                Tuple::from_ints(&[1]),
                Tuple::from_ints(&[2]),
                Tuple::from_ints(&[8]),
                Tuple::from_ints(&[9]),
            ]
        );
    }

    #[test]
    fn nonlinear_apsp() {
        let mut r = Reference::new(
            "path(A, B, min<D>) <- warc(A, B, D).
             path(A, B, min<D>) <- path(A, C, D1), path(C, B, D2), D = D1 + D2.",
        )
        .unwrap();
        r.load_weighted_edges("warc", &[(1, 2, 4), (2, 3, 1), (1, 3, 10)]);
        let out = r.run().unwrap();
        assert_eq!(
            out["path"],
            vec![
                Tuple::from_ints(&[1, 2, 4]),
                Tuple::from_ints(&[1, 3, 5]),
                Tuple::from_ints(&[2, 3, 1]),
            ]
        );
    }
}
