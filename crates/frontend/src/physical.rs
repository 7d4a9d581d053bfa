//! Physical planning (§5.1, §5.2, §4.3).
//!
//! Compiles each analyzed rule straight into register machines that the
//! engine's workers interpret directly:
//!
//! * Each rule variant becomes a [`CompiledRule`] in one walk over its
//!   body, which is where the paper's §5.1 rewrites happen: the delta
//!   (recursive) atom binds first, the other atoms follow in connected
//!   order so each one is an index probe on a bound term where possible,
//!   and each constraint or `=` assignment runs right after the step
//!   that binds its last variable. A rule with `k` recursive atoms
//!   becomes `k` delta variants. The variant binds the delta tuple into
//!   registers, then runs a chain of [`Step`]s, each probing a base or
//!   recursive relation (index join / hash join) or scanning it (nested
//!   loop).
//! * The planner derives the **Distribute** routing spec: every recursive
//!   relation's `partition_cols` (two columns — replication — for
//!   non-linear rules like APSP, §4.3), and every EDB's placement
//!   (co-partitioned on its probe column, or replicated when a rule probes
//!   it on a non-aligned key, as Same-Generation requires).
//! * The **Gather** spec is the storage kind of each relation: set
//!   semantics, or aggregate semantics with group columns (§6.2.1).

use crate::analysis::AnalyzedProgram;
use crate::ast::{AggFunc, ArithOp, Atom, BodyLit, CmpOp, Expr, HeadTerm, Rule, Term};
use dcd_common::hash::FastMap;
use dcd_common::{DcdError, PredicateId, Result, Value};
use std::collections::BTreeSet;

/// Relation id — same space as [`PredicateId`].
pub type RelId = PredicateId;

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Values for the program's named parameters (`start`, `alpha`, …).
    pub params: FastMap<String, Value>,
    /// ε for `sum` aggregate delta emission (PageRank convergence).
    pub sum_epsilon: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            params: FastMap::default(),
            sum_epsilon: 1e-9,
        }
    }
}

/// A compiled arithmetic expression over registers.
#[derive(Clone, Debug, PartialEq)]
pub enum CExpr {
    /// Register reference.
    Reg(u16),
    /// Constant.
    Const(Value),
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        l: Box<CExpr>,
        /// Right operand.
        r: Box<CExpr>,
    },
}

impl CExpr {
    /// Evaluates against a register file.
    #[inline]
    pub fn eval(&self, regs: &[Value]) -> Value {
        match self {
            CExpr::Reg(r) => regs[*r as usize],
            CExpr::Const(v) => *v,
            CExpr::Bin { op, l, r } => {
                let a = l.eval(regs);
                let b = r.eval(regs);
                match op {
                    ArithOp::Add => a.add(b),
                    ArithOp::Sub => a.sub(b),
                    ArithOp::Mul => a.mul(b),
                    ArithOp::Div => a.div(b),
                }
            }
        }
    }

    fn as_reg(&self) -> Option<u16> {
        match self {
            CExpr::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

/// A compiled comparison filter.
#[derive(Clone, Debug, PartialEq)]
pub struct CCond {
    /// Operator.
    pub op: CmpOp,
    /// Left side.
    pub l: CExpr,
    /// Right side.
    pub r: CExpr,
}

impl CCond {
    /// Evaluates the condition.
    #[inline]
    pub fn eval(&self, regs: &[Value]) -> bool {
        let a = self.l.eval(regs);
        let b = self.r.eval(regs);
        match self.op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A compiled `V = expr` binding.
#[derive(Clone, Debug, PartialEq)]
pub struct CAssign {
    /// Destination register.
    pub reg: u16,
    /// Source expression.
    pub expr: CExpr,
}

/// Per-column action when matching a relation row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BindAction {
    /// Copy the column into a register (first occurrence of a variable).
    Bind(u16),
    /// The column must equal an already-bound register (repeated variable).
    Check(u16),
    /// The column must equal a constant.
    CheckConst(Value),
    /// Wildcard: ignore.
    Skip,
}

/// What a step reads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Target {
    /// A base (EDB) relation.
    Edb(RelId),
    /// A recursive/derived relation, probed or scanned through the
    /// secondary index on `index_col` (ignored for scans).
    Idb {
        /// The relation.
        rel: RelId,
        /// Index column used by probes.
        index_col: usize,
    },
}

impl Target {
    /// The relation id.
    pub fn rel(&self) -> RelId {
        match self {
            Target::Edb(r) => *r,
            Target::Idb { rel, .. } => *rel,
        }
    }
}

/// Access path of a step.
#[derive(Clone, Debug, PartialEq)]
pub enum Probe {
    /// Index probe: `row[col] == key`.
    Index {
        /// Probed column.
        col: usize,
        /// Key expression (evaluated against the registers).
        key: CExpr,
    },
    /// Full scan (nested loop).
    Scan,
}

/// Join method label for EXPLAIN output (the paper's §5.2.1 heuristic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    /// Probe of a base relation's hash index.
    Hash,
    /// Probe of a recursive relation's row-id hash index.
    Index,
    /// Fallback scan.
    NestedLoop,
}

/// One join step.
#[derive(Clone, Debug)]
pub struct Step {
    /// Relation accessed.
    pub target: Target,
    /// Access path.
    pub probe: Probe,
    /// Per-column actions (length = arity of the target).
    pub binds: Vec<BindAction>,
    /// Filters evaluable after this step.
    pub filters: Vec<CCond>,
    /// Assignments evaluable after this step (before the filters that
    /// mention them — assignments run first).
    pub assigns: Vec<CAssign>,
    /// Join method (explain only).
    pub join_kind: JoinKind,
}

/// Delta binding of a recursive rule variant.
#[derive(Clone, Debug)]
pub struct DeltaSpec {
    /// The recursive relation consumed as delta.
    pub rel: RelId,
    /// Which route (index into the relation's `partition_cols`) this
    /// variant consumes — workers only run the variant for tuples that
    /// were routed to them via this column (§4.3).
    pub route: usize,
    /// Per-column actions for the delta tuple.
    pub binds: Vec<BindAction>,
}

/// A fully compiled rule variant.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// Head relation.
    pub head_rel: RelId,
    /// Delta spec (`None` for initialization rules).
    pub delta: Option<DeltaSpec>,
    /// Assignments evaluable right after the delta bind (or at entry for
    /// initialization rules with no steps).
    pub pre_assigns: Vec<CAssign>,
    /// Filters evaluable right after the delta bind.
    pub pre_filters: Vec<CCond>,
    /// Join chain.
    pub steps: Vec<Step>,
    /// Head row in merge layout: full row for set relations;
    /// `(group…, value)` for min/max; `(group…, contributor)` for count;
    /// `(group…, contributor, value)` for sum.
    pub head_exprs: Vec<CExpr>,
    /// Register file size.
    pub nregs: usize,
    /// Source rule index (diagnostics).
    pub rule_idx: usize,
}

impl CompiledRule {
    /// Whether every join step reads a base relation, so the rule's
    /// output depends on its delta row alone and not on the derived
    /// stores (SSSP, CC, Delivery; not APSP, whose steps probe `path`).
    pub fn is_linear(&self) -> bool {
        self.steps
            .iter()
            .all(|s| matches!(s.target, Target::Edb(_)))
    }
}

/// Storage semantics of a derived relation (the Gather spec).
#[derive(Clone, Debug, PartialEq)]
pub enum StorageKind {
    /// Set semantics with exact dedup.
    Set,
    /// Aggregate semantics (§6.2.1).
    Agg {
        /// The function.
        func: AggFunc,
        /// Leading group-by columns of the logical row.
        group_cols: usize,
        /// `sum` emission threshold.
        epsilon: f64,
    },
}

/// A derived (IDB) relation declaration.
#[derive(Clone, Debug)]
pub struct RelDecl {
    /// Relation id.
    pub id: RelId,
    /// Name (diagnostics).
    pub name: String,
    /// Logical arity.
    pub arity: usize,
    /// Storage semantics.
    pub kind: StorageKind,
    /// Routing columns: a derived tuple is sent to `H(row[c])` for every
    /// `c` here (two entries ⇒ the non-linear replication of §4.3).
    pub partition_cols: Vec<usize>,
    /// Broadcast fallback: route every tuple to all workers (used when a
    /// probe key cannot be aligned with any partition column).
    pub broadcast: bool,
    /// Columns needing secondary probe indexes.
    pub index_cols: Vec<usize>,
}

/// EDB placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Split by `H(row[col])`; co-partitioned probes stay local.
    Partitioned(usize),
    /// Full copy on every worker (required by multi-key probes, e.g. SG).
    Replicated,
}

/// A base (EDB) relation declaration.
#[derive(Clone, Debug)]
pub struct EdbDecl {
    /// Relation id.
    pub id: RelId,
    /// Name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// Placement.
    pub placement: Placement,
    /// Columns needing hash indexes.
    pub index_cols: Vec<usize>,
}

/// One stratum of the physical plan.
#[derive(Clone, Debug)]
pub struct PhysStratum {
    /// Whether fixpoint iteration is needed.
    pub recursive: bool,
    /// Relations defined in this stratum.
    pub rels: Vec<RelId>,
    /// Rules run once to initialize (Algorithm 1 line 8).
    pub init_rules: Vec<CompiledRule>,
    /// Delta rule variants run each iteration.
    pub delta_rules: Vec<CompiledRule>,
}

/// Resolved relation declarations: `(EDB placements, IDB routings)`.
pub type Declarations = (Vec<Option<EdbDecl>>, Vec<Option<RelDecl>>);

/// The complete physical plan.
#[derive(Clone, Debug)]
pub struct PhysicalPlan {
    /// `edb[p]` is `Some` iff predicate `p` is extensional.
    pub edb: Vec<Option<EdbDecl>>,
    /// `idb[p]` is `Some` iff predicate `p` is derived.
    pub idb: Vec<Option<RelDecl>>,
    /// Strata in evaluation order.
    pub strata: Vec<PhysStratum>,
    /// Inline facts `(pred, tuple)` from the program text.
    pub facts: Vec<(RelId, dcd_common::Tuple)>,
    /// Predicate names (diagnostics / result lookup).
    pub names: Vec<String>,
}

impl PhysicalPlan {
    /// Resolves a predicate name.
    pub fn rel_by_name(&self, name: &str) -> Option<RelId> {
        self.names.iter().position(|n| n == name)
    }

    /// Human-readable plan description (EXPLAIN).
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, e) in self.edb.iter().enumerate() {
            if let Some(e) = e {
                let _ = writeln!(
                    out,
                    "edb {} ({}): {:?} indexes={:?}",
                    e.name, i, e.placement, e.index_cols
                );
            }
        }
        for r in self.idb.iter().flatten() {
            let _ = writeln!(
                out,
                "idb {} ({}): {:?} routes={:?}{} indexes={:?}",
                r.name,
                r.id,
                r.kind,
                r.partition_cols,
                if r.broadcast { " broadcast" } else { "" },
                r.index_cols
            );
        }
        for (si, s) in self.strata.iter().enumerate() {
            let _ = writeln!(
                out,
                "stratum {si} ({}):",
                if s.recursive { "recursive" } else { "once" }
            );
            for (label, rules) in [("init", &s.init_rules), ("delta", &s.delta_rules)] {
                for r in rules {
                    let _ = write!(out, "  [{label}] {} <-", self.names[r.head_rel]);
                    if let Some(d) = &r.delta {
                        let _ = write!(out, " δ{}[route {}]", self.names[d.rel], d.route);
                    }
                    for st in &r.steps {
                        let kind = match st.join_kind {
                            JoinKind::Hash => "hash",
                            JoinKind::Index => "index",
                            JoinKind::NestedLoop => "loop",
                        };
                        let _ = write!(out, " ⋈{kind} {}", self.names[st.target.rel()]);
                    }
                    let _ = writeln!(out);
                }
            }
        }
        out
    }
}

/// Compiles an analyzed program into a physical plan.
pub fn plan(prog: &AnalyzedProgram, cfg: &PlannerConfig) -> Result<PhysicalPlan> {
    // Check all referenced parameters are supplied.
    for p in &prog.params {
        if !cfg.params.contains_key(p) {
            return Err(DcdError::Planning(format!(
                "program references parameter '{p}' — supply it via with_param()"
            )));
        }
    }
    let npreds = prog.catalog.len();
    let mut compiler = PlanCompiler {
        prog,
        cfg,
        edb_probes: vec![BTreeSet::new(); npreds],
        edb_needs_full: vec![false; npreds],
        idb_probe_cols: vec![BTreeSet::new(); npreds],
        idb_needs_broadcast: vec![false; npreds],
        route_requirements: vec![BTreeSet::new(); npreds],
    };

    // First pass: compile every variant, collecting probe/route facts. A
    // rule with no same-stratum atom runs once, as an initialization
    // rule; a rule with `k` of them becomes `k` delta variants (`δR ⋈ R`,
    // `R ⋈ δR`, …), the semi-naive rewrite APSP needs (§4.3).
    let mut strata = Vec::new();
    for s in &prog.strata {
        let mut init_rules = Vec::new();
        let mut delta_rules = Vec::new();
        for ri in &s.rules {
            let rule = &prog.ast.rules[ri.rule_idx];
            if ri.recursive_atoms.is_empty() {
                init_rules.push(compiler.compile_variant(rule, ri.rule_idx, ri.head, None)?);
            }
            for &a in &ri.recursive_atoms {
                delta_rules.push(compiler.compile_variant(rule, ri.rule_idx, ri.head, Some(a))?);
            }
        }
        strata.push(PhysStratum {
            recursive: s.recursive,
            rels: s.preds.clone(),
            init_rules,
            delta_rules,
        });
    }

    // Second pass: placement + routing resolution.
    let (edb, idb) = compiler.resolve_declarations(&mut strata)?;

    Ok(PhysicalPlan {
        edb,
        idb,
        strata,
        facts: prog.facts.clone(),
        names: prog.catalog.iter().map(|(_, p)| p.name.clone()).collect(),
    })
}

/// A rule variant's registers: register `r` holds variable `self.0[r]`,
/// numbered in the order the walk binds them.
#[derive(Default)]
struct Regs<'r>(Vec<&'r str>);

impl<'r> Regs<'r> {
    fn get(&self, var: &str) -> Option<u16> {
        self.0.iter().position(|v| *v == var).map(|r| r as u16)
    }

    /// Allocates the next register for the unbound `var`.
    fn alloc(&mut self, var: &'r str) -> u16 {
        self.0.push(var);
        (self.0.len() - 1) as u16
    }

    /// Whether a step can probe on `t`: a bound variable, a constant or a
    /// parameter.
    fn is_bound(&self, t: &Term) -> bool {
        match t {
            Term::Var(v) => self.get(v).is_some(),
            Term::Const(_) | Term::Param(_) => true,
            Term::Wildcard => false,
        }
    }
}

/// A body constraint not yet placed: `(op, lhs, rhs)`.
type Pending<'r> = (CmpOp, &'r Expr, &'r Expr);

fn is_var(e: &Expr, var: &str) -> bool {
    matches!(e, Expr::Term(Term::Var(x)) if x == var)
}

struct PlanCompiler<'a> {
    prog: &'a AnalyzedProgram,
    cfg: &'a PlannerConfig,
    /// Index-probe columns per EDB.
    edb_probes: Vec<BTreeSet<usize>>,
    /// EDBs that are nested-loop scanned at a non-leading position (must
    /// hold the full table on every worker).
    edb_needs_full: Vec<bool>,
    /// Secondary-index columns per IDB.
    idb_probe_cols: Vec<BTreeSet<usize>>,
    /// IDBs requiring broadcast routing.
    idb_needs_broadcast: Vec<bool>,
    /// Required routing columns per IDB (from delta variants + probes).
    route_requirements: Vec<BTreeSet<usize>>,
}

impl PlanCompiler<'_> {
    fn is_edb(&self, id: PredicateId) -> bool {
        self.prog.catalog.info(id).is_edb
    }

    /// Compiles one variant of `rule` (the delta variant on atom `delta`,
    /// or the initialization rule when `None`) in one walk. The delta
    /// atom binds first (recursive table leftmost, §5.1). Then the walk
    /// repeatedly joins the first unused atom with a bound term, as an
    /// index probe, or else the first unused atom, as a nested loop. After
    /// each step's binds it places every constraint the bound registers
    /// can now evaluate (selection pushdown).
    fn compile_variant(
        &mut self,
        rule: &Rule,
        rule_idx: usize,
        head_rel: RelId,
        delta: Option<usize>,
    ) -> Result<CompiledRule> {
        let atoms: Vec<&Atom> = rule.body_atoms().collect();
        let mut pending: Vec<Pending> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                BodyLit::Compare { op, lhs, rhs } => Some((*op, lhs, rhs)),
                BodyLit::Atom(_) => None,
            })
            .collect();
        let mut used = vec![false; atoms.len()];
        let mut regs = Regs::default();

        let delta_binds = match delta {
            Some(d) => {
                used[d] = true;
                Some(self.binds(atoms[d], &mut regs)?)
            }
            None => None,
        };
        let (mut pre_assigns, mut pre_filters) = (Vec::new(), Vec::new());
        if delta.is_some() || atoms.is_empty() {
            self.place(&mut pending, &mut regs, &mut pre_assigns, &mut pre_filters)?;
        }

        let mut steps: Vec<Step> = Vec::new();
        while let Some(ai) = (0..atoms.len())
            .find(|&i| !used[i] && atoms[i].terms.iter().any(|t| regs.is_bound(t)))
            .or_else(|| used.iter().position(|u| !u))
        {
            used[ai] = true;
            let atom = atoms[ai];
            let rel = self.prog.catalog.id(&atom.pred).expect("catalog complete");
            // Probe column: first column whose term is already bound.
            let key_col = atom.terms.iter().position(|t| regs.is_bound(t));
            let probe = match key_col {
                Some(col) => Probe::Index {
                    col,
                    key: self.compile_term(&atom.terms[col], &regs)?,
                },
                None => Probe::Scan,
            };
            // Binds (probe column still checked: key-bit equality on the
            // index is necessary but we re-verify exact value equality).
            let binds = self.binds(atom, &mut regs)?;
            // Record probe/scan facts for placement resolution.
            let leading = steps.is_empty() && delta.is_none();
            let (join_kind, target) = match (key_col, self.is_edb(rel)) {
                (Some(col), true) => {
                    self.edb_probes[rel].insert(col);
                    (JoinKind::Hash, Target::Edb(rel))
                }
                (Some(col), false) => {
                    self.idb_probe_cols[rel].insert(col);
                    self.route_requirements[rel].insert(col);
                    (
                        JoinKind::Index,
                        Target::Idb {
                            rel,
                            index_col: col,
                        },
                    )
                }
                (None, true) => {
                    self.edb_needs_full[rel] |= !leading;
                    (JoinKind::NestedLoop, Target::Edb(rel))
                }
                (None, false) => {
                    self.idb_needs_broadcast[rel] |= !leading;
                    (JoinKind::NestedLoop, Target::Idb { rel, index_col: 0 })
                }
            };
            let (mut assigns, mut filters) = (Vec::new(), Vec::new());
            self.place(&mut pending, &mut regs, &mut assigns, &mut filters)?;
            steps.push(Step {
                target,
                probe,
                binds,
                filters,
                assigns,
                join_kind,
            });
        }
        debug_assert!(pending.is_empty(), "unplaceable constraint in {rule}");

        // Head expressions (merge layout).
        let head_exprs = self.compile_head(rule, &regs)?;

        // Delta route: the first index probe keyed by a register the delta
        // tuple binds pins the route to that register's delta column.
        let delta = delta.zip(delta_binds).map(|(d, binds)| {
            let rel = self.prog.catalog.id(&atoms[d].pred).expect("catalog");
            let route_col = steps.iter().find_map(|st| match &st.probe {
                Probe::Index {
                    key: CExpr::Reg(r), ..
                } => binds.iter().position(|b| *b == BindAction::Bind(*r)),
                _ => None,
            });
            if let Some(c) = route_col {
                self.route_requirements[rel].insert(c);
            }
            DeltaSpec {
                rel,
                // Resolved to a route *index* in resolve_declarations;
                // stash the column here temporarily (usize::MAX =
                // unconstrained).
                route: route_col.unwrap_or(usize::MAX),
                binds,
            }
        });

        Ok(CompiledRule {
            head_rel,
            delta,
            pre_assigns,
            pre_filters,
            steps,
            head_exprs,
            nregs: regs.0.len(),
            rule_idx,
        })
    }

    /// Per-column actions for matching `atom`'s rows, allocating a
    /// register for each variable's first occurrence.
    fn binds<'r>(&self, atom: &'r Atom, regs: &mut Regs<'r>) -> Result<Vec<BindAction>> {
        atom.terms
            .iter()
            .map(|t| {
                Ok(match t {
                    Term::Var(v) => match regs.get(v) {
                        Some(r) => BindAction::Check(r),
                        None => BindAction::Bind(regs.alloc(v)),
                    },
                    Term::Const(c) => BindAction::CheckConst(*c),
                    Term::Param(p) => BindAction::CheckConst(self.param(p)?),
                    Term::Wildcard => BindAction::Skip,
                })
            })
            .collect()
    }

    /// Compiles every pending constraint that `regs` can evaluate, in
    /// body order, until none is left that can: all variables bound makes
    /// a filter; an `=` whose one side is the only unbound variable
    /// assigns it, which may make later constraints evaluable.
    fn place<'r>(
        &self,
        pending: &mut Vec<Pending<'r>>,
        regs: &mut Regs<'r>,
        assigns: &mut Vec<CAssign>,
        filters: &mut Vec<CCond>,
    ) -> Result<()> {
        loop {
            let mut changed = false;
            let mut i = 0;
            while i < pending.len() {
                let (op, lhs, rhs) = pending[i];
                let mut vs = Vec::new();
                lhs.vars(&mut vs);
                rhs.vars(&mut vs);
                vs.retain(|v| regs.get(v).is_none());
                match vs[..] {
                    [] => filters.push(CCond {
                        op,
                        l: self.compile_expr(lhs, regs)?,
                        r: self.compile_expr(rhs, regs)?,
                    }),
                    [v] if op == CmpOp::Eq && (is_var(lhs, v) || is_var(rhs, v)) => {
                        let expr_side = if is_var(lhs, v) { rhs } else { lhs };
                        let expr = self.compile_expr(expr_side, regs)?;
                        assigns.push(CAssign {
                            reg: regs.alloc(v),
                            expr,
                        });
                    }
                    _ => {
                        i += 1;
                        continue;
                    }
                }
                pending.remove(i);
                changed = true;
            }
            if !changed {
                return Ok(());
            }
        }
    }

    fn param(&self, name: &str) -> Result<Value> {
        self.cfg
            .params
            .get(name)
            .copied()
            .ok_or_else(|| DcdError::Planning(format!("parameter '{name}' not supplied")))
    }

    fn compile_term(&self, t: &Term, regs: &Regs) -> Result<CExpr> {
        Ok(match t {
            Term::Var(v) => CExpr::Reg(regs.get(v).ok_or_else(|| {
                DcdError::Planning(format!("variable '{v}' used before it is bound"))
            })?),
            Term::Const(c) => CExpr::Const(*c),
            Term::Param(p) => CExpr::Const(self.param(p)?),
            Term::Wildcard => {
                return Err(DcdError::Planning(
                    "wildcard cannot appear in an expression".into(),
                ))
            }
        })
    }

    fn compile_expr(&self, e: &Expr, regs: &Regs) -> Result<CExpr> {
        Ok(match e {
            Expr::Term(t) => self.compile_term(t, regs)?,
            Expr::Binary { op, lhs, rhs } => CExpr::Bin {
                op: *op,
                l: Box::new(self.compile_expr(lhs, regs)?),
                r: Box::new(self.compile_expr(rhs, regs)?),
            },
        })
    }

    fn compile_head(&self, rule: &Rule, regs: &Regs) -> Result<Vec<CExpr>> {
        let mut out = Vec::with_capacity(rule.head.terms.len() + 1);
        for t in &rule.head.terms {
            match t {
                HeadTerm::Plain(t) => out.push(self.compile_term(t, regs)?),
                // Merge layout: min/max → value; count → contributor;
                // sum → contributor, value.
                HeadTerm::Agg { args, .. } => {
                    for a in args {
                        out.push(self.compile_expr(a, regs)?);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Resolves EDB placement and IDB routing, patching route indices into
    /// the compiled delta specs.
    fn resolve_declarations(&mut self, strata: &mut [PhysStratum]) -> Result<Declarations> {
        let n = self.prog.catalog.len();

        // IDB routing columns.
        let mut idb: Vec<Option<RelDecl>> = vec![None; n];
        for (id, info) in self.prog.catalog.iter() {
            if info.is_edb {
                continue;
            }
            let kind = match &info.agg {
                Some(spec) => StorageKind::Agg {
                    func: spec.func,
                    group_cols: spec.term_idx,
                    epsilon: self.cfg.sum_epsilon,
                },
                None => StorageKind::Set,
            };
            let group_limit = match &kind {
                StorageKind::Agg { group_cols, .. } => *group_cols,
                StorageKind::Set => info.arity,
            };
            if group_limit == 0 {
                return Err(DcdError::Planning(format!(
                    "relation '{}' aggregates with no group-by column",
                    info.name
                )));
            }
            let mut cols: Vec<usize> = self.route_requirements[id]
                .iter()
                .copied()
                .filter(|&c| c < group_limit)
                .collect();
            // Route columns inside the aggregate value are impossible —
            // if a rule probes the aggregate column we must broadcast.
            let unroutable = self.route_requirements[id]
                .iter()
                .any(|&c| c >= group_limit);
            if cols.is_empty() {
                cols.push(0);
            }
            let broadcast = self.idb_needs_broadcast[id] || unroutable;
            idb[id] = Some(RelDecl {
                id,
                name: info.name.clone(),
                arity: info.arity,
                kind,
                partition_cols: cols,
                broadcast,
                index_cols: self.idb_probe_cols[id].iter().copied().collect(),
            });
        }

        // EDB placement fixpoint: start optimistic, demote on violations.
        let mut placement: Vec<Option<Placement>> = vec![None; n];
        for (id, info) in self.prog.catalog.iter() {
            if !info.is_edb {
                continue;
            }
            let probes = &self.edb_probes[id];
            let p = if self.edb_needs_full[id] || probes.len() > 1 {
                Placement::Replicated
            } else if let Some(&c) = probes.iter().next() {
                Placement::Partitioned(c)
            } else {
                Placement::Partitioned(0)
            };
            placement[id] = Some(p);
        }

        // Demotion fixpoint: a probe of a partitioned EDB is valid only when
        // its key register is "aligned" (guaranteed to hash to the local
        // worker). Alignment sources: the delta route column, or the
        // partition column of a leading partitioned scan.
        loop {
            let mut changed = false;
            for stratum in strata.iter() {
                for r in stratum.init_rules.iter().chain(&stratum.delta_rules) {
                    let aligned = self.aligned_reg(r, &placement, &idb);
                    for st in &r.steps {
                        let Probe::Index { key, .. } = &st.probe else {
                            continue;
                        };
                        let rel = st.target.rel();
                        let key_aligned = matches!(
                            (key.as_reg(), aligned),
                            (Some(kr), Some(ar)) if kr == ar
                        );
                        match st.target {
                            Target::Edb(_) => {
                                if let Some(Placement::Partitioned(_)) = placement[rel] {
                                    if !key_aligned {
                                        placement[rel] = Some(Placement::Replicated);
                                        changed = true;
                                    }
                                }
                            }
                            Target::Idb { .. } => {
                                let decl = idb[rel].as_mut().expect("idb decl");
                                if !decl.broadcast && !key_aligned {
                                    // Probe key not aligned with the probed
                                    // column routing: fall back to broadcast.
                                    decl.broadcast = true;
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

        // Patch delta route columns into route indices.
        for stratum in strata.iter_mut() {
            for r in stratum.delta_rules.iter_mut() {
                let Some(d) = r.delta.as_mut() else { continue };
                let decl = idb[d.rel].as_ref().expect("idb decl");
                d.route = if d.route == usize::MAX {
                    0
                } else {
                    decl.partition_cols
                        .iter()
                        .position(|&c| c == d.route)
                        .unwrap_or(0)
                };
            }
        }

        let mut edb: Vec<Option<EdbDecl>> = vec![None; n];
        for (id, info) in self.prog.catalog.iter() {
            if !info.is_edb {
                continue;
            }
            edb[id] = Some(EdbDecl {
                id,
                name: info.name.clone(),
                arity: info.arity,
                placement: placement[id].expect("placed"),
                index_cols: self.edb_probes[id].iter().copied().collect(),
            });
        }
        Ok((edb, idb))
    }

    /// The register (if any) whose value is guaranteed to hash to the
    /// executing worker in every execution of `r`.
    fn aligned_reg(
        &self,
        r: &CompiledRule,
        placement: &[Option<Placement>],
        idb: &[Option<RelDecl>],
    ) -> Option<u16> {
        if let Some(d) = &r.delta {
            // Delta tuples arrive routed by the variant's route column
            // (broadcast relations give no alignment).
            let decl = idb[d.rel].as_ref()?;
            if decl.broadcast {
                return None;
            }
            // `d.route` is still a *column* at this stage of resolution.
            let col = if d.route == usize::MAX {
                *decl.partition_cols.first()?
            } else if decl.partition_cols.contains(&d.route) {
                d.route
            } else {
                // The requested column was unroutable (e.g. an aggregate
                // value column): tuples actually arrive via another route,
                // so nothing is aligned.
                return None;
            };
            return match d.binds.get(col) {
                Some(BindAction::Bind(reg)) | Some(BindAction::Check(reg)) => Some(*reg),
                _ => None,
            };
        }
        // Init rule: leading partitioned scan aligns its partition column.
        let first = r.steps.first()?;
        if first.probe != Probe::Scan {
            return None;
        }
        let col = match first.target {
            Target::Edb(rel) => match placement[rel]? {
                Placement::Partitioned(c) => c,
                Placement::Replicated => return None,
            },
            Target::Idb { rel, .. } => {
                let decl = idb[rel].as_ref()?;
                if decl.broadcast || decl.partition_cols.len() != 1 {
                    return None;
                }
                decl.partition_cols[0]
            }
        };
        match first.binds.get(col) {
            Some(BindAction::Bind(reg)) | Some(BindAction::Check(reg)) => Some(*reg),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parser::parse_program;

    fn plan_src(src: &str) -> PhysicalPlan {
        plan_src_cfg(src, PlannerConfig::default())
    }

    fn plan_src_cfg(src: &str, cfg: PlannerConfig) -> PhysicalPlan {
        let a = analyze(parse_program(src).unwrap()).unwrap();
        plan(&a, &cfg).unwrap()
    }

    #[test]
    fn tc_plan_shapes() {
        let p = plan_src("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).");
        let tc = p.rel_by_name("tc").unwrap();
        let arc = p.rel_by_name("arc").unwrap();
        let tc_decl = p.idb[tc].as_ref().unwrap();
        assert_eq!(tc_decl.kind, StorageKind::Set);
        // tc routed by its join column Z = column 1.
        assert_eq!(tc_decl.partition_cols, vec![1]);
        assert!(!tc_decl.broadcast);
        let arc_decl = p.edb[arc].as_ref().unwrap();
        assert_eq!(arc_decl.placement, Placement::Partitioned(0));
        let s = &p.strata[0];
        assert_eq!(s.delta_rules.len(), 1);
        let dr = &s.delta_rules[0];
        assert_eq!(dr.steps.len(), 1);
        assert_eq!(dr.steps[0].join_kind, JoinKind::Hash);
        // δtc binds X, Z into registers 0, 1; arc is probed on Z.
        let d = dr.delta.as_ref().unwrap();
        assert_eq!(d.rel, tc);
        assert_eq!(d.route, 0);
        assert_eq!(d.binds, vec![BindAction::Bind(0), BindAction::Bind(1)]);
        assert_eq!(dr.steps[0].target, Target::Edb(arc));
        assert_eq!(
            dr.steps[0].probe,
            Probe::Index {
                col: 0,
                key: CExpr::Reg(1)
            }
        );
    }

    #[test]
    fn cc_aggregate_plan() {
        let p = plan_src(
            "cc2(Y, min<Y>) <- arc(Y, _).
             cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).
             cc(Y, min<Z>) <- cc2(Y, Z).",
        );
        let cc2 = p.rel_by_name("cc2").unwrap();
        let d = p.idb[cc2].as_ref().unwrap();
        assert!(matches!(
            d.kind,
            StorageKind::Agg {
                func: AggFunc::Min,
                group_cols: 1,
                ..
            }
        ));
        assert_eq!(d.partition_cols, vec![0]);
        // Head of the delta rule emits (Y, Z): group + value.
        let dr = &p.strata[0].delta_rules[0];
        assert_eq!(dr.head_exprs.len(), 2);
    }

    #[test]
    fn linear_rules_probe_only_base_relations() {
        let sssp = plan_src(
            "sp(To, min<C>) <- src(To), C = 0.
             sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.",
        );
        assert!(sssp.strata[0].delta_rules.iter().all(|r| r.is_linear()));
        let apsp = plan_src(
            "path(A, B, min<D>) <- warc(A, B, D).
             path(A, B, min<D>) <- path(A, C, D1), path(C, B, D2), D = D1 + D2.",
        );
        let rules = &apsp.strata[0].delta_rules;
        assert!(!rules.is_empty());
        assert!(rules.iter().all(|r| !r.is_linear()));
    }

    #[test]
    fn sg_replicates_arc() {
        let p = plan_src(
            "sg(X, Y) <- arc(P, X), arc(P, Y), X != Y.
             sg(X, Y) <- arc(A, X), sg(A, B), arc(B, Y).",
        );
        let arc = p.rel_by_name("arc").unwrap();
        // Two probe keys (A and B) cannot both be aligned: replicate.
        assert_eq!(
            p.edb[arc].as_ref().unwrap().placement,
            Placement::Replicated
        );
        let sg = p.rel_by_name("sg").unwrap();
        assert!(!p.idb[sg].as_ref().unwrap().broadcast);
        // Source order is arc, sg, arc; the delta variant starts from sg
        // (recursive table leftmost, §5.1) and index-probes both arcs.
        let dr = &p.strata[0].delta_rules[0];
        assert_eq!(dr.delta.as_ref().unwrap().rel, sg);
        assert_eq!(dr.steps.len(), 2);
        for st in &dr.steps {
            assert_eq!(st.target, Target::Edb(arc));
            assert!(matches!(st.probe, Probe::Index { .. }), "{st:?}");
        }
    }

    #[test]
    fn apsp_two_routes_two_variants() {
        let p = plan_src(
            "path(A, B, min<D>) <- warc(A, B, D).
             path(A, B, min<D>) <- path(A, C, D1), path(C, B, D2), D = D1 + D2.
             apsp(A, B, min<D>) <- path(A, B, D).",
        );
        let path = p.rel_by_name("path").unwrap();
        let d = p.idb[path].as_ref().unwrap();
        assert_eq!(d.partition_cols, vec![0, 1], "replicate to H(A) and H(B)");
        assert!(!d.broadcast);
        assert_eq!(d.index_cols, vec![0, 1]);
        let s = &p.strata[0];
        assert_eq!(s.delta_rules.len(), 2);
        let routes: BTreeSet<usize> = s
            .delta_rules
            .iter()
            .map(|r| r.delta.as_ref().unwrap().route)
            .collect();
        assert_eq!(routes, BTreeSet::from([0, 1]));
        // Both variants index-join the other path occurrence.
        for r in &s.delta_rules {
            assert_eq!(r.steps[0].join_kind, JoinKind::Index);
        }
        // δ on atom 0, path(A, C, D1), binds C into register 1 and probes
        // atom 1 on its column 0; δ on atom 1, path(C, B, D2), binds C
        // into register 0 and probes atom 0 on its column 1.
        let probes: Vec<&Probe> = s.delta_rules.iter().map(|r| &r.steps[0].probe).collect();
        assert_eq!(
            probes,
            [
                &Probe::Index {
                    col: 0,
                    key: CExpr::Reg(1)
                },
                &Probe::Index {
                    col: 1,
                    key: CExpr::Reg(0)
                }
            ]
        );
    }

    #[test]
    fn sssp_with_params() {
        let mut cfg = PlannerConfig::default();
        cfg.params.insert("start".into(), Value::Int(1));
        let p = plan_src_cfg(
            "sp(To, min<C>) <- To = start, C = 0.
             sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
             results(To, min<C>) <- sp(To, C).",
            cfg,
        );
        let s = &p.strata[0];
        // Constraint-only init rule: no steps, two pre-assignments.
        let init = &s.init_rules[0];
        assert!(init.steps.is_empty());
        assert_eq!(
            init.pre_assigns,
            vec![
                CAssign {
                    reg: 0,
                    expr: CExpr::Const(Value::Int(1))
                },
                CAssign {
                    reg: 1,
                    expr: CExpr::Const(Value::Int(0))
                }
            ]
        );
        // Delta rule: assignment C = C1 + C2 on the warc step.
        let dr = &s.delta_rules[0];
        assert_eq!(dr.steps.len(), 1);
        assert_eq!(dr.steps[0].assigns.len(), 1);
        let warc = p.rel_by_name("warc").unwrap();
        assert_eq!(
            p.edb[warc].as_ref().unwrap().placement,
            Placement::Partitioned(0)
        );
    }

    #[test]
    fn missing_param_errors() {
        let a = analyze(
            parse_program("sp(To, min<C>) <- To = start, C = 0. sp(X, min<C>) <- sp(X, C).")
                .unwrap(),
        )
        .unwrap();
        let e = plan(&a, &PlannerConfig::default()).unwrap_err();
        assert!(e.to_string().contains("start"));
    }

    #[test]
    fn attend_mutual_recursion_plan() {
        let p = plan_src(
            "attend(X) <- organizer(X).
             cnt(Y, count<X>) <- attend(X), friend(Y, X).
             attend(X) <- cnt(X, N), N >= 3.",
        );
        let friend = p.rel_by_name("friend").unwrap();
        assert_eq!(
            p.edb[friend].as_ref().unwrap().placement,
            Placement::Partitioned(1)
        );
        let cnt = p.rel_by_name("cnt").unwrap();
        assert!(matches!(
            p.idb[cnt].as_ref().unwrap().kind,
            StorageKind::Agg {
                func: AggFunc::Count,
                group_cols: 1,
                ..
            }
        ));
        // Find the δcnt variant: it has a pre-filter N >= 3.
        let s = p.strata.iter().find(|s| s.recursive).unwrap();
        let cnt_variant = s
            .delta_rules
            .iter()
            .find(|r| r.delta.as_ref().unwrap().rel == cnt)
            .unwrap();
        assert_eq!(cnt_variant.pre_filters.len(), 1);
    }

    #[test]
    fn pagerank_sum_layout() {
        let mut cfg = PlannerConfig::default();
        cfg.params.insert("alpha".into(), Value::Float(0.85));
        cfg.params.insert("vnum".into(), Value::Float(100.0));
        cfg.sum_epsilon = 1e-7;
        let p = plan_src_cfg(
            "rank(X, sum<(X, I)>) <- matrix(X, _, _), I = (1 - alpha) / vnum.
             rank(X, sum<(Y, K)>) <- rank(Y, C), matrix(Y, X, D), K = alpha * (C / D).
             results(X, V) <- rank(X, V).",
            cfg,
        );
        let rank = p.rel_by_name("rank").unwrap();
        let d = p.idb[rank].as_ref().unwrap();
        assert!(matches!(
            d.kind,
            StorageKind::Agg {
                func: AggFunc::Sum,
                group_cols: 1,
                ..
            }
        ));
        // Merge layout (X, contributor, value): three head exprs.
        let dr = &p.strata[0].delta_rules[0];
        assert_eq!(dr.head_exprs.len(), 3);
        let matrix = p.rel_by_name("matrix").unwrap();
        assert_eq!(
            p.edb[matrix].as_ref().unwrap().placement,
            Placement::Partitioned(0)
        );
    }

    #[test]
    fn cross_product_replicates_second_table() {
        let p = plan_src("p(X, Y) <- q(X), r(Y).");
        let r = p.rel_by_name("r").unwrap();
        assert_eq!(p.edb[r].as_ref().unwrap().placement, Placement::Replicated);
        let q = p.rel_by_name("q").unwrap();
        assert_eq!(
            p.edb[q].as_ref().unwrap().placement,
            Placement::Partitioned(0)
        );
        // r(Y) shares no variable with q(X): a nested-loop scan.
        let rule = &p.strata[0].init_rules[0];
        assert_eq!(rule.steps[1].target, Target::Edb(r));
        assert_eq!(rule.steps[1].probe, Probe::Scan);
        assert_eq!(rule.steps[1].join_kind, JoinKind::NestedLoop);
    }

    #[test]
    fn constraints_run_after_the_step_that_binds_them() {
        // X != Y needs the second arc's Y: step 1, not step 0.
        let sg = plan_src("sg(X, Y) <- arc(P, X), arc(P, Y), X != Y.");
        let r = &sg.strata[0].init_rules[0];
        assert!(r.steps[0].filters.is_empty());
        assert_eq!(r.steps[1].filters.len(), 1);
        assert_eq!(r.steps[1].filters[0].op, CmpOp::Ne);

        let sssp = plan_src(
            "sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
             sp(To, min<C>) <- seed(To), C = 0.",
        );
        let s = &sssp.strata[0];
        // C = C1 + C2 needs warc's C2 (register 3): an assignment on the
        // warc step, into the next free register.
        let dr = &s.delta_rules[0];
        assert!(dr.pre_assigns.is_empty());
        assert_eq!(
            dr.steps[0].assigns,
            vec![CAssign {
                reg: 4,
                expr: CExpr::Bin {
                    op: ArithOp::Add,
                    l: Box::new(CExpr::Reg(1)),
                    r: Box::new(CExpr::Reg(3)),
                },
            }]
        );
        // C = 0 runs right after the first atom, seed(To).
        let ir = &s.init_rules[0];
        assert!(ir.pre_assigns.is_empty());
        assert_eq!(
            ir.steps[0].assigns,
            vec![CAssign {
                reg: 1,
                expr: CExpr::Const(Value::Int(0))
            }]
        );
    }

    #[test]
    fn assigned_register_lets_a_later_atom_be_index_probed() {
        // Y is bound only by `Y = X + 1`, yet r(Y) is probed on it rather
        // than scanned: the walk picks atoms by bound registers.
        let p = plan_src("p(X, Y) <- q(X), Y = X + 1, r(Y).");
        let rule = &p.strata[0].init_rules[0];
        assert_eq!(rule.steps[0].assigns.len(), 1);
        assert_eq!(
            rule.steps[1].probe,
            Probe::Index {
                col: 0,
                key: CExpr::Reg(1)
            }
        );
    }

    #[test]
    fn explain_output_mentions_placement_and_joins() {
        let p = plan_src("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).");
        let text = p.explain();
        assert!(text.contains("Partitioned(0)"), "{text}");
        assert!(text.contains("⋈hash arc"), "{text}");
        assert!(text.contains("δtc"), "{text}");
    }

    #[test]
    fn delivery_plan_partitions_assbl_on_second_column() {
        let p = plan_src(
            "delivery(P, max<D>) <- basic(P, D).
             delivery(P, max<D>) <- assbl(P, S), delivery(S, D).
             results(P, max<D>) <- delivery(P, D).",
        );
        let assbl = p.rel_by_name("assbl").unwrap();
        assert_eq!(
            p.edb[assbl].as_ref().unwrap().placement,
            Placement::Partitioned(1)
        );
        let delivery = p.rel_by_name("delivery").unwrap();
        assert_eq!(p.idb[delivery].as_ref().unwrap().partition_cols, vec![0]);
    }
}
