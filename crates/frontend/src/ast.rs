//! Abstract syntax tree for DCDatalog programs.
//!
//! The surface syntax follows the paper's examples:
//!
//! ```text
//! tc(X, Y) <- arc(X, Y).
//! tc(X, Y) <- tc(X, Z), arc(Z, Y).
//! cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).
//! sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
//! rank(X, sum<(Y, K)>) <- rank(Y, C), matrix(Y, X, D), K = alpha * (C / D).
//! ```
//!
//! Identifiers starting with an upper-case letter are variables; lower-case
//! identifiers are predicate names in atom position and *parameters*
//! (engine-supplied constants such as `start` or `alpha`) in term position.

pub use dcd_common::AggFunc;
use dcd_common::Value;
use std::fmt;

/// A term in an atom.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// An upper-case variable.
    Var(String),
    /// A literal constant.
    Const(Value),
    /// A lower-case identifier in term position: a named parameter bound
    /// at evaluation time (`start`, `alpha`, `vnum`, …).
    Param(String),
    /// `_` — matches anything, binds nothing.
    Wildcard,
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v),
            Term::Const(c) => write!(f, "{c}"),
            Term::Param(p) => f.write_str(p),
            Term::Wildcard => f.write_str("_"),
        }
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// Comparison operators in body constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=` (filter when both sides bound; binding when the left side is an
    /// unbound variable).
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// An arithmetic expression over terms.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A leaf term.
    Term(Term),
    /// A binary operation.
    Binary {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Collects the variable names referenced by the expression.
    pub fn vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Term(Term::Var(v)) => out.push(v),
            Expr::Term(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.vars(out);
                rhs.vars(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
        }
    }
}

/// A term in a rule head: plain, or an aggregate.
#[derive(Clone, Debug, PartialEq)]
pub enum HeadTerm {
    /// A plain term (group-by column for aggregate heads).
    Plain(Term),
    /// An aggregate: `min<V>`, `max<V>`, `sum<(C, V)>`, `count<C>`.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// One argument for min/max/count, two (contributor, value) for
        /// sum.
        args: Vec<Expr>,
    },
}

impl fmt::Display for HeadTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeadTerm::Plain(t) => write!(f, "{t}"),
            HeadTerm::Agg { func, args } => {
                if args.len() == 1 {
                    write!(f, "{func}<{}>", args[0])
                } else {
                    write!(f, "{func}<(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")>")
                }
            }
        }
    }
}

/// A predicate application in a rule body.
#[derive(Clone, Debug, PartialEq)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A rule head: predicate plus (possibly aggregate) terms.
#[derive(Clone, Debug, PartialEq)]
pub struct Head {
    /// Predicate name.
    pub pred: String,
    /// Head terms.
    pub terms: Vec<HeadTerm>,
}

impl Head {
    /// The aggregate spec, if the head carries one. Returns the index of
    /// the aggregate term too.
    pub fn aggregate(&self) -> Option<(usize, &AggFunc, &[Expr])> {
        self.terms.iter().enumerate().find_map(|(i, t)| match t {
            HeadTerm::Agg { func, args } => Some((i, func, args.as_slice())),
            HeadTerm::Plain(_) => None,
        })
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A body literal: an atom or a comparison/assignment constraint.
#[derive(Clone, Debug, PartialEq)]
pub enum BodyLit {
    /// A positive atom.
    Atom(Atom),
    /// `lhs op rhs` — filter, or binding when `op` is `=` and `lhs` is a
    /// single unbound variable.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left side.
        lhs: Expr,
        /// Right side.
        rhs: Expr,
    },
}

impl fmt::Display for BodyLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyLit::Atom(a) => write!(f, "{a}"),
            BodyLit::Compare { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
        }
    }
}

/// A Datalog rule `head <- body.` (a fact when the body is empty).
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// The head.
    pub head: Head,
    /// The body literals.
    pub body: Vec<BodyLit>,
}

impl Rule {
    /// Body atoms only (skipping constraints).
    pub fn body_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            BodyLit::Atom(a) => Some(a),
            _ => None,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " <- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

/// A parsed program: an ordered list of rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramAst {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl fmt::Display for ProgramAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(s: &str) -> Term {
        Term::Var(s.into())
    }

    #[test]
    fn display_round_trip_shapes() {
        let rule = Rule {
            head: Head {
                pred: "tc".into(),
                terms: vec![HeadTerm::Plain(var("X")), HeadTerm::Plain(var("Y"))],
            },
            body: vec![
                BodyLit::Atom(Atom {
                    pred: "tc".into(),
                    terms: vec![var("X"), var("Z")],
                }),
                BodyLit::Atom(Atom {
                    pred: "arc".into(),
                    terms: vec![var("Z"), var("Y")],
                }),
            ],
        };
        assert_eq!(rule.to_string(), "tc(X, Y) <- tc(X, Z), arc(Z, Y).");
    }

    #[test]
    fn aggregate_display() {
        let h = Head {
            pred: "rank".into(),
            terms: vec![
                HeadTerm::Plain(var("X")),
                HeadTerm::Agg {
                    func: AggFunc::Sum,
                    args: vec![Expr::Term(var("Y")), Expr::Term(var("K"))],
                },
            ],
        };
        assert_eq!(h.to_string(), "rank(X, sum<(Y, K)>)");
        let (idx, func, args) = h.aggregate().unwrap();
        assert_eq!(idx, 1);
        assert_eq!(*func, AggFunc::Sum);
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn expr_vars_collects_all() {
        let e = Expr::Binary {
            op: ArithOp::Add,
            lhs: Box::new(Expr::Term(var("A"))),
            rhs: Box::new(Expr::Binary {
                op: ArithOp::Mul,
                lhs: Box::new(Expr::Term(Term::Const(Value::Int(2)))),
                rhs: Box::new(Expr::Term(var("B"))),
            }),
        };
        let mut vs = Vec::new();
        e.vars(&mut vs);
        assert_eq!(vs, vec!["A", "B"]);
        assert_eq!(e.to_string(), "(A + (2 * B))");
    }

    #[test]
    fn body_atoms_skips_constraints() {
        let rule = Rule {
            head: Head {
                pred: "p".into(),
                terms: vec![HeadTerm::Plain(var("X"))],
            },
            body: vec![
                BodyLit::Atom(Atom {
                    pred: "q".into(),
                    terms: vec![var("X")],
                }),
                BodyLit::Compare {
                    op: CmpOp::Ge,
                    lhs: Expr::Term(var("X")),
                    rhs: Expr::Term(Term::Const(Value::Int(3))),
                },
            ],
        };
        assert_eq!(rule.body_atoms().count(), 1);
    }
}
