//! Workspace-wide error type.

use std::fmt;

/// Errors surfaced by the DCDatalog frontend and engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DcdError {
    /// Lexical or syntactic error in a Datalog program, with 1-based
    /// line/column of the offending token.
    Parse {
        /// Human-readable description.
        message: String,
        /// 1-based source line.
        line: usize,
        /// 1-based source column.
        col: usize,
    },
    /// Semantic error found during program analysis (unbound variables,
    /// arity mismatches, negation in recursion, …).
    Analysis(String),
    /// Error while planning a validated program.
    Planning(String),
    /// Runtime failure during evaluation.
    Execution(String),
    /// The evaluation ran past its wall-clock deadline.
    Timeout,
    /// A worker thread panicked; `message` is the panic payload.
    WorkerPanic {
        /// The worker that panicked.
        worker: usize,
        /// The panic payload, or a placeholder when it was not a string.
        message: String,
    },
    /// An EDB relation referenced by the program was not supplied.
    MissingRelation(String),
}

impl fmt::Display for DcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcdError::Parse { message, line, col } => {
                write!(f, "parse error at {line}:{col}: {message}")
            }
            DcdError::Analysis(m) => write!(f, "analysis error: {m}"),
            DcdError::Planning(m) => write!(f, "planning error: {m}"),
            DcdError::Execution(m) => write!(f, "execution error: {m}"),
            DcdError::Timeout => write!(f, "execution error: evaluation timed out"),
            DcdError::WorkerPanic { worker, message } => {
                write!(f, "execution error: worker {worker} panicked: {message}")
            }
            DcdError::MissingRelation(m) => write!(f, "missing EDB relation: {m}"),
        }
    }
}

impl std::error::Error for DcdError {}

/// Workspace result alias.
pub type Result<T> = std::result::Result<T, DcdError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = DcdError::Parse {
            message: "unexpected token".into(),
            line: 3,
            col: 14,
        };
        assert_eq!(e.to_string(), "parse error at 3:14: unexpected token");
        assert_eq!(
            DcdError::MissingRelation("arc".into()).to_string(),
            "missing EDB relation: arc"
        );
        // Callers that only see the text still recognize a timeout.
        assert!(DcdError::Timeout.to_string().contains("timed out"));
        let panic = DcdError::WorkerPanic {
            worker: 2,
            message: "boom".into(),
        };
        assert_eq!(
            panic.to_string(),
            "execution error: worker 2 panicked: boom"
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DcdError::Analysis("x".into()));
    }
}
