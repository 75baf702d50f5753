//! Error type shared by all layers of the engine.

use std::fmt;

/// Engine-wide error. Variants are coarse-grained on purpose: the engine
/// reports errors to users as text (like a DBMS), so the message carries
/// the detail and the variant carries the category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexical error (bad character, unterminated string, ...).
    Lex(String),
    /// Syntax error from the parser.
    Parse(String),
    /// Binder/analyzer error (unknown column, ambiguous name, ...).
    Bind(String),
    /// Catalog error (unknown/duplicate table, schema mismatch, ...).
    Catalog(String),
    /// Runtime evaluation error (type mismatch, division by zero, ...).
    Eval(String),
    /// Error raised by a solver or the solver framework.
    Solver(String),
    /// A solver error of one particular cause: an expression over
    /// decision variables that has no linear form. Reads as a solver
    /// error; the category lets the model compiler tell "needs a
    /// black-box solver" from every other rule failure.
    NonLinear(String),
    /// A solve exceeded its wall-clock budget or was cancelled
    /// (`SET solver_timeout_ms` / `CANCEL <session>`). The message
    /// carries the partial incumbent trajectory when one exists.
    SolveTimeout(String),
    /// Feature recognised but not supported.
    Unsupported(String),
}

impl Error {
    pub fn lex(msg: impl Into<String>) -> Self {
        Error::Lex(msg.into())
    }
    pub fn parse(msg: impl Into<String>) -> Self {
        Error::Parse(msg.into())
    }
    pub fn bind(msg: impl Into<String>) -> Self {
        Error::Bind(msg.into())
    }
    pub fn catalog(msg: impl Into<String>) -> Self {
        Error::Catalog(msg.into())
    }
    pub fn eval(msg: impl Into<String>) -> Self {
        Error::Eval(msg.into())
    }
    pub fn solver(msg: impl Into<String>) -> Self {
        Error::Solver(msg.into())
    }
    pub fn non_linear(msg: impl Into<String>) -> Self {
        Error::NonLinear(msg.into())
    }
    pub fn solve_timeout(msg: impl Into<String>) -> Self {
        Error::SolveTimeout(msg.into())
    }
    pub fn unsupported(msg: impl Into<String>) -> Self {
        Error::Unsupported(msg.into())
    }

    /// The message without its category prefix.
    pub fn message(&self) -> &str {
        match self {
            Error::Lex(m)
            | Error::Parse(m)
            | Error::Bind(m)
            | Error::Catalog(m)
            | Error::Eval(m)
            | Error::Solver(m)
            | Error::NonLinear(m)
            | Error::SolveTimeout(m)
            | Error::Unsupported(m) => m,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex(m) => write!(f, "lexical error: {m}"),
            Error::Parse(m) => write!(f, "syntax error: {m}"),
            Error::Bind(m) => write!(f, "binder error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Solver(m) | Error::NonLinear(m) => write!(f, "solver error: {m}"),
            Error::SolveTimeout(m) => write!(f, "solve timeout: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = Error::parse("unexpected token");
        assert_eq!(e.to_string(), "syntax error: unexpected token");
        let e = Error::eval("division by zero");
        assert_eq!(e.to_string(), "evaluation error: division by zero");
    }

    #[test]
    fn non_linear_reads_as_a_solver_error() {
        assert_eq!(Error::non_linear("x*y").to_string(), Error::solver("x*y").to_string());
        assert_ne!(Error::non_linear("x*y"), Error::solver("x*y"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::bind("x"), Error::bind("x"));
        assert_ne!(Error::bind("x"), Error::catalog("x"));
    }
}
