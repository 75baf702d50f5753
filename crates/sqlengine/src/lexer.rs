//! SQL lexer.
//!
//! Produces a flat token stream. Keywords are *not* distinguished here —
//! the parser matches identifiers case-insensitively, which keeps every
//! keyword usable as a column name where unambiguous (PostgreSQL-ish).

use crate::error::{Error, Result};
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Unquoted identifier, lower-cased (SQL folds unquoted names).
    Ident(String),
    /// Quoted identifier, case preserved.
    QuotedIdent(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes stripped, escapes resolved).
    Str(String),
    /// Bit string literal body, e.g. `01` for `b'01'`.
    BitStr(String),
    // Punctuation / operators.
    LParen,
    RParen,
    Comma,
    Dot,
    Semi,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Caret,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Shl, // <<
    Concat,
    Amp,
    Pipe,
    Hash,
    Tilde,
    DoubleColon,
    Assign, // :=
    Eof,
}

impl Token {
    /// Case-insensitive keyword match against an unquoted identifier.
    pub fn is_kw(&self, kw: &str) -> bool {
        match self {
            Token::Ident(s) => s.eq_ignore_ascii_case(kw),
            _ => false,
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::QuotedIdent(s) => write!(f, "\"{s}\""),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::BitStr(s) => write!(f, "b'{s}'"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Comma => f.write_str(","),
            Token::Dot => f.write_str("."),
            Token::Semi => f.write_str(";"),
            Token::Star => f.write_str("*"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Caret => f.write_str("^"),
            Token::Eq => f.write_str("="),
            Token::NotEq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
            Token::Shl => f.write_str("<<"),
            Token::Concat => f.write_str("||"),
            Token::Amp => f.write_str("&"),
            Token::Pipe => f.write_str("|"),
            Token::Hash => f.write_str("#"),
            Token::Tilde => f.write_str("~"),
            Token::DoubleColon => f.write_str("::"),
            Token::Assign => f.write_str(":="),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

/// Tokenize a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    let n = bytes.len();
    while i < n {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            '-' if i + 1 < n && bytes[i + 1] == b'-' => {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let start = i;
                i += 2;
                let mut depth = 1;
                while i + 1 < n && depth > 0 {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else if bytes[i] == b'/' && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    return Err(Error::lex(format!(
                        "unterminated block comment starting at byte {start}"
                    )));
                }
            }
            '\'' => {
                let (s, next) = lex_quoted(input, i, "string literal")?;
                out.push(Token::Str(s));
                i = next;
            }
            'b' | 'B' if i + 1 < n && bytes[i + 1] == b'\'' => {
                let (s, next) = lex_quoted(input, i + 1, "string literal")?;
                out.push(Token::BitStr(s));
                i = next;
            }
            'e' | 'E' if i + 1 < n && bytes[i + 1] == b'\'' => {
                // Treat e'...' like a plain string (no backslash escapes needed here).
                let (s, next) = lex_quoted(input, i + 1, "string literal")?;
                out.push(Token::Str(s));
                i = next;
            }
            '"' => {
                let (s, next) = lex_quoted(input, i, "quoted identifier")?;
                out.push(Token::QuotedIdent(s));
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < n && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_ascii_lowercase()));
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(input, i)?;
                out.push(tok);
                i = next;
            }
            '.' if i + 1 < n && (bytes[i + 1] as char).is_ascii_digit() => {
                let (tok, next) = lex_number(input, i)?;
                out.push(tok);
                i = next;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '%' => {
                out.push(Token::Percent);
                i += 1;
            }
            '^' => {
                out.push(Token::Caret);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' if i + 1 < n && bytes[i + 1] == b'=' => {
                out.push(Token::NotEq);
                i += 2;
            }
            '<' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    out.push(Token::LtEq);
                    i += 2;
                } else if i + 1 < n && bytes[i + 1] == b'>' {
                    out.push(Token::NotEq);
                    i += 2;
                } else if i + 1 < n && bytes[i + 1] == b'<' {
                    out.push(Token::Shl);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    out.push(Token::GtEq);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '|' => {
                if i + 1 < n && bytes[i + 1] == b'|' {
                    out.push(Token::Concat);
                    i += 2;
                } else {
                    out.push(Token::Pipe);
                    i += 1;
                }
            }
            '&' => {
                out.push(Token::Amp);
                i += 1;
            }
            '#' => {
                out.push(Token::Hash);
                i += 1;
            }
            '~' => {
                out.push(Token::Tilde);
                i += 1;
            }
            ':' => {
                if i + 1 < n && bytes[i + 1] == b':' {
                    out.push(Token::DoubleColon);
                    i += 2;
                } else if i + 1 < n && bytes[i + 1] == b'=' {
                    out.push(Token::Assign);
                    i += 2;
                } else {
                    return Err(Error::lex("stray ':'"));
                }
            }
            other => return Err(Error::lex(format!("unexpected character '{other}' at byte {i}"))),
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

/// The text between the quote at byte `start` and its closing quote — a
/// doubled quote stands for one — and the byte after the closing quote.
/// `what` names the token when there is no closing quote.
fn lex_quoted(input: &str, start: usize, what: &str) -> Result<(String, usize)> {
    let quote = &input[start..start + 1];
    let mut s = String::new();
    let mut from = start + 1;
    loop {
        let Some(len) = input[from..].find(quote) else {
            return Err(Error::lex(format!("unterminated {what}")));
        };
        s.push_str(&input[from..from + len]);
        let after = from + len + 1;
        if !input[after..].starts_with(quote) {
            return Ok((s, after));
        }
        s.push_str(quote);
        from = after + 1;
    }
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize)> {
    let bytes = input.as_bytes();
    let n = bytes.len();
    let mut i = start;
    let mut is_float = false;
    while i < n && (bytes[i] as char).is_ascii_digit() {
        i += 1;
    }
    if i < n && bytes[i] == b'.' && !(i + 1 < n && bytes[i + 1] == b'.') {
        // Not part of `1..2` (we don't support ranges, but be safe) and
        // only a decimal point if followed by digit or end/non-ident.
        is_float = true;
        i += 1;
        while i < n && (bytes[i] as char).is_ascii_digit() {
            i += 1;
        }
    }
    if i < n && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < n && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < n && (bytes[j] as char).is_ascii_digit() {
            is_float = true;
            i = j;
            while i < n && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    if is_float {
        let v: f64 =
            text.parse().map_err(|_| Error::lex(format!("bad numeric literal '{text}'")))?;
        Ok((Token::Float(v), i))
    } else {
        match text.parse::<i64>() {
            Ok(v) => Ok((Token::Int(v), i)),
            // Huge integer literals degrade to float, like many engines.
            Err(_) => {
                let v: f64 = text
                    .parse()
                    .map_err(|_| Error::lex(format!("bad numeric literal '{text}'")))?;
                Ok((Token::Float(v), i))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        let mut t = tokenize(s).unwrap();
        assert_eq!(t.pop(), Some(Token::Eof));
        t
    }

    #[test]
    fn idents_fold_to_lowercase() {
        assert_eq!(
            toks("SELECT Foo"),
            vec![Token::Ident("select".into()), Token::Ident("foo".into())]
        );
    }

    #[test]
    fn quoted_idents_preserve_case() {
        assert_eq!(toks(r#""MiXeD""#), vec![Token::QuotedIdent("MiXeD".into())]);
        assert_eq!(toks(r#""a""b""#), vec![Token::QuotedIdent("a\"b".into())]);
    }

    #[test]
    fn quoted_text_keeps_its_characters() {
        assert_eq!(
            toks(r#""café" "naïve""x""#),
            vec![Token::QuotedIdent("café".into()), Token::QuotedIdent("naïve\"x".into())]
        );
        assert_eq!(toks("'Zürich ''δ'''"), vec![Token::Str("Zürich 'δ'".into())]);
        assert!(tokenize(r#""open"#).is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Token::Int(42)]);
        assert_eq!(toks("4.5"), vec![Token::Float(4.5)]);
        assert_eq!(toks(".5"), vec![Token::Float(0.5)]);
        assert_eq!(toks("1e3"), vec![Token::Float(1000.0)]);
        assert_eq!(toks("2.5e-1"), vec![Token::Float(0.25)]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'it''s'"), vec![Token::Str("it's".into())]);
        assert!(tokenize("'open").is_err());
    }

    #[test]
    fn bit_literals() {
        assert_eq!(toks("b'01'"), vec![Token::BitStr("01".into())]);
        assert_eq!(toks("B'11'"), vec![Token::BitStr("11".into())]);
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            toks("<= >= <> != << :: := ||"),
            vec![
                Token::LtEq,
                Token::GtEq,
                Token::NotEq,
                Token::NotEq,
                Token::Shl,
                Token::DoubleColon,
                Token::Assign,
                Token::Concat
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("1 -- comment\n+ 2 /* block /* nested */ still */ * 3"),
            vec![Token::Int(1), Token::Plus, Token::Int(2), Token::Star, Token::Int(3)]
        );
        assert!(tokenize("/* open").is_err());
    }

    #[test]
    fn paper_query_fragment_lexes() {
        let q = "SOLVESELECT t(pvSupply) AS (SELECT * FROM input) \
                 USING arima_solver(predictions := 5, features := outTemp)";
        let t = tokenize(q).unwrap();
        assert!(t.iter().any(|x| x.is_kw("solveselect")));
        assert!(t.iter().any(|x| *x == Token::Assign));
    }

    #[test]
    fn chained_comparison_lexes_as_separate_ops() {
        assert_eq!(
            toks("0 <= ar <= 5"),
            vec![Token::Int(0), Token::LtEq, Token::Ident("ar".into()), Token::LtEq, Token::Int(5)]
        );
    }

    #[test]
    fn keywords_match_case_insensitively() {
        assert!(Token::Ident("select".into()).is_kw("SELECT"));
        assert!(!Token::QuotedIdent("select".into()).is_kw("select"));
    }
}
