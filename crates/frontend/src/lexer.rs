//! Tokenizer for the Datalog surface syntax.

use dcd_common::{DcdError, Result};

/// A lexical token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: TokenKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Lower-case identifier (predicate or parameter).
    LowerIdent(String),
    /// Upper-case identifier (variable).
    UpperIdent(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `<-` or `:-`
    Arrow,
    /// `_`
    Underscore,
    /// `=`
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
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

/// Tokenizes `src`, handling `%` and `//` line comments.
pub fn tokenize(src: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    let err = |m: &str, line: usize, col: usize| DcdError::Parse {
        message: m.to_string(),
        line,
        col,
    };
    macro_rules! push {
        ($kind:expr, $l:expr, $c:expr) => {
            out.push(Token {
                kind: $kind,
                line: $l,
                col: $c,
            })
        };
    }
    while i < bytes.len() {
        let (l, c) = (line, col);
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
            }
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            b'%' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                push!(TokenKind::LParen, l, c);
                i += 1;
                col += 1;
            }
            b')' => {
                push!(TokenKind::RParen, l, c);
                i += 1;
                col += 1;
            }
            b',' => {
                push!(TokenKind::Comma, l, c);
                i += 1;
                col += 1;
            }
            b'_' if i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_alphanumeric() => {
                push!(TokenKind::Underscore, l, c);
                i += 1;
                col += 1;
            }
            b'+' => {
                push!(TokenKind::Plus, l, c);
                i += 1;
                col += 1;
            }
            b'*' => {
                push!(TokenKind::Star, l, c);
                i += 1;
                col += 1;
            }
            b'/' => {
                push!(TokenKind::Slash, l, c);
                i += 1;
                col += 1;
            }
            b'=' => {
                push!(TokenKind::Eq, l, c);
                i += 1;
                col += 1;
            }
            b'!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(TokenKind::Ne, l, c);
                    i += 2;
                    col += 2;
                } else {
                    return Err(err("expected '=' after '!'", l, c));
                }
            }
            b'<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    push!(TokenKind::Arrow, l, c);
                    i += 2;
                    col += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(TokenKind::Le, l, c);
                    i += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Lt, l, c);
                    i += 1;
                    col += 1;
                }
            }
            b':' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    push!(TokenKind::Arrow, l, c);
                    i += 2;
                    col += 2;
                } else {
                    return Err(err("expected '-' after ':'", l, c));
                }
            }
            b'>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(TokenKind::Ge, l, c);
                    i += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Gt, l, c);
                    i += 1;
                    col += 1;
                }
            }
            b'-' => {
                push!(TokenKind::Minus, l, c);
                i += 1;
                col += 1;
            }
            b'.' => {
                // Disambiguate rule terminator from a float like `.5`
                // (we require a leading digit, so `.` is always Dot).
                push!(TokenKind::Dot, l, c);
                i += 1;
                col += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                col += i - start;
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| err(&format!("bad float literal '{text}'"), l, c))?;
                    push!(TokenKind::Float(v), l, c);
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| err(&format!("integer literal '{text}' overflows"), l, c))?;
                    push!(TokenKind::Int(v), l, c);
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = &src[start..i];
                col += i - start;
                if text.as_bytes()[0].is_ascii_uppercase() {
                    push!(TokenKind::UpperIdent(text.to_string()), l, c);
                } else {
                    push!(TokenKind::LowerIdent(text.to_string()), l, c);
                }
            }
            other => {
                return Err(err(
                    &format!("unexpected character '{}'", other as char),
                    l,
                    c,
                ));
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_rule() {
        let ks = kinds("tc(X, Y) <- arc(X, Y).");
        assert_eq!(
            ks,
            vec![
                TokenKind::LowerIdent("tc".into()),
                TokenKind::LParen,
                TokenKind::UpperIdent("X".into()),
                TokenKind::Comma,
                TokenKind::UpperIdent("Y".into()),
                TokenKind::RParen,
                TokenKind::Arrow,
                TokenKind::LowerIdent("arc".into()),
                TokenKind::LParen,
                TokenKind::UpperIdent("X".into()),
                TokenKind::Comma,
                TokenKind::UpperIdent("Y".into()),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn operators_disambiguate() {
        assert_eq!(
            kinds("< <= <- > >= = != + - * /"),
            vec![
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Arrow,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn prolog_style_arrow() {
        assert_eq!(kinds(":-"), vec![TokenKind::Arrow, TokenKind::Eof]);
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 0.5 3.25"),
            vec![
                TokenKind::Int(42),
                TokenKind::Float(0.5),
                TokenKind::Float(3.25),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("p(X). % a comment\nq(Y). // another\n");
        assert_eq!(ks.len(), 11); // two atoms of 5 tokens + Eof
    }

    #[test]
    fn wildcard_vs_identifier_with_underscore() {
        assert_eq!(
            kinds("_ x_y X_1"),
            vec![
                TokenKind::Underscore,
                TokenKind::LowerIdent("x_y".into()),
                TokenKind::UpperIdent("X_1".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = tokenize("p(X).\n q(Y).").unwrap();
        let q = toks
            .iter()
            .find(|t| t.kind == TokenKind::LowerIdent("q".into()))
            .unwrap();
        assert_eq!((q.line, q.col), (2, 2));
    }

    #[test]
    fn bad_character_errors() {
        let e = tokenize("p(X) & q(Y)").unwrap_err();
        assert!(e.to_string().contains("unexpected character '&'"));
    }

    #[test]
    fn bang_without_eq_errors() {
        assert!(tokenize("!p(X)").is_err());
    }
}
