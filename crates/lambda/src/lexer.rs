//! Lexer for the ML-flavoured surface syntax.
//!
//! Comments are `(* ... *)` (nesting) and `-- ...` to end of line.

use std::fmt;

/// A source position (byte offset plus 1-based line/column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// Byte offset into the source.
    pub offset: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open source range `[start, end)`, in byte offsets (both bounds
/// carry the full line/column information). Every token gets one from the
/// lexer; the parser joins token spans into expression spans, which travel
/// on the [`crate::ast::Program`] so downstream diagnostics can point back
/// into the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First byte of the range.
    pub start: Pos,
    /// One past the last byte of the range.
    pub end: Pos,
}

impl Span {
    /// The smallest span covering both `self` and `other`.
    pub fn join(self, other: Span) -> Span {
        Span {
            start: if other.start.offset < self.start.offset {
                other.start
            } else {
                self.start
            },
            end: if other.end.offset > self.end.offset {
                other.end
            } else {
                self.end
            },
        }
    }

    /// Length of the range in bytes.
    pub fn len(&self) -> usize {
        self.end.offset - self.start.offset
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)
    }
}

/// Token kinds. Identifiers borrow their text from the lexed source, so
/// a token is `Copy` and lexing allocates only the token vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok<'a> {
    /// Lower-case identifier (variables, datatype names).
    LIdent(&'a str),
    /// Upper-case identifier (constructors).
    UIdent(&'a str),
    /// Integer literal.
    Int(i64),
    /// Keyword.
    Kw(Kw),
    /// `=>`
    FatArrow,
    /// `->`
    Arrow,
    /// `=`
    Equals,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `|`
    Bar,
    /// `#`
    Hash,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `<`
    Lt,
    /// `<=`
    Leq,
    /// `;`
    Semi,
    /// `_`
    Underscore,
    /// End of input.
    Eof,
}

/// Reserved words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Kw {
    Fn,
    Fun,
    Val,
    Rec,
    Let,
    In,
    End,
    If,
    Then,
    Else,
    Case,
    Of,
    Datatype,
    True,
    False,
    Not,
    Print,
    Readint,
    Div,
    And,
    Int,
    Bool,
    Unit,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::LIdent(s) | Tok::UIdent(s) => write!(f, "`{s}`"),
            Tok::Int(n) => write!(f, "`{n}`"),
            Tok::Kw(k) => write!(f, "`{k:?}`"),
            Tok::FatArrow => write!(f, "`=>`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Equals => write!(f, "`=`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Bar => write!(f, "`|`"),
            Tok::Hash => write!(f, "`#`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Leq => write!(f, "`<=`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Underscore => write!(f, "`_`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A lexical error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Where the error occurred.
    pub pos: Pos,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Upper bound on [`lex`]'s up-front token reservation (about 3.5 MiB).
const MAX_RESERVED_TOKENS: usize = 1 << 16;

/// The bytes that continue an identifier: letters, digits, `_` and `'`.
const IDENT: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || c == b'_' || c == b'\'';
        b += 1;
    }
    table
};

/// The keyword `text` spells, if any. Every keyword is lower case, and
/// the length and first byte leave at most two candidates to compare.
fn keyword(text: &str) -> Option<Kw> {
    let kw = match (text.len(), text.as_bytes()[0]) {
        (2, b'f') if text == "fn" => Kw::Fn,
        (2, b'i') if text == "in" => Kw::In,
        (2, b'i') if text == "if" => Kw::If,
        (2, b'o') if text == "of" => Kw::Of,
        (3, b'f') if text == "fun" => Kw::Fun,
        (3, b'v') if text == "val" => Kw::Val,
        (3, b'r') if text == "rec" => Kw::Rec,
        (3, b'l') if text == "let" => Kw::Let,
        (3, b'e') if text == "end" => Kw::End,
        (3, b'n') if text == "not" => Kw::Not,
        (3, b'd') if text == "div" => Kw::Div,
        (3, b'a') if text == "and" => Kw::And,
        (3, b'i') if text == "int" => Kw::Int,
        (4, b't') if text == "then" => Kw::Then,
        (4, b't') if text == "true" => Kw::True,
        (4, b'e') if text == "else" => Kw::Else,
        (4, b'c') if text == "case" => Kw::Case,
        (4, b'b') if text == "bool" => Kw::Bool,
        (4, b'u') if text == "unit" => Kw::Unit,
        (5, b'f') if text == "false" => Kw::False,
        (5, b'p') if text == "print" => Kw::Print,
        (7, b'r') if text == "readint" => Kw::Readint,
        (8, b'd') if text == "datatype" => Kw::Datatype,
        _ => return None,
    };
    Some(kw)
}

/// Tokenizes `source`, returning tokens with their source spans. The final
/// token is always [`Tok::Eof`] (with an empty span at end of input).
pub fn lex(source: &str) -> Result<Vec<(Tok<'_>, Span)>, LexError> {
    let bytes = source.as_bytes();
    // Surface programs run three to four bytes per token; one up-front
    // reservation covers the whole stream in the common case. The cap
    // keeps a huge comment-only input from reserving far more than it
    // will use; past it the vector grows as usual.
    let mut toks = Vec::with_capacity((source.len() / 3 + 1).min(MAX_RESERVED_TOKENS));
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! pos {
        () => {
            Pos {
                offset: i,
                line,
                col,
            }
        };
    }
    // Consume `$n` bytes, none of them a newline (columns count bytes).
    macro_rules! advance {
        ($n:expr) => {{
            let n: usize = $n;
            i += n;
            col += n as u32;
        }};
    }
    // Consume one `\n`.
    macro_rules! newline {
        () => {{
            i += 1;
            line += 1;
            col = 1;
        }};
    }
    // Consume `$n` bytes and push the token spanning them.
    macro_rules! emit {
        ($t:expr, $n:expr) => {{
            let start = pos!();
            advance!($n);
            toks.push(($t, Span { start, end: pos!() }));
        }};
    }

    // An identifier or keyword starting with `$c`.
    macro_rules! word {
        ($c:expr) => {{
            let p = pos!();
            let start = i;
            let len = bytes[i..]
                .iter()
                .position(|&b| !IDENT[usize::from(b)])
                .unwrap_or(bytes.len() - i);
            advance!(len);
            let text = &source[start..i];
            let tok = if $c.is_ascii_uppercase() {
                Tok::UIdent(text)
            } else {
                keyword(text).map_or(Tok::LIdent(text), Tok::Kw)
            };
            toks.push((
                tok,
                Span {
                    start: p,
                    end: pos!(),
                },
            ));
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        // Words are half the tokens and a space separates most of them:
        // both are tested before the full dispatch.
        if c == b' ' {
            advance!(1);
            continue;
        }
        if c.is_ascii_alphabetic() {
            word!(c);
            continue;
        }
        match c {
            b' ' | b'\t' | b'\r' => advance!(1),
            b'\n' => newline!(),
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                let rest = &bytes[i..];
                advance!(rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len()));
            }
            b'(' if bytes.get(i + 1) == Some(&b'*') => {
                let start = pos!();
                let mut depth = 1usize;
                advance!(2);
                while depth > 0 {
                    match (bytes.get(i), bytes.get(i + 1)) {
                        (None, _) => {
                            return Err(LexError {
                                pos: start,
                                message: "unterminated comment".into(),
                            })
                        }
                        (Some(b'('), Some(b'*')) => {
                            depth += 1;
                            advance!(2);
                        }
                        (Some(b'*'), Some(b')')) => {
                            depth -= 1;
                            advance!(2);
                        }
                        (Some(b'\n'), _) => newline!(),
                        _ => advance!(1),
                    }
                }
            }
            b'(' => emit!(Tok::LParen, 1),
            b')' => emit!(Tok::RParen, 1),
            b',' => emit!(Tok::Comma, 1),
            b'|' => emit!(Tok::Bar, 1),
            b'#' => emit!(Tok::Hash, 1),
            b'*' => emit!(Tok::Star, 1),
            b'+' => emit!(Tok::Plus, 1),
            b';' => emit!(Tok::Semi, 1),
            b'_' if !matches!(bytes.get(i + 1), Some(&b) if b.is_ascii_alphanumeric() || b == b'_') =>
            {
                emit!(Tok::Underscore, 1);
            }
            b'-' if bytes.get(i + 1) == Some(&b'>') => emit!(Tok::Arrow, 2),
            b'-' => emit!(Tok::Minus, 1),
            b'=' if bytes.get(i + 1) == Some(&b'>') => emit!(Tok::FatArrow, 2),
            b'=' => emit!(Tok::Equals, 1),
            b'<' if bytes.get(i + 1) == Some(&b'=') => emit!(Tok::Leq, 2),
            b'<' => emit!(Tok::Lt, 1),
            b'0'..=b'9' => {
                let p = pos!();
                let start = i;
                let len = bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                advance!(len);
                let text = &source[start..i];
                let value: i64 = text.parse().map_err(|_| LexError {
                    pos: p,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                toks.push((
                    Tok::Int(value),
                    Span {
                        start: p,
                        end: pos!(),
                    },
                ));
            }
            b'_' => word!(c),
            _ => {
                // Name the whole character, not its first byte. Tokens
                // and delimiters are ASCII, so `i` is a character boundary.
                let ch = source
                    .get(i..)
                    .and_then(|rest| rest.chars().next())
                    .unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(LexError {
                    pos: pos!(),
                    message: format!("unexpected character `{ch}`"),
                });
            }
        }
    }
    let eof = pos!();
    toks.push((
        Tok::Eof,
        Span {
            start: eof,
            end: eof,
        },
    ));
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn lexes_lambda() {
        assert_eq!(
            kinds("fn x => x"),
            vec![
                Tok::Kw(Kw::Fn),
                Tok::LIdent("x"),
                Tok::FatArrow,
                Tok::LIdent("x"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn distinguishes_arrows_and_minus() {
        assert_eq!(
            kinds("- -> =>"),
            vec![Tok::Minus, Tok::Arrow, Tok::FatArrow, Tok::Eof]
        );
    }

    #[test]
    fn distinguishes_lt_leq_eq() {
        assert_eq!(
            kinds("< <= ="),
            vec![Tok::Lt, Tok::Leq, Tok::Equals, Tok::Eof]
        );
    }

    #[test]
    fn lexes_comments() {
        assert_eq!(
            kinds("1 (* hi (* nested *) there *) 2 -- line\n3"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Int(3), Tok::Eof]
        );
    }

    #[test]
    fn non_ascii_characters_are_named_whole() {
        for (src, ch) in [("val x = é", 'é'), ("f \u{FFFD} 1", '\u{FFFD}')] {
            let err = lex(src).unwrap_err();
            assert_eq!(
                err.message,
                format!("unexpected character `{ch}`"),
                "{src:?}"
            );
            assert_eq!(err.pos.offset, src.find(ch).unwrap(), "{src:?}");
            assert_eq!(err.pos.line, 1);
        }
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("(* oops").is_err());
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].1.start.line, 1);
        assert_eq!(toks[0].1.start.col, 1);
        assert_eq!(toks[1].1.start.line, 2);
        assert_eq!(toks[1].1.start.col, 3);
    }

    #[test]
    fn spans_cover_exact_source_ranges() {
        let src = "val xs = 123 <= foo";
        let toks = lex(src).unwrap();
        for (tok, sp) in &toks {
            if *tok == Tok::Eof {
                assert!(sp.is_empty());
                continue;
            }
            let text = &src[sp.start.offset..sp.end.offset];
            // The raw text must re-lex to the same single token.
            let again = lex(text).unwrap();
            assert_eq!(&again[0].0, tok, "span {sp:?} covers {text:?}");
        }
        // Multi-byte tokens report true end columns.
        let leq = toks.iter().find(|(t, _)| *t == Tok::Leq).unwrap();
        assert_eq!(leq.1.len(), 2);
        assert_eq!(leq.1.end.col, leq.1.start.col + 2);
    }

    #[test]
    fn span_join_orders_endpoints() {
        let toks = lex("a + b").unwrap();
        let a = toks[0].1;
        let b = toks[2].1;
        let j = a.join(b);
        assert_eq!(j.start, a.start);
        assert_eq!(j.end, b.end);
        assert_eq!(b.join(a), j, "join is symmetric");
    }

    #[test]
    fn underscore_vs_identifier() {
        assert_eq!(
            kinds("_ _x x_"),
            vec![
                Tok::Underscore,
                Tok::LIdent("_x"),
                Tok::LIdent("x_"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn uident_vs_lident() {
        assert_eq!(
            kinds("Cons nil"),
            vec![Tok::UIdent("Cons"), Tok::LIdent("nil"), Tok::Eof]
        );
    }

    #[test]
    fn primes_in_identifiers() {
        assert_eq!(
            kinds("x' f''"),
            vec![Tok::LIdent("x'"), Tok::LIdent("f''"), Tok::Eof]
        );
    }
}
