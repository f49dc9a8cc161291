//! Splitting whole-program source at top-level declaration boundaries.
//!
//! A boundary is the position just after a `;` that terminates a
//! top-level declaration — i.e. a `;` lexed at paren depth zero outside
//! any `let … end` block. Splitting source at any subset of its
//! boundaries yields fragments that a [`crate::Workspace`] links back to
//! the *same* analysis as the unsplit program (the differential session
//! tests quantify over exactly this).

use stcfa_lambda::lexer::{lex, Kw, Tok};

/// Byte offsets just after each top-level `;` in `source`, in order.
///
/// Returns an error message if the source does not lex.
pub fn top_level_boundaries(source: &str) -> Result<Vec<usize>, String> {
    let tokens = lex(source).map_err(|e| e.to_string())?;
    let mut paren = 0usize;
    let mut lets = 0usize;
    let mut out = Vec::new();
    for &(tok, span) in &tokens {
        match tok {
            Tok::LParen => paren += 1,
            Tok::RParen => paren = paren.saturating_sub(1),
            Tok::Kw(Kw::Let) => lets += 1,
            Tok::Kw(Kw::End) => lets = lets.saturating_sub(1),
            Tok::Semi if paren == 0 && lets == 0 => out.push(span.end.offset),
            _ => {}
        }
    }
    Ok(out)
}

/// Splits `source` at the given boundary offsets (each must come from
/// [`top_level_boundaries`]). Produces `cuts.len() + 1` fragments whose
/// concatenation is exactly `source`; fragments that are entirely
/// whitespace are dropped.
pub fn split_at(source: &str, cuts: &[usize]) -> Vec<String> {
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0usize;
    for &cut in cuts {
        debug_assert!(start <= cut && cut <= source.len());
        if !source[start..cut].trim().is_empty() {
            out.push(source[start..cut].to_string());
        }
        start = cut;
    }
    if !source[start..].trim().is_empty() {
        out.push(source[start..].to_string());
    }
    out
}

/// Splits `source` into (up to) `parts` fragments of roughly equal
/// declaration count. With fewer boundaries than requested parts, every
/// boundary becomes a cut. Returns an error if the source does not lex.
pub fn split_even(source: &str, parts: usize) -> Result<Vec<String>, String> {
    let boundaries = top_level_boundaries(source)?;
    let parts = parts.max(1);
    if parts == 1 || boundaries.is_empty() {
        return Ok(vec![source.to_string()]);
    }
    // `boundaries.len()` cuts would make `len + 1` fragments; choose
    // `parts - 1` cuts spread evenly across the available boundaries.
    let cuts_wanted = (parts - 1).min(boundaries.len());
    let mut cuts = Vec::with_capacity(cuts_wanted);
    for k in 1..=cuts_wanted {
        let idx = k * boundaries.len() / (cuts_wanted + 1);
        let idx = idx.min(boundaries.len() - 1);
        let cut = boundaries[idx];
        if cuts.last() != Some(&cut) {
            cuts.push(cut);
        }
    }
    Ok(split_at(source, &cuts))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str =
        "fun id x = x;\nval a = let val t = id 1; val u = t in u end;\nval b = (id, id);\nid 9\n";

    #[test]
    fn boundaries_skip_let_blocks_and_parens() {
        let cuts = top_level_boundaries(PROGRAM).unwrap();
        // Three top-level `;` — the two inside `let … end` don't count.
        assert_eq!(cuts.len(), 3);
        for &c in &cuts {
            assert_eq!(&PROGRAM[c - 1..c], ";");
        }
    }

    #[test]
    fn split_concatenation_roundtrips() {
        let cuts = top_level_boundaries(PROGRAM).unwrap();
        let fragments = split_at(PROGRAM, &cuts);
        assert_eq!(fragments.concat(), PROGRAM);
        assert_eq!(fragments.len(), 4);
    }

    #[test]
    fn split_even_respects_part_count() {
        let two = split_even(PROGRAM, 2).unwrap();
        assert_eq!(two.len(), 2);
        assert_eq!(two.concat(), PROGRAM);
        let many = split_even(PROGRAM, 99).unwrap();
        // Only 3 boundaries: at most 4 fragments.
        assert_eq!(many.len(), 4);
        assert_eq!(many.concat(), PROGRAM);
    }

    #[test]
    fn unsplittable_source_stays_whole() {
        let src = "fn x => x";
        assert_eq!(split_even(src, 4).unwrap(), vec![src.to_string()]);
    }
}
