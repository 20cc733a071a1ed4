//! A compact N-Triples-style reader and writer.
//!
//! One triple per line, terms written as `<uri>`, `_:label` or `"literal"`,
//! optionally terminated by ` .`. This is the loading path for the synthetic
//! Barton-like datasets and for the examples; it is intentionally a strict,
//! fast subset of N-Triples (no language tags, no datatype suffixes, `\"`
//! and `\\` escapes inside literals).

use std::io::{BufRead, Write};

use crate::error::ModelError;
use crate::term::Term;
use crate::{Dataset, Triple};

/// Parses a single term starting at `input` (already trimmed on the left).
/// Returns the term and the remaining input.
fn parse_term(input: &str, line: usize) -> Result<(Term, &str), ModelError> {
    let bytes = input.as_bytes();
    let err = |message: &str| ModelError::Parse {
        line,
        message: message.to_string(),
    };
    match bytes.first() {
        Some(b'<') => {
            let end = input.find('>').ok_or_else(|| err("unterminated '<'"))?;
            Ok((Term::uri(&input[1..end]), &input[end + 1..]))
        }
        Some(b'_') => {
            if !input.starts_with("_:") {
                return Err(err("blank node must start with '_:'"));
            }
            let rest = &input[2..];
            let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
            if end == 0 {
                return Err(err("empty blank node label"));
            }
            Ok((Term::blank(&rest[..end]), &rest[end..]))
        }
        Some(b'"') => {
            let mut out = String::new();
            let mut chars = input[1..].char_indices();
            loop {
                let (i, c) = chars.next().ok_or_else(|| err("unterminated literal"))?;
                match c {
                    '"' => return Ok((Term::literal(out), &input[1 + i + 1..])),
                    '\\' => {
                        let (_, esc) = chars.next().ok_or_else(|| err("dangling escape"))?;
                        match esc {
                            '"' => out.push('"'),
                            '\\' => out.push('\\'),
                            'n' => out.push('\n'),
                            't' => out.push('\t'),
                            other => return Err(err(&format!("unknown escape '\\{other}'"))),
                        }
                    }
                    other => out.push(other),
                }
            }
        }
        _ => Err(err("expected '<', '_:' or '\"'")),
    }
}

/// Parses one line into a `(s, p, o)` term triple. Empty lines and lines
/// starting with `#` yield `None`.
pub fn parse_line(line: &str, lineno: usize) -> Result<Option<(Term, Term, Term)>, ModelError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let (s, rest) = parse_term(trimmed, lineno)?;
    let (p, rest) = parse_term(rest.trim_start(), lineno)?;
    let (o, rest) = parse_term(rest.trim_start(), lineno)?;
    let tail = rest.trim();
    if !(tail.is_empty() || tail == ".") {
        return Err(ModelError::Parse {
            line: lineno,
            message: format!("trailing content: {tail:?}"),
        });
    }
    if !s.valid_subject() {
        return Err(ModelError::IllFormed {
            line: lineno,
            position: "subject",
        });
    }
    if !p.valid_property() {
        return Err(ModelError::IllFormed {
            line: lineno,
            position: "property",
        });
    }
    Ok(Some((s, p, o)))
}

/// Reads triples from `reader` into `db`. Returns the number of *new*
/// triples inserted.
///
/// Terms are interned line by line and the triples enter the store as one
/// batch ([`crate::TripleStore::insert_batch`]), in line order. On a
/// malformed line the triples of the lines before it are still inserted,
/// and then the error is returned.
pub fn read_into(db: &mut Dataset, reader: impl BufRead) -> Result<usize, ModelError> {
    let mut batch = Vec::new();
    let read = read_lines(db, reader, &mut batch);
    let added = db.store_mut().insert_batch(&batch).len();
    read.map(|()| added)
}

/// Parses `reader` line by line, interning each triple's terms into `db`'s
/// dictionary and pushing the encoded triple onto `batch`; stops at the
/// first malformed line.
fn read_lines(
    db: &mut Dataset,
    reader: impl BufRead,
    batch: &mut Vec<Triple>,
) -> Result<(), ModelError> {
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| ModelError::Parse {
            line: i + 1,
            message: e.to_string(),
        })?;
        if let Some((s, p, o)) = parse_line(&line, i + 1)? {
            let dict = db.dict_mut();
            batch.push([dict.intern(s), dict.intern(p), dict.intern(o)]);
        }
    }
    Ok(())
}

/// Parses a whole string of triples into a fresh dataset.
pub fn parse_dataset(text: &str) -> Result<Dataset, ModelError> {
    let mut db = Dataset::new();
    read_into(&mut db, text.as_bytes())?;
    Ok(db)
}

/// Writes one term in the line format.
fn write_term(out: &mut impl Write, t: &Term) -> std::io::Result<()> {
    match t {
        Term::Uri(s) => write!(out, "<{s}>"),
        Term::Blank(s) => write!(out, "_:{s}"),
        Term::Literal(s) => {
            let escaped = s
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
                .replace('\t', "\\t");
            write!(out, "\"{escaped}\"")
        }
    }
}

/// Serializes every triple of `db`, one per line, terminated by ` .`.
pub fn write_dataset(db: &Dataset, out: &mut impl Write) -> std::io::Result<()> {
    for &t in db.store().triples() {
        let (s, p, o) = db.decode(t);
        write_term(out, s)?;
        out.write_all(b" ")?;
        write_term(out, p)?;
        out.write_all(b" ")?;
        write_term(out, o)?;
        out.write_all(b" .\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_triples() {
        let db = parse_dataset(
            "# a comment\n\
             <ex:a> <ex:p> <ex:b> .\n\
             \n\
             <ex:a> <ex:p> \"hello\" \n\
             _:n1 <ex:p> _:n2 .\n",
        )
        .unwrap();
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn escapes_roundtrip() {
        let mut db = Dataset::new();
        db.insert_terms(
            Term::uri("ex:a"),
            Term::uri("ex:p"),
            Term::literal("say \"hi\" \\ done"),
        );
        let mut buf = Vec::new();
        write_dataset(&db, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = parse_dataset(&text).unwrap();
        assert_eq!(back.len(), 1);
        let (_, _, o) = back.decode(back.store().triples()[0]);
        assert_eq!(o, &Term::literal("say \"hi\" \\ done"));
    }

    #[test]
    fn rejects_ill_formed() {
        assert!(matches!(
            parse_line("\"lit\" <ex:p> <ex:o>", 1),
            Err(ModelError::IllFormed {
                position: "subject",
                ..
            })
        ));
        assert!(matches!(
            parse_line("<ex:s> _:b <ex:o>", 1),
            Err(ModelError::IllFormed {
                position: "property",
                ..
            })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("<ex:s> <ex:p>", 1).is_err());
        assert!(parse_line("<ex:s> <ex:p> <ex:o> junk", 1).is_err());
        assert!(parse_line("<unterminated", 1).is_err());
        assert!(parse_line("<ex:s> <ex:p> \"open", 1).is_err());
    }

    #[test]
    fn a_malformed_line_keeps_the_triples_before_it() {
        let mut db = Dataset::new();
        read_into(&mut db, "<ex:x> <ex:p> <ex:y> .\n".as_bytes()).unwrap();
        let text = "<ex:a> <ex:p> <ex:b> .\n<ex:x> <ex:p> <ex:y> .\n<ex:a> <ex:q> \"1\" .\n<ex:c> <ex:p>\n<ex:d> <ex:p> <ex:e> .\n";
        let err = read_into(&mut db, text.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelError::Parse { line: 4, .. }), "{err:?}");
        // Lines 1 and 3 were new and went in, in line order; line 5 did not.
        let decoded: Vec<_> = db.store().triples().iter().map(|&t| db.decode(t)).collect();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[1].0, &Term::uri("ex:a"));
        assert_eq!(decoded[2].2, &Term::literal("1"));
        assert!(db.dict().lookup(&Term::uri("ex:d")).is_none());
    }

    #[test]
    fn full_roundtrip_preserves_triples() {
        let text = "<ex:s> <ex:p> <ex:o> .\n<ex:s> <ex:q> \"1\" .\n_:b <ex:p> \"x\\ny\" .\n";
        let db = parse_dataset(text).unwrap();
        let mut buf = Vec::new();
        write_dataset(&db, &mut buf).unwrap();
        let db2 = parse_dataset(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(db.len(), db2.len());
    }
}
