//! A compact N-Triples-style reader and writer.
//!
//! One triple per line, terms written as `<uri>`, `_:label` or `"literal"`,
//! optionally terminated by ` .`. This is the loading path for the synthetic
//! Barton-like datasets and for the examples; it is intentionally a strict,
//! fast subset of N-Triples (no language tags, no datatype suffixes, `\"`,
//! `\\`, `\n` and `\t` escapes inside literals).
//!
//! The reader reads each line into one reused buffer, parses it there, and
//! looks each term up in the dictionary by its kind and borrowed spelling
//! ([`crate::Dictionary::intern_lexical`]): apart from growing its own
//! buffers and the batch, it allocates only for a term the dictionary has
//! not seen.
//!
//! The writer emits bytes directly, escaping only the literal bytes that
//! need it. It never writes a line its reader would reject or read back as
//! a different triple: a URI containing `>` or a newline, a blank label that
//! is empty or contains whitespace, a literal subject and a non-URI
//! property are refused with [`std::io::ErrorKind::InvalidInput`] naming
//! the term, before any byte of the line is written. (`\r` needs no rule:
//! the reader strips it only as whitespace at the end of a line, and a line
//! always ends in ` .`.)

use std::io::{self, BufRead, Write};

use crate::error::ModelError;
use crate::term::{Term, TermKind};
use crate::{Dataset, Triple};

/// A parsed term: its kind and its lexical form, borrowed from the line or,
/// for a literal with escapes, from an unescaping buffer.
type TermRef<'a> = (TermKind, &'a str);

/// Parses a single term starting at `input` (already trimmed on the left),
/// unescaping a literal into `scratch` if it has escapes. Returns the term
/// and the remaining input.
fn parse_term<'a>(
    input: &'a str,
    line: usize,
    scratch: &'a mut String,
) -> Result<(TermRef<'a>, &'a str), ModelError> {
    let err = |message: &str| ModelError::Parse {
        line,
        message: message.to_string(),
    };
    match input.as_bytes().first() {
        Some(b'<') => {
            let end = input.find('>').ok_or_else(|| err("unterminated '<'"))?;
            Ok(((TermKind::Uri, &input[1..end]), &input[end + 1..]))
        }
        Some(b'_') => {
            let rest = input
                .strip_prefix("_:")
                .ok_or_else(|| err("blank node must start with '_:'"))?;
            let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            if end == 0 {
                return Err(err("empty blank node label"));
            }
            Ok(((TermKind::Blank, &rest[..end]), &rest[end..]))
        }
        Some(b'"') => {
            let body = &input[1..];
            // Both delimiters are ASCII, so a byte search stops on a char
            // boundary.
            let stop = body
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .ok_or_else(|| err("unterminated literal"))?;
            if body.as_bytes()[stop] == b'"' {
                return Ok(((TermKind::Literal, &body[..stop]), &body[stop + 1..]));
            }
            scratch.clear();
            scratch.push_str(&body[..stop]);
            let mut chars = body[stop..].char_indices();
            loop {
                let (i, c) = chars.next().ok_or_else(|| err("unterminated literal"))?;
                match c {
                    '"' => {
                        let rest = &body[stop + i + 1..];
                        return Ok(((TermKind::Literal, scratch.as_str()), rest));
                    }
                    '\\' => {
                        let (_, esc) = chars.next().ok_or_else(|| err("dangling escape"))?;
                        match esc {
                            '"' => scratch.push('"'),
                            '\\' => scratch.push('\\'),
                            'n' => scratch.push('\n'),
                            't' => scratch.push('\t'),
                            other => return Err(err(&format!("unknown escape '\\{other}'"))),
                        }
                    }
                    other => scratch.push(other),
                }
            }
        }
        _ => Err(err("expected '<', '_:' or '\"'")),
    }
}

/// Parses one line into its three terms, borrowed from `line` or from the
/// unescaping buffers in `scratch` (one per position). Empty lines and
/// lines starting with `#` yield `None`.
fn parse_terms<'a>(
    line: &'a str,
    lineno: usize,
    scratch: &'a mut [String; 3],
) -> Result<Option<[TermRef<'a>; 3]>, ModelError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let [s_buf, p_buf, o_buf] = scratch;
    let (s, rest) = parse_term(trimmed, lineno, s_buf)?;
    let (p, rest) = parse_term(rest.trim_start(), lineno, p_buf)?;
    let (o, rest) = parse_term(rest.trim_start(), lineno, o_buf)?;
    let tail = rest.trim();
    if !(tail.is_empty() || tail == ".") {
        return Err(ModelError::Parse {
            line: lineno,
            message: format!("trailing content: {tail:?}"),
        });
    }
    if s.0 == TermKind::Literal {
        return Err(ModelError::IllFormed {
            line: lineno,
            position: "subject",
        });
    }
    if p.0 != TermKind::Uri {
        return Err(ModelError::IllFormed {
            line: lineno,
            position: "property",
        });
    }
    Ok(Some([s, p, o]))
}

/// Parses one line into a `(s, p, o)` term triple. Empty lines and lines
/// starting with `#` yield `None`.
pub fn parse_line(line: &str, lineno: usize) -> Result<Option<(Term, Term, Term)>, ModelError> {
    let mut scratch = Default::default();
    let terms = parse_terms(line, lineno, &mut scratch)?;
    Ok(terms.map(|[s, p, o]| {
        let own = |(kind, lexical): TermRef<'_>| Term::of_kind(kind, lexical);
        (own(s), own(p), own(o))
    }))
}

/// Reads triples from `reader` into `db`. Returns the number of *new*
/// triples inserted.
///
/// Lines end at `\n` (a `\r` before it is whitespace, like any other at
/// either end of a line). Terms are interned line by line and the triples
/// enter the store as one batch ([`crate::TripleStore::insert_batch`]), in
/// line order. On a malformed line the triples of the lines before it are
/// still inserted, and then the error is returned.
pub fn read_into(db: &mut Dataset, reader: impl BufRead) -> Result<usize, ModelError> {
    let mut batch = Vec::new();
    let read = read_lines(db, reader, &mut batch);
    let added = db.store_mut().insert_batch(&batch).len();
    read.map(|()| added)
}

/// Parses `reader` line by line, interning each triple's terms into `db`'s
/// dictionary and pushing the encoded triple onto `batch`; stops at the
/// first malformed line. Every line is read into one reused buffer.
fn read_lines(
    db: &mut Dataset,
    mut reader: impl BufRead,
    batch: &mut Vec<Triple>,
) -> Result<(), ModelError> {
    let mut scratch = Default::default();
    let mut line = Vec::new();
    for lineno in 1.. {
        line.clear();
        let read = reader
            .read_until(b'\n', &mut line)
            .map_err(|e| ModelError::Parse {
                line: lineno,
                message: e.to_string(),
            })?;
        if read == 0 {
            break;
        }
        push_line(db, &line, lineno, &mut scratch, batch)?;
    }
    Ok(())
}

/// Parses one line (its `\n`, if any, is trimmed with the other whitespace)
/// and, if it holds a triple, interns its terms into `db`'s dictionary and
/// pushes the encoded triple.
fn push_line(
    db: &mut Dataset,
    line: &[u8],
    lineno: usize,
    scratch: &mut [String; 3],
    batch: &mut Vec<Triple>,
) -> Result<(), ModelError> {
    let line = std::str::from_utf8(line).map_err(|_| ModelError::Parse {
        line: lineno,
        message: "stream did not contain valid UTF-8".to_string(),
    })?;
    if let Some(terms) = parse_terms(line, lineno, scratch)? {
        let dict = db.dict_mut();
        batch.push(terms.map(|(kind, lexical)| dict.intern_lexical(kind, lexical)));
    }
    Ok(())
}

/// Parses a whole string of triples into a fresh dataset.
pub fn parse_dataset(text: &str) -> Result<Dataset, ModelError> {
    let mut db = Dataset::new();
    read_into(&mut db, text.as_bytes())?;
    Ok(db)
}

/// The error refusing to write `term`, naming it and the `problem`.
fn refuse(term: &Term, problem: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("cannot write {term:?}: {problem}"),
    )
}

/// Refuses a term whose spelling the reader would reject or read back as
/// another term, in any position.
fn check_spelling(term: &Term) -> io::Result<()> {
    match term {
        Term::Uri(u) if u.contains(['>', '\n']) => {
            Err(refuse(term, "a URI may not contain '>' or a newline"))
        }
        Term::Blank(l) if l.is_empty() || l.contains(char::is_whitespace) => Err(refuse(
            term,
            "a blank node label may not be empty or contain whitespace",
        )),
        _ => Ok(()),
    }
}

/// Writes one term in the line format, escaping a literal's backslashes,
/// quotes, newlines and tabs.
fn write_term(out: &mut impl Write, term: &Term) -> io::Result<()> {
    match term {
        Term::Uri(s) => {
            out.write_all(b"<")?;
            out.write_all(s.as_bytes())?;
            out.write_all(b">")
        }
        Term::Blank(s) => {
            out.write_all(b"_:")?;
            out.write_all(s.as_bytes())
        }
        Term::Literal(s) => {
            out.write_all(b"\"")?;
            let bytes = s.as_bytes();
            let mut start = 0;
            for (i, &b) in bytes.iter().enumerate() {
                let escape: &[u8] = match b {
                    b'\\' => b"\\\\",
                    b'"' => b"\\\"",
                    b'\n' => b"\\n",
                    b'\t' => b"\\t",
                    _ => continue,
                };
                out.write_all(&bytes[start..i])?;
                out.write_all(escape)?;
                start = i + 1;
            }
            out.write_all(&bytes[start..])?;
            out.write_all(b"\"")
        }
    }
}

/// Serializes every triple of `db`, one per line, terminated by ` .`.
///
/// A triple with a term the reader would refuse or misread (see the module
/// documentation) stops the write with [`io::ErrorKind::InvalidInput`];
/// the lines before it have been written, no byte of its own has.
pub fn write_dataset(db: &Dataset, out: &mut impl Write) -> io::Result<()> {
    // A spelling is checked once, on the first line that uses the term.
    let mut spelled = vec![false; db.dict().len()];
    for &t in db.store().triples() {
        let (s, p, o) = db.decode(t);
        if !s.valid_subject() {
            return Err(refuse(s, "a literal is not a valid subject"));
        }
        if !p.valid_property() {
            return Err(refuse(p, "only a URI is a valid property"));
        }
        for (id, term) in t.into_iter().zip([s, p, o]) {
            if !spelled[id.index()] {
                check_spelling(term)?;
                spelled[id.index()] = true;
            }
        }
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

    /// Writes one triple; on refusal, checks that the error is
    /// `InvalidInput`, names the term, and that nothing was written.
    fn write_one(s: Term, p: Term, o: Term) -> Result<String, String> {
        let mut db = Dataset::new();
        db.insert_terms(s, p, o);
        let mut buf = Vec::new();
        match write_dataset(&db, &mut buf) {
            Ok(()) => Ok(String::from_utf8(buf).unwrap()),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}");
                assert!(buf.is_empty(), "a refused line writes no byte");
                Err(e.to_string())
            }
        }
    }

    fn ex(s: &str) -> Term {
        Term::uri(s)
    }

    #[test]
    fn writer_refuses_a_uri_with_a_closing_bracket() {
        let err = write_one(ex("ex:a>b"), ex("ex:p"), ex("ex:o")).unwrap_err();
        assert!(err.contains(r#"Uri("ex:a>b")"#), "{err}");
    }

    #[test]
    fn writer_refuses_a_uri_with_a_newline() {
        let err = write_one(ex("ex:s"), ex("ex:p"), ex("ex:o\nx")).unwrap_err();
        assert!(err.contains(r#"Uri("ex:o\nx")"#), "{err}");
    }

    #[test]
    fn writer_refuses_an_empty_blank_label() {
        let err = write_one(Term::blank(""), ex("ex:p"), ex("ex:o")).unwrap_err();
        assert!(err.contains(r#"Blank("")"#), "{err}");
    }

    #[test]
    fn writer_refuses_a_blank_label_with_whitespace() {
        for label in ["a b", "a\tb", "a\nb", "a\u{a0}b"] {
            let err = write_one(ex("ex:s"), ex("ex:p"), Term::blank(label)).unwrap_err();
            assert!(err.contains("Blank("), "{err}");
        }
    }

    #[test]
    fn writer_refuses_a_blank_label_its_reader_would_shorten() {
        // `_:t\r` used to read back silently as `_:t`.
        let err = write_one(Term::blank("t\r"), ex("ex:p"), ex("ex:o")).unwrap_err();
        assert!(err.contains(r#"Blank("t\r")"#), "{err}");
    }

    #[test]
    fn writer_refuses_ill_formed_positions() {
        let err = write_one(Term::literal("s"), ex("ex:p"), ex("ex:o")).unwrap_err();
        assert!(err.contains(r#"Literal("s")"#), "{err}");
        let err = write_one(ex("ex:s"), Term::blank("p"), ex("ex:o")).unwrap_err();
        assert!(err.contains(r#"Blank("p")"#), "{err}");
    }

    #[test]
    fn writer_keeps_the_lines_before_a_refused_one() {
        let mut db = Dataset::new();
        db.insert_terms(ex("ex:s"), ex("ex:p"), Term::literal("tab\there"));
        db.insert_terms(ex("ex:s"), ex("ex:p"), ex("bad>"));
        let mut buf = Vec::new();
        assert!(write_dataset(&db, &mut buf).is_err());
        assert_eq!(buf, b"<ex:s> <ex:p> \"tab\\there\" .\n");
    }

    #[test]
    fn writer_accepts_what_its_reader_reads_back() {
        let text = write_one(
            Term::blank("b>\"<"),
            ex("ex:p q\r\t"),
            Term::literal("x\r\n\t\"\\ é"),
        )
        .unwrap();
        let back = parse_dataset(&text).unwrap();
        let (s, p, o) = back.decode(back.store().triples()[0]);
        assert_eq!(s, &Term::blank("b>\"<"));
        assert_eq!(p, &ex("ex:p q\r\t"));
        assert_eq!(o, &Term::literal("x\r\n\t\"\\ é"));
    }

    #[test]
    fn reader_reads_lines_split_across_refills_and_without_a_final_newline() {
        let text = "<ex:a> <ex:p> \"x\\ty\" .\r\n_:b <ex:q> <ex:c> .\r\n<ex:a> <ex:q> _:b";
        let whole = parse_dataset(text).unwrap();
        let mut db = Dataset::new();
        let added = read_into(
            &mut db,
            std::io::BufReader::with_capacity(3, text.as_bytes()),
        );
        assert_eq!(added.unwrap(), 3);
        assert_eq!(db.store().triples(), whole.store().triples());
        let (_, _, o) = db.decode(db.store().triples()[0]);
        assert_eq!(o, &Term::literal("x\ty"));
    }

    #[test]
    fn reader_reports_invalid_utf8_with_its_line() {
        let mut db = Dataset::new();
        let err = read_into(
            &mut db,
            &b"<ex:a> <ex:p> <ex:b> .\n<ex:\xff> <ex:p> <ex:b> .\n"[..],
        );
        assert!(
            matches!(err, Err(ModelError::Parse { line: 2, .. })),
            "{err:?}"
        );
        assert_eq!(db.len(), 1);
    }
}
