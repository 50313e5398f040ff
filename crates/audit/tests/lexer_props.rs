//! Property tests for the lexer/stripper noise channel: interleaving
//! arbitrary comments, strings, and char literals between code tokens
//! must never change the identifier stream either implementation
//! reports — string and comment *contents* do not exist at the token
//! level.
//!
//! This is the fuzzed generalization of the fixed-case differential
//! test (`lexer_differential.rs`): that one proves agreement on the
//! shipped tree, this one on adversarial interleavings the tree does
//! not contain (quote-hash raw strings, escaped-backslash chars,
//! nested comments, multi-line strings).

mod stripper;

use audit::lex::{self, TokKind};
use proptest::prelude::*;
use stripper::{strip_text, stripped_idents};

/// The code channel: identifiers placed between noise atoms. `r` and
/// `b` are included on purpose — a lone prefix letter next to a string
/// is the classic mis-lex.
const IDENTS: &[&str] = &["alpha", "HashMap", "unwrap", "r", "b", "delta"];

/// Concatenation of pieces drawn from `alphabet`.
fn pieces(alphabet: &'static [&'static str], max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..alphabet.len(), 0..max)
        .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i]).collect())
}

/// One noise atom: a comment, string, or char literal whose contents
/// are adversarial (stray quotes, hashes, backslashes, newlines) but
/// which is well-formed as a whole.
fn noise() -> impl Strategy<Value = String> {
    // Line comments end at the newline; anything else goes.
    const LINE: &[&str] = &["abc", "\"", "'", "#", "*", "/", " "];
    // Block comments nest, so contents avoid `*` and `/`.
    const BLOCK: &[&str] = &["abc", "\"", "'", "#", "\n", " "];
    // Cooked strings: self-contained pieces, escapes included.
    const COOKED: &[&str] = &["abc", "\\\"", "\\\\", "'", "#", "\n", " "];
    // Raw strings: no `"` in contents, so no early close at any hash
    // count; quote-hash interleavings are covered by the fixed atoms.
    const RAW: &[&str] = &["abc", "'", "#", "\n", " "];
    prop_oneof![
        pieces(LINE, 8).prop_map(|s| format!("// {s}\n")),
        pieces(BLOCK, 8).prop_map(|s| format!("/* {s} */")),
        (pieces(BLOCK, 5), pieces(BLOCK, 5)).prop_map(|(a, b)| format!("/* {a} /* {b} */ {a} */")),
        pieces(COOKED, 8).prop_map(|s| format!("\"{s}\"")),
        (0usize..3, pieces(RAW, 8)).prop_map(|(h, s)| {
            let hs = "#".repeat(h);
            format!("r{hs}\"{s}\"{hs}")
        }),
        Just(r####"r#"say "HashMap" loudly"#"####.to_string()),
        Just(r####"r##"a "# b"##"####.to_string()),
        Just(r"'\\'".to_string()),
        Just(r"'\''".to_string()),
        Just("'\"'".to_string()),
        Just("'x'".to_string()),
        Just("b\"Mutex inside\"".to_string()),
        Just("b'x'".to_string()),
    ]
}

proptest! {
    #[test]
    fn noise_never_changes_the_identifier_stream(
        ids in proptest::collection::vec(0usize..IDENTS.len(), 1..12),
        noises in proptest::collection::vec(noise(), 1..12),
        newline_sep in proptest::collection::vec(any::<bool>(), 1..24),
    ) {
        // Interleave: sep, noise, sep, ident, sep, noise, ... with the
        // separator alternating between space and newline.
        let mut src = String::new();
        let mut sep = newline_sep.iter().cycle();
        let mut push_sep = |s: &mut String| {
            s.push(if *sep.next().expect("cycle") { '\n' } else { ' ' });
        };
        let mut noise_it = noises.iter().cycle();
        for &id in &ids {
            push_sep(&mut src);
            src.push_str(noise_it.next().expect("cycle"));
            push_sep(&mut src);
            src.push_str(IDENTS[id]);
        }
        push_sep(&mut src);
        src.push_str(noise_it.next().expect("cycle"));

        let want: Vec<String> = ids.iter().map(|&i| IDENTS[i].to_string()).collect();

        // Lexer channel: the identifier token stream is exactly the
        // code channel, and line numbers stay within the file.
        let toks = lex::lex(&src);
        let nlines = src.lines().count().max(1) as u32;
        for t in &toks {
            prop_assert!(
                t.line >= 1 && t.line <= nlines,
                "token {:?} at line {} of {}", t.text, t.line, nlines
            );
        }
        let got: Vec<String> = toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect();
        prop_assert_eq!(&got, &want, "lexer identifier stream\nsrc: {:?}", src);

        // Stripper channel: line count is preserved and the surviving
        // identifier words are the same code channel.
        let stripped = strip_text(&src);
        prop_assert_eq!(stripped.len(), src.lines().count());
        let words = stripped_idents(&stripped.join("\n"));
        prop_assert_eq!(&words, &want, "stripper identifier stream\nsrc: {:?}", src);
    }
}
