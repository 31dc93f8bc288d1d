//! `cafc-check` property suite for the text substrate: stemming,
//! tokenization, analysis and term interning over generated words and
//! arbitrary hostile text.

use cafc_check::corpus::{any_text, words};
use cafc_check::gen::{bools, from_slice, one_of, pairs, usizes, vecs, weighted, Gen};
use cafc_check::{check, require, require_eq, CheckConfig};
use cafc_text::tokenize::{tokenize_with, TokenizeOptions};
use cafc_text::{is_stopword, stem, stem_into, tokenize, Analyzer, TermDict, TermId};

/// A lowercase ASCII word of 0–20 letters, the empty word included.
fn ascii_word() -> Gen<String> {
    let letters: Vec<char> = ('a'..='z').collect();
    vecs(&from_slice(&letters), 0, 20).map(|chars| chars.iter().collect())
}

/// Arbitrary text, upper-cased half of the time so case folding is
/// exercised on ASCII and non-ASCII letters alike.
fn mixed_case_text(max_len: usize) -> Gen<String> {
    pairs(&any_text(max_len), &bools()).map(|(text, upper)| {
        if *upper {
            text.to_uppercase()
        } else {
            text.clone()
        }
    })
}

/// The stemmer is total on lowercase words and never grows a word by more
/// than one character (the only growth rules are the e-restorations
/// at→ate, bl→ble, iz→ize and the cvc e-append, each a net +1 at most).
/// A non-empty word never stems to the empty string.
#[test]
fn stem_total_and_bounded() {
    check!(CheckConfig::new(), ascii_word(), |w: &String| {
        let s = stem(w);
        require!(!s.is_empty() || w.is_empty(), "stem({w:?}) is empty");
        require!(s.len() <= w.len() + 1, "stem({w:?}) = {s:?} grew too much");
        Ok(())
    });
}

/// Stemming never panics on arbitrary unicode.
#[test]
fn stem_total_on_unicode() {
    check!(CheckConfig::new(), mixed_case_text(40), |w: &String| {
        let _ = stem(w);
        Ok(())
    });
}

/// Stemming is deterministic, on mixed-case input too.
#[test]
fn stem_deterministic() {
    let word =
        pairs(&ascii_word(), &bools()).map(
            |(w, upper)| {
                if *upper {
                    w.to_uppercase()
                } else {
                    w.clone()
                }
            },
        );
    check!(CheckConfig::new(), word, |w: &String| {
        require_eq!(stem(w), stem(w));
        Ok(())
    });
}

/// Every token is 2–30 characters of lowercase alphanumerics.
#[test]
fn tokens_lowercase_and_bounded() {
    check!(CheckConfig::new(), mixed_case_text(200), |text: &String| {
        for t in tokenize(text) {
            let chars = t.chars().count();
            require!((2..=30).contains(&chars), "token {t:?} has {chars} chars");
            require!(t.to_lowercase() == t, "token {t:?} is not lowercase");
            require!(
                t.chars().all(char::is_alphanumeric),
                "token {t:?} has a non-alphanumeric char"
            );
        }
        Ok(())
    });
}

/// Tokenization ignores punctuation around and between words.
#[test]
fn tokens_ignore_surrounding_punctuation() {
    check!(CheckConfig::new(), words(1, 10), |ws: &Vec<String>| {
        let plain = ws.join(" ");
        let noisy = format!("... {} !!!", ws.join(", "));
        require_eq!(tokenize(&plain), tokenize(&noisy));
        Ok(())
    });
}

/// The analyzer never emits stopwords or empty terms.
#[test]
fn analyzer_output_is_clean() {
    check!(CheckConfig::new(), mixed_case_text(200), |text: &String| {
        let mut dict = TermDict::new();
        for id in Analyzer::default().analyze(text, &mut dict) {
            let term = dict.term(id);
            require!(!term.is_empty(), "empty term from {text:?}");
            require!(!is_stopword(term), "stopword {term:?} from {text:?}");
        }
        Ok(())
    });
}

/// Interning n distinct strings yields n distinct dense ids.
#[test]
fn dict_ids_distinct() {
    check!(CheckConfig::new(), words(0, 50), |ws: &Vec<String>| {
        let mut distinct = ws.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut dict = TermDict::new();
        let mut ids: Vec<u32> = distinct.iter().map(|w| dict.intern(w).0).collect();
        ids.sort_unstable();
        ids.dedup();
        require_eq!(ids.len(), distinct.len());
        require_eq!(dict.len(), distinct.len());
        require!(
            ids.iter().all(|&id| (id as usize) < distinct.len()),
            "ids not dense: {ids:?}"
        );
        Ok(())
    });
}

/// `stem_into` replaces a buffer's contents with exactly the bytes of
/// `stem`.
#[test]
fn stem_into_matches_stem() {
    check!(
        CheckConfig::new(),
        one_of(&[ascii_word(), mixed_case_text(40)]),
        |w: &String| {
            let mut buf = b"stale contents".to_vec();
            stem_into(w, &mut buf);
            require_eq!(buf, stem(w).into_bytes());
            Ok(())
        }
    );
}

/// The analysis pipeline spelled out stage by stage on owned strings:
/// the oracle for the analyzer's single-buffer loop.
fn reference_analyze(
    a: &Analyzer,
    text: &str,
    dict: &mut TermDict,
    out: &mut Vec<TermId>,
    budget: usize,
) -> bool {
    for token in tokenize_with(text, a.tokenize) {
        if out.len() >= budget {
            return true;
        }
        if a.remove_stopwords && is_stopword(&token) {
            continue;
        }
        let term = if a.stem { stem(&token) } else { token };
        if term.is_empty() || (a.remove_stopwords && is_stopword(&term)) {
            continue;
        }
        out.push(dict.intern(&term));
    }
    false
}

/// Text built from pieces that hit every filter: stopwords (also after
/// stemming: "abouts" → "about"), digits, mixed tokens, overlong runs,
/// one-letter words, non-ASCII letters whose lowercase is longer, and
/// separators. Stopwords are common so that a budget is often reached
/// just before a run of them.
fn analysis_text() -> Gen<String> {
    let stopwords = from_slice(&["the ", "Are ", "abouts ", "Agains ", "AND "]);
    let pieces = from_slice(&[
        " ",
        ", ",
        "-",
        "\u{a0}",
        "_",
        "flights ",
        "Searching ",
        "2024 ",
        "mp3 ",
        "42nd ",
        "café ",
        "ÉTÉ ",
        "İstanbul ",
        "ß ",
        "日本 ",
        "x ",
        "a1 ",
        "rates ",
        "naïve ",
        "abcdefghijklmnopqrstuvwxyzabcde ",
        "abcdefghijklmnopqrstuvwxyzabcd ",
        "12345678901 ",
    ]);
    let piece = weighted(&[
        (2, stopwords.map(|s| (*s).to_owned())),
        (2, pieces.map(|s| (*s).to_owned())),
        (1, any_text(3)),
    ]);
    vecs(&piece, 0, 16).map(|ps| ps.concat())
}

/// Analyzer settings: both toggles, and tokenizer bounds around the
/// defaults (numbers kept or not).
fn analyzer() -> Gen<Analyzer> {
    let toggles = pairs(&pairs(&bools(), &bools()), &bools());
    let bounds = pairs(&usizes(1, 3), &usizes(2, 31));
    pairs(&toggles, &bounds).map(|(((stop, stem), numbers), (min_len, max_len))| Analyzer {
        tokenize: TokenizeOptions {
            min_len: *min_len,
            max_len: *max_len,
            keep_numbers: *numbers,
        },
        remove_stopwords: *stop,
        stem: *stem,
    })
}

/// The tokenizer equals a plain split on non-alphanumeric characters,
/// lowered char by char, then filtered by length and digits.
#[test]
fn tokenize_matches_split_reference() {
    let problem = pairs(
        &analyzer(),
        &one_of(&[analysis_text(), mixed_case_text(60)]),
    );
    check!(CheckConfig::new(), problem, |(a, text)| {
        let opts = a.tokenize;
        let expected: Vec<String> = text
            .split(|c: char| !c.is_alphanumeric())
            .map(|w| w.chars().flat_map(char::to_lowercase).collect::<String>())
            .filter(|t| (opts.min_len..=opts.max_len).contains(&t.chars().count()))
            .filter(|t| opts.keep_numbers || !t.chars().all(|c| c.is_ascii_digit()))
            .collect();
        require_eq!(tokenize_with(text, opts), expected);
        Ok(())
    });
}

/// `analyze_into` and `analyze_into_budget` equal the reference pipeline:
/// the same ids, the same dictionary in the same order, the same trimmed
/// flag — over two texts sharing one dictionary and one output buffer, so
/// the budget also counts terms already in `out`.
#[test]
fn analyzer_matches_reference_pipeline() {
    let budget = weighted(&[(3, usizes(0, 6)), (1, usizes(usize::MAX, usize::MAX))]);
    let problem = pairs(
        &pairs(&analyzer(), &budget),
        &pairs(&analysis_text(), &analysis_text()),
    );
    check!(CheckConfig::new(), problem, |(
        (a, budget),
        (first, second),
    )| {
        let (mut dict, mut out) = (TermDict::new(), Vec::new());
        a.analyze_into(first, &mut dict, &mut out);
        let trimmed = a.analyze_into_budget(second, &mut dict, &mut out, *budget);
        let (mut ref_dict, mut ref_out) = (TermDict::new(), Vec::new());
        require!(!reference_analyze(
            a,
            first,
            &mut ref_dict,
            &mut ref_out,
            usize::MAX
        ));
        let ref_trimmed = reference_analyze(a, second, &mut ref_dict, &mut ref_out, *budget);
        require_eq!(out, ref_out);
        require_eq!(trimmed, ref_trimmed);
        let terms: Vec<&str> = dict.iter().map(|(_, t)| t).collect();
        let ref_terms: Vec<&str> = ref_dict.iter().map(|(_, t)| t).collect();
        require_eq!(terms, ref_terms);
        Ok(())
    });
}
