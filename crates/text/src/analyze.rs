//! The analysis pipeline: tokenize → stopword-filter → stem → intern.
//!
//! One loop, [`Analyzer::analyze_into_budget`], runs it over two reusable
//! buffers (the tokenizer's lowercase token and the stemmer's output), so
//! the only allocations per call are those buffers and the dictionary's
//! copies of terms it has never seen.

use std::borrow::Cow;
use std::ops::ControlFlow;

use crate::dict::{TermDict, TermId};
use crate::stem::stem_into;
use crate::stopwords::is_stopword;
use crate::tokenize::{for_each_token, TokenizeOptions};

/// Configurable text analyzer.
///
/// The defaults mirror the paper's preprocessing: all words are stemmed,
/// stopwords removed, numeric tokens dropped.
#[derive(Debug, Clone, Copy)]
pub struct Analyzer {
    /// Tokenizer options.
    pub tokenize: TokenizeOptions,
    /// Remove stopwords (before stemming). Default true.
    pub remove_stopwords: bool,
    /// Apply the Porter stemmer. Default true.
    pub stem: bool,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer {
            tokenize: TokenizeOptions::default(),
            remove_stopwords: true,
            stem: true,
        }
    }
}

impl Analyzer {
    /// Analyze `text` into a sequence of interned term ids (with repeats —
    /// term frequency is computed downstream).
    pub fn analyze(&self, text: &str, dict: &mut TermDict) -> Vec<TermId> {
        let mut out = Vec::new();
        self.analyze_into(text, dict, &mut out);
        out
    }

    /// Like [`Analyzer::analyze`] but appends into a reusable buffer,
    /// avoiding per-call allocation in the corpus-scale loops.
    pub fn analyze_into(&self, text: &str, dict: &mut TermDict, out: &mut Vec<TermId>) {
        self.analyze_into_budget(text, dict, out, usize::MAX);
    }

    /// Like [`Analyzer::analyze_into`], but stop once `out` holds `budget`
    /// terms. Returns `true` when the budget cut the analysis short —
    /// entity bombs and megabyte attribute dumps yield bounded work instead
    /// of unbounded dictionaries. A `budget` of `usize::MAX` never trims.
    pub fn analyze_into_budget(
        &self,
        text: &str,
        dict: &mut TermDict,
        out: &mut Vec<TermId>,
        budget: usize,
    ) -> bool {
        let mut stemmed = Vec::new();
        let walk = for_each_token(text, self.tokenize, |token| {
            if out.len() >= budget {
                return ControlFlow::Break(());
            }
            if self.remove_stopwords && is_stopword(token) {
                return ControlFlow::Continue(());
            }
            let term = if self.stem {
                stem_into(token, &mut stemmed);
                // Valid UTF-8 (see `stem_into`), so this borrows.
                String::from_utf8_lossy(&stemmed)
            } else {
                Cow::Borrowed(token)
            };
            // Stemming can collapse a content word onto a stopword
            // ("abouts" -> "about"); filter again post-stem so no stopword
            // survives. An unchanged term already passed the filter above.
            let stopped = self.remove_stopwords && *term != *token && is_stopword(&term);
            if !term.is_empty() && !stopped {
                out.push(dict.intern(&term));
            }
            ControlFlow::Continue(())
        });
        walk.is_break()
    }

    /// Analyze into plain strings (for debugging and golden tests).
    pub fn analyze_to_strings(&self, text: &str) -> Vec<String> {
        let mut dict = TermDict::new();
        self.analyze(text, &mut dict)
            .into_iter()
            .map(|id| dict.term(id).to_owned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline() {
        let a = Analyzer::default();
        assert_eq!(
            a.analyze_to_strings("Searching for the cheapest flights to Paris!"),
            vec!["search", "cheapest", "flight", "pari"]
        );
    }

    #[test]
    fn repeats_preserved_for_tf() {
        let a = Analyzer::default();
        let mut dict = TermDict::new();
        let ids = a.analyze("book books booking", &mut dict);
        // book, book, book — stem collapses all three to the same id.
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn stopword_removal_toggle() {
        let no_stop = Analyzer {
            remove_stopwords: false,
            ..Default::default()
        };
        assert!(no_stop
            .analyze_to_strings("the car")
            .contains(&"the".to_owned()));
        let with_stop = Analyzer::default();
        assert!(!with_stop
            .analyze_to_strings("the car")
            .contains(&"the".to_owned()));
    }

    #[test]
    fn stemming_toggle() {
        let raw = Analyzer {
            stem: false,
            ..Default::default()
        };
        assert_eq!(raw.analyze_to_strings("flights"), vec!["flights"]);
    }

    #[test]
    fn shared_dict_across_documents() {
        let a = Analyzer::default();
        let mut dict = TermDict::new();
        let d1 = a.analyze("cheap flights", &mut dict);
        let d2 = a.analyze("flights to denver", &mut dict);
        // "flight" got the same id in both documents.
        assert!(d1.iter().any(|id| d2.contains(id)));
    }

    #[test]
    fn empty_text() {
        let a = Analyzer::default();
        let mut dict = TermDict::new();
        assert!(a.analyze("", &mut dict).is_empty());
        assert!(a.analyze("   !!!   ", &mut dict).is_empty());
    }

    #[test]
    fn budget_trims_and_reports() {
        let a = Analyzer::default();
        let mut dict = TermDict::new();
        let mut out = Vec::new();
        let trimmed =
            a.analyze_into_budget("cheap flights to sunny lisbon", &mut dict, &mut out, 2);
        assert!(trimmed);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn budget_large_enough_matches_unbounded() {
        let a = Analyzer::default();
        let mut dict = TermDict::new();
        let mut budgeted = Vec::new();
        let trimmed = a.analyze_into_budget(
            "cheap flights to denver",
            &mut dict,
            &mut budgeted,
            usize::MAX,
        );
        assert!(!trimmed);
        let mut dict2 = TermDict::new();
        let plain = a.analyze("cheap flights to denver", &mut dict2);
        assert_eq!(budgeted.len(), plain.len());
    }
}
