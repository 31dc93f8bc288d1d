//! # cafc-text
//!
//! Text processing for the CAFC form-page model: word [`tokenize()`]-ation,
//! the classic Porter [`stem()`]-mer ("the terms are obtained by stemming all
//! the distinct words", §2.1 of the paper), an English stopword list, and a
//! [`TermDict`] interner that maps stemmed terms to dense [`TermId`]s so the
//! vector-space layer can work with integer-keyed sparse vectors.
//!
//! The [`Analyzer`] ties the stages together in one loop that allocates
//! nothing per token: the tokenizer lowers each token into a reused buffer
//! and [`stem_into`] stems into another.
//!
//! ```
//! use cafc_text::{Analyzer, TermDict};
//!
//! let mut dict = TermDict::new();
//! let analyzer = Analyzer::default();
//! let terms = analyzer.analyze("Searching for the cheapest flights!", &mut dict);
//! let words: Vec<_> = terms.iter().map(|&t| dict.term(t)).collect();
//! // "for"/"the" are stopwords; remaining words are stemmed.
//! assert_eq!(words, ["search", "cheapest", "flight"]);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod dict;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use analyze::Analyzer;
pub use dict::{TermDict, TermId};
pub use stem::{stem, stem_into};
pub use stopwords::is_stopword;
pub use tokenize::tokenize;
