//! Word tokenization.
//!
//! Splits text into lowercase word tokens on any non-alphanumeric boundary.
//! Pure numbers are dropped by default (they are database *contents* —
//! prices, years — not schema vocabulary), as are one-character tokens.
//!
//! The kernel, `for_each_token`, lowers each token into one reusable
//! buffer and hands it to a callback, so a walk over a page allocates
//! nothing once the buffer has grown to the longest token; the analyzer
//! runs on it. [`tokenize_with`] collects the same tokens into owned
//! strings.

use std::ops::ControlFlow;

/// Tokenization options.
#[derive(Debug, Clone, Copy)]
pub struct TokenizeOptions {
    /// Minimum token length in characters (default 2).
    pub min_len: usize,
    /// Maximum token length; longer tokens (base64 blobs, URLs that leaked
    /// into text) are dropped (default 30).
    pub max_len: usize,
    /// Keep tokens consisting only of digits (default false).
    pub keep_numbers: bool,
}

impl Default for TokenizeOptions {
    fn default() -> Self {
        TokenizeOptions {
            min_len: 2,
            max_len: 30,
            keep_numbers: false,
        }
    }
}

/// Tokenize with default options.
///
/// ```
/// assert_eq!(cafc_text::tokenize("Cheap Flights, 2-for-1!"),
///            vec!["cheap", "flights", "for"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    tokenize_with(text, TokenizeOptions::default())
}

/// Tokenize with explicit options.
pub fn tokenize_with(text: &str, opts: TokenizeOptions) -> Vec<String> {
    let mut tokens = Vec::new();
    let _ = for_each_token(text, opts, |token| {
        tokens.push(token.to_owned());
        ControlFlow::Continue(())
    });
    tokens
}

/// Call `f` on every token of `text`, in order, until `f` breaks; returns
/// `Break` if it did. The tokens are exactly those of [`tokenize_with`],
/// each lowered into one buffer that is reused across tokens.
pub(crate) fn for_each_token(
    text: &str,
    opts: TokenizeOptions,
    mut f: impl FnMut(&str) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut buf = String::new();
    for c in text.chars() {
        // ASCII first: the same result as the Unicode tables, cheaper.
        if c.is_ascii_alphanumeric() {
            buf.push(c.to_ascii_lowercase());
        } else if !c.is_ascii() && c.is_alphanumeric() {
            buf.extend(c.to_lowercase());
        } else if !buf.is_empty() {
            if keep_token(&buf, opts) {
                f(&buf)?;
            }
            buf.clear();
        }
    }
    if !buf.is_empty() && keep_token(&buf, opts) {
        f(&buf)?;
    }
    ControlFlow::Continue(())
}

/// The length and number filters of [`TokenizeOptions`].
fn keep_token(token: &str, opts: TokenizeOptions) -> bool {
    let len = token.chars().count();
    (opts.min_len..=opts.max_len).contains(&len)
        && (opts.keep_numbers || !token.bytes().all(|b| b.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_split() {
        assert_eq!(tokenize("hello world"), vec!["hello", "world"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("Job Category"), vec!["job", "category"]);
    }

    #[test]
    fn punctuation_boundaries() {
        assert_eq!(
            tokenize("new/used cars, trucks."),
            vec!["new", "used", "cars", "trucks"]
        );
    }

    #[test]
    fn numbers_dropped_by_default() {
        assert_eq!(tokenize("room 101 deluxe"), vec!["room", "deluxe"]);
    }

    #[test]
    fn numbers_kept_when_asked() {
        let opts = TokenizeOptions {
            keep_numbers: true,
            ..Default::default()
        };
        assert_eq!(tokenize_with("room 101", opts), vec!["room", "101"]);
    }

    #[test]
    fn alphanumeric_mixed_tokens_kept() {
        assert_eq!(tokenize("mp3 players"), vec!["mp3", "players"]);
    }

    #[test]
    fn single_chars_dropped() {
        assert_eq!(tokenize("a b cd"), vec!["cd"]);
    }

    #[test]
    fn overlong_tokens_dropped() {
        let blob = "x".repeat(31);
        assert_eq!(tokenize(&format!("ok {blob} fine")), vec!["ok", "fine"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ###").is_empty());
    }

    #[test]
    fn unicode_words() {
        assert_eq!(tokenize("café au lait"), vec!["café", "au", "lait"]);
    }

    #[test]
    fn uppercase_unicode_lowered() {
        assert_eq!(tokenize("ÉTÉ"), vec!["été"]);
    }
}
