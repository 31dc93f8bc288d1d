//! The Porter stemming algorithm (M.F. Porter, 1980), as used by the paper
//! to normalize page and form vocabulary ("the terms are obtained by
//! stemming all the distinct words").
//!
//! This is a faithful implementation of the original five-step algorithm,
//! including the commonly adopted revisions (`abli`→`able` spelled as
//! `bli`→`ble`, and `logi`→`log`). It operates on lowercase ASCII; words
//! containing non-ASCII-alphabetic characters are returned unchanged, as are
//! words of length ≤ 2 (the algorithm's own convention).
//!
//! [`stem_into`] is the kernel: it rewrites the word in a caller-owned
//! byte buffer, so the analyzer stems a whole corpus without allocating.
//! [`stem`] wraps it for one-off calls.

/// Stem a single word. The input is lowercased internally.
///
/// ```
/// assert_eq!(cafc_text::stem("relational"), "relat");
/// assert_eq!(cafc_text::stem("flights"), "flight");
/// assert_eq!(cafc_text::stem("privacy"), "privaci");
/// ```
pub fn stem(word: &str) -> String {
    let mut buf = Vec::new();
    stem_into(word, &mut buf);
    // The stemmer only rewrites ASCII bytes, so `buf` is valid UTF-8 and
    // this is lossless; lossy conversion just removes the panic path.
    String::from_utf8_lossy(&buf).into_owned()
}

/// Stem `word` into `buf` (cleared first): the bytes of [`stem`]`(word)`,
/// always valid UTF-8. Reusing `buf` across words makes stemming
/// allocation-free once it has grown to the longest word.
///
/// ```
/// let mut buf = Vec::new();
/// cafc_text::stem_into("Flights", &mut buf);
/// assert_eq!(buf, b"flight");
/// ```
pub fn stem_into(word: &str, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend(word.bytes().map(|b| b.to_ascii_lowercase()));
    if buf.len() <= 2 || !buf.iter().all(u8::is_ascii_lowercase) {
        return;
    }
    let mut s = Stemmer { b: buf };
    s.step1a();
    s.step1b();
    s.step1c();
    s.step2();
    s.step3();
    s.step4();
    s.step5a();
    s.step5b();
}

struct Stemmer<'a> {
    b: &'a mut Vec<u8>,
}

impl Stemmer<'_> {
    /// Is the letter at index `i` a consonant (with Porter's `y` rule)?
    fn is_consonant(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => i == 0 || !self.is_consonant(i - 1),
            _ => true,
        }
    }

    /// Porter's measure `m` of the prefix `b[0..len]`: the number of
    /// vowel→consonant transitions, i.e. `m` in `[C](VC)^m[V]`.
    fn measure(&self, len: usize) -> usize {
        let mut m = 0;
        let mut prev_vowel = false;
        for i in 0..len {
            let cons = self.is_consonant(i);
            if cons && prev_vowel {
                m += 1;
            }
            prev_vowel = !cons;
        }
        m
    }

    /// Does the prefix `b[0..len]` contain a vowel?
    fn has_vowel(&self, len: usize) -> bool {
        (0..len).any(|i| !self.is_consonant(i))
    }

    /// Does the prefix `b[0..len]` end with a double consonant?
    fn ends_double_consonant(&self, len: usize) -> bool {
        len >= 2 && self.b[len - 1] == self.b[len - 2] && self.is_consonant(len - 1)
    }

    /// Does the prefix `b[0..len]` end consonant-vowel-consonant, where the
    /// final consonant is not `w`, `x` or `y`? (Porter's `*o` condition.)
    fn ends_cvc(&self, len: usize) -> bool {
        len >= 3
            && self.is_consonant(len - 3)
            && !self.is_consonant(len - 2)
            && self.is_consonant(len - 1)
            && !matches!(self.b[len - 1], b'w' | b'x' | b'y')
    }

    fn ends_with(&self, suffix: &str) -> bool {
        self.b.ends_with(suffix.as_bytes())
    }

    /// Length of the stem if `suffix` were removed.
    fn stem_len(&self, suffix: &str) -> usize {
        self.b.len() - suffix.len()
    }

    /// Replace a (known-present) `suffix` with `replacement`.
    fn set_suffix(&mut self, suffix: &str, replacement: &str) {
        let keep = self.stem_len(suffix);
        self.b.truncate(keep);
        self.b.extend_from_slice(replacement.as_bytes());
    }

    /// Try each `(suffix, replacement)` pair in order: on the first suffix
    /// that matches, apply the replacement if `m(stem) > threshold`, and stop
    /// (matching, even without firing, ends the step — per the algorithm,
    /// rules within a step are alternatives keyed on the longest match).
    fn rule_list(&mut self, rules: &[(&str, &str)], threshold: usize) {
        for &(suffix, replacement) in rules {
            if self.ends_with(suffix) {
                if self.measure(self.stem_len(suffix)) > threshold {
                    self.set_suffix(suffix, replacement);
                }
                return;
            }
        }
    }

    /// Step 1a: plurals.
    fn step1a(&mut self) {
        if self.ends_with("sses") {
            self.set_suffix("sses", "ss");
        } else if self.ends_with("ies") {
            self.set_suffix("ies", "i");
        } else if self.ends_with("ss") {
            // unchanged
        } else if self.ends_with("s") {
            self.set_suffix("s", "");
        }
    }

    /// Step 1b: past tense / gerunds, with the cleanup sub-step.
    fn step1b(&mut self) {
        if self.ends_with("eed") {
            if self.measure(self.stem_len("eed")) > 0 {
                self.set_suffix("eed", "ee");
            }
            return;
        }
        let removed = if self.ends_with("ed") && self.has_vowel(self.stem_len("ed")) {
            self.set_suffix("ed", "");
            true
        } else if self.ends_with("ing") && self.has_vowel(self.stem_len("ing")) {
            self.set_suffix("ing", "");
            true
        } else {
            false
        };
        if !removed {
            return;
        }
        if self.ends_with("at") {
            self.set_suffix("at", "ate");
        } else if self.ends_with("bl") {
            self.set_suffix("bl", "ble");
        } else if self.ends_with("iz") {
            self.set_suffix("iz", "ize");
        } else if self.ends_double_consonant(self.b.len())
            && !matches!(self.b[self.b.len() - 1], b'l' | b's' | b'z')
        {
            self.b.pop();
        } else if self.measure(self.b.len()) == 1 && self.ends_cvc(self.b.len()) {
            self.b.push(b'e');
        }
    }

    /// Step 1c: terminal `y` → `i` when the stem has a vowel.
    fn step1c(&mut self) {
        if self.ends_with("y") && self.has_vowel(self.stem_len("y")) {
            self.set_suffix("y", "i");
        }
    }

    /// Step 2: double suffixes (fires when `m(stem) > 0`).
    fn step2(&mut self) {
        self.rule_list(
            &[
                ("ational", "ate"),
                ("tional", "tion"),
                ("enci", "ence"),
                ("anci", "ance"),
                ("izer", "ize"),
                ("bli", "ble"),
                ("alli", "al"),
                ("entli", "ent"),
                ("eli", "e"),
                ("ousli", "ous"),
                ("ization", "ize"),
                ("ation", "ate"),
                ("ator", "ate"),
                ("alism", "al"),
                ("iveness", "ive"),
                ("fulness", "ful"),
                ("ousness", "ous"),
                ("aliti", "al"),
                ("iviti", "ive"),
                ("biliti", "ble"),
                ("logi", "log"),
            ],
            0,
        );
    }

    /// Step 3: `-ic-`, `-full`, `-ness` (fires when `m(stem) > 0`).
    fn step3(&mut self) {
        self.rule_list(
            &[
                ("icate", "ic"),
                ("ative", ""),
                ("alize", "al"),
                ("iciti", "ic"),
                ("ical", "ic"),
                ("ful", ""),
                ("ness", ""),
            ],
            0,
        );
    }

    /// Step 4: bare suffixes (fires when `m(stem) > 1`).
    fn step4(&mut self) {
        // `ion` has an extra condition (*S or *T on the stem), so handle the
        // list manually rather than through `rule_list`.
        const SUFFIXES: &[&str] = &[
            "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion", "ism", "ate",
            "iti", "ous", "ive", "ize", "al", "er", "ic", "ou",
        ];
        for &suffix in SUFFIXES {
            if self.ends_with(suffix) {
                let stem_len = self.stem_len(suffix);
                let fires = self.measure(stem_len) > 1
                    && (suffix != "ion"
                        || (stem_len >= 1 && matches!(self.b[stem_len - 1], b's' | b't')));
                if fires {
                    self.set_suffix(suffix, "");
                }
                return;
            }
        }
    }

    /// Step 5a: remove terminal `e`.
    fn step5a(&mut self) {
        if self.ends_with("e") {
            let stem_len = self.stem_len("e");
            let m = self.measure(stem_len);
            if m > 1 || (m == 1 && !self.ends_cvc(stem_len)) {
                self.set_suffix("e", "");
            }
        }
    }

    /// Step 5b: `ll` → `l` for long stems.
    fn step5b(&mut self) {
        let len = self.b.len();
        if self.measure(len) > 1 && self.ends_double_consonant(len) && self.b[len - 1] == b'l' {
            self.b.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stem;

    /// `(input, expected)` pairs from Porter's published vocabulary and the
    /// examples in the original paper.
    const VECTORS: &[(&str, &str)] = &[
        // step 1a
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        // step 1b
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("bled", "bled"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("conflated", "conflat"),
        ("troubled", "troubl"),
        ("sized", "size"),
        ("hopping", "hop"),
        ("tanned", "tan"),
        ("falling", "fall"),
        ("hissing", "hiss"),
        ("fizzed", "fizz"),
        ("failing", "fail"),
        ("filing", "file"),
        // step 1c
        ("happy", "happi"),
        ("sky", "sky"),
        // step 2
        ("relational", "relat"),
        ("conditional", "condit"),
        ("rational", "ration"),
        ("valenci", "valenc"),
        ("hesitanci", "hesit"),
        ("digitizer", "digit"),
        ("radically", "radic"),
        ("differently", "differ"),
        ("analogously", "analog"),
        ("vietnamization", "vietnam"),
        ("predication", "predic"),
        ("operator", "oper"),
        ("feudalism", "feudal"),
        ("decisiveness", "decis"),
        ("hopefulness", "hope"),
        ("callousness", "callous"),
        ("formality", "formal"),
        ("sensitivity", "sensit"),
        ("sensibility", "sensibl"),
        // step 3
        ("triplicate", "triplic"),
        ("formative", "form"),
        ("formalize", "formal"),
        ("electricity", "electr"),
        ("electrical", "electr"),
        ("hopeful", "hope"),
        ("goodness", "good"),
        // step 4
        ("revival", "reviv"),
        ("allowance", "allow"),
        ("inference", "infer"),
        ("airliner", "airlin"),
        ("gyroscopic", "gyroscop"),
        ("adjustable", "adjust"),
        ("defensible", "defens"),
        ("irritant", "irrit"),
        ("replacement", "replac"),
        ("adjustment", "adjust"),
        ("dependent", "depend"),
        ("adoption", "adopt"),
        ("communism", "commun"),
        ("activate", "activ"),
        ("angularity", "angular"),
        ("homologous", "homolog"),
        ("effective", "effect"),
        ("bowdlerize", "bowdler"),
        // step 5
        ("probate", "probat"),
        ("rate", "rate"),
        ("cease", "ceas"),
        ("controlling", "control"),
        ("roll", "roll"),
        // domain vocabulary from the paper
        ("flights", "flight"),
        ("privacy", "privaci"),
        ("shopping", "shop"),
        ("copyright", "copyright"),
        ("travel", "travel"),
        ("movies", "movi"),
        ("books", "book"),
        ("jobs", "job"),
        ("searching", "search"),
        ("rental", "rental"),
        ("hotels", "hotel"),
        ("airfare", "airfar"),
        ("automobiles", "automobil"),
        ("databases", "databas"),
    ];

    #[test]
    fn porter_vectors() {
        for &(input, expected) in VECTORS {
            assert_eq!(stem(input), expected, "stem({input:?})");
        }
    }

    #[test]
    fn short_words_unchanged() {
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("be"), "be");
        assert_eq!(stem("is"), "is");
    }

    #[test]
    fn lowercases_input() {
        assert_eq!(stem("FLIGHTS"), "flight");
        assert_eq!(stem("Movies"), "movi");
    }

    #[test]
    fn non_ascii_passes_through() {
        assert_eq!(stem("café"), "café");
        assert_eq!(stem("naïve"), "naïve");
    }

    #[test]
    fn non_alpha_passes_through() {
        assert_eq!(stem("abc123"), "abc123");
        assert_eq!(stem("x-ray"), "x-ray");
    }

    #[test]
    fn idempotent_on_common_vocabulary() {
        // Stemming a stem should (for these words) be a fixed point.
        for &(input, _) in VECTORS {
            let once = stem(input);
            let twice = stem(&once);
            // Not all Porter outputs are fixed points in general, but these are.
            assert_eq!(twice, stem(&twice), "double-stem fixpoint for {input:?}");
        }
    }

    #[test]
    fn empty_string() {
        assert_eq!(stem(""), "");
    }
}
