//! A cheap coverage proxy over the tokenizer and tree builder.
//!
//! Real coverage-guided fuzzers (libFuzzer, AFL) instrument compiled
//! branches; this workspace cannot (no sanitizer runtime offline), so the
//! HTML stack exposes the next best thing: every interesting state
//! transition in the tokenizer and every recovery decision in the tree
//! builder reports a [`CoveragePoint`] to an optional [`Coverage`] handle.
//! Consecutive points form *edges* (AFL-style `prev → cur` pairs) that are
//! hashed into a fixed-size hit map, so "this input exercised new
//! behaviour" is a pure, deterministic function of the input bytes — the
//! signal `cafc-fuzz` schedules its corpus by.
//!
//! The handle follows the `cafc-obs` pattern: [`Coverage::disabled`]
//! carries `None` and every `record` call is a single branch, so the
//! production parse path pays (almost) nothing. Instrumentation is
//! single-threaded by construction — one tokenizer, one map — which keeps
//! the handle a plain `Rc<RefCell<…>>`.

pub use cafc_obs::fnv1a;
use std::cell::RefCell;
use std::rc::Rc;

/// Number of hit-map bins. Power of two so the edge hash reduces with a
/// mask; large enough that the ~100-point alphabet squared collides
/// rarely.
pub const MAP_SIZE: usize = 4096;

/// One observed behaviour of the tokenizer or tree builder.
///
/// The variants enumerate the state machine's interesting transitions:
/// which token class was produced, how attributes were quoted, which
/// recovery path the tree builder took. `TagName`/`AttrName`/`EntityForm`
/// carry a small hash bucket so that *which* tag/attribute/entity was seen
/// widens the coverage space beyond the raw branch alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoveragePoint {
    /// A character-data run was emitted.
    Text,
    /// A start tag was scanned.
    StartTag,
    /// An end tag was scanned.
    EndTag,
    /// `</` not followed by a letter degraded to literal text.
    StrayEndTag,
    /// A `<!-- -->` comment was scanned.
    Comment,
    /// A comment ran to end-of-input without `-->`.
    CommentUnterminated,
    /// A `<!…>`/`<?…>` declaration was scanned.
    Doctype,
    /// A stray `<` degraded to literal text.
    StrayLt,
    /// A start tag entered raw-text mode (`<script>`, `<style>`, …).
    RawTextEnter,
    /// Raw-text mode ended at its matching close tag.
    RawTextClose,
    /// Raw-text mode ran to end-of-input unterminated.
    RawTextUnterminated,
    /// A tag ended with `/>`.
    SelfClosing,
    /// A tag ran to end-of-input before `>`.
    TagUnterminatedEof,
    /// A stray `/` inside a tag was skipped.
    StraySlash,
    /// An unexpected character inside a tag was skipped.
    TagJunkSkipped,
    /// A bare attribute (no `=`).
    AttrBare,
    /// A double-quoted attribute value.
    AttrDoubleQuoted,
    /// A single-quoted attribute value.
    AttrSingleQuoted,
    /// An unquoted attribute value.
    AttrUnquoted,
    /// A start-tag name, bucketed by hash (64 buckets).
    TagName(u8),
    /// An attribute name, bucketed by hash (32 buckets).
    AttrName(u8),
    /// Tree builder: a text node was appended.
    TreeText,
    /// Tree builder: a comment node was appended.
    TreeComment,
    /// Tree builder: a doctype token was dropped.
    TreeDoctypeDropped,
    /// Tree builder: an open element was implicitly closed.
    TreeImplicitClose,
    /// Tree builder: an end tag matched an open element.
    TreeEndMatched,
    /// Tree builder: a stray end tag was dropped.
    TreeStrayEndDropped,
    /// Tree builder: a void or self-closing element took no children.
    TreeVoid,
    /// Tree builder: a node was appended at the document root.
    TreeRootAppend,
    /// Tree builder: the open-element depth cap was hit.
    TreeDepthCapped,
    /// Tree builder: the node-arena cap was hit.
    TreeNodesCapped,
}

impl CoveragePoint {
    /// The stable numeric id of this point. Ids are dense and versioned
    /// with the enum: the plain variants occupy `0..32`, `TagName` buckets
    /// `32..96`, `AttrName` buckets `96..128`.
    pub fn id(self) -> u32 {
        use CoveragePoint::*;
        match self {
            Text => 0,
            StartTag => 1,
            EndTag => 2,
            StrayEndTag => 3,
            Comment => 4,
            CommentUnterminated => 5,
            Doctype => 6,
            StrayLt => 7,
            RawTextEnter => 8,
            RawTextClose => 9,
            RawTextUnterminated => 10,
            SelfClosing => 11,
            TagUnterminatedEof => 12,
            StraySlash => 13,
            TagJunkSkipped => 14,
            AttrBare => 15,
            AttrDoubleQuoted => 16,
            AttrSingleQuoted => 17,
            AttrUnquoted => 18,
            TreeText => 19,
            TreeComment => 20,
            TreeDoctypeDropped => 21,
            TreeImplicitClose => 22,
            TreeEndMatched => 23,
            TreeStrayEndDropped => 24,
            TreeVoid => 25,
            TreeRootAppend => 26,
            TreeDepthCapped => 27,
            TreeNodesCapped => 28,
            TagName(b) => 32 + u32::from(b % 64),
            AttrName(b) => 96 + u32::from(b % 32),
        }
    }

    /// The hash bucket for a tag name (for [`CoveragePoint::TagName`]).
    pub fn tag_bucket(name: &str) -> u8 {
        (fnv1a(name.as_bytes()) % 64) as u8
    }

    /// The hash bucket for an attribute name (for
    /// [`CoveragePoint::AttrName`]).
    pub fn attr_bucket(name: &str) -> u8 {
        (fnv1a(name.as_bytes()) % 32) as u8
    }
}

/// A small 32-bit integer mix (xorshift-multiply) for edge hashing.
#[inline]
fn mix32(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^ (x >> 16)
}

/// The hit map one instrumented parse fills in: AFL-style `prev → cur`
/// edge counters over [`CoveragePoint`] ids, reduced into [`MAP_SIZE`]
/// bins. Recording is a pure function of the point sequence, so the same
/// input always produces the same map (and the same
/// [`CoverageMap::bitmap_hash`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    bins: Vec<u32>,
    prev: u32,
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap {
            bins: vec![0; MAP_SIZE],
            prev: 0,
        }
    }

    /// Record one coverage point, forming an edge with the previous one.
    #[inline]
    pub fn record(&mut self, point: CoveragePoint) {
        let id = point.id();
        let idx = (mix32(self.prev ^ id.wrapping_mul(0x9e37_79b9)) as usize) & (MAP_SIZE - 1);
        self.bins[idx] = self.bins[idx].saturating_add(1);
        // Shift the previous id (AFL's trick) so A→B and B→A hash apart.
        self.prev = id.wrapping_mul(2).wrapping_add(1);
    }

    /// Clear all bins and the edge state.
    pub fn reset(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
        self.prev = 0;
    }

    /// The raw hit counters.
    pub fn bins(&self) -> &[u32] {
        &self.bins
    }

    /// Number of distinct edges (non-zero bins) hit.
    pub fn edge_count(&self) -> usize {
        self.bins.iter().filter(|&&b| b > 0).count()
    }

    /// The AFL-style bucket class of a hit count: 0, 1, 2, 3, 4–7, 8–15,
    /// 16–31, 32–127, 128+ map to classes 0–8. Count novelty is judged in
    /// classes, not raw counts, so loop-trip jitter does not read as new
    /// coverage.
    pub fn class_of(count: u32) -> u8 {
        match count {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 3,
            4..=7 => 4,
            8..=15 => 5,
            16..=31 => 6,
            32..=127 => 7,
            _ => 8,
        }
    }

    /// The per-bin bucket classes (same length as [`CoverageMap::bins`]).
    pub fn classes(&self) -> Vec<u8> {
        self.bins.iter().map(|&b| Self::class_of(b)).collect()
    }

    /// A stable 64-bit hash of the bucketized hit bitmap — the coverage
    /// signature of one input. Pure function of the recorded point
    /// sequence.
    pub fn bitmap_hash(&self) -> u64 {
        fnv1a(&self.classes())
    }
}

/// Shared inner state of an enabled [`Coverage`] handle.
type Shared = Rc<RefCell<CoverageMap>>;

/// The coverage handle threaded through the tokenizer and tree builder.
///
/// [`Coverage::disabled`] is the default everywhere: it carries `None`
/// and recording is one branch. [`Coverage::enabled`] shares one
/// [`CoverageMap`] across clones, so the tokenizer and the tree builder
/// write into the same map during an instrumented parse.
#[derive(Debug, Clone, Default)]
pub struct Coverage(Option<Shared>);

impl Coverage {
    /// The no-op handle: records nothing, allocates nothing.
    pub fn disabled() -> Coverage {
        Coverage(None)
    }

    /// A recording handle over a fresh map.
    pub fn enabled() -> Coverage {
        Coverage(Some(Rc::new(RefCell::new(CoverageMap::new()))))
    }

    /// Whether this handle records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record a point (no-op when disabled).
    #[inline]
    pub fn record(&self, point: CoveragePoint) {
        if let Some(map) = &self.0 {
            map.borrow_mut().record(point);
        }
    }

    /// A copy of the current map; `None` when disabled.
    pub fn snapshot(&self) -> Option<CoverageMap> {
        self.0.as_ref().map(|m| m.borrow().clone())
    }

    /// Clear the map (no-op when disabled).
    pub fn reset(&self) {
        if let Some(map) = &self.0 {
            map.borrow_mut().reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let cov = Coverage::disabled();
        cov.record(CoveragePoint::Text);
        assert!(!cov.is_enabled());
        assert!(cov.snapshot().is_none());
    }

    #[test]
    fn enabled_handle_shares_one_map_across_clones() {
        let cov = Coverage::enabled();
        let clone = cov.clone();
        cov.record(CoveragePoint::StartTag);
        clone.record(CoveragePoint::EndTag);
        let map = cov.snapshot().expect("enabled");
        assert_eq!(map.bins().iter().map(|&b| u64::from(b)).sum::<u64>(), 2);
    }

    #[test]
    fn recording_is_deterministic() {
        let seq = [
            CoveragePoint::StartTag,
            CoveragePoint::TagName(3),
            CoveragePoint::Text,
            CoveragePoint::EndTag,
        ];
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        for p in seq {
            a.record(p);
            b.record(p);
        }
        assert_eq!(a.bitmap_hash(), b.bitmap_hash());
        assert_eq!(a.bins(), b.bins());
    }

    #[test]
    fn order_matters_for_edges() {
        let mut ab = CoverageMap::new();
        ab.record(CoveragePoint::StartTag);
        ab.record(CoveragePoint::EndTag);
        let mut ba = CoverageMap::new();
        ba.record(CoveragePoint::EndTag);
        ba.record(CoveragePoint::StartTag);
        assert_ne!(ab.bitmap_hash(), ba.bitmap_hash());
    }

    #[test]
    fn count_classes_bucketize() {
        assert_eq!(CoverageMap::class_of(0), 0);
        assert_eq!(CoverageMap::class_of(1), 1);
        assert_eq!(CoverageMap::class_of(5), 4);
        assert_eq!(CoverageMap::class_of(100), 7);
        assert_eq!(CoverageMap::class_of(10_000), 8);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = CoverageMap::new();
        m.record(CoveragePoint::Text);
        assert_eq!(m.edge_count(), 1);
        m.reset();
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m, CoverageMap::new());
    }

    #[test]
    fn point_ids_are_unique() {
        let mut ids: Vec<u32> = (0..64)
            .map(|b| CoveragePoint::TagName(b).id())
            .chain((0..32).map(|b| CoveragePoint::AttrName(b).id()))
            .chain(
                [
                    CoveragePoint::Text,
                    CoveragePoint::StartTag,
                    CoveragePoint::EndTag,
                    CoveragePoint::StrayEndTag,
                    CoveragePoint::Comment,
                    CoveragePoint::CommentUnterminated,
                    CoveragePoint::Doctype,
                    CoveragePoint::StrayLt,
                    CoveragePoint::RawTextEnter,
                    CoveragePoint::RawTextClose,
                    CoveragePoint::RawTextUnterminated,
                    CoveragePoint::SelfClosing,
                    CoveragePoint::TagUnterminatedEof,
                    CoveragePoint::StraySlash,
                    CoveragePoint::TagJunkSkipped,
                    CoveragePoint::AttrBare,
                    CoveragePoint::AttrDoubleQuoted,
                    CoveragePoint::AttrSingleQuoted,
                    CoveragePoint::AttrUnquoted,
                    CoveragePoint::TreeText,
                    CoveragePoint::TreeComment,
                    CoveragePoint::TreeDoctypeDropped,
                    CoveragePoint::TreeImplicitClose,
                    CoveragePoint::TreeEndMatched,
                    CoveragePoint::TreeStrayEndDropped,
                    CoveragePoint::TreeVoid,
                    CoveragePoint::TreeRootAppend,
                    CoveragePoint::TreeDepthCapped,
                    CoveragePoint::TreeNodesCapped,
                ]
                .iter()
                .map(|p| p.id()),
            )
            .collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "coverage point ids must not collide");
    }
}
