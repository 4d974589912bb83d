//! Error patterns (paper §III-C and §VII-B).
//!
//! An error pattern describes *how* erroneous bits are distributed within a
//! corrupted data element: which bits are flipped.  The evaluation of the
//! paper (like most of the literature it cites) uses single-bit errors; the
//! discussion section sketches how the methodology extends to multi-bit
//! patterns.  Both are first-class here: a pattern reduces to a bit
//! [`ErrorPattern::mask`] that the VM applies in one XOR, the aDVF analysis
//! enumerates the configured set per participating element and resolves
//! every enumerated pattern exactly (operation rules, propagation replay,
//! and deterministic injection are all mask-generic), and the RFI sampler
//! draws uniformly over the same site × pattern population.

use moard_ir::Type;
use std::rc::Rc;

/// A single error pattern: the set of bit positions flipped.
///
/// Invariant: `bits` is strictly increasing (sorted, no duplicates).  Build
/// patterns through [`ErrorPattern::new`] (which normalizes ordering and
/// collapses duplicates) unless the literal is already in canonical form —
/// a duplicated bit would XOR twice and silently flip nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ErrorPattern {
    /// Flipped bit positions (strictly increasing, all below the value width).
    pub bits: Vec<u32>,
}

impl ErrorPattern {
    /// Normalizing constructor: sorts the bit positions and removes
    /// duplicates, restoring the documented strictly-increasing invariant
    /// for any input order.
    pub fn new(mut bits: Vec<u32>) -> Self {
        bits.sort_unstable();
        bits.dedup();
        ErrorPattern { bits }
    }

    /// A single-bit pattern.
    pub fn single(bit: u32) -> Self {
        ErrorPattern { bits: vec![bit] }
    }

    /// True if the pattern flips exactly one bit.
    pub fn is_single_bit(&self) -> bool {
        self.bits.len() == 1
    }

    /// The single flipped bit, if this is a single-bit pattern.
    pub fn single_bit(&self) -> Option<u32> {
        if self.is_single_bit() {
            Some(self.bits[0])
        } else {
            None
        }
    }

    /// The 64-bit XOR mask realizing this pattern — the form the VM's
    /// deterministic injector consumes (`FaultSpec::masked`).  Bit
    /// positions at or above 64 contribute nothing (they are ignored, not
    /// wrapped onto low bits — matching `Value::flip_mask` semantics).
    pub fn mask(&self) -> u64 {
        self.bits
            .iter()
            .fold(0u64, |m, &b| m | 1u64.checked_shl(b).unwrap_or(0))
    }

    /// True if the documented invariant (strictly increasing, in-range bit
    /// positions) holds.
    pub fn is_normalized(&self) -> bool {
        self.bits.windows(2).all(|w| w[0] < w[1]) && self.bits.iter().all(|&b| b < 64)
    }
}

/// The family of error patterns to enumerate per data element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ErrorPatternSet {
    /// Every single-bit flip across the element width (the paper's default:
    /// "we only study single-bit errors because they are the most common").
    #[default]
    SingleBit,
    /// Every spatially contiguous burst of `width` flipped bits (e.g. 2 for
    /// double-bit adjacent errors), the extension sketched in §VII-B.
    AdjacentBits { width: u32 },
    /// Two flipped bits separated by exactly `gap` positions (the "spatially
    /// separated" multi-bit pattern of §VII-B).
    SeparatedPair { gap: u32 },
    /// An explicit list of patterns (applied to every element width; patterns
    /// with out-of-range bits are skipped for narrow types).
    Explicit(Vec<ErrorPattern>),
}

impl ErrorPatternSet {
    /// Enumerate the concrete patterns for a value of type `ty`.
    pub fn patterns_for(&self, ty: Type) -> Vec<ErrorPattern> {
        let width = ty.bit_width();
        match self {
            ErrorPatternSet::SingleBit => (0..width).map(ErrorPattern::single).collect(),
            ErrorPatternSet::AdjacentBits { width: burst } => {
                let burst = (*burst).max(1);
                if burst > width {
                    return vec![];
                }
                (0..=(width - burst))
                    .map(|start| ErrorPattern {
                        bits: (start..start + burst).collect(),
                    })
                    .collect()
            }
            ErrorPatternSet::SeparatedPair { gap } => {
                let gap = (*gap).max(1);
                if gap.saturating_add(1) > width {
                    return vec![];
                }
                (0..(width - gap))
                    .map(|b| ErrorPattern {
                        bits: vec![b, b + gap],
                    })
                    .collect()
            }
            ErrorPatternSet::Explicit(list) => list
                .iter()
                .filter(|p| p.bits.iter().all(|&b| b < width))
                .cloned()
                .collect(),
        }
    }

    /// Number of patterns enumerated for a value of type `ty` — the
    /// pattern-aware site-count factor (a participation site of this type
    /// contributes this many fault-injection sites).
    pub fn count_for(&self, ty: Type) -> usize {
        let width = ty.bit_width();
        match self {
            ErrorPatternSet::SingleBit => width as usize,
            ErrorPatternSet::AdjacentBits { width: burst } => {
                let burst = (*burst).max(1);
                (width + 1).saturating_sub(burst) as usize
            }
            ErrorPatternSet::SeparatedPair { gap } => {
                let gap = (*gap).max(1);
                width.saturating_sub(gap) as usize
            }
            ErrorPatternSet::Explicit(list) => list
                .iter()
                .filter(|p| p.bits.iter().all(|&b| b < width))
                .count(),
        }
    }

    /// Canonical textual form, stable across releases; feeds the analysis
    /// config fingerprint and the serialized report schema.
    ///
    /// Degenerate parameters canonicalize to the behavior they clamp to
    /// (`AdjacentBits { width: 0 }` behaves — and renders — exactly like
    /// width 1), so equal behavior always means equal fingerprint.
    pub fn canonical(&self) -> String {
        match self {
            ErrorPatternSet::SingleBit => "single-bit".to_string(),
            ErrorPatternSet::AdjacentBits { width } => {
                format!("adjacent-bits:{}", (*width).max(1))
            }
            ErrorPatternSet::SeparatedPair { gap } => {
                format!("separated-pair:{}", (*gap).max(1))
            }
            ErrorPatternSet::Explicit(list) => {
                let pats: Vec<String> = list
                    .iter()
                    .map(|p| {
                        p.bits
                            .iter()
                            .map(|b| b.to_string())
                            .collect::<Vec<_>>()
                            .join("+")
                    })
                    .collect();
                format!("explicit:{}", pats.join(","))
            }
        }
    }

    /// Parse the canonical form produced by [`ErrorPatternSet::canonical`].
    ///
    /// The parser is strict where behavior would be surprising:
    ///
    /// * `adjacent-bits:0` / `separated-pair:0` are rejected — zero is
    ///   runtime-clamped to 1, so accepting it would parse two spellings of
    ///   the same behavior;
    /// * explicit patterns must satisfy the strictly-increasing invariant's
    ///   *no-duplicates* half (`"1+1"` would XOR twice and flip nothing);
    ///   out-of-order bits are normalized, a semantically lossless fix.
    pub fn from_canonical(text: &str) -> Option<ErrorPatternSet> {
        if text == "single-bit" {
            return Some(ErrorPatternSet::SingleBit);
        }
        if let Some(width) = text.strip_prefix("adjacent-bits:") {
            return width
                .parse()
                .ok()
                .filter(|&width: &u32| width >= 1)
                .map(|width| ErrorPatternSet::AdjacentBits { width });
        }
        if let Some(gap) = text.strip_prefix("separated-pair:") {
            return gap
                .parse()
                .ok()
                .filter(|&gap: &u32| gap >= 1)
                .map(|gap| ErrorPatternSet::SeparatedPair { gap });
        }
        if let Some(body) = text.strip_prefix("explicit:") {
            let mut patterns = Vec::new();
            for part in body.split(',').filter(|p| !p.is_empty()) {
                let bits: Option<Vec<u32>> =
                    part.split('+').map(|b| b.parse::<u32>().ok()).collect();
                let bits = bits?;
                if bits.iter().any(|&b| b >= 64) {
                    // No value is wider than 64 bits; such a position can
                    // never flip anything.  Reject rather than silently
                    // carry a dead (or, worse, aliased) bit.
                    return None;
                }
                let normalized = ErrorPattern::new(bits.clone());
                if normalized.bits.len() != bits.len() {
                    // A duplicated bit position is a double flip — a no-op
                    // masquerading as a pattern.  Reject rather than guess.
                    return None;
                }
                patterns.push(normalized);
            }
            return Some(ErrorPatternSet::Explicit(patterns));
        }
        None
    }
}

/// Each element type's pattern list of one [`ErrorPatternSet`], enumerated
/// on first use and then shared: an analysis or campaign visits thousands
/// of sites but only a handful of element types, and the list depends on
/// the type alone.
#[derive(Debug)]
pub struct PatternLists<'a> {
    set: &'a ErrorPatternSet,
    lists: Vec<(Type, Rc<[ErrorPattern]>)>,
}

impl<'a> PatternLists<'a> {
    /// No list enumerated yet.
    pub fn new(set: &'a ErrorPatternSet) -> Self {
        PatternLists {
            set,
            lists: Vec::new(),
        }
    }

    /// The set's patterns for a value of type `ty`
    /// ([`ErrorPatternSet::patterns_for`]), enumerated once per type.
    pub fn get(&mut self, ty: Type) -> &Rc<[ErrorPattern]> {
        let at = match self.lists.iter().position(|(t, _)| *t == ty) {
            Some(at) => at,
            None => {
                self.lists.push((ty, self.set.patterns_for(ty).into()));
                self.lists.len() - 1
            }
        };
        &self.lists[at].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_covers_full_width() {
        let set = ErrorPatternSet::SingleBit;
        assert_eq!(set.count_for(Type::F64), 64);
        assert_eq!(set.count_for(Type::I32), 32);
        assert_eq!(set.count_for(Type::I1), 1);
        let pats = set.patterns_for(Type::I8);
        assert_eq!(pats.len(), 8);
        assert!(pats.iter().all(|p| p.is_single_bit()));
        assert_eq!(pats[7].single_bit(), Some(7));
    }

    #[test]
    fn adjacent_burst_patterns() {
        let set = ErrorPatternSet::AdjacentBits { width: 2 };
        let pats = set.patterns_for(Type::I8);
        assert_eq!(pats.len(), 7);
        assert_eq!(pats[0].bits, vec![0, 1]);
        assert_eq!(pats[6].bits, vec![6, 7]);
        // A burst wider than the type yields nothing.
        assert_eq!(
            ErrorPatternSet::AdjacentBits { width: 10 }.count_for(Type::I8),
            0
        );
    }

    #[test]
    fn separated_pair_patterns() {
        let set = ErrorPatternSet::SeparatedPair { gap: 4 };
        let pats = set.patterns_for(Type::I8);
        assert_eq!(pats.len(), 4);
        assert_eq!(pats[0].bits, vec![0, 4]);
        assert_eq!(pats[3].bits, vec![3, 7]);
    }

    #[test]
    fn count_for_matches_enumeration_everywhere() {
        let sets = [
            ErrorPatternSet::SingleBit,
            ErrorPatternSet::AdjacentBits { width: 2 },
            ErrorPatternSet::AdjacentBits { width: 9 },
            ErrorPatternSet::SeparatedPair { gap: 3 },
            ErrorPatternSet::SeparatedPair { gap: 40 },
            ErrorPatternSet::SeparatedPair { gap: u32::MAX },
            ErrorPatternSet::AdjacentBits { width: u32::MAX },
            ErrorPatternSet::Explicit(vec![
                ErrorPattern::new(vec![0, 1]),
                ErrorPattern::single(40),
            ]),
        ];
        for set in &sets {
            for ty in [
                Type::I1,
                Type::I8,
                Type::I32,
                Type::I64,
                Type::F32,
                Type::F64,
            ] {
                assert_eq!(
                    set.count_for(ty),
                    set.patterns_for(ty).len(),
                    "{set:?} on {ty:?}"
                );
            }
        }
    }

    #[test]
    fn explicit_patterns_filter_out_of_range_bits() {
        let set = ErrorPatternSet::Explicit(vec![
            ErrorPattern { bits: vec![0, 1] },
            ErrorPattern { bits: vec![40] },
        ]);
        assert_eq!(set.count_for(Type::I8), 1);
        assert_eq!(set.count_for(Type::I64), 2);
    }

    #[test]
    fn default_is_single_bit() {
        assert_eq!(ErrorPatternSet::default(), ErrorPatternSet::SingleBit);
    }

    #[test]
    fn pattern_mask_matches_bits() {
        assert_eq!(ErrorPattern::single(0).mask(), 1);
        assert_eq!(ErrorPattern::single(63).mask(), 1 << 63);
        assert_eq!(ErrorPattern::new(vec![0, 1, 4]).mask(), 0b10011);
        // Out-of-range positions are ignored, never wrapped onto bit 0.
        assert_eq!(ErrorPattern::single(64).mask(), 0);
        assert_eq!(ErrorPattern::new(vec![0, 100]).mask(), 1);
    }

    #[test]
    fn constructor_normalizes_order_and_duplicates() {
        let p = ErrorPattern::new(vec![7, 3, 3, 0]);
        assert_eq!(p.bits, vec![0, 3, 7]);
        assert!(p.is_normalized());
        assert!(!ErrorPattern { bits: vec![3, 1] }.is_normalized());
        assert!(!ErrorPattern { bits: vec![1, 1] }.is_normalized());
    }

    #[test]
    fn parse_rejects_duplicate_bits_and_normalizes_order() {
        // "1+1" is a double flip of the same bit: a no-op, not a pattern.
        assert_eq!(ErrorPatternSet::from_canonical("explicit:1+1"), None);
        assert_eq!(ErrorPatternSet::from_canonical("explicit:0,5+5+9"), None);
        // Bit positions past the widest value type cannot flip anything.
        assert_eq!(ErrorPatternSet::from_canonical("explicit:64"), None);
        assert_eq!(ErrorPatternSet::from_canonical("explicit:0+70"), None);
        // Out-of-order spellings normalize to the canonical ordering.
        let set = ErrorPatternSet::from_canonical("explicit:9+2").unwrap();
        assert_eq!(
            set,
            ErrorPatternSet::Explicit(vec![ErrorPattern::new(vec![2, 9])])
        );
        assert_eq!(set.canonical(), "explicit:2+9");
    }

    #[test]
    fn degenerate_zero_parameters_are_rejected_on_parse() {
        assert_eq!(ErrorPatternSet::from_canonical("adjacent-bits:0"), None);
        assert_eq!(ErrorPatternSet::from_canonical("separated-pair:0"), None);
        assert_eq!(ErrorPatternSet::from_canonical("adjacent-bits:x"), None);
        assert!(ErrorPatternSet::from_canonical("adjacent-bits:1").is_some());
    }

    #[test]
    fn equal_behavior_means_equal_canonical_form() {
        // width 0 clamps to 1 at enumeration time; its canonical form (and
        // with it every fingerprint built on it) must say so.
        let zero = ErrorPatternSet::AdjacentBits { width: 0 };
        let one = ErrorPatternSet::AdjacentBits { width: 1 };
        assert_eq!(zero.patterns_for(Type::F64), one.patterns_for(Type::F64));
        assert_eq!(zero.canonical(), one.canonical());
        let zero = ErrorPatternSet::SeparatedPair { gap: 0 };
        let one = ErrorPatternSet::SeparatedPair { gap: 1 };
        assert_eq!(zero.patterns_for(Type::F64), one.patterns_for(Type::F64));
        assert_eq!(zero.canonical(), one.canonical());
    }

    #[test]
    fn canonical_round_trips() {
        for set in [
            ErrorPatternSet::SingleBit,
            ErrorPatternSet::AdjacentBits { width: 2 },
            ErrorPatternSet::SeparatedPair { gap: 8 },
            ErrorPatternSet::Explicit(vec![
                ErrorPattern::new(vec![0, 9]),
                ErrorPattern::single(63),
            ]),
        ] {
            assert_eq!(
                ErrorPatternSet::from_canonical(&set.canonical()),
                Some(set.clone()),
                "{set:?}"
            );
        }
    }
}
