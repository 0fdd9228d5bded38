//! Feature compression at the partition point: transformations of the
//! *cut tensor* (the intermediate activation shipped edge→cloud), searched
//! jointly with partition and per-layer compression.
//!
//! The paper's action space rewrites layers and picks a cut, but ships the
//! cut tensor verbatim. Follow-up work shows the transfer itself is the
//! dominant term in low-bandwidth regimes and is highly compressible:
//! *bottleneck* insertion (rank/width reduction of the feature map) and
//! *quantization* (narrow bit-widths for activations). This module models
//! both as a pair of knobs forming a [`FeatureAction`] applied at the
//! handoff; the latency consequence is a pure byte-count reduction
//! ([`FeatureAction::compressed_bytes`]), the accuracy consequence is
//! modeled by the `cadmc-accuracy` oracle's deployed-accuracy extension.
//!
//! Byte math is defined canonically here so every consumer (the O(1)
//! kernel overlay in `Candidate::transfer_bytes`, the differential scalar
//! walk) agrees bit-for-bit:
//!
//! ```text
//! elems = ceil(raw_bytes / 4)          # f32 elements in the cut tensor
//! kept  = ceil(elems / bottleneck_div) # bottleneck keeps 1/div of them
//! bytes = ceil(kept * quant_bits / 8)  # packed at the quantized width
//! out   = min(bytes, raw_bytes)        # never larger than the raw tensor
//! ```
//!
//! None of it can overflow on a checked model: `cadmc_nn::CheckedWalk`
//! caps every cut tensor at 2^40 elements, so raw and packed bytes stay
//! at most 2^42.
//!
//! The identity action returns `raw_bytes` unchanged (no rounding drift),
//! so feature-disabled paths remain bit-identical to pre-feature behavior.

use serde::{Deserialize, Serialize};

/// Bottleneck knob: fraction of cut-tensor elements kept (`1/div`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BottleneckKnob {
    /// No bottleneck: all elements kept.
    Off,
    /// Keep half the elements (rank/width reduced 2×).
    Half,
    /// Keep a quarter of the elements (rank/width reduced 4×).
    Quarter,
}

impl BottleneckKnob {
    /// All knob settings, mildest first.
    pub const ALL: [BottleneckKnob; 3] =
        [BottleneckKnob::Off, BottleneckKnob::Half, BottleneckKnob::Quarter];

    /// Element-count divisor (`1`, `2` or `4`).
    pub fn divisor(self) -> u64 {
        match self {
            BottleneckKnob::Off => 1,
            BottleneckKnob::Half => 2,
            BottleneckKnob::Quarter => 4,
        }
    }

    /// Stable index into [`BottleneckKnob::ALL`].
    pub fn index(self) -> usize {
        match self {
            BottleneckKnob::Off => 0,
            BottleneckKnob::Half => 1,
            BottleneckKnob::Quarter => 2,
        }
    }

    /// Accuracy-risk weight (same scale as [`Technique::aggressiveness`]).
    ///
    /// [`Technique::aggressiveness`]: crate::Technique::aggressiveness
    pub fn aggressiveness(self) -> f32 {
        match self {
            BottleneckKnob::Off => 0.0,
            BottleneckKnob::Half => 0.35,
            BottleneckKnob::Quarter => 0.6,
        }
    }
}

/// Quantization knob: bit-width of each transferred element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantKnob {
    /// Full-precision f32 transfer (32 bits/element).
    F32,
    /// 8-bit integer quantization.
    Int8,
    /// 4-bit integer quantization.
    Int4,
}

impl QuantKnob {
    /// All knob settings, mildest first.
    pub const ALL: [QuantKnob; 3] = [QuantKnob::F32, QuantKnob::Int8, QuantKnob::Int4];

    /// Bits per transferred element (`32`, `8` or `4`).
    pub fn bits(self) -> u64 {
        match self {
            QuantKnob::F32 => 32,
            QuantKnob::Int8 => 8,
            QuantKnob::Int4 => 4,
        }
    }

    /// Stable index into [`QuantKnob::ALL`].
    pub fn index(self) -> usize {
        match self {
            QuantKnob::F32 => 0,
            QuantKnob::Int8 => 1,
            QuantKnob::Int4 => 2,
        }
    }

    /// Accuracy-risk weight (same scale as [`Technique::aggressiveness`]).
    ///
    /// [`Technique::aggressiveness`]: crate::Technique::aggressiveness
    pub fn aggressiveness(self) -> f32 {
        match self {
            QuantKnob::F32 => 0.0,
            QuantKnob::Int8 => 0.25,
            QuantKnob::Int4 => 0.55,
        }
    }
}

/// A feature-compression action on the cut tensor: a bottleneck knob and a
/// quantization knob, applied at the partition point. The identity action
/// (both knobs off) transfers the raw tensor byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureAction {
    /// Rank/width reduction of the cut tensor.
    pub bottleneck: BottleneckKnob,
    /// Bit-width of the transferred elements.
    pub quant: QuantKnob,
}

impl Default for FeatureAction {
    fn default() -> Self {
        FeatureAction::IDENTITY
    }
}

impl FeatureAction {
    /// The no-op action: raw f32 transfer of every element.
    pub const IDENTITY: FeatureAction = FeatureAction {
        bottleneck: BottleneckKnob::Off,
        quant: QuantKnob::F32,
    };

    /// Number of distinct actions (the controller's option count).
    pub const COUNT: usize = 9;

    /// All actions in `index` order (bottleneck-major).
    pub const ALL: [FeatureAction; FeatureAction::COUNT] = [
        FeatureAction { bottleneck: BottleneckKnob::Off, quant: QuantKnob::F32 },
        FeatureAction { bottleneck: BottleneckKnob::Off, quant: QuantKnob::Int8 },
        FeatureAction { bottleneck: BottleneckKnob::Off, quant: QuantKnob::Int4 },
        FeatureAction { bottleneck: BottleneckKnob::Half, quant: QuantKnob::F32 },
        FeatureAction { bottleneck: BottleneckKnob::Half, quant: QuantKnob::Int8 },
        FeatureAction { bottleneck: BottleneckKnob::Half, quant: QuantKnob::Int4 },
        FeatureAction { bottleneck: BottleneckKnob::Quarter, quant: QuantKnob::F32 },
        FeatureAction { bottleneck: BottleneckKnob::Quarter, quant: QuantKnob::Int8 },
        FeatureAction { bottleneck: BottleneckKnob::Quarter, quant: QuantKnob::Int4 },
    ];

    /// Whether this is the identity (no feature compression).
    pub fn is_identity(self) -> bool {
        self == FeatureAction::IDENTITY
    }

    /// Stable index into [`FeatureAction::ALL`] (bottleneck-major), used
    /// by controller softmax heads.
    pub fn index(self) -> usize {
        self.bottleneck.index() * QuantKnob::ALL.len() + self.quant.index()
    }

    /// Inverse of [`FeatureAction::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= FeatureAction::COUNT`.
    pub fn from_index(index: usize) -> FeatureAction {
        FeatureAction::ALL[index]
    }

    /// Fingerprint contribution, mixed into a [`DeltaState`]-style chain
    /// only when the action is non-identity (so feature-free fingerprints
    /// are byte-identical to pre-feature behavior). The high salt keeps it
    /// disjoint from `(layer << 8) | technique` action tags.
    ///
    /// [`DeltaState`]: ../cadmc_core/delta/struct.DeltaState.html
    pub fn tag(self) -> u64 {
        0xfea7_0000_0000_0000 | self.index() as u64
    }

    /// Short code like `"B2Q8"` (`"id"` for the identity).
    pub fn code(self) -> String {
        if self.is_identity() {
            return "id".to_string();
        }
        let b = match self.bottleneck {
            BottleneckKnob::Off => "B1",
            BottleneckKnob::Half => "B2",
            BottleneckKnob::Quarter => "B4",
        };
        let q = match self.quant {
            QuantKnob::F32 => "Q32",
            QuantKnob::Int8 => "Q8",
            QuantKnob::Int4 => "Q4",
        };
        format!("{b}{q}")
    }

    /// Combined accuracy-risk weight of both knobs (0 for the identity).
    pub fn aggressiveness(self) -> f32 {
        self.bottleneck.aggressiveness() + self.quant.aggressiveness()
    }

    /// Bytes on the wire after applying this action to a `raw_bytes`-sized
    /// cut tensor. The canonical integer byte math (see the module docs):
    /// identity returns `raw_bytes` exactly; every other action never
    /// returns more than `raw_bytes`, for **any** `u64` input.
    pub fn compressed_bytes(self, raw_bytes: u64) -> u64 {
        if self.is_identity() {
            return raw_bytes;
        }
        let elems = raw_bytes.div_ceil(4) as u128;
        let kept = elems.div_ceil(self.bottleneck.divisor() as u128);
        let bytes = (kept * self.quant.bits() as u128).div_ceil(8);
        (bytes.min(raw_bytes as u128)) as u64
    }
}

impl std::fmt::Display for FeatureAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_exact_passthrough() {
        for raw in [0u64, 1, 3, 4, 1023, 64 * 16 * 16 * 4, u64::MAX] {
            assert_eq!(FeatureAction::IDENTITY.compressed_bytes(raw), raw);
        }
    }

    #[test]
    fn index_roundtrip_covers_all_nine() {
        for (i, a) in FeatureAction::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
            assert_eq!(FeatureAction::from_index(i), *a);
        }
        assert_eq!(FeatureAction::ALL.len(), FeatureAction::COUNT);
    }

    #[test]
    fn int8_quarters_aligned_tensors() {
        // 64×16×16 f32 features: 65536 bytes → 16384 elems → Int8 = 16384 B.
        let a = FeatureAction {
            bottleneck: BottleneckKnob::Off,
            quant: QuantKnob::Int8,
        };
        assert_eq!(a.compressed_bytes(65_536), 16_384);
    }

    #[test]
    fn both_knobs_compose_to_sixteenth() {
        // Quarter bottleneck × Int8 (4×) = 16× on aligned sizes.
        let a = FeatureAction {
            bottleneck: BottleneckKnob::Quarter,
            quant: QuantKnob::Int8,
        };
        assert_eq!(a.compressed_bytes(65_536), 4_096);
        // Strongest: Quarter × Int4 = 32×.
        let b = FeatureAction {
            bottleneck: BottleneckKnob::Quarter,
            quant: QuantKnob::Int4,
        };
        assert_eq!(b.compressed_bytes(65_536), 2_048);
    }

    #[test]
    fn never_increases_for_adversarial_sizes() {
        for raw in [0u64, 1, 2, 3, 5, 7, 8, 9, 63, 1025, u64::MAX - 1, u64::MAX] {
            for a in FeatureAction::ALL {
                assert!(
                    a.compressed_bytes(raw) <= raw,
                    "{a} grew {raw} to {}",
                    a.compressed_bytes(raw)
                );
            }
        }
    }

    #[test]
    fn stronger_knobs_never_transfer_more() {
        let raw = 12_345_678u64;
        for q in QuantKnob::ALL {
            let off = FeatureAction { bottleneck: BottleneckKnob::Off, quant: q };
            let half = FeatureAction { bottleneck: BottleneckKnob::Half, quant: q };
            let quarter = FeatureAction { bottleneck: BottleneckKnob::Quarter, quant: q };
            assert!(half.compressed_bytes(raw) <= off.compressed_bytes(raw));
            assert!(quarter.compressed_bytes(raw) <= half.compressed_bytes(raw));
        }
        for b in BottleneckKnob::ALL {
            let f32_ = FeatureAction { bottleneck: b, quant: QuantKnob::F32 };
            let i8_ = FeatureAction { bottleneck: b, quant: QuantKnob::Int8 };
            let i4_ = FeatureAction { bottleneck: b, quant: QuantKnob::Int4 };
            assert!(i8_.compressed_bytes(raw) <= f32_.compressed_bytes(raw));
            assert!(i4_.compressed_bytes(raw) <= i8_.compressed_bytes(raw));
        }
    }

    #[test]
    fn tags_are_distinct_and_disjoint_from_action_tags() {
        let mut tags: Vec<u64> = FeatureAction::ALL.iter().map(|a| a.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), FeatureAction::COUNT);
        // Layer-action tags are ((layer << 8) | technique) with layer
        // bounded by model depth — far below the feature salt.
        for t in tags {
            assert!(t > u64::from(u32::MAX));
        }
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(FeatureAction::IDENTITY.code(), "id");
        let a = FeatureAction {
            bottleneck: BottleneckKnob::Half,
            quant: QuantKnob::Int4,
        };
        assert_eq!(a.code(), "B2Q4");
    }

    #[test]
    fn serde_roundtrip() {
        for a in FeatureAction::ALL {
            let json = serde_json::to_string(&a).unwrap();
            let back: FeatureAction = serde_json::from_str(&json).unwrap();
            assert_eq!(a, back);
        }
    }
}
