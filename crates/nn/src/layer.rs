//! Layer specifications and per-layer cost accounting.
//!
//! The paper expresses a DNN layer as the hyper-parameter tuple
//! `x_i = (l, k, s, p, n)` — layer type, kernel size, stride, padding and
//! output channels (Eq. 1) — and estimates computational cost from the
//! number of multiply-accumulate operations (MACCs): Eq. 4 for convolutions
//! and Eq. 5 for fully-connected layers, with batch-norm / pooling / dropout
//! treated as free. [`LayerSpec`] mirrors that model exactly, while also
//! carrying enough structure (composite residual / fire / inverted-residual
//! blocks) to describe the model zoo and the compression rewrites.

use serde::{Deserialize, Serialize};

/// The spatial/channel shape of a feature map flowing between layers.
///
/// Fully-connected features are represented with `h == w == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    /// Channels (or features for FC layers).
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Shape {
    /// Convenience constructor.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w }
    }

    /// A flat feature vector of `n` features.
    pub fn features(n: usize) -> Self {
        Self { c: n, h: 1, w: 1 }
    }

    /// Total number of scalar elements.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Whether the shape is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes when transferred as `f32` features (the paper sends
    /// intermediate features to the cloud as 4-byte floats).
    pub fn transfer_bytes(&self) -> u64 {
        self.len() as u64 * 4
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// Largest element count of any tensor a checked walk accepts. Keeps
/// [`Shape::len`] and every transfer-byte product (4 bytes per element,
/// or packed bits under feature quantization) far below `u64` overflow.
pub const MAX_ELEMENTS: u64 = 1 << 40;

/// Largest per-layer and cumulative MACC or parameter count a checked
/// walk accepts, so the `u64` cost accessors and their sums never wrap.
pub const MAX_COST: u64 = 1 << 62;

/// Errors from the checked shape-and-cost walk over layer sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// Kernel does not fit the (padded) input, the stride is zero, or
    /// the padded extent overflows `usize`.
    KernelTooLarge {
        /// Kernel size of the offending (possibly inner) convolution.
        kernel: usize,
        /// Its stride.
        stride: usize,
        /// Input shape that was too small.
        input: Shape,
    },
    /// A fully-connected layer received a spatial input.
    ExpectedFlat {
        /// The spatial input shape.
        input: Shape,
    },
    /// Residual body output shape does not match the shortcut.
    ResidualMismatch {
        /// Shape produced by the body.
        body: Shape,
        /// Shape carried by the shortcut (the block input, or its
        /// projection).
        shortcut: Shape,
        /// Whether the shortcut has a projection.
        projected: bool,
    },
    /// The model input has more than [`MAX_ELEMENTS`] elements.
    InputTooLarge {
        /// The input shape.
        input: Shape,
    },
    /// A layer output has more than [`MAX_ELEMENTS`] elements (zero
    /// extents count as one, so every partial product is capped too).
    TooManyElements {
        /// The rejected tensor; a dimension that overflowed `usize`
        /// saturates.
        tensor: Shape,
    },
    /// A MACC or parameter count exceeds [`MAX_COST`].
    CostTooLarge {
        /// Whether the running total over the chain (rather than a
        /// single layer) crossed the cap.
        cumulative: bool,
    },
    /// A spec records a different number of output shapes than layers.
    RecordedCount {
        /// Number of recorded shapes.
        recorded: usize,
        /// Number of layers.
        layers: usize,
    },
    /// A spec's recorded output shape disagrees with the walk.
    RecordedMismatch {
        /// Output shape the walk infers.
        inferred: Shape,
        /// Output shape the spec records.
        recorded: Shape,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::KernelTooLarge {
                kernel,
                stride,
                input,
            } => write!(
                f,
                "kernel {kernel} (stride {stride}) does not fit the padded input {input}"
            ),
            ShapeError::ExpectedFlat { input } => {
                write!(f, "fc expects a flattened input, got {input}")
            }
            ShapeError::ResidualMismatch { body, shortcut, .. } => write!(
                f,
                "residual join mismatch: body produces {body}, shortcut carries {shortcut}"
            ),
            ShapeError::InputTooLarge { input } => write!(
                f,
                "input tensor {input} exceeds the {MAX_ELEMENTS}-element analysis cap"
            ),
            ShapeError::TooManyElements { tensor } => {
                write!(f, "tensor {tensor} exceeds the {MAX_ELEMENTS}-element cap")
            }
            ShapeError::CostTooLarge { cumulative } => write!(
                f,
                "{} MACC/parameter count exceeds the 2^62 analysis cap",
                if *cumulative { "cumulative" } else { "per-layer" }
            ),
            ShapeError::RecordedCount { recorded, layers } => {
                write!(f, "spec records {recorded} output shapes for {layers} layers")
            }
            ShapeError::RecordedMismatch { inferred, recorded } => write!(
                f,
                "re-inferred output {inferred} disagrees with recorded {recorded}"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// A single layer (or composite block) of a DNN.
///
/// Cheap layers (pooling, batch-norm, dropout, activations) carry zero MACC
/// cost, matching the paper's estimation model. Activations are implicit:
/// conv/FC layers in this codebase are assumed ReLU-activated except the
/// final classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Standard 2-D convolution with square kernel.
    Conv2d {
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Output channels.
        out_channels: usize,
    },
    /// Depthwise convolution (one filter per input channel).
    DepthwiseConv2d {
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Max pooling (zero MACC cost).
    MaxPool2d {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling: collapses spatial dims to 1×1 (zero cost).
    GlobalAvgPool,
    /// Flatten a spatial map into a feature vector (zero cost).
    Flatten,
    /// Fully-connected layer.
    Fc {
        /// Output features.
        out_features: usize,
    },
    /// Batch normalization (zero cost in the latency model).
    BatchNorm,
    /// Dropout (zero cost; inference no-op).
    Dropout,
    /// SqueezeNet *Fire* module: 1×1 squeeze then parallel 1×1 and 3×3
    /// expands whose outputs concatenate along channels.
    Fire {
        /// Squeeze 1×1 output channels.
        squeeze: usize,
        /// Expand 1×1 output channels.
        expand1: usize,
        /// Expand 3×3 output channels.
        expand3: usize,
    },
    /// MobileNetV2 inverted-residual block: 1×1 expand, 3×3 depthwise,
    /// 1×1 project, with a skip connection when shapes allow.
    InvertedResidual {
        /// Channel expansion factor applied to the input channels.
        expansion: usize,
        /// Stride of the depthwise stage.
        stride: usize,
        /// Output channels of the projection.
        out_channels: usize,
    },
    /// Generic residual block: a body of layers whose output is added back
    /// to the block input, with an optional 1×1 projection on the skip path.
    Residual {
        /// The residual body.
        body: Vec<LayerSpec>,
        /// Optional projection conv `(kernel=1)` output channels + stride
        /// for the skip path when the body changes shape.
        projection: Option<(usize, usize)>,
    },
}

impl LayerSpec {
    /// Standard conv constructor.
    pub fn conv(kernel: usize, stride: usize, pad: usize, out_channels: usize) -> Self {
        LayerSpec::Conv2d {
            kernel,
            stride,
            pad,
            out_channels,
        }
    }

    /// Fully-connected constructor.
    pub fn fc(out_features: usize) -> Self {
        LayerSpec::Fc { out_features }
    }

    /// Max-pool constructor.
    pub fn max_pool(kernel: usize, stride: usize) -> Self {
        LayerSpec::MaxPool2d { kernel, stride }
    }

    /// Short human/RL-readable type name (the `l` of Eq. 1).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerSpec::Conv2d { .. } => "Conv",
            LayerSpec::DepthwiseConv2d { .. } => "DWConv",
            LayerSpec::MaxPool2d { .. } => "MaxPool",
            LayerSpec::GlobalAvgPool => "GAP",
            LayerSpec::Flatten => "Flatten",
            LayerSpec::Fc { .. } => "FC",
            LayerSpec::BatchNorm => "BN",
            LayerSpec::Dropout => "Dropout",
            LayerSpec::Fire { .. } => "Fire",
            LayerSpec::InvertedResidual { .. } => "InvRes",
            LayerSpec::Residual { .. } => "Residual",
        }
    }

    /// Numeric id of the layer type, used by controller embeddings.
    pub fn kind_id(&self) -> usize {
        match self {
            LayerSpec::Conv2d { .. } => 0,
            LayerSpec::DepthwiseConv2d { .. } => 1,
            LayerSpec::MaxPool2d { .. } => 2,
            LayerSpec::GlobalAvgPool => 3,
            LayerSpec::Flatten => 4,
            LayerSpec::Fc { .. } => 5,
            LayerSpec::BatchNorm => 6,
            LayerSpec::Dropout => 7,
            LayerSpec::Fire { .. } => 8,
            LayerSpec::InvertedResidual { .. } => 9,
            LayerSpec::Residual { .. } => 10,
        }
    }

    /// Number of distinct [`LayerSpec::kind_id`] values.
    pub const NUM_KINDS: usize = 11;

    /// The paper's Eq. 1 tuple `(l, k, s, p, n)` with zeros for fields a
    /// layer does not have. Composite blocks report their dominant conv.
    pub fn hyperparams(&self) -> (usize, usize, usize, usize, usize) {
        match *self {
            LayerSpec::Conv2d {
                kernel,
                stride,
                pad,
                out_channels,
            } => (self.kind_id(), kernel, stride, pad, out_channels),
            LayerSpec::DepthwiseConv2d { kernel, stride, pad } => {
                (self.kind_id(), kernel, stride, pad, 0)
            }
            LayerSpec::MaxPool2d { kernel, stride } => (self.kind_id(), kernel, stride, 0, 0),
            LayerSpec::GlobalAvgPool
            | LayerSpec::Flatten
            | LayerSpec::BatchNorm
            | LayerSpec::Dropout => (self.kind_id(), 0, 0, 0, 0),
            LayerSpec::Fc { out_features } => (self.kind_id(), 0, 0, 0, out_features),
            LayerSpec::Fire {
                squeeze,
                expand1,
                expand3,
            } => {
                let _ = squeeze;
                (self.kind_id(), 3, 1, 1, expand1 + expand3)
            }
            LayerSpec::InvertedResidual {
                expansion,
                stride,
                out_channels,
            } => (self.kind_id(), 3, stride, 1, out_channels * expansion / expansion.max(1)),
            LayerSpec::Residual { ref body, .. } => {
                // Report the first conv in the body as the representative.
                for l in body {
                    if let LayerSpec::Conv2d { .. } = l {
                        let (_, k, s, p, n) = l.hyperparams();
                        return (self.kind_id(), k, s, p, n);
                    }
                }
                (self.kind_id(), 0, 0, 0, 0)
            }
        }
    }

    /// Encodes the layer as the string form the paper uses for MDP states,
    /// e.g. `"Conv,3,1,1,64"`.
    pub fn encode(&self) -> String {
        let (_, k, s, p, n) = self.hyperparams();
        format!("{},{k},{s},{p},{n}", self.kind_name())
    }

    /// Output shape for a given input shape: the shape rules of the
    /// checked walk (see [`CheckedWalk`]), including the
    /// [`MAX_ELEMENTS`] cap on every tensor the layer produces.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the layer cannot consume `input` or
    /// produces an over-large tensor.
    pub fn output_shape(&self, input: Shape) -> Result<Shape, ShapeError> {
        let window = |kernel, stride, pad| {
            conv_out(input, kernel, stride, pad).ok_or(ShapeError::KernelTooLarge {
                kernel,
                stride,
                input,
            })
        };
        let (c, (h, w)) = match *self {
            LayerSpec::Conv2d {
                kernel,
                stride,
                pad,
                out_channels,
            } => (out_channels, window(kernel, stride, pad)?),
            LayerSpec::DepthwiseConv2d { kernel, stride, pad } => {
                (input.c, window(kernel, stride, pad)?)
            }
            LayerSpec::MaxPool2d { kernel, stride } => (input.c, window(kernel, stride, 0)?),
            LayerSpec::GlobalAvgPool => (input.c, (1, 1)),
            LayerSpec::Flatten => (input.len(), (1, 1)),
            LayerSpec::Fc { out_features } => {
                if input.h != 1 || input.w != 1 {
                    return Err(ShapeError::ExpectedFlat { input });
                }
                (out_features, (1, 1))
            }
            LayerSpec::BatchNorm | LayerSpec::Dropout => return Ok(input),
            // Squeeze 1x1 keeps H,W; expands keep H,W (3x3 is pad 1).
            LayerSpec::Fire {
                expand1, expand3, ..
            } => (expand1.saturating_add(expand3), (input.h, input.w)),
            LayerSpec::InvertedResidual {
                stride,
                out_channels,
                ..
            } => (out_channels, window(3, stride, 1)?),
            LayerSpec::Residual {
                ref body,
                projection,
            } => {
                let mut s = input;
                for l in body {
                    s = l.output_shape(s)?;
                }
                let shortcut = match projection {
                    Some((out_c, stride)) => {
                        let (h, w) = window(1, stride, 0)?;
                        Shape::new(out_c, h, w)
                    }
                    None => input,
                };
                if s != shortcut {
                    return Err(ShapeError::ResidualMismatch {
                        body: s,
                        shortcut,
                        projected: projection.is_some(),
                    });
                }
                return Ok(s);
            }
        };
        capped(Shape::new(c, h, w)).ok_or(ShapeError::TooManyElements {
            tensor: Shape::new(c, h, w),
        })
    }

    /// MACC count for this layer given its input shape (Eq. 4 / Eq. 5;
    /// cheap layers are zero), or zero when the layer cannot consume
    /// `input` or the count is out of range.
    pub fn maccs(&self, input: Shape) -> u64 {
        self.checked_cost(input).map_or(0, |(maccs, _)| maccs)
    }

    /// Trainable parameter count (weights + biases) for this layer, or
    /// zero when the layer cannot consume `input` or the count is out of
    /// range.
    pub fn param_count(&self, input: Shape) -> u64 {
        self.checked_cost(input).map_or(0, |(_, params)| params)
    }

    fn checked_cost(&self, input: Shape) -> Result<(u64, u64), ShapeError> {
        self.cost(input, self.output_shape(input)?)
    }

    /// Checked `(MACCs, parameters)` of this layer, each at most
    /// [`MAX_COST`]; `output` is `self.output_shape(input)`. Inner shapes
    /// of composite blocks go through [`LayerSpec::output_shape`] and its
    /// element cap.
    fn cost(&self, input: Shape, output: Shape) -> Result<(u64, u64), ShapeError> {
        let over = ShapeError::CostTooLarge { cumulative: false };
        let c = input.c as u64;
        let (maccs, params) = match *self {
            LayerSpec::Conv2d {
                kernel,
                out_channels,
                ..
            } => {
                let k = kernel as u64;
                let weights = product(&[k, k, c, out_channels as u64])?;
                let maccs = product(&[weights, output.h as u64, output.w as u64])?;
                (maccs, weights.checked_add(out_channels as u64).ok_or(over)?)
            }
            LayerSpec::DepthwiseConv2d { kernel, .. } => {
                let k = kernel as u64;
                let weights = product(&[k, k, c])?;
                let maccs = product(&[weights, output.h as u64, output.w as u64])?;
                (maccs, weights + c)
            }
            LayerSpec::Fc { out_features } => {
                let maccs = product(&[input.len() as u64, out_features as u64])?;
                (maccs, maccs.checked_add(out_features as u64).ok_or(over)?)
            }
            LayerSpec::MaxPool2d { .. }
            | LayerSpec::GlobalAvgPool
            | LayerSpec::Flatten
            | LayerSpec::Dropout => (0, 0),
            LayerSpec::BatchNorm => (0, 2 * c),
            LayerSpec::Fire {
                squeeze,
                expand1,
                expand3,
            } => {
                let sq = LayerSpec::conv(1, 1, 0, squeeze);
                let mid = sq.output_shape(input)?;
                // Both expands keep the squeezed extent.
                let expand = |layer: LayerSpec, out| {
                    layer.cost(mid, Shape::new(out, mid.h, mid.w))
                };
                sum(&[
                    sq.cost(input, mid)?,
                    expand(LayerSpec::conv(1, 1, 0, expand1), expand1)?,
                    expand(LayerSpec::conv(3, 1, 1, expand3), expand3)?,
                ])
            }
            LayerSpec::InvertedResidual {
                expansion,
                stride,
                out_channels,
            } => {
                let hidden = product(&[c, expansion as u64])?;
                if hidden > MAX_ELEMENTS {
                    return Err(over);
                }
                let expand = LayerSpec::conv(1, 1, 0, hidden as usize);
                let mid = expand.output_shape(input)?;
                let dw = LayerSpec::DepthwiseConv2d {
                    kernel: 3,
                    stride,
                    pad: 1,
                };
                let dw_out = dw.output_shape(mid)?;
                sum(&[
                    expand.cost(input, mid)?,
                    dw.cost(mid, dw_out)?,
                    LayerSpec::conv(1, 1, 0, out_channels).cost(dw_out, output)?,
                ])
            }
            LayerSpec::Residual {
                ref body,
                projection,
            } => {
                let (mut maccs, mut params) = (0u64, 0u64);
                let mut s = input;
                for l in body {
                    let out = l.output_shape(s)?;
                    let (m, p) = l.cost(s, out)?;
                    // Both sides are at most 2^62, so the sums cannot wrap.
                    maccs += m;
                    params += p;
                    if maccs > MAX_COST || params > MAX_COST {
                        return Err(over);
                    }
                    s = out;
                }
                if let Some((out_c, stride)) = projection {
                    let (m, p) = LayerSpec::conv(1, stride, 0, out_c).cost(input, output)?;
                    maccs += m;
                    params += p;
                }
                (maccs, params)
            }
        };
        if maccs > MAX_COST || params > MAX_COST {
            return Err(over);
        }
        Ok((maccs, params))
    }

    /// Number of distinct latency cost classes (see [`LayerSpec::cost_class`]).
    pub const NUM_COST_CLASSES: usize = 6;

    /// Latency cost class of this layer, or `None` for zero-cost layers.
    ///
    /// Device latency models charge every compute-bearing layer a fixed
    /// per-layer overhead plus a per-MACC coefficient that depends only on
    /// this class — conv layers bucketed by kernel size (classes 0–3),
    /// depthwise convs (4) and fully-connected layers (5). Composite
    /// blocks (Fire / inverted-residual / residual) are dominated by 3×3
    /// convolutions and share the 3×3 conv class. Because the coefficient
    /// is constant within a class, a device's latency over any layer range
    /// reduces to six MACC sums plus a weighted-layer count — which is
    /// what makes prefix-sum latency kernels exact rather than
    /// approximate.
    pub fn cost_class(&self) -> Option<usize> {
        match self {
            LayerSpec::Conv2d { kernel, .. } => Some(match kernel {
                0..=1 => 0,
                2..=3 => 1,
                4..=5 => 2,
                _ => 3,
            }),
            LayerSpec::DepthwiseConv2d { .. } => Some(4),
            LayerSpec::Fc { .. } => Some(5),
            LayerSpec::Fire { .. }
            | LayerSpec::InvertedResidual { .. }
            | LayerSpec::Residual { .. } => Some(1),
            LayerSpec::MaxPool2d { .. }
            | LayerSpec::GlobalAvgPool
            | LayerSpec::Flatten
            | LayerSpec::BatchNorm
            | LayerSpec::Dropout => None,
        }
    }

    /// Whether this layer carries trainable weight (a compression target).
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            LayerSpec::Conv2d { .. }
                | LayerSpec::DepthwiseConv2d { .. }
                | LayerSpec::Fc { .. }
                | LayerSpec::Fire { .. }
                | LayerSpec::InvertedResidual { .. }
                | LayerSpec::Residual { .. }
        )
    }
}

/// One step of a [`CheckedWalk`]: a layer's output shape and MACCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCost {
    /// Output shape.
    pub output: Shape,
    /// MACCs (Eq. 4 / Eq. 5).
    pub maccs: u64,
}

/// The checked shape-and-cost walk over a layer chain: the one place the
/// shape rules, the Eq. 4/5 cost arithmetic and their caps are enforced.
///
/// Every tensor stays within [`MAX_ELEMENTS`], and every per-layer and
/// cumulative MACC or parameter count within [`MAX_COST`]. A chain the
/// walk accepts therefore cannot overflow the unchecked `u64`/`usize`
/// accessors of [`crate::ModelSpec`]. [`crate::ModelSpec::new`] walks
/// every chain it builds; the IR checker walks chains layer by layer to
/// attach source spans to the errors.
///
/// # Examples
///
/// ```
/// use cadmc_nn::{CheckedWalk, LayerSpec, Shape, ShapeError};
///
/// let mut walk = CheckedWalk::new(Shape::new(3, 8, 8)).unwrap();
/// let step = walk.step(&LayerSpec::conv(3, 1, 1, 4)).unwrap();
/// assert_eq!(step.output, Shape::new(4, 8, 8));
/// assert_eq!(step.maccs, 3 * 3 * 3 * 4 * 8 * 8);
/// let err = walk.step(&LayerSpec::fc(10)).unwrap_err();
/// assert!(matches!(err, ShapeError::ExpectedFlat { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct CheckedWalk {
    shape: Shape,
    maccs: u64,
    params: u64,
}

impl CheckedWalk {
    /// Starts a walk at the model input.
    ///
    /// # Errors
    ///
    /// [`ShapeError::InputTooLarge`] when the input exceeds
    /// [`MAX_ELEMENTS`].
    pub fn new(input: Shape) -> Result<Self, ShapeError> {
        capped(input).ok_or(ShapeError::InputTooLarge { input })?;
        Ok(Self {
            shape: input,
            maccs: 0,
            params: 0,
        })
    }

    /// Advances the walk over `layer`, returning its output shape and
    /// MACCs. On error the walk stays where it was.
    ///
    /// # Errors
    ///
    /// The layer's [`ShapeError`], or [`ShapeError::CostTooLarge`] with
    /// `cumulative` set when the running totals cross [`MAX_COST`].
    pub fn step(&mut self, layer: &LayerSpec) -> Result<LayerCost, ShapeError> {
        let output = layer.output_shape(self.shape)?;
        let (maccs, params) = layer.cost(self.shape, output)?;
        // Both terms are at most 2^62, so the sums cannot wrap.
        let (total_maccs, total_params) = (self.maccs + maccs, self.params + params);
        if total_maccs > MAX_COST || total_params > MAX_COST {
            return Err(ShapeError::CostTooLarge { cumulative: true });
        }
        self.shape = output;
        self.maccs = total_maccs;
        self.params = total_params;
        Ok(LayerCost { output, maccs })
    }

    /// MACCs of the layers walked so far.
    pub fn total_maccs(&self) -> u64 {
        self.maccs
    }
}

/// Output extent of a sliding window; `None` when the window does not
/// fit, the stride is zero or the padded extent overflows.
fn conv_out(input: Shape, kernel: usize, stride: usize, pad: usize) -> Option<(usize, usize)> {
    if stride == 0 {
        return None;
    }
    let extent = |x: usize| {
        let padded = x.checked_add(pad.checked_mul(2)?)?;
        Some(padded.checked_sub(kernel)? / stride + 1)
    };
    Some((extent(input.h)?, extent(input.w)?))
}

/// `shape` when it holds at most [`MAX_ELEMENTS`] elements. Zero extents
/// count as one, so every partial product of the dimensions is capped
/// and no later `usize` product over them can wrap.
fn capped(shape: Shape) -> Option<Shape> {
    [shape.c, shape.h, shape.w]
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d.max(1) as u64))
        .filter(|&n| n <= MAX_ELEMENTS)
        .map(|_| shape)
}

/// Checked product of cost factors; a product above [`MAX_COST`] is a
/// per-layer cost error.
fn product(factors: &[u64]) -> Result<u64, ShapeError> {
    factors
        .iter()
        .try_fold(1u64, |acc, &f| acc.checked_mul(f))
        .filter(|&n| n <= MAX_COST)
        .ok_or(ShapeError::CostTooLarge { cumulative: false })
}

/// Sum of the sub-layer costs of a composite block (three terms of at
/// most 2^62 each, so it cannot wrap).
fn sum(parts: &[(u64, u64)]) -> (u64, u64) {
    parts.iter().fold((0, 0), |(m, p), &(pm, pp)| (m + pm, p + pp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_macc_matches_eq4() {
        // Eq. 4: K*K*Cin*Cout*Hout*Wout.
        let layer = LayerSpec::conv(3, 1, 1, 64);
        let input = Shape::new(3, 32, 32);
        assert_eq!(layer.maccs(input), 3 * 3 * 3 * 64 * 32 * 32);
    }

    #[test]
    fn fc_macc_matches_eq5() {
        let layer = LayerSpec::fc(1000);
        let input = Shape::features(4096);
        assert_eq!(layer.maccs(input), 4096 * 1000);
    }

    #[test]
    fn cheap_layers_cost_zero() {
        let input = Shape::new(64, 16, 16);
        assert_eq!(LayerSpec::max_pool(2, 2).maccs(input), 0);
        assert_eq!(LayerSpec::BatchNorm.maccs(input), 0);
        assert_eq!(LayerSpec::Dropout.maccs(input), 0);
        assert_eq!(LayerSpec::GlobalAvgPool.maccs(input), 0);
        assert_eq!(LayerSpec::Flatten.maccs(input), 0);
    }

    #[test]
    fn conv_shape_inference() {
        let layer = LayerSpec::conv(3, 2, 1, 128);
        let out = layer.output_shape(Shape::new(64, 32, 32)).unwrap();
        assert_eq!(out, Shape::new(128, 16, 16));
    }

    #[test]
    fn pool_halves_spatial() {
        let out = LayerSpec::max_pool(2, 2)
            .output_shape(Shape::new(64, 32, 32))
            .unwrap();
        assert_eq!(out, Shape::new(64, 16, 16));
    }

    #[test]
    fn fc_rejects_spatial_input() {
        let err = LayerSpec::fc(10).output_shape(Shape::new(64, 4, 4));
        assert!(matches!(err, Err(ShapeError::ExpectedFlat { .. })));
    }

    #[test]
    fn depthwise_is_cout_times_cheaper() {
        let input = Shape::new(64, 16, 16);
        let full = LayerSpec::conv(3, 1, 1, 64).maccs(input);
        let dw = LayerSpec::DepthwiseConv2d {
            kernel: 3,
            stride: 1,
            pad: 1,
        }
        .maccs(input);
        assert_eq!(full, dw * 64);
    }

    #[test]
    fn mobilenet_split_is_cheaper_than_conv() {
        // Depthwise 3x3 + pointwise 1x1 vs full 3x3 conv.
        let input = Shape::new(64, 16, 16);
        let full = LayerSpec::conv(3, 1, 1, 64).maccs(input);
        let dw = LayerSpec::DepthwiseConv2d {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let split = dw.maccs(input) + LayerSpec::conv(1, 1, 0, 64).maccs(input);
        assert!(split < full / 4, "split={split} full={full}");
    }

    #[test]
    fn fire_module_shape_and_maccs() {
        let fire = LayerSpec::Fire {
            squeeze: 16,
            expand1: 64,
            expand3: 64,
        };
        let input = Shape::new(96, 16, 16);
        assert_eq!(fire.output_shape(input).unwrap(), Shape::new(128, 16, 16));
        // Fire should be cheaper than the 3x3 conv it replaces at same width.
        let conv = LayerSpec::conv(3, 1, 1, 128);
        assert!(fire.maccs(input) < conv.maccs(input));
    }

    #[test]
    fn inverted_residual_shape() {
        let ir = LayerSpec::InvertedResidual {
            expansion: 6,
            stride: 2,
            out_channels: 32,
        };
        let out = ir.output_shape(Shape::new(16, 32, 32)).unwrap();
        assert_eq!(out, Shape::new(32, 16, 16));
        assert!(ir.maccs(Shape::new(16, 32, 32)) > 0);
    }

    #[test]
    fn residual_requires_matching_shapes() {
        let good = LayerSpec::Residual {
            body: vec![LayerSpec::conv(3, 1, 1, 64), LayerSpec::conv(3, 1, 1, 64)],
            projection: None,
        };
        assert!(good.output_shape(Shape::new(64, 8, 8)).is_ok());
        let bad = LayerSpec::Residual {
            body: vec![LayerSpec::conv(3, 1, 1, 128)],
            projection: None,
        };
        assert!(matches!(
            bad.output_shape(Shape::new(64, 8, 8)),
            Err(ShapeError::ResidualMismatch { .. })
        ));
    }

    #[test]
    fn residual_with_projection() {
        let block = LayerSpec::Residual {
            body: vec![
                LayerSpec::conv(1, 1, 0, 64),
                LayerSpec::conv(3, 2, 1, 64),
                LayerSpec::conv(1, 1, 0, 256),
            ],
            projection: Some((256, 2)),
        };
        let out = block.output_shape(Shape::new(128, 16, 16)).unwrap();
        assert_eq!(out, Shape::new(256, 8, 8));
    }

    #[test]
    fn encode_matches_eq1_format() {
        assert_eq!(LayerSpec::conv(3, 1, 1, 64).encode(), "Conv,3,1,1,64");
        assert_eq!(LayerSpec::fc(1024).encode(), "FC,0,0,0,1024");
    }

    #[test]
    fn transfer_bytes_are_f32() {
        assert_eq!(Shape::new(64, 16, 16).transfer_bytes(), 64 * 16 * 16 * 4);
    }

    #[test]
    fn walk_caps_tensors_and_costs() {
        // Exactly 2^40 input elements are allowed; one more doubling is not.
        let at_cap = Shape::new(1 << 20, 1 << 10, 1 << 10);
        let mut walk = CheckedWalk::new(at_cap).unwrap();
        assert_eq!(
            CheckedWalk::new(Shape::new(1 << 21, 1 << 10, 1 << 10)).unwrap_err(),
            ShapeError::InputTooLarge {
                input: Shape::new(1 << 21, 1 << 10, 1 << 10)
            }
        );
        // A 2^44-element output (and 2^64 MACCs) is refused, not wrapped.
        assert_eq!(
            walk.step(&LayerSpec::conv(1, 1, 0, 1 << 24)).unwrap_err(),
            ShapeError::TooManyElements {
                tensor: Shape::new(1 << 24, 1 << 10, 1 << 10)
            }
        );
        // A padding that would wrap `usize` is a typed error too.
        let err = walk.step(&LayerSpec::conv(1, 1, usize::MAX, 1)).unwrap_err();
        assert!(matches!(err, ShapeError::KernelTooLarge { .. }), "{err}");
        // Zero extents cannot hide an oversized partial product.
        let zero_wide = Shape::new(1 << 30, 1 << 30, 0);
        assert!(CheckedWalk::new(zero_wide).is_err());
        // Per-layer cost: a 2^24-wide kernel over 2^7 -> 2^8 channels
        // costs 2^63 MACCs on a 1x1 output.
        let mut walk = CheckedWalk::new(Shape::new(1 << 7, 1, 1)).unwrap();
        let huge = |out| LayerSpec::conv(1 << 24, 1 << 24, 1 << 23, out);
        assert_eq!(
            walk.step(&huge(1 << 8)).unwrap_err(),
            ShapeError::CostTooLarge { cumulative: false }
        );
        // Cumulative cost: two 2^61-MACC layers cross 2^62 together.
        assert_eq!(walk.step(&huge(1 << 6)).unwrap().maccs, 1 << 61);
        assert_eq!(
            walk.step(&huge(1 << 7)).unwrap_err(),
            ShapeError::CostTooLarge { cumulative: true }
        );
        assert_eq!(walk.total_maccs(), 1 << 61, "a failed step leaves the walk");
    }

    #[test]
    fn out_of_range_costs_read_as_zero() {
        let input = Shape::new(1 << 20, 1 << 10, 1 << 10);
        assert_eq!(LayerSpec::conv(1, 1, 0, 1 << 24).maccs(input), 0);
        assert_eq!(LayerSpec::fc(10).param_count(Shape::features(1 << 62)), 0);
    }

    #[test]
    fn param_count_conv() {
        let layer = LayerSpec::conv(3, 1, 1, 64);
        assert_eq!(layer.param_count(Shape::new(3, 32, 32)), 3 * 3 * 3 * 64 + 64);
    }
}
