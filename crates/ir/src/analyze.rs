//! Semantic analysis: `ModelAst` → checked `ModelSpec`.
//!
//! Pass order (deterministic; each pass collects as many diagnostics as
//! it can before the next):
//!
//! 1. dim table construction (IR007) and input resolution (IR009, IR103)
//! 2. layer-name table, including residual bodies (IR007)
//! 3. op lowering with hyper-parameter legality (IR103, IR008, IR305)
//! 4. edge-chain legality: cycle (IR201), fork/merge/split component
//!    (IR202), unreachable layers dropped with IR301
//! 5. skip folding into residual blocks (IR008, IR203)
//! 6. nn's checked shape-and-cost walk ([`CheckedWalk`]) over the chain,
//!    its typed errors mapped to IR101, IR204 and IR303 at layer spans —
//!    the same walk `ModelSpec::new` runs, so an accepted model cannot
//!    overflow nn's `u64` cost accessors
//! 7. structural lints (IR302 dead branch, IR304 unannotated class)
//! 8. `ModelSpec` construction + `core::validate` reuse for the block
//!    count and bandwidth levels (IR205, IR206)

use std::collections::BTreeMap;

use cadmc_compress::{BottleneckKnob, FeatureAction, QuantKnob};
use cadmc_core::validate;
use cadmc_nn::{CheckedWalk, LayerSpec, ModelSpec, Shape, ShapeError};

use crate::ast::{DimRef, DimValue, LayerDecl, ModelAst, OpAst};
use crate::diag::{sort_diagnostics, Code, Diagnostic, Severity, Span};
use crate::emit;

/// A fully analyzed model: the only way user-supplied IR text reaches a
/// search entry point. Construction proves shapes, partition legality
/// and cost-arithmetic bounds.
#[derive(Debug, Clone)]
pub struct CheckedModel {
    spec: ModelSpec,
    ir_hash: u64,
    blocks: Option<usize>,
    levels: Option<Vec<f64>>,
    bottleneck: Option<u32>,
    quant: Option<u32>,
}

impl CheckedModel {
    /// The validated model spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Consumes the wrapper, yielding the spec.
    pub fn into_spec(self) -> ModelSpec {
        self.spec
    }

    /// Structural FNV-1a hash over the canonical emission (including
    /// annotations) — the future tree-cache key.
    pub fn ir_hash(&self) -> u64 {
        self.ir_hash
    }

    /// `@blocks(n)` annotation, if present.
    pub fn blocks(&self) -> Option<usize> {
        self.blocks
    }

    /// `@levels(...)` annotation, if present.
    pub fn levels(&self) -> Option<&[f64]> {
        self.levels.as_deref()
    }

    /// `@bottleneck(divisor)` annotation, if present (2 or 4).
    pub fn bottleneck_divisor(&self) -> Option<u32> {
        self.bottleneck
    }

    /// `@quant(bits)` annotation, if present (8 or 4).
    pub fn quant_bits(&self) -> Option<u32> {
        self.quant
    }

    /// The feature-compression action the annotations pin for the cut
    /// tensor; [`FeatureAction::IDENTITY`] when neither is declared.
    pub fn feature(&self) -> FeatureAction {
        FeatureAction {
            bottleneck: match self.bottleneck {
                Some(2) => BottleneckKnob::Half,
                Some(4) => BottleneckKnob::Quarter,
                _ => BottleneckKnob::Off,
            },
            quant: match self.quant {
                Some(8) => QuantKnob::Int8,
                Some(4) => QuantKnob::Int4,
                _ => QuantKnob::F32,
            },
        }
    }

    /// Wraps an already-trusted spec (e.g. straight from the zoo
    /// builders) without re-running analysis; used to compare the
    /// IR-checked and direct-builder search paths.
    pub fn from_spec(spec: ModelSpec) -> Self {
        let ir_hash = emit::ir_hash(&spec, None, None);
        CheckedModel {
            spec,
            ir_hash,
            blocks: None,
            levels: None,
            bottleneck: None,
            quant: None,
        }
    }
}

/// Result of analysis: a checked model when no errors were found, plus
/// every diagnostic (errors and warnings) in deterministic order.
#[derive(Debug)]
pub struct Analysis {
    /// Present iff no error-severity diagnostic was produced.
    pub model: Option<CheckedModel>,
    /// All findings, sorted by span then code.
    pub diagnostics: Vec<Diagnostic>,
}

struct Analyzer<'a> {
    ast: &'a ModelAst,
    dims: BTreeMap<String, u64>,
    diags: Vec<Diagnostic>,
}

/// Runs all analysis passes over a parsed model.
pub fn analyze(ast: &ModelAst) -> Analysis {
    let mut a = Analyzer {
        ast,
        dims: BTreeMap::new(),
        diags: Vec::new(),
    };
    let model = a.run();
    let mut diagnostics = a.diags;
    sort_diagnostics(&mut diagnostics);
    Analysis { model, diagnostics }
}

impl<'a> Analyzer<'a> {
    fn error(&mut self, code: Code, span: Span, msg: impl Into<String>) {
        self.diags.push(Diagnostic::new(code, span, msg));
    }

    fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    fn run(&mut self) -> Option<CheckedModel> {
        self.collect_dims();
        let input = self.resolve_input();
        self.check_duplicate_layer_names();
        // Lower every top-level op; keep going on per-layer failures so
        // one bad layer does not mask findings in its siblings.
        let lowered: Vec<Option<LayerSpec>> = self
            .ast
            .layers
            .iter()
            .map(|decl| self.lower_layer(decl))
            .collect();
        let order = self.chain_order();
        let folded = self.fold_skips(&order, &lowered);
        if self.ast.layers.is_empty() {
            self.error(
                Code::EmptyModel,
                self.ast.name_span,
                format!("model `{}` declares no layers", self.ast.name),
            );
        } else if !self.has_errors() && order.is_empty() {
            self.error(
                Code::EmptyModel,
                self.ast.name_span,
                format!(
                    "model `{}` has no layers left after dropping unreachable ones",
                    self.ast.name
                ),
            );
        }
        self.lint_unannotated();
        // Dataflow runs only when lowering succeeded end to end; its
        // diagnostics would be noise downstream of per-layer errors.
        let (input_shape, chain) = match (input, folded) {
            (Some(shape), Some(chain)) if !self.has_errors() => (shape, chain),
            _ => return None,
        };
        if !self.dataflow(input_shape, &chain) {
            return None;
        }
        self.lint_dead_branches(&chain);
        // Feature-compression knob legality (IR207): the search engine
        // only knows the knob ladder {2, 4} x {8, 4}; anything else
        // would silently change the transfer-byte math.
        let bottleneck = match self.ast.bottleneck {
            Some((2, _)) => Some(2u32),
            Some((4, _)) => Some(4u32),
            Some((d, span)) => {
                self.error(
                    Code::BadFeature,
                    span,
                    format!(
                        "`@bottleneck({d})` is not a legal channel divisor; expected 2 or 4"
                    ),
                );
                None
            }
            None => None,
        };
        let quant = match self.ast.quant {
            Some((8, _)) => Some(8u32),
            Some((4, _)) => Some(4u32),
            Some((b, span)) => {
                self.error(
                    Code::BadFeature,
                    span,
                    format!("`@quant({b})` is not a legal transfer bit width; expected 8 or 4"),
                );
                None
            }
            None => None,
        };
        if self.has_errors() {
            return None;
        }
        let layers: Vec<LayerSpec> = chain.into_iter().map(|(l, _)| l).collect();
        let spec = match ModelSpec::new(self.ast.name.clone(), input_shape, layers) {
            Ok(s) => s,
            Err(e) => {
                // Defense in depth: pass 6 ran this same walk on this
                // non-empty chain, so this path should be unreachable (and
                // `validate::model_spec` would only repeat it).
                self.error(Code::ShapeInference, self.ast.name_span, format!("{e}"));
                return None;
            }
        };
        let blocks = match self.ast.blocks {
            Some((n, span)) => match validate::block_count(&spec, n as usize) {
                Ok(()) => Some(n as usize),
                Err(e) => {
                    self.error(Code::CoreValidation, span, format!("{e}"));
                    return None;
                }
            },
            None => None,
        };
        let levels = match self.ast.levels.clone() {
            Some((ls, span)) => match validate::bandwidth_levels(&ls) {
                Ok(()) => Some(ls),
                Err(e) => {
                    self.error(Code::BadLevels, span, format!("{e}"));
                    return None;
                }
            },
            None => None,
        };
        let ir_hash = emit::ir_hash_full(&spec, blocks, levels.as_deref(), bottleneck, quant);
        Some(CheckedModel {
            spec,
            ir_hash,
            blocks,
            levels,
            bottleneck,
            quant,
        })
    }

    // ---- pass 1: dims and input ------------------------------------

    fn collect_dims(&mut self) {
        for d in &self.ast.dims {
            if self.dims.contains_key(&d.name) {
                self.diags.push(Diagnostic::new(
                    Code::DuplicateName,
                    d.span,
                    format!("dim `{}` is declared twice", d.name),
                ));
            } else {
                self.dims.insert(d.name.clone(), d.value);
            }
        }
    }

    fn resolve(&mut self, r: &DimRef) -> Option<u64> {
        match &r.value {
            DimValue::Lit(v) => Some(*v),
            DimValue::Name(n) => match self.dims.get(n) {
                Some(v) => Some(*v),
                None => {
                    let msg = format!("unknown dim `{n}`; declare it with `dim {n} = ...`");
                    self.error(Code::UnknownName, r.span, msg);
                    None
                }
            },
        }
    }

    /// Resolves a dim that must be >= 1 (kernel, stride, channels...).
    fn resolve_pos(&mut self, r: &DimRef, what: &str) -> Option<u64> {
        let v = self.resolve(r)?;
        if v == 0 {
            self.error(
                Code::IllegalHyperParam,
                r.span,
                format!("{what} must be at least 1"),
            );
            return None;
        }
        Some(v)
    }

    fn resolve_input(&mut self) -> Option<Shape> {
        match self.ast.inputs.len() {
            0 => {
                self.error(
                    Code::BadInputDecl,
                    self.ast.name_span,
                    format!(
                        "model `{}` is missing an `input (c, h, w)` declaration",
                        self.ast.name
                    ),
                );
                return None;
            }
            1 => {}
            _ => {
                let extras: Vec<Span> =
                    self.ast.inputs.iter().skip(1).map(|d| d.span).collect();
                for span in extras {
                    self.error(
                        Code::BadInputDecl,
                        span,
                        "duplicate `input` declaration; a model has exactly one input shape",
                    );
                }
            }
        }
        let decl = self.ast.inputs.first()?.clone();
        let c = self.resolve_pos(&decl.c, "input channel count");
        let h = self.resolve_pos(&decl.h, "input height");
        let w = self.resolve_pos(&decl.w, "input width");
        Some(Shape::new(c? as usize, h? as usize, w? as usize))
    }

    // ---- pass 2: layer names ---------------------------------------

    fn check_duplicate_layer_names(&mut self) {
        fn walk<'d>(
            layers: &'d [LayerDecl],
            seen: &mut BTreeMap<&'d str, ()>,
            diags: &mut Vec<Diagnostic>,
        ) {
            for l in layers {
                if seen.insert(l.name.as_str(), ()).is_some() {
                    diags.push(Diagnostic::new(
                        Code::DuplicateName,
                        l.name_span,
                        format!("layer `{}` is declared twice", l.name),
                    ));
                }
                if let OpAst::Residual { body, .. } = &l.op {
                    walk(body, seen, diags);
                }
            }
        }
        let mut seen = BTreeMap::new();
        let mut diags = Vec::new();
        walk(&self.ast.layers, &mut seen, &mut diags);
        self.diags.extend(diags);
    }

    // ---- pass 3: op lowering ---------------------------------------

    /// Lowers one declaration to a `LayerSpec`, resolving named dims and
    /// enforcing hyper-parameter legality.
    fn lower_layer(&mut self, decl: &LayerDecl) -> Option<LayerSpec> {
        let spec = match &decl.op {
            OpAst::Conv { k, s, p, out } => {
                let k = self.resolve_pos(k, "kernel size `k`");
                let s = self.resolve_pos(s, "stride `s`");
                let p = self.resolve(p);
                let out = self.resolve_pos(out, "output channels `out`");
                LayerSpec::Conv2d {
                    kernel: k? as usize,
                    stride: s? as usize,
                    pad: p? as usize,
                    out_channels: out? as usize,
                }
            }
            OpAst::DwConv { k, s, p } => {
                let k = self.resolve_pos(k, "kernel size `k`");
                let s = self.resolve_pos(s, "stride `s`");
                let p = self.resolve(p);
                LayerSpec::DepthwiseConv2d {
                    kernel: k? as usize,
                    stride: s? as usize,
                    pad: p? as usize,
                }
            }
            OpAst::MaxPool { k, s } => {
                let k = self.resolve_pos(k, "kernel size `k`");
                let s = self.resolve_pos(s, "stride `s`");
                LayerSpec::MaxPool2d {
                    kernel: k? as usize,
                    stride: s? as usize,
                }
            }
            OpAst::Gap => LayerSpec::GlobalAvgPool,
            OpAst::Flatten => LayerSpec::Flatten,
            OpAst::Fc { out } => LayerSpec::Fc {
                out_features: self.resolve_pos(out, "output features `out`")? as usize,
            },
            OpAst::BatchNorm => LayerSpec::BatchNorm,
            OpAst::Dropout => LayerSpec::Dropout,
            OpAst::Fire { squeeze, e1, e3 } => {
                let sq = self.resolve_pos(squeeze, "squeeze channels");
                let e1v = self.resolve(e1);
                let e3v = self.resolve(e3);
                let (sq, e1v, e3v) = (sq?, e1v?, e3v?);
                if e1v == 0 && e3v == 0 {
                    self.error(
                        Code::IllegalHyperParam,
                        decl.span,
                        "fire module needs at least one expand channel (`e1` + `e3` >= 1)",
                    );
                    return None;
                }
                LayerSpec::Fire {
                    squeeze: sq as usize,
                    expand1: e1v as usize,
                    expand3: e3v as usize,
                }
            }
            OpAst::InvRes { expand, s, out } => {
                let e = self.resolve_pos(expand, "expansion factor `expand`");
                let s = self.resolve_pos(s, "stride `s`");
                let out = self.resolve_pos(out, "output channels `out`");
                LayerSpec::InvertedResidual {
                    expansion: e? as usize,
                    stride: s? as usize,
                    out_channels: out? as usize,
                }
            }
            OpAst::Residual { projection, body } => {
                let projection = match projection {
                    Some((out, s)) => {
                        let out = self.resolve_pos(out, "projection channels `out`");
                        let s = self.resolve_pos(s, "projection stride `s`");
                        Some((out? as usize, s? as usize))
                    }
                    None => None,
                };
                let lowered: Vec<Option<LayerSpec>> =
                    body.iter().map(|inner| self.lower_layer(inner)).collect();
                let mut layers = Vec::with_capacity(lowered.len());
                for l in lowered {
                    layers.push(l?);
                }
                LayerSpec::Residual {
                    body: layers,
                    projection,
                }
            }
        };
        // Cost-class annotation legality (IR305 errors here; the IR304
        // warning over unannotated declarations is a separate lint).
        if let Some((ann, span)) = decl.class_ann {
            match spec.cost_class() {
                Some(inferred) if inferred as u64 == ann => {}
                Some(inferred) => {
                    self.error(
                        Code::CostClassMismatch,
                        span,
                        format!(
                            "layer `{}` is annotated @class({ann}) but its inferred cost \
                             class is {inferred}",
                            decl.name
                        ),
                    );
                }
                None => {
                    self.error(
                        Code::CostClassMismatch,
                        span,
                        format!(
                            "layer `{}` is zero-cost ({}) and cannot carry a cost class",
                            decl.name,
                            op_name(&decl.op)
                        ),
                    );
                }
            }
        }
        Some(spec)
    }

    // ---- pass 4: edge-chain legality -------------------------------

    /// Returns the evaluation order of top-level layer indices, applying
    /// `edge` declarations when present. Unreachable layers are dropped
    /// with an IR301 warning.
    fn chain_order(&mut self) -> Vec<usize> {
        let n = self.ast.layers.len();
        let index_of: BTreeMap<&str, usize> = self
            .ast
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| (l.name.as_str(), i))
            .collect();
        if self.ast.edges.is_empty() {
            return (0..n).collect();
        }
        let mut succ: Vec<Option<usize>> = vec![None; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut in_edges = vec![false; n];
        let mut bad_edges = false;
        for e in &self.ast.edges {
            let (from, to) = match (index_of.get(e.from.as_str()), index_of.get(e.to.as_str())) {
                (Some(&f), Some(&t)) => (f, t),
                (from, _) => {
                    let missing = if from.is_none() {
                        e.from.clone()
                    } else {
                        e.to.clone()
                    };
                    self.error(
                        Code::UnknownName,
                        e.span,
                        format!("edge references unknown layer `{missing}`"),
                    );
                    bad_edges = true;
                    continue;
                }
            };
            if succ[from].is_some() {
                self.error(
                    Code::NotAChain,
                    e.span,
                    format!(
                        "layer `{}` has two outgoing edges; the graph must be a chain",
                        e.from
                    ),
                );
                bad_edges = true;
                continue;
            }
            if pred[to].is_some() {
                self.error(
                    Code::NotAChain,
                    e.span,
                    format!(
                        "layer `{}` has two incoming edges; the graph must be a chain",
                        e.to
                    ),
                );
                bad_edges = true;
                continue;
            }
            succ[from] = Some(to);
            pred[to] = Some(from);
            in_edges[from] = true;
            in_edges[to] = true;
        }
        if bad_edges {
            return (0..n).collect();
        }
        let cycle_span = self
            .ast
            .edges
            .first()
            .map(|e| e.span)
            .unwrap_or(self.ast.name_span);
        // Head: the first declared edge-connected layer with no
        // predecessor. Edges but no head means every edge sits on a cycle.
        let head = match (0..n).find(|&i| in_edges[i] && pred[i].is_none()) {
            Some(h) => h,
            None => {
                self.error(Code::EdgeCycle, cycle_span, "edge declarations form a cycle");
                return (0..n).collect();
            }
        };
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut cur = Some(head);
        while let Some(i) = cur {
            if visited[i] {
                self.error(Code::EdgeCycle, cycle_span, "edge declarations form a cycle");
                return (0..n).collect();
            }
            visited[i] = true;
            order.push(i);
            cur = succ[i];
        }
        // Edge-connected layers outside the walked chain mean a second
        // component: not a chain. Isolated layers are merely unreachable.
        let head_name = self
            .ast
            .layers
            .get(head)
            .map(|l| l.name.clone())
            .unwrap_or_default();
        let mut diags = Vec::new();
        for (i, l) in self.ast.layers.iter().enumerate() {
            if visited[i] {
                continue;
            }
            if in_edges[i] {
                diags.push(Diagnostic::new(
                    Code::NotAChain,
                    l.name_span,
                    format!(
                        "layer `{}` is edge-connected but not part of the chain starting \
                         at `{head_name}`; the graph must be a single chain",
                        l.name
                    ),
                ));
            } else {
                diags.push(Diagnostic::new(
                    Code::UnreachableLayer,
                    l.name_span,
                    format!(
                        "layer `{}` is unreachable from the chain head `{head_name}` \
                         and is dropped",
                        l.name
                    ),
                ));
            }
        }
        self.diags.extend(diags);
        order
    }

    // ---- pass 5: skip folding --------------------------------------

    /// Applies `skip` declarations: each folds a chain region into a
    /// residual block. Returns the final `(layer, span)` chain, where a
    /// folded block carries its skip declaration's span.
    fn fold_skips(
        &mut self,
        order: &[usize],
        lowered: &[Option<LayerSpec>],
    ) -> Option<Vec<(LayerSpec, Span)>> {
        let pos_of: BTreeMap<&str, usize> = order
            .iter()
            .enumerate()
            .filter_map(|(pos, &idx)| self.ast.layers.get(idx).map(|l| (l.name.as_str(), pos)))
            .collect();
        let mut regions: Vec<(usize, usize, usize)> = Vec::new(); // (start, end, skip idx)
        for (si, s) in self.ast.skips.iter().enumerate() {
            let declared_from = self.ast.layers.iter().any(|l| l.name == s.from);
            let declared_to = self.ast.layers.iter().any(|l| l.name == s.to);
            let (from, to) = match (pos_of.get(s.from.as_str()), pos_of.get(s.to.as_str())) {
                (Some(&f), Some(&t)) => (f, t),
                (from_pos, _) => {
                    let (missing, declared) = if from_pos.is_none() {
                        (s.from.clone(), declared_from)
                    } else {
                        (s.to.clone(), declared_to)
                    };
                    if declared {
                        self.error(
                            Code::IllegalSkip,
                            s.span,
                            format!("skip endpoint `{missing}` is not on the chain"),
                        );
                    } else {
                        self.error(
                            Code::UnknownName,
                            s.span,
                            format!("skip references unknown layer `{missing}`"),
                        );
                    }
                    continue;
                }
            };
            if from > to {
                self.error(
                    Code::IllegalSkip,
                    s.span,
                    format!("skip `{} -> {}` runs backward along the chain", s.from, s.to),
                );
                continue;
            }
            regions.push((from, to, si));
        }
        // Overlap check: sort by start; any region beginning at or
        // before the previous one's end shares a layer with it.
        regions.sort_unstable();
        let mut overlaps = Vec::new();
        for pair in regions.windows(2) {
            if let ([(_, a_end, a_si), (b_start, _, b_si)], ..) = (pair, ()) {
                if b_start <= a_end {
                    overlaps.push((*a_si, *b_si));
                }
            }
        }
        for (a_si, b_si) in overlaps {
            let msg = match (self.ast.skips.get(a_si), self.ast.skips.get(b_si)) {
                (Some(sa), Some(sb)) => format!(
                    "skip `{} -> {}` overlaps skip `{} -> {}`; regions must be disjoint",
                    sb.from, sb.to, sa.from, sa.to
                ),
                _ => "overlapping skip regions must be disjoint".to_string(),
            };
            let span = self
                .ast
                .skips
                .get(b_si)
                .map(|s| s.span)
                .unwrap_or(self.ast.name_span);
            self.error(Code::IllegalSkip, span, msg);
        }
        if self.has_errors() {
            return None;
        }
        let mut chain: Vec<Option<(LayerSpec, Span)>> = order
            .iter()
            .map(|&i| {
                let layer = lowered.get(i).cloned().flatten()?;
                let span = self.ast.layers.get(i).map(|l| l.span)?;
                Some((layer, span))
            })
            .collect();
        if chain.iter().any(|l| l.is_none()) {
            return None;
        }
        // Fold right-to-left so earlier region positions stay valid.
        for &(start, end, si) in regions.iter().rev() {
            let skip = match self.ast.skips.get(si) {
                Some(s) => s.clone(),
                None => return None,
            };
            let projection = match &skip.projection {
                Some((out, s)) => {
                    let out = self.resolve_pos(out, "projection channels `out`");
                    let s = self.resolve_pos(s, "projection stride `s`");
                    match (out, s) {
                        (Some(o), Some(s)) => Some((o as usize, s as usize)),
                        _ => return None,
                    }
                }
                None => None,
            };
            let body: Vec<LayerSpec> = chain
                .splice(start..=end, [None])
                .flatten()
                .map(|(l, _)| l)
                .collect();
            chain[start] = Some((LayerSpec::Residual { body, projection }, skip.span));
        }
        chain.into_iter().collect()
    }

    // ---- pass 6: checked dataflow ----------------------------------

    /// Walks the chain with nn's [`CheckedWalk`], reporting its first
    /// error at the offending layer (the model name for the input).
    /// Returns false when a diagnostic was raised.
    fn dataflow(&mut self, input: Shape, chain: &[(LayerSpec, Span)]) -> bool {
        let mut walk = match CheckedWalk::new(input) {
            Ok(walk) => walk,
            Err(e) => {
                self.walk_error(e, self.ast.name_span);
                return false;
            }
        };
        for (layer, span) in chain {
            if let Err(e) = walk.step(layer) {
                self.walk_error(e, *span);
                return false;
            }
        }
        true
    }

    /// Maps a walk error to its stable code, adding IR-syntax hints.
    fn walk_error(&mut self, e: ShapeError, span: Span) {
        let (code, hint) = match e {
            ShapeError::ExpectedFlat { .. } => {
                (Code::ShapeInference, " (insert `flatten` or `gap`)")
            }
            ShapeError::ResidualMismatch { projected, .. } => (
                Code::SkipShapeMismatch,
                if projected {
                    ""
                } else {
                    " (add a projection `project=(out, s)`)"
                },
            ),
            ShapeError::InputTooLarge { .. }
            | ShapeError::TooManyElements { .. }
            | ShapeError::CostTooLarge { .. } => (Code::CostOverflow, ""),
            ShapeError::KernelTooLarge { .. }
            | ShapeError::RecordedCount { .. }
            | ShapeError::RecordedMismatch { .. } => (Code::ShapeInference, ""),
        };
        self.error(code, span, format!("{e}{hint}"));
    }

    // ---- pass 7: lints ---------------------------------------------

    /// IR304: declared compute-bearing layers without `@class`. Runs on
    /// the source declarations, so skip-folded residuals (which have no
    /// source form to annotate) are exempt by construction.
    fn lint_unannotated(&mut self) {
        fn walk(layers: &[LayerDecl], diags: &mut Vec<Diagnostic>) {
            for l in layers {
                if l.class_ann.is_none() {
                    if let Some(class) = op_cost_class(&l.op) {
                        diags.push(Diagnostic::new(
                            Code::MissingCostClass,
                            l.name_span,
                            format!(
                                "compute-bearing layer `{}` has no @class annotation \
                                 (inferred class {class})",
                                l.name
                            ),
                        ));
                    }
                }
                if let OpAst::Residual { body, .. } = &l.op {
                    walk(body, diags);
                }
            }
        }
        let mut diags = Vec::new();
        walk(&self.ast.layers, &mut diags);
        self.diags.extend(diags);
    }

    /// IR302: residual blocks whose body computes nothing.
    fn lint_dead_branches(&mut self, chain: &[(LayerSpec, Span)]) {
        fn walk(layer: &LayerSpec, span: Span, diags: &mut Vec<Diagnostic>) {
            if let LayerSpec::Residual { body, .. } = layer {
                if body.iter().all(|b| b.cost_class().is_none()) {
                    diags.push(Diagnostic::new(
                        Code::DeadBranch,
                        span,
                        "residual body performs no computation (all layers are \
                         zero-cost); the block is an expensive identity",
                    ));
                }
                for inner in body {
                    walk(inner, span, diags);
                }
            }
        }
        let mut diags = Vec::new();
        for (layer, span) in chain {
            walk(layer, *span, &mut diags);
        }
        self.diags.extend(diags);
    }
}

/// Inferred cost class of an op without lowering it (annotation lint).
fn op_cost_class(op: &OpAst) -> Option<usize> {
    match op {
        OpAst::Conv { k, .. } => {
            // Named dims may be unresolved here; default to the 3x3
            // bucket — the IR305 check in lowering is authoritative.
            let kv = match &k.value {
                DimValue::Lit(v) => *v,
                DimValue::Name(_) => 3,
            };
            Some(match kv {
                0..=1 => 0,
                2..=3 => 1,
                4..=5 => 2,
                _ => 3,
            })
        }
        OpAst::DwConv { .. } => Some(4),
        OpAst::Fc { .. } => Some(5),
        OpAst::Fire { .. } | OpAst::InvRes { .. } | OpAst::Residual { .. } => Some(1),
        OpAst::MaxPool { .. }
        | OpAst::Gap
        | OpAst::Flatten
        | OpAst::BatchNorm
        | OpAst::Dropout => None,
    }
}

fn op_name(op: &OpAst) -> &'static str {
    match op {
        OpAst::Conv { .. } => "conv",
        OpAst::DwConv { .. } => "dwconv",
        OpAst::MaxPool { .. } => "maxpool",
        OpAst::Gap => "gap",
        OpAst::Flatten => "flatten",
        OpAst::Fc { .. } => "fc",
        OpAst::BatchNorm => "batchnorm",
        OpAst::Dropout => "dropout",
        OpAst::Fire { .. } => "fire",
        OpAst::InvRes { .. } => "invres",
        OpAst::Residual { .. } => "residual",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> Analysis {
        analyze(&parse(src).expect("parse ok"))
    }

    fn codes(a: &Analysis) -> Vec<Code> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn accepts_a_clean_model() {
        let a = check(
            "model M {\n  input (3, 8, 8)\n\
             layer c = conv(k=3, s=1, p=1, out=4) @class(1)\n\
             layer g = gap\n  layer f = flatten\n\
             layer out = fc(out=10) @class(5)\n}",
        );
        assert!(a.diagnostics.is_empty(), "got {:?}", a.diagnostics);
        let m = a.model.expect("model");
        assert_eq!(m.spec().len(), 4);
        assert_ne!(m.ir_hash(), 0);
    }

    #[test]
    fn named_dims_resolve_and_unknowns_report() {
        let a = check(
            "model M {\n  dim C = 4\n  input (3, 8, 8)\n\
             layer c = conv(k=3, s=1, p=1, out=C) @class(1)\n}",
        );
        assert!(a.model.is_some());
        let a = check(
            "model M {\n  input (3, 8, 8)\n\
             layer c = conv(k=3, s=1, p=1, out=MISSING) @class(1)\n}",
        );
        assert!(codes(&a).contains(&Code::UnknownName));
        assert!(a.model.is_none());
    }

    #[test]
    fn shape_and_legality_errors() {
        // Kernel larger than input: IR101.
        let a = check(
            "model M {\n  input (3, 4, 4)\n\
             layer c = conv(k=7, s=1, p=0, out=4) @class(3)\n}",
        );
        assert!(codes(&a).contains(&Code::ShapeInference));
        // Zero stride: IR103 at lowering, before inference.
        let a = check(
            "model M {\n  input (3, 4, 4)\n\
             layer c = conv(k=3, s=0, p=0, out=4) @class(1)\n}",
        );
        assert!(codes(&a).contains(&Code::IllegalHyperParam));
        // Duplicate layer names: IR007; duplicate input: IR009.
        let a = check(
            "model M {\n  input (3, 4, 4)\n  input (3, 4, 4)\n\
             layer g = gap\n  layer g = gap\n}",
        );
        assert!(codes(&a).contains(&Code::DuplicateName));
        assert!(codes(&a).contains(&Code::BadInputDecl));
        // Empty model: IR102.
        let a = check("model M {\n  input (3, 4, 4)\n}");
        assert!(codes(&a).contains(&Code::EmptyModel));
    }

    #[test]
    fn edge_chain_legality() {
        let base = "model M {\n  input (3, 8, 8)\n\
                    layer a = gap\n  layer b = flatten\n  layer c = dropout\n";
        // Explicit chain reorders evaluation.
        let a = check(&format!("{base}edge b -> a\nedge a -> c\n}}"));
        assert!(a.model.is_some(), "got {:?}", a.diagnostics);
        // Fork: IR202.
        let a = check(&format!("{base}edge a -> b\nedge a -> c\n}}"));
        assert!(codes(&a).contains(&Code::NotAChain));
        // Cycle: IR201.
        let a = check(&format!(
            "{base}edge a -> b\nedge b -> c\nedge c -> a\n}}"
        ));
        assert!(codes(&a).contains(&Code::EdgeCycle));
        // Isolated layer: IR301 warning, model still produced.
        let a = check(&format!("{base}edge a -> b\n}}"));
        assert!(codes(&a).contains(&Code::UnreachableLayer));
        let m = a.model.expect("model survives warnings");
        assert_eq!(m.spec().len(), 2);
    }

    #[test]
    fn skip_folding_builds_residuals() {
        let src = "model M {\n  input (4, 8, 8)\n\
                   layer c1 = conv(k=3, s=1, p=1, out=4) @class(1)\n\
                   layer c2 = conv(k=3, s=1, p=1, out=4) @class(1)\n\
                   layer g = gap\n\
                   skip c1 -> c2\n}";
        let a = check(src);
        assert!(a.model.is_some(), "got {:?}", a.diagnostics);
        let m = a.model.expect("model");
        assert_eq!(m.spec().len(), 2); // residual + gap
        assert!(matches!(
            m.spec().layers().first(),
            Some(LayerSpec::Residual { .. })
        ));
        // Backward skip: IR203.
        let a = check(
            "model M {\n  input (4, 8, 8)\n\
             layer c1 = conv(k=3, s=1, p=1, out=4) @class(1)\n\
             layer c2 = conv(k=3, s=1, p=1, out=4) @class(1)\n\
             skip c2 -> c1\n}",
        );
        assert!(codes(&a).contains(&Code::IllegalSkip));
        // Join mismatch without projection: IR204.
        let a = check(
            "model M {\n  input (4, 8, 8)\n\
             layer c1 = conv(k=3, s=2, p=1, out=8) @class(1)\n\
             layer g = gap\n\
             skip c1 -> c1\n}",
        );
        assert!(codes(&a).contains(&Code::SkipShapeMismatch));
    }

    #[test]
    fn overflow_is_ir303_not_a_panic() {
        // 2^24 channels over a large spatial extent overflows the
        // element cap once flattened and multiplied into an fc.
        let a = check(
            "model M {\n  input (16777216, 4096, 4096)\n\
             layer f = flatten\n  layer out = fc(out=16777216) @class(5)\n}",
        );
        assert!(codes(&a).contains(&Code::CostOverflow), "got {:?}", codes(&a));
        assert!(a.model.is_none());
    }

    #[test]
    fn class_annotation_lints() {
        // Missing annotation: IR304 warning only.
        let a = check(
            "model M {\n  input (3, 8, 8)\n\
             layer c = conv(k=3, s=1, p=1, out=4)\n}",
        );
        assert!(codes(&a).contains(&Code::MissingCostClass));
        assert!(a.model.is_some());
        // Wrong annotation: IR305 error.
        let a = check(
            "model M {\n  input (3, 8, 8)\n\
             layer c = conv(k=3, s=1, p=1, out=4) @class(5)\n}",
        );
        assert!(codes(&a).contains(&Code::CostClassMismatch));
        assert!(a.model.is_none());
        // Annotation on a zero-cost layer: IR305.
        let a = check("model M {\n  input (3, 8, 8)\n  layer g = gap @class(1)\n}");
        assert!(codes(&a).contains(&Code::CostClassMismatch));
    }

    #[test]
    fn dead_branch_is_ir302() {
        let a = check(
            "model M {\n  input (3, 8, 8)\n\
             layer r = residual @class(1) {\n    layer b = dropout\n  }\n\
             layer g = gap\n}",
        );
        assert!(codes(&a).contains(&Code::DeadBranch));
        assert!(a.model.is_some());
    }

    #[test]
    fn feature_annotations_flow_and_gate() {
        let body = "{\n  input (3, 8, 8)\n\
                    layer c = conv(k=3, s=1, p=1, out=4) @class(1)\n\
                    layer g = gap\n}";
        let a = check(&format!("model M @bottleneck(2) @quant(8) {body}"));
        assert!(a.diagnostics.is_empty(), "got {:?}", a.diagnostics);
        let m = a.model.expect("model");
        assert_eq!(m.bottleneck_divisor(), Some(2));
        assert_eq!(m.quant_bits(), Some(8));
        assert_eq!(m.feature().code(), "B2Q8");
        // Each knob alone composes with identity on the other axis.
        let b = check(&format!("model M @quant(4) {body}"))
            .model
            .expect("model");
        assert_eq!(b.bottleneck_divisor(), None);
        assert_eq!(b.feature().code(), "B1Q4");
        // The knobs are part of the hashed surface.
        let plain = check(&format!("model M {body}")).model.expect("model");
        assert_ne!(m.ir_hash(), plain.ir_hash());
        assert_ne!(m.ir_hash(), b.ir_hash());
        // Unannotated models pin the identity action.
        assert!(plain.feature().is_identity());
        // Illegal knob values: IR207, no model.
        for bad in [
            "model M @bottleneck(3)",
            "model M @bottleneck(0)",
            "model M @quant(16)",
            "model M @quant(0)",
        ] {
            let a = check(&format!("{bad} {body}"));
            assert!(codes(&a).contains(&Code::BadFeature), "source: {bad}");
            assert!(a.model.is_none(), "source: {bad}");
        }
    }

    #[test]
    fn annotations_flow_into_checked_model() {
        let a = check(
            "model M @blocks(2) @levels(2, 10) {\n  input (3, 8, 8)\n\
             layer c = conv(k=3, s=1, p=1, out=4) @class(1)\n\
             layer g = gap\n}",
        );
        let m = a.model.expect("model");
        assert_eq!(m.blocks(), Some(2));
        assert_eq!(m.levels(), Some(&[2.0, 10.0][..]));
        // Bad block count: IR205 via core::validate.
        let a = check(
            "model M @blocks(99) {\n  input (3, 8, 8)\n\
             layer c = conv(k=3, s=1, p=1, out=4) @class(1)\n}",
        );
        assert!(codes(&a).contains(&Code::CoreValidation));
        // Unsorted levels: IR206 via core::validate.
        let a = check(
            "model M @levels(10, 2) {\n  input (3, 8, 8)\n\
             layer c = conv(k=3, s=1, p=1, out=4) @class(1)\n}",
        );
        assert!(codes(&a).contains(&Code::BadLevels));
    }
}
