//! Recursive-descent parser: token stream → [`ModelAst`]. Stops at the
//! first syntax error (the analyzer then collects semantic diagnostics in
//! bulk). Every failure is a span-carrying [`Diagnostic`]; no panics.

use crate::ast::{
    DimDecl, DimRef, DimValue, EdgeDecl, InputDecl, LayerDecl, ModelAst, OpAst, SkipDecl,
};
use crate::diag::{Code, Diagnostic, Span};
use crate::lexer::{lex, Token, TokenKind};

/// Deepest `residual { ... }` nesting the parser accepts. Parsing, the
/// analyzer's passes and nn's walk all recurse once per level, so the
/// cap keeps hostile sources from exhausting the stack.
pub const MAX_RESIDUAL_DEPTH: usize = 64;

/// Parses a complete `.ir` source into an unchecked [`ModelAst`].
pub fn parse(src: &str) -> Result<ModelAst, Diagnostic> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        eof: Token {
            kind: TokenKind::Eof,
            span: Span::point(src.len()),
        },
    };
    p.model()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    eof: Token,
}

/// A generic `key = value` op parameter before per-op mapping.
#[derive(Debug, Clone)]
struct Param {
    key: String,
    key_span: Span,
    value: ParamValue,
}

#[derive(Debug, Clone)]
enum ParamValue {
    Num(DimRef),
    Pair(DimRef, DimRef),
}

impl Parser {
    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&self.eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn unexpected(&self, expected: &str) -> Diagnostic {
        let t = self.peek();
        let code = if t.kind == TokenKind::Eof {
            Code::UnexpectedEof
        } else {
            Code::UnexpectedToken
        };
        Diagnostic::new(
            code,
            t.span,
            format!("expected {expected}, found {}", t.kind.describe()),
        )
    }

    fn expect_tok(&mut self, kind: &TokenKind, expected: &str) -> Result<Token, Diagnostic> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn expect_keyword(&mut self, word: &str) -> Result<Token, Diagnostic> {
        match &self.peek().kind {
            TokenKind::Ident(s) if s == word => Ok(self.bump()),
            _ => Err(self.unexpected(&format!("keyword `{word}`"))),
        }
    }

    fn ident(&mut self, expected: &str) -> Result<(String, Span), Diagnostic> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                let t = self.bump();
                Ok((s, t.span))
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn int(&mut self, expected: &str) -> Result<(u64, Span), Diagnostic> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                let t = self.bump();
                Ok((v, t.span))
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn dim_ref(&mut self, expected: &str) -> Result<DimRef, Diagnostic> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                let t = self.bump();
                Ok(DimRef {
                    value: DimValue::Lit(v),
                    span: t.span,
                })
            }
            TokenKind::Ident(s) => {
                let t = self.bump();
                Ok(DimRef {
                    value: DimValue::Name(s),
                    span: t.span,
                })
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn model(&mut self) -> Result<ModelAst, Diagnostic> {
        self.expect_keyword("model")?;
        let (name, name_span) = match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                let t = self.bump();
                (s, t.span)
            }
            TokenKind::Str(s) => {
                let t = self.bump();
                (s, t.span)
            }
            _ => return Err(self.unexpected("a model name (identifier or string)")),
        };
        let mut ast = ModelAst {
            name,
            name_span,
            blocks: None,
            levels: None,
            bottleneck: None,
            quant: None,
            dims: Vec::new(),
            inputs: Vec::new(),
            layers: Vec::new(),
            edges: Vec::new(),
            skips: Vec::new(),
        };
        while self.peek().kind == TokenKind::At {
            self.model_attr(&mut ast)?;
        }
        self.expect_tok(&TokenKind::LBrace, "`{`")?;
        loop {
            match self.peek().kind.clone() {
                TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                TokenKind::Ident(word) => match word.as_str() {
                    "dim" => {
                        let d = self.dim_decl()?;
                        ast.dims.push(d);
                    }
                    "input" => {
                        let d = self.input_decl()?;
                        ast.inputs.push(d);
                    }
                    "layer" => {
                        let d = self.layer_decl(0)?;
                        ast.layers.push(d);
                    }
                    "edge" => {
                        let d = self.edge_decl()?;
                        ast.edges.push(d);
                    }
                    "skip" => {
                        let d = self.skip_decl()?;
                        ast.skips.push(d);
                    }
                    _ => {
                        return Err(self.unexpected(
                            "a statement (`dim`, `input`, `layer`, `edge`, `skip`) or `}`",
                        ))
                    }
                },
                _ => {
                    return Err(self.unexpected(
                        "a statement (`dim`, `input`, `layer`, `edge`, `skip`) or `}`",
                    ))
                }
            }
        }
        self.expect_tok(&TokenKind::Eof, "end of input after the closing `}`")?;
        Ok(ast)
    }

    fn model_attr(&mut self, ast: &mut ModelAst) -> Result<(), Diagnostic> {
        let at = self.expect_tok(&TokenKind::At, "`@`")?;
        let (name, name_span) =
            self.ident("an annotation name (`blocks`, `levels`, `bottleneck` or `quant`)")?;
        match name.as_str() {
            "blocks" => {
                self.expect_tok(&TokenKind::LParen, "`(`")?;
                let (v, vspan) = self.int("a block count")?;
                let close = self.expect_tok(&TokenKind::RParen, "`)`")?;
                if ast.blocks.is_some() {
                    return Err(Diagnostic::new(
                        Code::BadParam,
                        at.span.to(close.span),
                        "duplicate `@blocks` annotation",
                    ));
                }
                ast.blocks = Some((v, at.span.to(vspan).to(close.span)));
            }
            "bottleneck" => {
                self.expect_tok(&TokenKind::LParen, "`(`")?;
                let (v, vspan) = self.int("a channel divisor")?;
                let close = self.expect_tok(&TokenKind::RParen, "`)`")?;
                if ast.bottleneck.is_some() {
                    return Err(Diagnostic::new(
                        Code::BadParam,
                        at.span.to(close.span),
                        "duplicate `@bottleneck` annotation",
                    ));
                }
                ast.bottleneck = Some((v, at.span.to(vspan).to(close.span)));
            }
            "quant" => {
                self.expect_tok(&TokenKind::LParen, "`(`")?;
                let (v, vspan) = self.int("a bit width")?;
                let close = self.expect_tok(&TokenKind::RParen, "`)`")?;
                if ast.quant.is_some() {
                    return Err(Diagnostic::new(
                        Code::BadParam,
                        at.span.to(close.span),
                        "duplicate `@quant` annotation",
                    ));
                }
                ast.quant = Some((v, at.span.to(vspan).to(close.span)));
            }
            "levels" => {
                self.expect_tok(&TokenKind::LParen, "`(`")?;
                let mut levels = Vec::new();
                loop {
                    match self.peek().kind {
                        TokenKind::Int(v) => {
                            self.bump();
                            levels.push(v as f64);
                        }
                        TokenKind::Float(v) => {
                            self.bump();
                            levels.push(v);
                        }
                        _ => return Err(self.unexpected("a bandwidth level (number)")),
                    }
                    match self.peek().kind {
                        TokenKind::Comma => {
                            self.bump();
                        }
                        TokenKind::RParen => break,
                        _ => return Err(self.unexpected("`,` or `)`")),
                    }
                }
                let close = self.expect_tok(&TokenKind::RParen, "`)`")?;
                if ast.levels.is_some() {
                    return Err(Diagnostic::new(
                        Code::BadParam,
                        at.span.to(close.span),
                        "duplicate `@levels` annotation",
                    ));
                }
                ast.levels = Some((levels, at.span.to(close.span)));
            }
            _ => {
                return Err(Diagnostic::new(
                    Code::BadParam,
                    at.span.to(name_span),
                    format!(
                        "unknown model annotation `@{name}`; expected `@blocks`, `@levels`, \
                         `@bottleneck` or `@quant`"
                    ),
                ))
            }
        }
        Ok(())
    }

    fn dim_decl(&mut self) -> Result<DimDecl, Diagnostic> {
        let kw = self.expect_keyword("dim")?;
        let (name, _) = self.ident("a dim name")?;
        self.expect_tok(&TokenKind::Eq, "`=`")?;
        let (value, vspan) = self.int("a dim value")?;
        Ok(DimDecl {
            name,
            value,
            span: kw.span.to(vspan),
        })
    }

    fn input_decl(&mut self) -> Result<InputDecl, Diagnostic> {
        let kw = self.expect_keyword("input")?;
        self.expect_tok(&TokenKind::LParen, "`(`")?;
        let c = self.dim_ref("the channel dimension")?;
        self.expect_tok(&TokenKind::Comma, "`,`")?;
        let h = self.dim_ref("the height dimension")?;
        self.expect_tok(&TokenKind::Comma, "`,`")?;
        let w = self.dim_ref("the width dimension")?;
        let close = self.expect_tok(&TokenKind::RParen, "`)`")?;
        Ok(InputDecl {
            c,
            h,
            w,
            span: kw.span.to(close.span),
        })
    }

    /// Parses one `layer` declaration; `depth` counts the residual
    /// bodies it sits in.
    fn layer_decl(&mut self, depth: usize) -> Result<LayerDecl, Diagnostic> {
        let kw = self.expect_keyword("layer")?;
        let (name, name_span) = self.ident("a layer name")?;
        self.expect_tok(&TokenKind::Eq, "`=`")?;
        let (op_name, op_span) = self.ident("an operation name")?;
        let params = if self.peek().kind == TokenKind::LParen {
            self.params()?
        } else {
            Vec::new()
        };
        let mut end_span = self
            .tokens
            .get(self.pos.saturating_sub(1))
            .map(|t| t.span)
            .unwrap_or(op_span);
        let class_ann = if self.peek().kind == TokenKind::At {
            let at = self.bump();
            let (ann, ann_span) = self.ident("the annotation name `class`")?;
            if ann != "class" {
                return Err(Diagnostic::new(
                    Code::BadParam,
                    at.span.to(ann_span),
                    format!("unknown layer annotation `@{ann}`; expected `@class`"),
                ));
            }
            self.expect_tok(&TokenKind::LParen, "`(`")?;
            let (v, _) = self.int("a cost class index")?;
            let close = self.expect_tok(&TokenKind::RParen, "`)`")?;
            end_span = close.span;
            Some((v, at.span.to(close.span)))
        } else {
            None
        };
        let op = self.build_op(&op_name, op_span, params)?;
        let op = if op_name == "residual" {
            self.expect_tok(&TokenKind::LBrace, "`{` (a residual body)")?;
            let mut body = Vec::new();
            loop {
                match self.peek().kind.clone() {
                    TokenKind::RBrace => {
                        self.bump();
                        break;
                    }
                    TokenKind::Ident(w) if w == "layer" => {
                        if depth == MAX_RESIDUAL_DEPTH {
                            return Err(Diagnostic::new(
                                Code::UnexpectedToken,
                                self.peek().span,
                                format!(
                                    "residual bodies nest deeper than the limit of \
                                     {MAX_RESIDUAL_DEPTH} levels"
                                ),
                            ));
                        }
                        let d = self.layer_decl(depth + 1)?;
                        body.push(d);
                    }
                    _ => return Err(self.unexpected("`layer` or `}` in a residual body")),
                }
            }
            match op {
                OpAst::Residual { projection, .. } => OpAst::Residual { projection, body },
                other => other,
            }
        } else {
            op
        };
        Ok(LayerDecl {
            name,
            name_span,
            op,
            class_ann,
            span: kw.span.to(end_span),
        })
    }

    fn params(&mut self) -> Result<Vec<Param>, Diagnostic> {
        self.expect_tok(&TokenKind::LParen, "`(`")?;
        let mut out = Vec::new();
        if self.peek().kind == TokenKind::RParen {
            self.bump();
            return Ok(out);
        }
        loop {
            let (key, key_span) = self.ident("a parameter name")?;
            self.expect_tok(&TokenKind::Eq, "`=`")?;
            let value = if self.peek().kind == TokenKind::LParen {
                self.bump();
                let a = self.dim_ref("a value")?;
                self.expect_tok(&TokenKind::Comma, "`,`")?;
                let b = self.dim_ref("a value")?;
                self.expect_tok(&TokenKind::RParen, "`)`")?;
                ParamValue::Pair(a, b)
            } else {
                ParamValue::Num(self.dim_ref("a value or dim name")?)
            };
            out.push(Param {
                key,
                key_span,
                value,
            });
            match self.peek().kind {
                TokenKind::Comma => {
                    self.bump();
                }
                TokenKind::RParen => {
                    self.bump();
                    break;
                }
                _ => return Err(self.unexpected("`,` or `)`")),
            }
        }
        Ok(out)
    }

    /// Maps a generic parameter list onto a concrete op, diagnosing
    /// unknown (IR005), duplicate (IR005) and missing (IR005) keys.
    fn build_op(
        &self,
        name: &str,
        op_span: Span,
        params: Vec<Param>,
    ) -> Result<OpAst, Diagnostic> {
        let mut bag = ParamBag::new(name, op_span, params);
        let op = match name {
            "conv" => OpAst::Conv {
                k: bag.num("k")?,
                s: bag.num("s")?,
                p: bag.num("p")?,
                out: bag.num("out")?,
            },
            "dwconv" => OpAst::DwConv {
                k: bag.num("k")?,
                s: bag.num("s")?,
                p: bag.num("p")?,
            },
            "maxpool" => OpAst::MaxPool {
                k: bag.num("k")?,
                s: bag.num("s")?,
            },
            "gap" => OpAst::Gap,
            "flatten" => OpAst::Flatten,
            "fc" => OpAst::Fc {
                out: bag.num("out")?,
            },
            "batchnorm" => OpAst::BatchNorm,
            "dropout" => OpAst::Dropout,
            "fire" => OpAst::Fire {
                squeeze: bag.num("squeeze")?,
                e1: bag.num("e1")?,
                e3: bag.num("e3")?,
            },
            "invres" => OpAst::InvRes {
                expand: bag.num("expand")?,
                s: bag.num("s")?,
                out: bag.num("out")?,
            },
            "residual" => OpAst::Residual {
                projection: bag.pair_opt("project")?,
                body: Vec::new(),
            },
            _ => {
                return Err(Diagnostic::new(
                    Code::UnknownOp,
                    op_span,
                    format!(
                        "unknown operation `{name}`; expected one of conv, dwconv, maxpool, \
                         gap, flatten, fc, batchnorm, dropout, fire, invres, residual"
                    ),
                ))
            }
        };
        bag.finish()?;
        Ok(op)
    }

    fn edge_decl(&mut self) -> Result<EdgeDecl, Diagnostic> {
        let kw = self.expect_keyword("edge")?;
        let (from, _) = self.ident("a source layer name")?;
        self.expect_tok(&TokenKind::Arrow, "`->`")?;
        let (to, to_span) = self.ident("a destination layer name")?;
        Ok(EdgeDecl {
            from,
            to,
            span: kw.span.to(to_span),
        })
    }

    fn skip_decl(&mut self) -> Result<SkipDecl, Diagnostic> {
        let kw = self.expect_keyword("skip")?;
        let (from, _) = self.ident("a source layer name")?;
        self.expect_tok(&TokenKind::Arrow, "`->`")?;
        let (to, to_span) = self.ident("a destination layer name")?;
        let mut span = kw.span.to(to_span);
        let projection = match self.peek().kind.clone() {
            TokenKind::Ident(w) if w == "project" => {
                let pkw = self.bump();
                let params = self.params()?;
                let mut bag = ParamBag::new("project", pkw.span, params);
                let out = bag.num("out")?;
                let s = bag.num("s")?;
                bag.finish()?;
                span = span.to(s.span).to(out.span);
                Some((out, s))
            }
            _ => None,
        };
        Ok(SkipDecl {
            from,
            to,
            projection,
            span,
        })
    }
}

/// Helper that consumes named parameters exactly once each and reports
/// duplicates, type mismatches, missing keys and leftovers as IR005.
struct ParamBag {
    op: String,
    op_span: Span,
    params: Vec<(Param, bool)>,
}

impl ParamBag {
    fn new(op: &str, op_span: Span, params: Vec<Param>) -> Self {
        ParamBag {
            op: op.to_string(),
            op_span,
            params: params.into_iter().map(|p| (p, false)).collect(),
        }
    }

    fn take(&mut self, key: &str) -> Result<Option<Param>, Diagnostic> {
        let mut found: Option<Param> = None;
        for (p, used) in &mut self.params {
            if p.key == key {
                if *used || found.is_some() {
                    return Err(Diagnostic::new(
                        Code::BadParam,
                        p.key_span,
                        format!("duplicate parameter `{key}` for `{}`", self.op),
                    ));
                }
                *used = true;
                found = Some(p.clone());
            }
        }
        Ok(found)
    }

    fn num(&mut self, key: &str) -> Result<DimRef, Diagnostic> {
        match self.take(key)? {
            Some(Param {
                value: ParamValue::Num(d),
                ..
            }) => Ok(d),
            Some(p) => Err(Diagnostic::new(
                Code::BadParam,
                p.key_span,
                format!("parameter `{key}` of `{}` takes a single value", self.op),
            )),
            None => Err(Diagnostic::new(
                Code::BadParam,
                self.op_span,
                format!("missing parameter `{key}` for `{}`", self.op),
            )),
        }
    }

    fn pair_opt(&mut self, key: &str) -> Result<Option<(DimRef, DimRef)>, Diagnostic> {
        match self.take(key)? {
            Some(Param {
                value: ParamValue::Pair(a, b),
                ..
            }) => Ok(Some((a, b))),
            Some(p) => Err(Diagnostic::new(
                Code::BadParam,
                p.key_span,
                format!(
                    "parameter `{key}` of `{}` takes a pair `({key}=(out, s))`",
                    self.op
                ),
            )),
            None => Ok(None),
        }
    }

    fn finish(self) -> Result<(), Diagnostic> {
        for (p, used) in &self.params {
            if !*used {
                return Err(Diagnostic::new(
                    Code::BadParam,
                    p.key_span,
                    format!("unknown parameter `{}` for `{}`", p.key, self.op),
                ));
            }
        }
        let _ = self.op_span;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_model() {
        let ast = parse(
            "model M {\n  input (3, 32, 32)\n  layer a = conv(k=3, s=1, p=1, out=8) @class(1)\n}",
        )
        .expect("parse ok");
        assert_eq!(ast.name, "M");
        assert_eq!(ast.layers.len(), 1);
        assert_eq!(ast.layers[0].class_ann.map(|(v, _)| v), Some(1));
    }

    #[test]
    fn parses_attrs_dims_edges_skips_residual() {
        let src = "model \"X[1]\" @blocks(3) @levels(2, 10.5) {\n\
                   dim C = 16\n\
                   input (3, 32, 32)\n\
                   layer a = conv(k=3, s=1, p=1, out=C)\n\
                   layer b = residual(project=(32, 2)) @class(1) {\n\
                     layer b0 = conv(k=3, s=2, p=1, out=32)\n\
                   }\n\
                   edge a -> b\n\
                   skip a -> b project(out=32, s=2)\n\
                   }";
        let ast = parse(src).expect("parse ok");
        assert_eq!(ast.name, "X[1]");
        assert_eq!(ast.blocks.map(|(v, _)| v), Some(3));
        assert_eq!(ast.levels.as_ref().map(|(l, _)| l.len()), Some(2));
        assert_eq!(ast.dims.len(), 1);
        assert_eq!(ast.edges.len(), 1);
        assert_eq!(ast.skips.len(), 1);
        match &ast.layers[1].op {
            OpAst::Residual { projection, body } => {
                assert!(projection.is_some());
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_carry_codes() {
        let cases: &[(&str, Code)] = &[
            ("", Code::UnexpectedEof),
            ("model", Code::UnexpectedEof),
            ("model M { layer a = spam() }", Code::UnknownOp),
            ("model M { layer a = conv(k=3) }", Code::BadParam),
            ("model M { layer a = conv(k=3, k=3, s=1, p=0, out=8) }", Code::BadParam),
            ("model M { layer a = conv(k=3, s=1, p=0, out=8, z=1) }", Code::BadParam),
            ("model M { bogus }", Code::UnexpectedToken),
            ("model M @blocks(2) @blocks(2) { }", Code::BadParam),
            ("model M { } trailing", Code::UnexpectedToken),
        ];
        for (src, want) in cases {
            let got = parse(src).expect_err("expect error").code;
            assert_eq!(got, *want, "source: {src}");
        }
    }
}
