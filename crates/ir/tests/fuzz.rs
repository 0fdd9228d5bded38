//! Never-panic property: `check_source` must lex, parse and analyze
//! *arbitrary* input — raw bytes and grammar-adjacent token soup alike —
//! without panicking. Every failure mode is a diagnostic, not an unwind.

use proptest::prelude::*;

/// Vocabulary-biased fragments: far more likely than raw bytes to get
/// deep into the parser and analyzer before failing.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("model".to_string()),
        Just("dim".to_string()),
        Just("input".to_string()),
        Just("layer".to_string()),
        Just("edge".to_string()),
        Just("skip".to_string()),
        Just("conv".to_string()),
        Just("dwconv".to_string()),
        Just("maxpool".to_string()),
        Just("gap".to_string()),
        Just("flatten".to_string()),
        Just("fc".to_string()),
        Just("batchnorm".to_string()),
        Just("dropout".to_string()),
        Just("fire".to_string()),
        Just("invres".to_string()),
        Just("residual".to_string()),
        Just("project".to_string()),
        Just("@class".to_string()),
        Just("@blocks".to_string()),
        Just("@levels".to_string()),
        Just("->".to_string()),
        Just("=".to_string()),
        Just(",".to_string()),
        Just("(".to_string()),
        Just(")".to_string()),
        Just("{".to_string()),
        Just("}".to_string()),
        Just("\"".to_string()),
        Just("#".to_string()),
        Just("\n".to_string()),
        Just("k".to_string()),
        Just("s".to_string()),
        Just("p".to_string()),
        Just("out".to_string()),
        Just("a".to_string()),
        Just("b".to_string()),
        (0u64..=20_000_000).prop_map(|n| n.to_string()),
        (0.0f64..100.0).prop_map(|f| format!("{f:.2}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded) never panic the pipeline.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = cadmc_ir::check_source(&src);
    }

    /// Token soup from the IR vocabulary never panics, and whenever it
    /// yields a model the canonical emission re-checks clean.
    #[test]
    fn token_soup_never_panics(parts in proptest::collection::vec(fragment(), 0..120)) {
        let src = parts.join(" ");
        let out = cadmc_ir::check_source(&src);
        if let Some(model) = out.model {
            let emitted = cadmc_ir::emit_model(model.spec());
            let again = cadmc_ir::check_source(&emitted);
            prop_assert!(
                again.model.is_some(),
                "canonical emission of an accepted model failed to re-check:\n{emitted}"
            );
        }
    }
}

/// `depth` residual blocks, each the sole layer of its parent's body,
/// around a single `dropout`.
fn nested_residuals(depth: usize) -> String {
    let mut src = String::from("model M {\n  input (3, 8, 8)\n");
    for i in 0..depth {
        src.push_str(&format!("layer r{i} = residual {{\n"));
    }
    src.push_str("layer d = dropout\n");
    src.push_str(&"}\n".repeat(depth));
    src.push('}');
    src
}

/// Residual nesting is capped in the parser: 20,000 levels (about
/// 460 KB of source) used to recurse until the stack overflowed.
#[test]
fn deeply_nested_residuals_are_a_diagnostic_not_a_stack_overflow() {
    let limit = cadmc_ir::parser::MAX_RESIDUAL_DEPTH;
    let src = nested_residuals(20_000);
    let out = cadmc_ir::check_source(&src);
    assert!(out.model.is_none());
    let [diag] = &out.diagnostics[..] else {
        panic!("expected one diagnostic, got {:?}", out.diagnostics);
    };
    assert_eq!(diag.code, cadmc_ir::Code::UnexpectedToken);
    assert!(diag.message.contains(&limit.to_string()), "{}", diag.message);
    // Reported at the `layer` token one level past the limit.
    let offending = src.find(&format!("layer r{} ", limit + 1)).expect("layer");
    assert_eq!(diag.span.start, offending);

    // Exactly at the limit the model still checks (with warnings only);
    // one level more is the same syntax error.
    let at_limit = cadmc_ir::check_source(&nested_residuals(limit));
    assert!(at_limit.model.is_some(), "{:?}", at_limit.diagnostics);
    let past = cadmc_ir::check_source(&nested_residuals(limit + 1));
    assert!(past.model.is_none());
    assert!(past
        .diagnostics
        .iter()
        .any(|d| d.code == cadmc_ir::Code::UnexpectedToken));
}

/// The file path and the IR path enforce one bound: the spec a persisted
/// artifact may not carry (its conv output holds 2^44 elements and costs
/// 2^64 MACCs) is IR303 as source, with the message the loaders report.
#[test]
fn persisted_and_ir_paths_share_one_bound() {
    let src = "model forged {\n  input (1048576, 1024, 1024)\n\
               layer c = conv(k=1, s=1, p=0, out=16777216) @class(0)\n}\n";
    let out = cadmc_ir::check_source(src);
    assert!(out.model.is_none());
    let [diag] = &out.diagnostics[..] else {
        panic!("expected one diagnostic, got {:?}", out.diagnostics);
    };
    assert_eq!(diag.code, cadmc_ir::Code::CostOverflow);
    assert_eq!(
        diag.message,
        "tensor 16777216x1024x1024 exceeds the 1099511627776-element cap"
    );

    let json = r#"{"name":"forged","input":{"c":1048576,"h":1024,"w":1024},"layers":[{"Conv2d":{"kernel":1,"stride":1,"pad":0,"out_channels":16777216}}],"shapes":[{"c":16777216,"h":1024,"w":1024}],"cache":null}"#;
    let spec: cadmc_nn::ModelSpec = serde_json::from_str(json).expect("well-formed spec");
    let err = cadmc_core::validate::model_spec(&spec).expect_err("over the cap");
    assert!(err.to_string().ends_with(&diag.message), "{err}");
}
