//! Persisted artifacts are untrusted input: a hand-edited tree or
//! candidate file whose base spec overflows the cost arithmetic must be
//! refused with a typed error by the loaders, in debug and release
//! builds alike — not accepted with wrapped MACC counts, and not a panic.

use std::path::PathBuf;

use cadmc_compress::FeatureAction;
use cadmc_core::persist::{load_candidate, load_tree, PersistError};
use cadmc_core::tree::{ModelTree, TreeNode};
use cadmc_core::validate::ValidateError;
use cadmc_core::Candidate;
use cadmc_nn::{LayerSpec, ModelSpec, Shape};

/// Input `1048576x1024x1024` (exactly the 2^40-element cap) into one
/// `conv(k=1, out=16777216)`: the output tensor holds 2^44 elements and
/// the layer costs 2^64 MACCs, which wraps a `u64` to 0.
const FORGED: &str = r#"{"name":"forged","input":{"c":1048576,"h":1024,"w":1024},"layers":[{"Conv2d":{"kernel":1,"stride":1,"pad":0,"out_channels":16777216}}],"shapes":[{"c":16777216,"h":1024,"w":1024}],"cache":null}"#;

/// A small spec with the forged one's structure, whose compact JSON is
/// swapped for [`FORGED`] inside a saved artifact.
fn stand_in() -> ModelSpec {
    ModelSpec::new("forged", Shape::new(1, 1, 1), vec![LayerSpec::conv(1, 1, 0, 1)])
        .expect("valid stand-in")
}

fn write_forged(name: &str, artifact_json: &str) -> PathBuf {
    let genuine = serde_json::to_string(&stand_in()).expect("serialize");
    assert!(artifact_json.contains(&genuine), "stand-in spec not found");
    let path = std::env::temp_dir().join(format!(
        "cadmc-persist-hostile-{}-{name}.json",
        std::process::id()
    ));
    std::fs::write(&path, artifact_json.replace(&genuine, FORGED)).expect("write");
    path
}

fn assert_rejected_at_layer_0(result: Result<impl std::fmt::Debug, PersistError>) {
    match result {
        Err(PersistError::Invalid(ValidateError::ShapeInconsistent { layer, detail, .. })) => {
            assert_eq!(layer, 0);
            assert_eq!(
                detail,
                "tensor 16777216x1024x1024 exceeds the 1099511627776-element cap"
            );
        }
        other => panic!("expected PersistError::Invalid, got {other:?}"),
    }
}

#[test]
fn forged_spec_deserializes_so_the_loaders_must_refuse_it() {
    let spec: ModelSpec = serde_json::from_str(FORGED).expect("well-formed JSON spec");
    assert_eq!(spec.input_shape(), Shape::new(1 << 20, 1 << 10, 1 << 10));
    assert!(spec.recheck().is_err());
}

#[test]
fn forged_candidate_is_invalid() {
    let candidate = Candidate::base_all_edge(&stand_in());
    let json = serde_json::to_string(&candidate).expect("serialize");
    let path = write_forged("candidate", &json);
    let result = load_candidate(&path);
    let _ = std::fs::remove_file(&path);
    assert_rejected_at_layer_0(result);
}

#[test]
fn forged_tree_base_is_invalid() {
    // A one-block tree whose single root leaf is otherwise well formed.
    let mut tree = ModelTree::new(stand_in(), 1, vec![2.0]);
    tree.push_node(
        None,
        TreeNode {
            level: 0,
            partition_abs: None,
            actions: Vec::new(),
            feature: FeatureAction::IDENTITY,
            children: Vec::new(),
            reward: 0.0,
        },
    );
    let json = serde_json::to_string(&tree).expect("serialize");
    let path = write_forged("tree", &json);
    let result = load_tree(&path);
    let _ = std::fs::remove_file(&path);
    assert_rejected_at_layer_0(result);
}
