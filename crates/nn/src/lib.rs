//! # cadmc-nn
//!
//! The DNN substrate for the `cadmc` reproduction of *Context-Aware Deep
//! Model Compression for Edge Cloud Computing* (ICDCS 2020).
//!
//! Three layers of fidelity:
//!
//! 1. **Specs** — [`LayerSpec`] / [`ModelSpec`] mirror the paper's Eq. 1
//!    hyper-parameter encoding `(l, k, s, p, n)` and its MACC cost model
//!    (Eqs. 4–5). Everything the search engine manipulates is a spec.
//! 2. **Zoo** — [`zoo`] provides the paper's base models (VGG11 / AlexNet
//!    at CIFAR scale, VGG19 / ResNet-50/101/152 at 224×224 for Table 1).
//! 3. **Runtime** — [`runtime::RuntimeModel`] compiles small specs into
//!    actually-trainable networks over `cadmc-autodiff`, with
//!    [`trainer::distill`] implementing the paper's knowledge-distillation
//!    fine-tuning on the [`dataset`] synthetic task.
//!
//! ## Example
//!
//! ```
//! use cadmc_nn::zoo;
//!
//! let vgg = zoo::vgg11_cifar();
//! println!("{vgg}");
//! assert_eq!(vgg.blocks(3).len(), 3); // the paper's N = 3 blocks
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod graph;
mod layer;
mod model;
mod proptests;
pub mod runtime;
pub mod trainer;
pub mod zoo;

pub use layer::{CheckedWalk, LayerCost, LayerSpec, Shape, ShapeError, MAX_COST, MAX_ELEMENTS};
pub use model::{ClassSums, ModelSpec};
