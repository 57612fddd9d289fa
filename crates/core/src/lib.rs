//! # tao
//!
//! TAO: tolerance-aware optimistic verification for floating-point neural
//! networks — the end-to-end runtime tying together the tensor/device/graph
//! substrates, the dual error models, calibration, commitments, the
//! dispute protocol and the attack suite.
//!
//! The runtime is organized around *session handles*: a [`Deployment`] is
//! a cheaply cloneable `Arc` over the Phase 0 artifacts, a
//! [`SessionBuilder`] configures one verification session over it, and the
//! resulting [`Session`] is driven phase by phase (`submit` → `screen` →
//! `dispute` → `settle`) or in one shot via [`SessionBuilder::run`]. Many
//! sessions run concurrently over one coordinator with the [`Scheduler`].
//!
//! # Quickstart
//!
//! ```
//! use tao::{deploy, default_coordinator, SessionBuilder, SharedCoordinator};
//! use tao_device::Fleet;
//! use tao_models::{bert, data, BertConfig};
//!
//! // Phase 0: trace, calibrate and commit a model.
//! let cfg = BertConfig { layers: 1, ..BertConfig::small() };
//! let model = bert::build(cfg, 1);
//! let samples = data::token_dataset(4, cfg.seq, cfg.vocab, 7);
//! let deployment = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
//!
//! // Phases 1-3: an honest run finalizes unchallenged.
//! let coordinator = SharedCoordinator::new(default_coordinator().unwrap());
//! let inputs = vec![bert::sample_ids(cfg, 42)];
//! let report = SessionBuilder::new(&deployment, inputs)
//!     .run(&coordinator)
//!     .unwrap();
//! assert!(report.proposer_prevailed());
//! ```

pub mod analyze;
pub mod deploy;
pub mod error;
pub mod schedule;
pub mod session;
pub mod verify;

pub use analyze::{analyze_model, build_model, render_report, MODEL_NAMES};
pub use deploy::{deploy, deploy_with, Deployment, DeploymentArtifacts};
pub use error::TaoError;
pub use schedule::Scheduler;
pub use session::{
    default_coordinator, PendingSession, ProposerBehavior, Session, SessionBuilder, SessionConfig,
    SessionReport, SharedCoordinator,
};
pub use verify::{make_receipt, verify_receipt, Receipt};

// Re-export the sub-crates so downstream users need a single dependency.
pub use tao_analysis as analysis;
pub use tao_attack as attack;
pub use tao_bounds as bounds;
pub use tao_calib as calib;
pub use tao_device as device;
pub use tao_graph as graph;
pub use tao_merkle as merkle;
pub use tao_models as models;
pub use tao_protocol as protocol;
pub use tao_tensor as tensor;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, TaoError>;
