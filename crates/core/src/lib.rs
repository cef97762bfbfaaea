//! # relcomp-core — six s-t reliability estimators over uncertain graphs
//!
//! From-scratch Rust implementations of the six state-of-the-art
//! estimators compared in *"An In-Depth Comparison of s-t Reliability
//! Algorithms over Uncertain Graphs"* (VLDB 2019), in one code base with a
//! common interface, identical measurement hooks, and the paper's
//! corrections applied:
//!
//! | Estimator | Module | Paper § |
//! |---|---|---|
//! | Monte Carlo sampling | [`mc`] | 2.2 |
//! | BFS Sharing (bit-vector index) | [`bfs_sharing`] | 2.3 |
//! | Recursive sampling (RHH) | [`recursive::rhh`] | 2.4 |
//! | Recursive stratified sampling (RSS) | [`recursive::rss`] | 2.5 |
//! | Lazy propagation (LP and corrected LP+) | [`lazy`] | 2.6 |
//! | ProbTree FWD index (+ estimator couplings) | [`probtree`] | 2.7, 3.8 |
//!
//! Plus an exact possible-world-enumeration oracle ([`exact`]) used to
//! validate every estimator in tests.
//!
//! ```
//! use relcomp_core::{Estimator, mc::McSampling};
//! use relcomp_ugraph::{GraphBuilder, NodeId};
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
//! b.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
//! let g = Arc::new(b.build());
//!
//! let mut mc = McSampling::new(g);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let est = mc.estimate(NodeId(0), NodeId(2), 10_000, &mut rng);
//! assert!((est.reliability - 0.81).abs() < 0.02);
//! ```

#![warn(missing_docs)]

pub mod bfs_sharing;
pub mod bounds;
pub mod distance_constrained;
pub mod estimator;
pub mod exact;
pub mod lazy;
pub mod maximize;
pub mod mc;
pub mod memory;
pub mod metrics;
pub mod packed;
pub mod parallel;
pub mod paths;
pub mod probtree;
pub mod recursive;
pub mod sampler;
pub mod session;
pub mod suite;
pub mod topk;

pub use estimator::{Estimate, Estimator, UpdateOutcome};
pub use maximize::{maximize, MaximizeOptions, MaximizeResult};
pub use packed::{PackedMcSampling, PackedWorkspace};
pub use parallel::ParallelSampler;
pub use session::{Convergence, EstimationSession, SampleBudget, StopReason};
pub use suite::{build_estimator, EstimatorKind, SuiteParams};
