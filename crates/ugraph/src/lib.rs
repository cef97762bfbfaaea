//! # relcomp-ugraph — uncertain graph substrate
//!
//! Data structures and utilities for *uncertain graphs*: directed graphs
//! whose edges carry an independent existence probability in `(0, 1]`
//! (possible-world semantics). This crate is the substrate beneath the
//! s-t reliability estimators in `relcomp-core`, reproducing the setting of
//! *"An In-Depth Comparison of s-t Reliability Algorithms over Uncertain
//! Graphs"* (VLDB 2019).
//!
//! ## Quick tour
//!
//! ```
//! use relcomp_ugraph::{GraphBuilder, NodeId};
//!
//! // 0 -> 1 -> 2, each edge present with probability 0.5
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
//! b.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
//! let g = b.build();
//! assert_eq!(g.num_edges(), 2);
//!
//! // Exact reliability of the chain is 0.25: both edges must exist.
//! use relcomp_ugraph::possible_world::enumerate_worlds;
//! let r: f64 = enumerate_worlds(&g)
//!     .filter(|w| w.reaches(&g, NodeId(0), NodeId(2)))
//!     .map(|w| w.probability(&g))
//!     .sum();
//! assert!((r - 0.25).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![allow(rustdoc::private_intra_doc_links)]

pub mod analysis;
pub mod builder;
pub mod datasets;
pub mod error;
pub mod format;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod io;
pub mod mmap;
pub mod possible_world;
pub mod probability;
pub mod probmodel;
pub mod stats;
pub mod storage;
pub mod traversal;
pub mod update;

pub use builder::{DuplicatePolicy, GraphBuilder};
pub use datasets::{Dataset, DatasetProperties, DatasetSpec};
pub use error::GraphError;
pub use format::{load_graph_v2, load_graph_v2_heap, write_graph_v2};
pub use graph::UncertainGraph;
pub use ids::{EdgeId, NodeId};
pub use io::{detect_format, load_graph_auto, GraphFormat, LoadReport};
pub use probability::{Probability, ProbabilityError};
pub use storage::EdgeStorage;
pub use update::EdgeUpdate;
