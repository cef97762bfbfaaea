//! Recursive (divide-and-conquer) estimators: RHH (§2.4) and RSS (§2.5).
//!
//! Both methods partition the possible-world space by fixing the status of
//! selected edges — a *prefix group* `G(E1, E2)` contains every world that
//! includes all of `E1` and none of `E2` (Eq. 6-9) — and recurse with sample
//! budgets allocated proportionally to group probabilities, which provably
//! reduces estimator variance below plain MC.
//!
//! The shared [`state::RecState`] tracks the inclusion/exclusion overlay
//! with a LIFO undo log, the set of nodes reached from `s` through
//! included edges, the cut check, and the conditional MC fallback used
//! below the sample-size threshold.

pub mod rhh;
pub mod rss;
pub(crate) mod state;

pub use rhh::RecursiveSampling;
pub use rss::RecursiveStratified;
