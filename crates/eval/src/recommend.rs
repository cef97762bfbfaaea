//! The paper's practitioner guidance as an executable API: Table 17's
//! star-rating summary and Figure 18's estimator-selection decision tree.

use relcomp_core::EstimatorKind;
use serde::{Deserialize, Serialize};

/// Star rating (1-4) as in Table 17 of the paper.
pub type Stars = u8;

/// One row of Table 17's online-query-processing block.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QueryRating {
    /// Estimator variance (more stars = lower variance).
    pub variance: Stars,
    /// Accuracy at convergence.
    pub accuracy: Stars,
    /// Online running time.
    pub running_time: Stars,
    /// Online memory footprint (more stars = smaller).
    pub memory: Stars,
}

/// Table 17 (online block) exactly as the paper prints it.
pub fn paper_query_ratings(kind: EstimatorKind) -> Option<QueryRating> {
    let r = |variance, accuracy, running_time, memory| QueryRating {
        variance,
        accuracy,
        running_time,
        memory,
    };
    Some(match kind {
        EstimatorKind::Mc => r(1, 3, 2, 4),
        EstimatorKind::BfsSharing => r(1, 3, 1, 2),
        EstimatorKind::ProbTree => r(1, 3, 3, 3),
        EstimatorKind::LpPlus => r(1, 3, 3, 4),
        EstimatorKind::Rhh => r(4, 4, 4, 1),
        EstimatorKind::Rss => r(4, 4, 4, 1),
        _ => return None,
    })
}

/// Memory-budget constraint (root of the Fig. 18 tree).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryBudget {
    /// Tight memory: recursive estimators and the BFS-Sharing index are
    /// off the table.
    Smaller,
    /// Ample memory.
    Larger,
}

/// Variance requirement (second level of Fig. 18).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarianceNeed {
    /// The lowest achievable estimator variance.
    Lower,
    /// Slightly lower than plain MC is enough.
    SlightlyLower,
    /// Plain MC-level variance is acceptable.
    Higher,
}

/// Running-time requirement (third level of Fig. 18).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpeedNeed {
    /// Query latency matters.
    Faster,
    /// Latency is not a concern.
    Slower,
}

/// Walk Figure 18's decision tree and return the recommended estimator(s)
/// for the given constraints. Empty only for contradictory demands
/// (e.g. tight memory + lowest variance — the recursive estimators are
/// the only variance reducers and they are memory-hungry).
pub fn recommend(
    memory: MemoryBudget,
    variance: VarianceNeed,
    speed: SpeedNeed,
) -> Vec<EstimatorKind> {
    match memory {
        MemoryBudget::Smaller => match variance {
            // Left subtree of Fig. 18: {MC, LP+, ProbTree}.
            VarianceNeed::Lower => Vec::new(),
            VarianceNeed::SlightlyLower => vec![EstimatorKind::ProbTree],
            VarianceNeed::Higher => match speed {
                SpeedNeed::Faster => vec![EstimatorKind::LpPlus],
                SpeedNeed::Slower => vec![EstimatorKind::Mc],
            },
        },
        MemoryBudget::Larger => match variance {
            // Right subtree: {BFS Sharing, RSS, RHH}.
            VarianceNeed::Lower => vec![EstimatorKind::Rss, EstimatorKind::Rhh],
            VarianceNeed::SlightlyLower => vec![EstimatorKind::ProbTree],
            VarianceNeed::Higher => match speed {
                SpeedNeed::Faster => vec![EstimatorKind::LpPlus, EstimatorKind::ProbTree],
                SpeedNeed::Slower => vec![EstimatorKind::BfsSharing, EstimatorKind::Mc],
            },
        },
    }
}

/// The paper's bottom-line recommendation (§4): ProbTree, for its balance
/// of accuracy, online running time, memory cost, and adaptability (its
/// estimating component can be swapped, §3.8).
pub fn overall_recommendation() -> EstimatorKind {
    EstimatorKind::ProbTree
}

/// Render Fig. 18 as indented text (for the `table17_summary` binary).
pub fn render_decision_tree() -> String {
    let mut out = String::new();
    out.push_str("Memory budget?\n");
    for (mem, label) in [
        (MemoryBudget::Smaller, "smaller"),
        (MemoryBudget::Larger, "larger"),
    ] {
        out.push_str(&format!("├─ {label}\n"));
        for (var, vlabel) in [
            (VarianceNeed::Lower, "lower variance"),
            (VarianceNeed::SlightlyLower, "slightly lower variance"),
            (VarianceNeed::Higher, "higher variance ok"),
        ] {
            for (spd, slabel) in [(SpeedNeed::Faster, "faster"), (SpeedNeed::Slower, "slower")] {
                let rec = recommend(mem, var, spd);
                if rec.is_empty() {
                    continue;
                }
                let names: Vec<&str> = rec.iter().map(|k| k.display_name()).collect();
                out.push_str(&format!(
                    "│   ├─ {vlabel}, {slabel}: {}\n",
                    names.join(", ")
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table17_rows_match_paper() {
        let rss = paper_query_ratings(EstimatorKind::Rss).unwrap();
        assert_eq!((rss.variance, rss.memory), (4, 1));
        let mc = paper_query_ratings(EstimatorKind::Mc).unwrap();
        assert_eq!((mc.variance, mc.memory), (1, 4));
        assert!(paper_query_ratings(EstimatorKind::LpOriginal).is_none());
    }

    #[test]
    fn lowest_variance_needs_memory() {
        assert!(recommend(
            MemoryBudget::Smaller,
            VarianceNeed::Lower,
            SpeedNeed::Faster
        )
        .is_empty());
        let r = recommend(MemoryBudget::Larger, VarianceNeed::Lower, SpeedNeed::Faster);
        assert_eq!(r, vec![EstimatorKind::Rss, EstimatorKind::Rhh]);
    }

    #[test]
    fn probtree_is_the_balanced_pick() {
        assert_eq!(overall_recommendation(), EstimatorKind::ProbTree);
        let r = recommend(
            MemoryBudget::Smaller,
            VarianceNeed::SlightlyLower,
            SpeedNeed::Faster,
        );
        assert_eq!(r, vec![EstimatorKind::ProbTree]);
    }

    #[test]
    fn tree_renders_all_paths() {
        let s = render_decision_tree();
        assert!(s.contains("RSS"));
        assert!(s.contains("LP+"));
        assert!(s.contains("BFS Sharing"));
    }
}
