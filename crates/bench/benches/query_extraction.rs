//! ProbTree online costs: query-graph extraction (the overhead Algorithm 8
//! pays before the coupled estimators start) and a whole served ProbTree+MC
//! query, which samples on the index in place with no extraction. Plus
//! BFS-Sharing index refresh (Table 15).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp_core::bfs_sharing::BfsSharingIndex;
use relcomp_core::probtree::{ProbTree, ProbTreeIndex};
use relcomp_core::Estimator;
use relcomp_eval::Workload;
use relcomp_ugraph::Dataset;
use std::sync::Arc;

fn bench_query_extraction(c: &mut Criterion) {
    let graph = Arc::new(Dataset::LastFm.generate_with_scale(0.2, 42));
    let workload = Workload::generate(&graph, 8, 2, 7);
    let index = ProbTreeIndex::build(Arc::clone(&graph));

    let mut group = c.benchmark_group("online_overheads");
    group.sample_size(20);
    group.bench_function("probtree_extract_query_graph", |b| {
        b.iter(|| {
            let mut nodes = 0usize;
            for &(s, t) in &workload.pairs {
                nodes += index.extract_query_graph(s, t).graph.num_nodes();
            }
            nodes
        })
    });

    let mut probtree = ProbTree::new(Arc::clone(&graph));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    group.bench_function("probtree_query_k1000", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for &(s, t) in &workload.pairs {
                sum += probtree.estimate(s, t, 1000, &mut rng).reliability;
            }
            sum
        })
    });

    let mut bfss = BfsSharingIndex::build(&graph, 1000, &mut rng);
    group.bench_function("bfs_sharing_refresh_l1000", |b| {
        b.iter(|| bfss.resample(&graph, &mut rng))
    });
    group.finish();
}

criterion_group!(benches, bench_query_extraction);
criterion_main!(benches);
