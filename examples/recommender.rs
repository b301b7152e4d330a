//! Train a recommender by collaborative filtering on a synthetic
//! Netflix-like ratings graph (the paper's Figure 4d workload), then use the
//! learned latent factors to produce recommendations for one user.
//!
//! Collaborative filtering scatters along **both** edge directions, so its
//! first run derives the in-edge matrix `G` from the topology's stored `Gᵀ`.
//!
//! ```text
//! cargo run --release --example recommender
//! ```

use graphmat::io::bipartite;
use graphmat::prelude::*;

fn main() -> Result<(), GraphMatError> {
    // A bipartite ratings graph: 5 000 users × 400 items, 120 000 ratings,
    // with the skewed item popularity of real ratings data.
    let ratings = bipartite::generate(&BipartiteConfig {
        num_users: 5_000,
        num_items: 400,
        num_ratings: 120_000,
        ..Default::default()
    });
    println!(
        "ratings graph: {} users, {} items, {} ratings",
        ratings.num_users,
        ratings.num_items,
        ratings.edges.num_edges()
    );

    // One resident bipartite matrix; both the untrained snapshot and the
    // training run query it through the session.
    let session = Session::with_defaults()?;
    let topo = session.build_graph(&ratings.edges).finish()?;

    // Factorise with gradient descent (the paper's GD formulation, eqs. 4–6),
    // 16 latent features per user and item.
    let config = CfConfig {
        iterations: 25,
        ..Default::default()
    };
    let untrained = collaborative_filtering_on::<16, _>(
        &session,
        &topo,
        &CfConfig {
            iterations: 0,
            ..config
        },
    )?;
    let trained = collaborative_filtering_on::<16, _>(&session, &topo, &config)?;

    println!(
        "RMSE before training: {:.4}",
        rmse(&ratings.edges, &untrained.values)
    );
    println!(
        "RMSE after  training: {:.4}   ({} GD iterations, {:.1} ms/iteration)",
        rmse(&ratings.edges, &trained.values),
        trained.stats.iterations,
        trained.stats.total_time.as_secs_f64() * 1000.0 / trained.stats.iterations.max(1) as f64
    );

    // Recommend unseen items for one user: highest predicted rating wins.
    let user = 42u32;
    let seen: Vec<u32> = ratings
        .edges
        .edges()
        .iter()
        .filter(|&&(u, _, _)| u == user)
        .map(|&(_, item, _)| item)
        .collect();
    let mut predictions: Vec<(u32, f64)> = (ratings.num_users
        ..ratings.num_users + ratings.num_items)
        .filter(|item| !seen.contains(item))
        .map(|item| {
            let score: f64 = trained.values[user as usize]
                .iter()
                .zip(trained.values[item as usize].iter())
                .map(|(a, b)| a * b)
                .sum();
            (item, score)
        })
        .collect();
    predictions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!(
        "user {user} has rated {} items; top 5 recommendations:",
        seen.len()
    );
    for (item, score) in predictions.iter().take(5) {
        println!(
            "  item {:>5}  predicted rating {score:.2}",
            item - ratings.num_users
        );
    }
    Ok(())
}
