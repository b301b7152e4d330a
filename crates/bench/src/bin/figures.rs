//! Regenerate every table and figure of the GraphMat paper as text output.
//!
//! ```text
//! cargo run -p graphmat-bench --release --bin figures -- --all
//! cargo run -p graphmat-bench --release --bin figures -- --fig4a --scale small
//! ```
//!
//! Flags: `--table1 --fig4a --fig4b --fig4c --fig4d --fig4e --table2 --table3
//! --fig5 --fig7 --kernels --all`, `--scale tiny|small|medium`, `--threads N`,
//! `--json PATH` (dump every Figure 4/Table 2 measurement as JSON, with
//! per-superstep `backend` + `frontier_density` fields so push/pull
//! direction flips are visible in the perf trajectory).

use graphmat_baselines::Framework;
use graphmat_bench::harness::{self, Algorithm, Measurement};
use graphmat_io::datasets::{self, DatasetId, DatasetScale};
use graphmat_sparse::parallel::available_threads;

struct Options {
    scale: DatasetScale,
    threads: usize,
    sections: Vec<String>,
    json_path: Option<String>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DatasetScale::Small;
    let mut threads = available_threads();
    let mut sections = Vec::new();
    let mut json_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => json_path = Some(path.clone()),
                    None => eprintln!("--json needs a file path, ignoring"),
                }
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(|s| s.as_str()) {
                    Some("tiny") => DatasetScale::Tiny,
                    Some("small") => DatasetScale::Small,
                    Some("medium") => DatasetScale::Medium,
                    Some("paper") => DatasetScale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?}, using small");
                        DatasetScale::Small
                    }
                };
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(available_threads());
            }
            "--all" => sections.push("all".to_string()),
            flag if flag.starts_with("--") => sections.push(flag[2..].to_string()),
            other => eprintln!("ignoring argument {other}"),
        }
        i += 1;
    }
    if sections.is_empty() {
        sections.push("all".to_string());
    }
    Options {
        scale,
        threads,
        sections,
        json_path,
    }
}

fn wants(opts: &Options, name: &str) -> bool {
    opts.sections.iter().any(|s| s == name || s == "all")
}

fn main() {
    let opts = parse_args();
    println!(
        "GraphMat-RS figure harness  (scale = {:?}, threads = {})",
        opts.scale, opts.threads
    );
    println!("=================================================================\n");

    if wants(&opts, "table1") {
        table1(&opts);
    }
    let mut all_measurements: Vec<Measurement> = Vec::new();
    let fig4 = [
        (
            "fig4a",
            Algorithm::PageRank,
            "Figure 4a: PageRank (time per iteration, seconds)",
        ),
        ("fig4b", Algorithm::Bfs, "Figure 4b: BFS (total seconds)"),
        (
            "fig4c",
            Algorithm::TriangleCount,
            "Figure 4c: Triangle Counting (total seconds)",
        ),
        (
            "fig4d",
            Algorithm::CollaborativeFiltering,
            "Figure 4d: Collaborative Filtering (time per iteration, seconds)",
        ),
        ("fig4e", Algorithm::Sssp, "Figure 4e: SSSP (total seconds)"),
    ];
    for (flag, alg, title) in fig4 {
        if wants(&opts, flag) || wants(&opts, "table2") || opts.json_path.is_some() {
            let measurements = harness::figure4(alg, opts.scale, opts.threads);
            if wants(&opts, flag) {
                print_figure4(title, &measurements);
            }
            all_measurements.extend(measurements);
        }
    }
    if wants(&opts, "table2") {
        table2(&all_measurements);
    }
    if wants(&opts, "table3") {
        table3(&opts);
    }
    if wants(&opts, "fig5") {
        figure5(&opts);
    }
    if wants(&opts, "fig7") {
        all_measurements.extend(figure7(&opts));
    }
    if wants(&opts, "kernels") {
        kernels(&opts);
    }
    if let Some(path) = &opts.json_path {
        // Alongside the paper-faithful push measurements, record the
        // direction-optimized engine (the default) on the
        // direction-sensitive workloads — its superstep trajectories are
        // where push→pull backend flips show up.
        for alg in [Algorithm::PageRank, Algorithm::Bfs, Algorithm::Sssp] {
            for &id in &harness::figure4_datasets(alg) {
                let edges = datasets::load(id, opts.scale);
                all_measurements.push(harness::run_graphmat_auto(
                    alg,
                    id.name(),
                    &edges,
                    opts.threads,
                ));
            }
        }
        let json = harness::measurements_to_json(&all_measurements);
        match std::fs::write(path, &json) {
            Ok(()) => println!(
                "\nWrote {} measurements ({} bytes) to {path} — each GraphMat entry carries \
                 per-superstep backend (push/pull) and frontier_density.",
                all_measurements.len(),
                json.len()
            ),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

fn table1(opts: &Options) {
    println!(
        "Table 1: datasets (synthetic stand-ins at {:?} scale)\n",
        opts.scale
    );
    let headers = vec![
        "dataset".to_string(),
        "stands in for".to_string(),
        "#vertices".to_string(),
        "#edges".to_string(),
        "max out-degree".to_string(),
        "algorithms".to_string(),
    ];
    let mut rows = Vec::new();
    for &id in DatasetId::all() {
        let (nv, ne, maxd) = if matches!(id, DatasetId::NetflixLike | DatasetId::SyntheticCf) {
            let r = datasets::load_ratings(id, opts.scale);
            let st = r.edges.stats();
            (st.num_vertices, st.num_edges, st.max_out_degree)
        } else {
            let el = datasets::load(id, opts.scale);
            let st = el.stats();
            (st.num_vertices, st.num_edges, st.max_out_degree)
        };
        rows.push(vec![
            id.name().to_string(),
            id.paper_dataset().to_string(),
            nv.to_string(),
            ne.to_string(),
            maxd.to_string(),
            id.algorithms().to_string(),
        ]);
    }
    println!("{}", harness::render_table(&headers, &rows));
}

fn print_figure4(title: &str, measurements: &[Measurement]) {
    println!("{title}\n");
    let mut datasets_order: Vec<String> = Vec::new();
    for m in measurements {
        if !datasets_order.contains(&m.dataset) {
            datasets_order.push(m.dataset.clone());
        }
    }
    let headers: Vec<String> = std::iter::once("framework".to_string())
        .chain(datasets_order.iter().cloned())
        .collect();
    let mut rows = Vec::new();
    for &fw in Framework::figure4() {
        let mut row = vec![fw.name().to_string()];
        for ds in &datasets_order {
            let cell = measurements
                .iter()
                .find(|m| m.framework == fw && &m.dataset == ds)
                .map(|m| format!("{:.4}", m.seconds))
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        rows.push(row);
    }
    println!("{}", harness::render_table(&headers, &rows));
}

fn table2(measurements: &[Measurement]) {
    println!("Table 2: geometric-mean speedup of GraphMat over other frameworks\n");
    let algorithms = [
        Algorithm::PageRank,
        Algorithm::Bfs,
        Algorithm::TriangleCount,
        Algorithm::CollaborativeFiltering,
        Algorithm::Sssp,
    ];
    let headers: Vec<String> = std::iter::once("framework".to_string())
        .chain(algorithms.iter().map(|a| a.name().to_string()))
        .chain(std::iter::once("Overall".to_string()))
        .collect();
    let mut rows = Vec::new();
    for fw in [
        Framework::GraphLabLike,
        Framework::CombBlasLike,
        Framework::GaloisLike,
    ] {
        let mut row = vec![fw.name().to_string()];
        let mut all_ratios = Vec::new();
        for alg in algorithms {
            let subset: Vec<Measurement> = measurements
                .iter()
                .filter(|m| m.algorithm == alg)
                .cloned()
                .collect();
            let speedups = harness::table2_speedups(&subset);
            let value = speedups
                .iter()
                .find(|(f, _)| *f == fw)
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            if value > 0.0 {
                all_ratios.push(value);
            }
            row.push(if value > 0.0 {
                format!("{value:.1}")
            } else {
                "-".to_string()
            });
        }
        row.push(format!("{:.1}", harness::geomean(&all_ratios)));
        rows.push(row);
    }
    println!("{}", harness::render_table(&headers, &rows));
}

fn table3(opts: &Options) {
    println!("Table 3: GraphMat slowdown vs native, hand-optimized code (geomean per algorithm)\n");
    let rows_data = harness::table3_slowdowns(opts.scale, opts.threads);
    let headers = vec!["algorithm".to_string(), "slowdown vs native".to_string()];
    let mut rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|(alg, s)| vec![alg.name().to_string(), format!("{s:.2}")])
        .collect();
    let overall = harness::geomean(&rows_data.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    rows.push(vec![
        "Overall (geomean)".to_string(),
        format!("{overall:.2}"),
    ]);
    println!("{}", harness::render_table(&headers, &rows));
}

fn figure5(opts: &Options) {
    println!("Figure 5: multicore scaling (speedup over each framework's own 1-thread run)\n");
    let max_threads = opts.threads.max(2);
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t <= max_threads {
        thread_counts.push(t);
        t *= 2;
    }
    if *thread_counts.last().unwrap() != max_threads {
        thread_counts.push(max_threads);
    }

    for (title, alg, dataset) in [
        (
            "Figure 5a: PageRank on facebook-like",
            Algorithm::PageRank,
            DatasetId::FacebookLike,
        ),
        (
            "Figure 5b: SSSP on flickr-like",
            Algorithm::Sssp,
            DatasetId::FlickrLike,
        ),
    ] {
        println!("{title}");
        let edges = datasets::load(dataset, opts.scale);
        let headers: Vec<String> = std::iter::once("framework".to_string())
            .chain(thread_counts.iter().map(|t| format!("{t} thr")))
            .collect();
        let mut rows = Vec::new();
        for &fw in Framework::figure4() {
            let series = harness::figure5_scaling(fw, alg, &edges, &thread_counts);
            let base = series[0].1;
            let mut row = vec![fw.name().to_string()];
            for (_, seconds) in &series {
                row.push(format!("{:.2}x", base / seconds.max(1e-12)));
            }
            rows.push(row);
        }
        println!("{}", harness::render_table(&headers, &rows));
    }
}

/// Prints the ablation tables and returns the rows' measurements (dataset
/// `"fig7/<row label>"`) for the `--json` dump.
fn figure7(opts: &Options) -> Vec<harness::Measurement> {
    println!("Figure 7: cumulative effect of the backend optimizations\n");
    let mut measurements = Vec::new();
    for (title, alg, dataset) in [
        (
            "PageRank / facebook-like",
            Algorithm::PageRank,
            DatasetId::FacebookLike,
        ),
        ("SSSP / flickr-like", Algorithm::Sssp, DatasetId::FlickrLike),
    ] {
        println!("{title}");
        let edges = datasets::load(dataset, opts.scale);
        let steps = harness::figure7_ablation(alg, &edges, opts.threads);
        let headers = vec![
            "configuration".to_string(),
            "seconds".to_string(),
            "cumulative speedup".to_string(),
            "pull supersteps".to_string(),
        ];
        let naive_seconds = steps[0].seconds;
        let rows: Vec<Vec<String>> = steps
            .iter()
            .map(|s| {
                vec![
                    s.dataset.trim_start_matches("fig7/").to_string(),
                    format!("{:.4}", s.seconds),
                    format!("{:.1}x", naive_seconds / s.seconds.max(1e-12)),
                    format!("{}/{}", s.pull_supersteps(), s.supersteps.len()),
                ]
            })
            .collect();
        println!("{}", harness::render_table(&headers, &rows));
        measurements.extend(steps);
    }
    measurements
}

fn kernels(opts: &Options) {
    println!("Kernel rows: generalized SpMV, median of 9 calls after a warm-up\n");
    let headers = ["kernel", "edges", "ms", "ns/edge"].map(String::from);
    let rows: Vec<Vec<String>> = harness::kernel_rows(opts.scale, opts.threads)
        .into_iter()
        .map(|(label, median, edges)| {
            vec![
                label,
                edges.to_string(),
                format!("{:.4}", median.as_secs_f64() * 1e3),
                format!("{:.2}", median.as_secs_f64() * 1e9 / edges.max(1) as f64),
            ]
        })
        .collect();
    println!("{}", harness::render_table(&headers, &rows));
}
