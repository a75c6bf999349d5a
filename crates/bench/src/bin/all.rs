//! Regenerates every table and figure from a single evaluation matrix
//! (the cheapest way to reproduce the whole evaluation section).

use taopt::experiments::{
    behavior_rows, evaluation_matrix, fig3_rows, savings_rows, table1_histogram, table2_rows,
    table4_rows, table6_rows,
};
use taopt::report::{pct, times, TextTable};
use taopt_bench::{load_apps, HarnessArgs};
use taopt_tools::ToolKind;

fn main() {
    let args = HarnessArgs::parse();
    let apps = load_apps(args.n_apps);
    eprintln!(
        "all: {} apps, {} instances, {} per run, seed {}",
        apps.len(),
        args.scale.instances,
        args.scale.duration,
        args.seed
    );
    let t0 = std::time::Instant::now();
    let matrix = evaluation_matrix(&apps, &args.scale, args.seed);
    eprintln!(
        "matrix of {} sessions in {:.1?}s",
        matrix.len(),
        t0.elapsed().as_secs_f64()
    );

    // ----- Figure 3 -----
    println!("\n===== Figure 3: baseline AJS over time =====");
    for (tool, curve) in fig3_rows(&matrix) {
        let pts: Vec<String> = curve.iter().map(|(t, v)| format!("{t}s:{v:.2}")).collect();
        println!("{:<9} {}", tool.name(), pts.join(" "));
    }

    // ----- Table 1 -----
    println!("\n===== Table 1: subspace exploration overlap =====");
    let hist = table1_histogram(&matrix);
    let total: usize = hist.values().sum();
    for k in 1..=args.scale.instances {
        let n = hist.get(&k).copied().unwrap_or(0);
        println!(
            "  {k}/{}: {n} ({:.0}%)",
            args.scale.instances,
            if total > 0 {
                100.0 * n as f64 / total as f64
            } else {
                0.0
            }
        );
    }

    // ----- Table 4 / Table 5 -----
    println!("\n===== Table 4: cumulative coverage / Table 5: crashes =====");
    let rows = table4_rows(&matrix);
    let mut cov_sums = [[0usize; 3]; 3];
    let mut crash_sums = [[0usize; 3]; 3];
    let mut positive = 0;
    let mut cells = 0;
    for r in &rows {
        for tool in 0..3 {
            for mode in 0..3 {
                cov_sums[tool][mode] += r.coverage[tool][mode];
                crash_sums[tool][mode] += r.crashes[tool][mode];
                if mode > 0 {
                    cells += 1;
                    if r.coverage[tool][mode] >= r.coverage[tool][0] {
                        positive += 1;
                    }
                }
            }
        }
    }
    let mut t4 = TextTable::new(["Tool", "Baseline", "TaOPT(D)", "TaOPT(R)", "crashes B/D/R"]);
    for (ti, tool) in ToolKind::ALL.into_iter().enumerate() {
        let n = rows.len().max(1);
        t4.row([
            tool.name().to_owned(),
            (cov_sums[ti][0] / n).to_string(),
            format!(
                "{} ({})",
                cov_sums[ti][1] / n,
                pct(cov_sums[ti][1] as f64 / cov_sums[ti][0].max(1) as f64 - 1.0)
            ),
            format!(
                "{} ({})",
                cov_sums[ti][2] / n,
                pct(cov_sums[ti][2] as f64 / cov_sums[ti][0].max(1) as f64 - 1.0)
            ),
            format!(
                "{}/{}/{}",
                crash_sums[ti][0], crash_sums[ti][1], crash_sums[ti][2]
            ),
        ]);
    }
    print!("{}", t4.render());
    println!("coverage cells improving: {positive}/{cells} (paper: 81.5%)");
    let cb: usize = (0..3).map(|t| crash_sums[t][0]).sum();
    let cd: usize = (0..3).map(|t| crash_sums[t][1]).sum();
    let cr: usize = (0..3).map(|t| crash_sums[t][2]).sum();
    println!(
        "crash totals: {cb} -> {cd} ({}) duration, {cr} ({}) resource",
        times(cd as f64 / cb.max(1) as f64),
        times(cr as f64 / cb.max(1) as f64)
    );

    // ----- Table 6 -----
    println!("\n===== Table 6: UI overlap (avg occurrences of distinct UIs) =====");
    let rows6 = table6_rows(&matrix);
    for (ti, tool) in ToolKind::ALL.into_iter().enumerate() {
        let n = rows6.len().max(1) as f64;
        let base: f64 = rows6.iter().map(|r| r.occurrences[ti][0]).sum::<f64>() / n;
        let dur: f64 = rows6.iter().map(|r| r.occurrences[ti][1]).sum::<f64>() / n;
        let res: f64 = rows6.iter().map(|r| r.occurrences[ti][2]).sum::<f64>() / n;
        println!(
            "  {:<9} baseline {base:.1}, duration {dur:.1} (-{:.1}%), resource {res:.1} (-{:.1}%)",
            tool.name(),
            100.0 * (1.0 - dur / base.max(1e-9)),
            100.0 * (1.0 - res / base.max(1e-9)),
        );
    }

    // ----- Figures 5 and 6 -----
    println!("\n===== Figures 5/6: duration and machine time saved =====");
    let srows = savings_rows(&matrix, &args.scale);
    for tool in ToolKind::ALL {
        let rs: Vec<_> = srows.iter().filter(|r| r.tool == tool).collect();
        let n = rs.len().max(1) as f64;
        println!(
            "  {:<9} duration saved {:.1}%/{:.1}%  machine saved {:.1}%/{:.1}% (D/R modes)",
            tool.name(),
            100.0
                * rs.iter()
                    .map(|r| r.duration_saved_duration_mode)
                    .sum::<f64>()
                / n,
            100.0
                * rs.iter()
                    .map(|r| r.duration_saved_resource_mode)
                    .sum::<f64>()
                / n,
            100.0
                * rs.iter()
                    .map(|r| r.resource_saved_duration_mode)
                    .sum::<f64>()
                / n,
            100.0
                * rs.iter()
                    .map(|r| r.resource_saved_resource_mode)
                    .sum::<f64>()
                / n,
        );
    }

    // ----- RQ5 behaviour preservation -----
    println!("\n===== RQ5 behaviour preservation =====");
    for b in behavior_rows(&matrix) {
        println!(
            "  {:<9} {:<17} Jaccard {:.2}, baseline-only missed {:.1}%",
            b.tool.name(),
            b.mode.label(),
            b.jaccard,
            100.0 * b.missed_fraction
        );
    }

    // ----- Table 2 (extra sessions) -----
    println!("\n===== Table 2: activity partitioning (WCTester) =====");
    let rows2 = table2_rows(&apps, &args.scale, args.seed);
    let base: usize = rows2.iter().map(|r| r.baseline).sum();
    let part: usize = rows2.iter().map(|r| r.parallel).sum();
    let hurt = rows2.iter().filter(|r| r.parallel < r.baseline).count();
    for r in &rows2 {
        println!(
            "  {:<18} {:>7} -> {:>7} ({})",
            r.app,
            r.baseline,
            r.parallel,
            pct(r.relative_improvement())
        );
    }
    println!(
        "  average {} (paper: -28.5%), hurts {hurt}/{} apps (paper: 89%)",
        pct(part as f64 / base.max(1) as f64 - 1.0),
        rows2.len()
    );
}
