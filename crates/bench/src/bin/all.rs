//! Regenerates every table and figure of the evaluation (§3 and §6) from
//! one evaluation matrix: Figure 3, Table 1, Table 2, Figure 5, Figure 6,
//! Table 4, Table 5, RQ5 behaviour preservation and Table 6, in that order,
//! on stdout and separated by an empty line. Progress goes to stderr.

use std::ops::AddAssign;
use std::sync::Arc;

use taopt::experiments::{
    behavior_rows, evaluation_matrix, fig3_rows, non_parallel_control, savings_rows,
    table1_histogram, table2_rows, table4_rows, table6_rows, CoverageRow, RunSummary, SavingsRow,
};
use taopt::report::{pct, times, TextTable};
use taopt::session::RunMode;
use taopt_bench::{load_apps, HarnessArgs, NamedApp};
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
    let savings = savings_rows(&matrix, &args.scale);
    let coverage = table4_rows(&matrix);

    fig3(&matrix);
    println!();
    table1(&matrix, args.scale.instances);
    println!();
    table2(&apps, &args);
    println!();
    savings_figure(
        &format!(
            "Figure 5: testing duration saved by TaOPT (% of the {} budget)",
            args.scale.duration
        ),
        "duration",
        "paper duration mode: 64.0% Mon, 48% Ape, 41.0% WCT",
        &savings,
        |r| {
            [
                r.duration_saved_duration_mode,
                r.duration_saved_resource_mode,
            ]
        },
    );
    println!();
    savings_figure(
        "Figure 6: machine time saved by TaOPT (% of the baseline machine budget)",
        "machine time",
        "paper: 64.6/65.9 Mon, 48.9/50.1 Ape, 42.5/47.6 WCT",
        &savings,
        |r| {
            [
                r.resource_saved_duration_mode,
                r.resource_saved_resource_mode,
            ]
        },
    );
    non_parallel(&apps, &matrix, &args);
    println!();
    table4(&coverage);
    println!();
    table5(&coverage);
    println!();
    behavior(&matrix);
    println!();
    table6(&matrix);
}

/// Figure 3: AJS of the methods covered by baseline instances over time.
fn fig3(matrix: &[RunSummary]) {
    let rows = fig3_rows(matrix);
    println!("Figure 3: AJS of covered methods across instances (baseline runs)");
    let mut table = TextTable::new(["Time (s)", "Monkey", "Ape", "WCTester"]);
    if let Some((_, first)) = rows.first() {
        for (i, (t, _)) in first.iter().enumerate() {
            let cells: Vec<String> = std::iter::once(t.to_string())
                .chain(rows.iter().map(|(_, curve)| format!("{:.3}", curve[i].1)))
                .collect();
            table.row(cells);
        }
    }
    print!("{}", table.render());
    for (tool, curve) in &rows {
        let first = curve.first().map(|(_, v)| *v).unwrap_or(0.0);
        let last = curve.last().map(|(_, v)| *v).unwrap_or(0.0);
        println!(
            "{}: AJS {:.2} -> {:.2} ({})",
            tool.name(),
            first,
            last,
            if last > first {
                "rising, as in the paper"
            } else {
                "flat/declining"
            }
        );
    }
}

/// Table 1: how many baseline instances explored each offline subspace.
fn table1(matrix: &[RunSummary], instances: usize) {
    let histogram = table1_histogram(matrix);
    let total: usize = histogram.values().sum();
    let share = |n: usize| {
        if total > 0 {
            100.0 * n as f64 / total as f64
        } else {
            0.0
        }
    };
    println!("Table 1: overlaps of UI subspace exploration (baseline runs)");
    let mut table = TextTable::new(["Overlap freq.", "# of subspaces", "share"]);
    for k in 1..=instances {
        let n = histogram.get(&k).copied().unwrap_or(0);
        table.row([
            format!("{k}/{instances}"),
            n.to_string(),
            format!("{:.0}%", share(n)),
        ]);
    }
    print!("{}", table.render());
    let multi: usize = histogram.range(2..).map(|(_, v)| v).sum();
    println!(
        "total {total} subspaces; {multi} ({:.0}%) explored by more than one instance \
         (paper: 97%), {} by all instances (paper: 36%)",
        share(multi),
        histogram.get(&instances).copied().unwrap_or(0),
    );
}

/// Table 2: WCTester under activity partitioning vs. the parallel baseline
/// (its own sessions, outside the matrix).
fn table2(apps: &[NamedApp], args: &HarnessArgs) {
    let rows = table2_rows(apps, &args.scale, args.seed);
    println!("Table 2: method coverage of WCTester under activity partitioning");
    let mut table = TextTable::new(["App Name", "Baseline", "Parallel", "Rel. Improve."]);
    for r in &rows {
        table.row([
            r.app.clone(),
            r.baseline.to_string(),
            r.parallel.to_string(),
            pct(r.relative_improvement()),
        ]);
    }
    let base_sum: usize = rows.iter().map(|r| r.baseline).sum();
    let part_sum: usize = rows.iter().map(|r| r.parallel).sum();
    let n = rows.len().max(1);
    table.row([
        "Average".to_owned(),
        (base_sum / n).to_string(),
        (part_sum / n).to_string(),
        pct(part_sum as f64 / base_sum.max(1) as f64 - 1.0),
    ]);
    print!("{}", table.render());
    println!(
        "activity partitioning reduces coverage on {}/{} apps \
         (paper: 89% of apps, -28.5% average)",
        rows.iter().filter(|r| r.parallel < r.baseline).count(),
        rows.len()
    );
}

/// Figures 5 and 6: the `saved` fractions (duration mode, resource mode)
/// per app and tool, then each tool's means.
fn savings_figure(
    title: &str,
    what: &str,
    paper: &str,
    rows: &[SavingsRow],
    saved: impl Fn(&SavingsRow) -> [f64; 2],
) {
    println!("{title}");
    let mut table = TextTable::new(["App", "Tool", "Duration mode", "Resource mode"]);
    for r in rows {
        let [dur, res] = saved(r);
        table.row([
            r.app.clone(),
            r.tool.name().to_owned(),
            format!("{:.1}%", 100.0 * dur),
            format!("{:.1}%", 100.0 * res),
        ]);
    }
    print!("{}", table.render());
    for tool in ToolKind::ALL {
        let rs: Vec<[f64; 2]> = rows.iter().filter(|r| r.tool == tool).map(&saved).collect();
        let n = rs.len().max(1) as f64;
        let dur = rs.iter().map(|s| s[0]).sum::<f64>() / n;
        let res = rs.iter().map(|s| s[1]).sum::<f64>() / n;
        println!(
            "{}: mean {what} saved {:.1}% (duration mode), {:.1}% (resource mode) ({paper})",
            tool.name(),
            100.0 * dur,
            100.0 * res
        );
    }
}

/// The end of Figure 6: RQ4's non-parallel control, one instance running
/// the whole machine budget on the first app.
fn non_parallel(apps: &[NamedApp], matrix: &[RunSummary], args: &HarnessArgs) {
    println!("\nNon-parallel control (1 instance x full machine budget), first app:");
    let Some((name, app)) = apps.first() else {
        return;
    };
    for tool in ToolKind::ALL {
        let single = non_parallel_control(Arc::clone(app), tool, &args.scale, args.seed);
        let parallel = matrix
            .iter()
            .find(|r| r.app == *name && r.tool == tool && r.mode == RunMode::Baseline)
            .map(|r| r.union_coverage)
            .unwrap_or(0);
        println!(
            "  {} on {name}: single {single} vs parallel baseline {parallel} \
             (paper: parallel is comparable or better)",
            tool.name()
        );
    }
}

/// Prints `title` and the app × (mode, tool) grid of Tables 4, 5 and 6:
/// each cell is `cell(the tool's values by mode, mode)`, and a last row
/// `footer` holds `total(column sum)`. Returns the `[tool][mode]` sums.
fn grid<'a, T: Copy + Default + AddAssign>(
    title: &str,
    rows: impl IntoIterator<Item = (&'a str, [[T; 3]; 3])>,
    cell: impl Fn(&[T; 3], usize) -> String,
    footer: &str,
    total: impl Fn(T) -> String,
) -> [[T; 3]; 3] {
    println!("{title}");
    let mut table = TextTable::new([
        "App Name", "Mon.", "Ape", "WCT.", "Mon.(D)", "Ape(D)", "WCT.(D)", "Mon.(R)", "Ape(R)",
        "WCT.(R)",
    ]);
    let mut sums = [[T::default(); 3]; 3];
    for (app, values) in rows {
        let mut line = vec![app.to_owned()];
        for mode in 0..3 {
            for (sum, by_mode) in sums.iter_mut().zip(&values) {
                sum[mode] += by_mode[mode];
                line.push(cell(by_mode, mode));
            }
        }
        table.row(line);
    }
    let mut last = vec![footer.to_owned()];
    for mode in 0..3 {
        last.extend(sums.iter().map(|sum| total(sum[mode])));
    }
    table.row(last);
    print!("{}", table.render());
    sums
}

/// Table 4: cumulative method coverage.
fn table4(rows: &[CoverageRow]) {
    let n = rows.len().max(1);
    let sums = grid(
        "Table 4: cumulative method coverage (union across instances)",
        rows.iter().map(|r| (r.app.as_str(), r.coverage)),
        |v, mode| match mode {
            0 => v[0].to_string(),
            _ => format!(
                "{} ({})",
                v[mode],
                pct(v[mode] as f64 / v[0].max(1) as f64 - 1.0)
            ),
        },
        "Average",
        |sum| (sum / n).to_string(),
    );
    for (tool, sum) in ToolKind::ALL.into_iter().zip(&sums) {
        let base = sum[0].max(1) as f64;
        println!(
            "{}: duration {} resource {} (paper: +20.4%/+14.2% Mon, +7.6%/+13.3% Ape, \
             +10.2%/+8.8% WCT)",
            tool.name(),
            pct(sum[1] as f64 / base - 1.0),
            pct(sum[2] as f64 / base - 1.0),
        );
    }
    let improving: usize = rows
        .iter()
        .flat_map(|r| &r.coverage)
        .map(|v| v[1..].iter().filter(|&&c| c >= v[0]).count())
        .sum();
    println!(
        "{improving}/{} cells improve over baseline (paper: 81.5%)",
        6 * rows.len()
    );
}

/// Table 5: distinct crashes.
fn table5(rows: &[CoverageRow]) {
    let sums = grid(
        "Table 5: distinct crashes (union across instances)",
        rows.iter().map(|r| (r.app.as_str(), r.crashes)),
        |v, mode| v[mode].to_string(),
        "Total",
        |sum| sum.to_string(),
    );
    let [base, dur, res] = [0, 1, 2].map(|mode| sums.iter().map(|s| s[mode]).sum::<usize>());
    println!(
        "totals: baseline {base}, duration {dur} ({}), resource {res} ({}) \
         (paper: 50 -> 79 duration / 71 resource, 1.2-2.1x per tool)",
        times(dur as f64 / base.max(1) as f64),
        times(res as f64 / base.max(1) as f64),
    );
}

/// RQ5: Jaccard similarity of TaOPT's and the baseline's covered methods.
fn behavior(matrix: &[RunSummary]) {
    println!("RQ5 behaviour preservation (TaOPT vs baseline union coverage)");
    let mut table = TextTable::new(["Tool", "Mode", "Jaccard", "Baseline-only missed"]);
    for r in behavior_rows(matrix) {
        table.row([
            r.tool.name().to_owned(),
            r.mode.label().to_owned(),
            format!("{:.2}", r.jaccard),
            format!("{:.1}%", 100.0 * r.missed_fraction),
        ]);
    }
    print!("{}", table.render());
    println!(
        "paper: Jaccard 0.77/0.86/0.85 (duration), 0.77/0.81/0.83 (resource); \
         missed 3.3-5.3%; TaOPT covers >95% of what the tools cover alone"
    );
}

/// Table 6: average occurrences of distinct abstract UIs.
fn table6(matrix: &[RunSummary]) {
    let rows = table6_rows(matrix);
    let n = rows.len().max(1) as f64;
    let sums = grid(
        "Table 6: average occurrences of distinct UIs",
        rows.iter().map(|r| (r.app.as_str(), r.occurrences)),
        |v, mode| format!("{:.1}", v[mode]),
        "Average",
        |sum| format!("{:.1}", sum / n),
    );
    for (tool, sum) in ToolKind::ALL.into_iter().zip(&sums) {
        let base = sum[0].max(1e-9);
        println!(
            "{}: overlap reduction duration {:.1}% resource {:.1}% \
             (paper: 64.5/64.5 Mon, 89.5/90.1 Ape, 52.1/37.6 WCT)",
            tool.name(),
            100.0 * (1.0 - sum[1] / base),
            100.0 * (1.0 - sum[2] / base),
        );
    }
}
