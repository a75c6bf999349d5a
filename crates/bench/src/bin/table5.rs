//! Table 5: statistics of distinct crashes — per app and tool, baseline
//! vs. TaOPT duration-constrained vs. TaOPT resource-constrained.

#![allow(clippy::needless_range_loop)]

use taopt::experiments::{evaluation_matrix, table4_rows};
use taopt::report::{times, TextTable};
use taopt_bench::{load_apps, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let apps = load_apps(args.n_apps);
    eprintln!("table5: {} apps, {:?}", apps.len(), args.scale);
    let matrix = evaluation_matrix(&apps, &args.scale, args.seed);
    let rows = table4_rows(&matrix);

    println!("Table 5: distinct crashes (union across instances)");
    let mut table = TextTable::new([
        "App Name", "Mon.", "Ape", "WCT.", "Mon.(D)", "Ape(D)", "WCT.(D)", "Mon.(R)", "Ape(R)",
        "WCT.(R)",
    ]);
    let mut sums = [[0usize; 3]; 3];
    for r in &rows {
        let mut line = vec![r.app.clone()];
        for mode in 0..3 {
            for tool in 0..3 {
                let v = r.crashes[tool][mode];
                sums[tool][mode] += v;
                line.push(v.to_string());
            }
        }
        table.row(line);
    }
    let mut totals = vec!["Total".to_owned()];
    for mode in 0..3 {
        for tool in 0..3 {
            totals.push(sums[tool][mode].to_string());
        }
    }
    table.row(totals);
    print!("{}", table.render());
    let base_total: usize = (0..3).map(|t| sums[t][0]).sum();
    let dur_total: usize = (0..3).map(|t| sums[t][1]).sum();
    let res_total: usize = (0..3).map(|t| sums[t][2]).sum();
    println!(
        "totals: baseline {base_total}, duration {dur_total} ({}), resource {res_total} ({}) \
         (paper: 50 -> 79 duration / 71 resource, 1.2-2.1x per tool)",
        times(dur_total as f64 / base_total.max(1) as f64),
        times(res_total as f64 / base_total.max(1) as f64),
    );
}
