//! Shape of the `all` report: every section once, in the paper's order,
//! with a row per app in the per-app tables and a line per tool in the
//! savings figures.

use std::process::Command;

use taopt_tools::ToolKind;

const SECTIONS: [&str; 9] = [
    "Figure 3: ",
    "Table 1: ",
    "Table 2: ",
    "Figure 5: ",
    "Figure 6: ",
    "Table 4: ",
    "Table 5: ",
    "RQ5 behaviour preservation",
    "Table 6: ",
];

#[test]
fn all_prints_every_section_once_in_order_with_a_row_per_app() {
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["quick", "2", "2025"])
        .output()
        .expect("the all binary runs");
    assert!(out.status.success(), "all failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let blocks: Vec<&str> = stdout.split("\n\n").collect();

    let titles: Vec<usize> = SECTIONS
        .iter()
        .map(|title| {
            let at: Vec<usize> = blocks
                .iter()
                .enumerate()
                .filter(|(_, b)| b.starts_with(title))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(at.len(), 1, "section {title:?} appears {} times", at.len());
            at[0]
        })
        .collect();
    assert!(
        titles.windows(2).all(|w| w[0] < w[1]),
        "sections out of order: {titles:?}"
    );
    let section = |title: &str| blocks[titles[SECTIONS.iter().position(|s| *s == title).unwrap()]];

    let rows = |title: &str, key: &[&str]| {
        section(title)
            .lines()
            .filter(|l| l.split_whitespace().take(key.len()).eq(key.iter().copied()))
            .count()
    };
    for (app, _) in &taopt_bench::load_apps(2) {
        for title in ["Table 4: ", "Table 5: ", "Table 6: "] {
            assert_eq!(rows(title, &[app]), 1, "{title} row for {app}");
        }
        for title in ["Figure 5: ", "Figure 6: "] {
            for tool in ToolKind::ALL {
                let key = [app.as_str(), tool.name()];
                assert_eq!(rows(title, &key), 1, "{title} row for {key:?}");
            }
        }
    }
    for title in ["Figure 5: ", "Figure 6: "] {
        for tool in ToolKind::ALL {
            let mean = format!("{}:", tool.name());
            assert_eq!(rows(title, &[&mean, "mean"]), 1, "{title} mean of {mean}");
        }
    }
}
