//! The `taopt-sim` front end, run as a process: each subcommand that needs
//! no network exits 0 and prints what its usage promises.

use std::process::Command;

use taopt_app_sim::catalog_entries;

/// Runs `taopt-sim` with `args`, asserts it exits 0, and returns stdout.
fn taopt_sim(args: &[&str]) -> String {
    taopt_sim_streams(args).0
}

/// Runs `taopt-sim` with `args`, asserts it exits 0, and returns stdout
/// and stderr.
fn taopt_sim_streams(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_taopt-sim"))
        .args(args)
        .output()
        .expect("taopt-sim starts");
    let stderr = String::from_utf8(out.stderr).expect("stderr is utf-8");
    assert!(
        out.status.success(),
        "taopt-sim {args:?} exited with {}: {stderr}",
        out.status
    );
    (
        String::from_utf8(out.stdout).expect("stdout is utf-8"),
        stderr,
    )
}

#[test]
fn apps_lists_the_catalog() {
    let out = taopt_sim(&["apps"]);
    let rows: Vec<&str> = out.lines().skip(1).collect();
    let names: Vec<&str> = catalog_entries().iter().map(|e| e.name).collect();
    assert_eq!(names.len(), 18);
    assert_eq!(rows.len(), names.len(), "one row per app:\n{out}");
    for (row, name) in rows.iter().zip(&names) {
        assert!(row.starts_with(&format!("{name} ")), "row `{row}`");
    }
}

#[test]
fn dump_prints_one_xml_hierarchy() {
    let app = catalog_entries()[0].name;
    let out = taopt_sim(&["dump", "--app", app]);
    assert!(out.starts_with("<?xml"), "{out}");
    assert_eq!(out.matches("<hierarchy").count(), 1);
    assert_eq!(out.matches("</hierarchy>").count(), 1);
    assert!(out.contains("<node class=\""));
}

#[test]
fn run_prints_its_coverage_line() {
    let app = catalog_entries()[0].name;
    let (out, err) = taopt_sim_streams(&["run", "--app", app, "--minutes", "2"]);
    let header = err.lines().next().unwrap_or_default();
    assert!(
        header.ends_with(", seed 2025"),
        "`run` without --seed uses the documented default: {header}"
    );
    let coverage = out
        .lines()
        .find(|l| l.starts_with("coverage: "))
        .unwrap_or_else(|| panic!("no coverage line:\n{out}"));
    assert!(coverage.ends_with("%)"), "{coverage}");
    assert!(out.contains("wall clock: 2.0m"), "{out}");
}
