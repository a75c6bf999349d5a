//! `taopt-sim` — command-line front end for the TaOPT reproduction.
//!
//! ```text
//! taopt-sim run   --app Zedge --tool ape --mode duration [--instances 5]
//!                 [--minutes 60] [--seed 2025] [--event-loss 0.1]
//! taopt-sim apps                      # list the Table-3 catalog
//! taopt-sim dump  --app Zedge         # uiautomator-style XML of the hub
//!
//! taopt-sim serve   --dir /var/lib/taopt [--addr 127.0.0.1:7070]
//!                   [--capacity N] [--workers W] [--recover]
//! taopt-sim submit  --addr HOST:PORT (--spec FILE | --app NAME
//!                   [--tool T] [--mode M] [--seed S] [--scale quick|paper])
//!                   [--priority P] [--wait]
//! taopt-sim status  --addr HOST:PORT --id N
//! taopt-sim migrate --from HOST:PORT --to HOST:PORT --id N
//! ```

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use taopt::experiments::ExperimentScale;
use taopt::session::{ParallelSession, RunMode, SessionConfig};
use taopt_app_sim::catalog_entries;
use taopt_server::{migrate, serve, Client, ServerConfig};
use taopt_service::{AppSource, AppSpec, CampaignId, CampaignService, CampaignSpec, ServiceConfig};
use taopt_tools::ToolKind;
use taopt_ui_model::json::Value;
use taopt_ui_model::VirtualDuration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  taopt-sim run --app <name> [--tool monkey|ape|wctester|badge] \\\n              \
         [--mode baseline|duration|resource|paraaim|pats] [--instances N] \\\n              \
         [--minutes M] [--seed S] [--event-loss F]\n  taopt-sim apps\n  taopt-sim dump --app <name>\n  \
         taopt-sim serve --dir <dir> [--addr 127.0.0.1:7070] [--capacity N] \\\n              \
         [--workers W] [--recover]\n  \
         taopt-sim submit --addr <host:port> (--spec <file> | --app <name> [--tool T] \\\n              \
         [--mode M] [--seed S] [--scale quick|paper]) [--priority P] [--wait]\n  \
         taopt-sim status --addr <host:port> --id <n>\n  \
         taopt-sim migrate --from <host:port> --to <host:port> --id <n>"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn find_app(name: &str) -> Arc<taopt_app_sim::App> {
    let entry = catalog_entries()
        .into_iter()
        .find(|e| e.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown app `{name}`; run `taopt-sim apps` for the catalog");
            std::process::exit(2);
        });
    Arc::new(entry.generate())
}

fn cmd_apps() {
    println!(
        "{:<20} {:<10} {:<18} {:<8} login",
        "App", "Version", "Category", "Installs"
    );
    for e in catalog_entries() {
        println!(
            "{:<20} {:<10} {:<18} {:<8} {}",
            e.name,
            e.version,
            e.category,
            e.downloads,
            if e.login { "yes" } else { "no" }
        );
    }
}

fn cmd_dump(args: &[String]) {
    let name = flag(args, "--app").unwrap_or_else(|| usage());
    let app = find_app(&name);
    let hub = app.start_screen();
    print!("{}", taopt_ui_model::to_xml(&app.render_screen(hub, 0)));
}

fn cmd_run(args: &[String]) {
    let name = flag(args, "--app").unwrap_or_else(|| usage());
    let app = find_app(&name);
    let tool = parse_tool(flag(args, "--tool").as_deref().unwrap_or("ape"));
    let mode = parse_mode(flag(args, "--mode").as_deref().unwrap_or("duration"));
    let mut cfg = SessionConfig::new(tool, mode);
    if let Some(n) = flag(args, "--instances").and_then(|v| v.parse().ok()) {
        cfg.instances = n;
    }
    if let Some(m) = flag(args, "--minutes").and_then(|v| v.parse().ok()) {
        cfg.duration = VirtualDuration::from_mins(m);
    }
    cfg.seed = flag(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2025);
    if let Some(f) = flag(args, "--event-loss").and_then(|v| v.parse().ok()) {
        cfg.emulator.event_loss = f;
    }

    eprintln!(
        "running {} on {} — {} x {} instances, {} virtual, seed {}",
        tool.name(),
        app.name(),
        mode.label(),
        cfg.instances,
        cfg.duration,
        cfg.seed
    );
    let t0 = std::time::Instant::now();
    let r = ParallelSession::run(Arc::clone(&app), &cfg);
    eprintln!(
        "(simulated in {:.2}s real time)",
        t0.elapsed().as_secs_f64()
    );

    println!(
        "coverage: {} / {} methods ({:.1}%)",
        r.union_coverage(),
        app.method_count(),
        100.0 * r.union_coverage() as f64 / app.method_count() as f64
    );
    println!(
        "machine time: {}  wall clock: {}  instances: {} (peak {})",
        r.machine_time,
        r.wall_clock,
        r.instances.len(),
        r.peak_concurrency()
    );
    let confirmed: Vec<_> = r.subspaces.iter().filter(|s| s.confirmed).collect();
    if !confirmed.is_empty() {
        println!("subspaces dedicated: {}", confirmed.len());
        for s in confirmed.iter().take(10) {
            println!(
                "  {} — {} screens via {:?} (owner {:?})",
                s.id,
                s.screens.len(),
                s.entrypoints
                    .first()
                    .map(|e| e.widget_rid.as_str())
                    .unwrap_or("?"),
                s.owner
            );
        }
    }
    let crashes = r.unique_crashes();
    if crashes.is_empty() {
        println!("no crashes observed");
    } else {
        let occurrences: usize = r.instances.iter().map(|i| i.crash_occurrences.len()).sum();
        println!(
            "\n{} unique crash(es), {} occurrence(s):",
            crashes.len(),
            occurrences
        );
        for sig in &crashes {
            println!("  {sig}");
        }
    }
}

/// Resolves `--<name> host:port` into a socket address or exits.
fn addr_flag(args: &[String], name: &str) -> SocketAddr {
    let raw = flag(args, name).unwrap_or_else(|| usage());
    raw.to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| {
            eprintln!("cannot resolve address `{raw}`");
            std::process::exit(2);
        })
}

fn id_flag(args: &[String]) -> CampaignId {
    CampaignId(
        flag(args, "--id")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage()),
    )
}

fn parse_tool(s: &str) -> ToolKind {
    match s {
        "monkey" => ToolKind::Monkey,
        "ape" => ToolKind::Ape,
        "wctester" => ToolKind::WcTester,
        "badge" => ToolKind::Badge,
        other => {
            eprintln!("unknown tool `{other}`");
            usage()
        }
    }
}

fn parse_mode(s: &str) -> RunMode {
    match s {
        "baseline" => RunMode::Baseline,
        "duration" => RunMode::TaoptDuration,
        "resource" => RunMode::TaoptResource,
        "paraaim" => RunMode::ActivityPartition,
        "pats" => RunMode::PatsMasterSlave,
        other => {
            eprintln!("unknown mode `{other}`");
            usage()
        }
    }
}

/// `serve`: start (or recover) a campaign service and put it on the
/// network; blocks until killed.
fn cmd_serve(args: &[String]) {
    let dir = flag(args, "--dir").unwrap_or_else(|| usage());
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".to_owned());
    let mut config = ServiceConfig::new(dir);
    if let Some(c) = flag(args, "--capacity").and_then(|v| v.parse().ok()) {
        config.farm_capacity = c;
    }
    if let Some(e) = flag(args, "--checkpoint-every").and_then(|v| v.parse().ok()) {
        config.checkpoint_every = e;
    }
    let service = if args.iter().any(|a| a == "--recover") {
        match CampaignService::recover(config) {
            Ok((service, report)) => {
                eprintln!(
                    "recovered {} campaigns ({} unreadable checkpoints left on disk)",
                    report.resumed.len(),
                    report.rejected.len()
                );
                service
            }
            Err(e) => {
                eprintln!("cannot recover service: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match CampaignService::start(config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot start service: {e}");
                std::process::exit(1);
            }
        }
    };
    let mut server_config = ServerConfig::new(addr);
    if let Some(w) = flag(args, "--workers").and_then(|v| v.parse().ok()) {
        server_config.workers = w;
    }
    let handle = match serve(service, server_config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind server: {e}");
            std::process::exit(1);
        }
    };
    println!("taopt-server listening on {}", handle.addr());
    loop {
        std::thread::park();
    }
}

/// `submit`: send a campaign spec (from a JSON file or assembled from
/// flags) to a shard over the wire.
fn cmd_submit(args: &[String]) {
    let client = Client::new(addr_flag(args, "--addr"));
    let spec = if let Some(path) = flag(args, "--spec") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let value = Value::parse(&text).unwrap_or_else(|e| {
            eprintln!("{path} is not json: {e}");
            std::process::exit(1);
        });
        CampaignSpec::from_value(&value).unwrap_or_else(|e| {
            eprintln!("{path} is not a campaign spec: {e}");
            std::process::exit(1);
        })
    } else {
        let app = flag(args, "--app").unwrap_or_else(|| usage());
        let tool = parse_tool(flag(args, "--tool").as_deref().unwrap_or("ape"));
        let mode = parse_mode(flag(args, "--mode").as_deref().unwrap_or("duration"));
        let seed = flag(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(2025);
        let scale = match flag(args, "--scale").as_deref().unwrap_or("quick") {
            "paper" => ExperimentScale::paper(),
            _ => ExperimentScale::quick(),
        };
        CampaignSpec::new(
            app.clone(),
            vec![AppSpec {
                source: AppSource::Catalog(app),
                tool,
                mode,
                seed,
            }],
            scale,
        )
    };
    let priority = flag(args, "--priority")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    match client.submit(&spec, priority) {
        Ok(id) => {
            println!("submitted campaign {} at priority {priority}", id.0);
            if args.iter().any(|a| a == "--wait") {
                match client.wait(id, Duration::from_secs(24 * 3600)) {
                    Ok(status) => {
                        eprintln!("campaign {} finished: {status:?}", id.0);
                        if let Ok(report) = client.result(id) {
                            println!("{report}");
                        }
                    }
                    Err(e) => {
                        eprintln!("wait failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `status`: one status probe over the wire.
fn cmd_status(args: &[String]) {
    let client = Client::new(addr_flag(args, "--addr"));
    match client.status(id_flag(args)) {
        Ok(status) => println!("{status:?}"),
        Err(e) => {
            eprintln!("status failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `migrate`: move a campaign's checkpoint from one shard to another.
fn cmd_migrate(args: &[String]) {
    let from = Client::new(addr_flag(args, "--from"));
    let to = Client::new(addr_flag(args, "--to"));
    let id = id_flag(args);
    match migrate(&from, &to, id) {
        Ok(new_id) => println!(
            "migrated campaign {} from {} to {} (new id {})",
            id.0,
            from.addr(),
            to.addr(),
            new_id.0
        ),
        Err(e) => {
            eprintln!("migrate failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("apps") => cmd_apps(),
        Some("dump") => cmd_dump(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("migrate") => cmd_migrate(&args[1..]),
        _ => usage(),
    }
}
