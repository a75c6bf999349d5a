//! Integration checks over the 18-app catalog (Table 3).

use taopt_app_sim::{catalog_entries, generate_app, AppRuntime, GeneratorConfig};
use taopt_ui_model::abstraction::abstract_hierarchy;
use taopt_ui_model::VirtualTime;

#[test]
fn all_catalog_apps_generate_and_validate() {
    for e in catalog_entries() {
        let app = e.generate();
        assert!(
            app.screen_count() > 100,
            "{}: only {} screens",
            e.name,
            app.screen_count()
        );
        assert!(
            app.method_count() > 3_000,
            "{}: only {} methods",
            e.name,
            app.method_count()
        );
        assert!(app.functionalities().len() >= 10, "{}", e.name);
        assert_eq!(app.login().is_some(), e.login, "{} login gating", e.name);
        // Every action target resolves (App::assemble validated it, but
        // re-check through the public API).
        for s in app.screens() {
            for a in &s.actions {
                for t in &a.targets {
                    assert!(app.screen(t.screen).is_some());
                }
            }
        }
    }
}

/// FNV-1a 64 over everything an app's recipe decides: every screen spec,
/// the flows, the functionalities, the method count, the startup methods,
/// and the abstract id of every screen's page-0 render. `App`'s own
/// `Debug` is not used: its action index is a `HashMap`.
fn fingerprint(apps: impl IntoIterator<Item = taopt_app_sim::App>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for app in apps {
        feed(app.name().as_bytes());
        for s in app.screens() {
            feed(format!("{s:?}").as_bytes());
            let id = abstract_hierarchy(&app.render_screen(s.id, 0)).id();
            feed(&id.0.to_le_bytes());
        }
        feed(format!("{:?}", app.flows()).as_bytes());
        feed(format!("{:?}", app.functionalities()).as_bytes());
        feed(&(app.method_count() as u64).to_le_bytes());
        feed(format!("{:?}", app.startup_methods()).as_bytes());
    }
    h
}

/// The constants were recorded before app and page materialization were
/// made linear; a speed-up there must not move them.
#[test]
fn generated_apps_and_abstractions_are_pinned() {
    let catalog = fingerprint(catalog_entries().iter().map(|e| e.generate()));
    let small = fingerprint(
        (0..20).map(|seed| generate_app(&GeneratorConfig::small("small", seed)).unwrap()),
    );
    assert_eq!(
        catalog, 0x6b33_5205_18a9_04f2,
        "catalog fingerprint {catalog:#018x}"
    );
    assert_eq!(
        small, 0x6ed5_118d_e7b3_f20b,
        "small-app fingerprint {small:#018x}"
    );
}

#[test]
fn abstract_screen_identities_are_distinct_within_an_app() {
    // The analyzer relies on distinct screens having distinct abstract
    // ids; collisions would merge unrelated screens.
    let app = catalog_entries()[2].generate();
    let mut seen = std::collections::HashSet::new();
    for s in app.screens() {
        let id = abstract_hierarchy(&app.render_screen(s.id, 0)).id();
        assert!(seen.insert(id), "abstract id collision at {}", s.name);
    }
}

#[test]
fn runtimes_boot_on_every_catalog_app() {
    for e in catalog_entries().into_iter().take(6) {
        let app = std::sync::Arc::new(e.generate());
        let mut rt = AppRuntime::launch(std::sync::Arc::clone(&app), 1);
        if app.login().is_some() {
            assert!(
                rt.auto_login(VirtualTime::ZERO).is_some(),
                "{} login failed",
                e.name
            );
        }
        let obs = rt.observe(VirtualTime::ZERO);
        assert!(
            !obs.enabled_actions().is_empty(),
            "{} start screen is dead",
            e.name
        );
    }
}

#[test]
fn size_classes_order_method_counts() {
    let apps: std::collections::BTreeMap<&str, usize> = catalog_entries()
        .iter()
        .map(|e| (e.name, e.generate().method_count()))
        .collect();
    // Representative ordering across size classes.
    assert!(apps["Zedge"] > apps["AutoScout24"], "XL > Large");
    assert!(apps["AutoScout24"] > apps["AccuWeather"], "Large > Medium");
    assert!(apps["AccuWeather"] > apps["AbsWorkout"], "Medium > Small");
}
