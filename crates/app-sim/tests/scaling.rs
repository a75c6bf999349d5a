//! Host-time scaling guard for app materialization.
//!
//! Builds one app shape at `n` and at `4n` functionalities and checks that
//! the time grows about linearly. Linear code gives a ratio near 4; a
//! lookup that scans every screen or action built so far gives 16 or more.
//! Timing is only meaningful under `--release`.

use std::time::{Duration, Instant};

use taopt_app_sim::{generate_app, GeneratorConfig};

fn build_time(n_functionalities: usize) -> Duration {
    let mut cfg = GeneratorConfig::industrial("Scale", 5);
    cfg.n_functionalities = n_functionalities;
    let t = Instant::now();
    let app = generate_app(&cfg).unwrap();
    let elapsed = t.elapsed();
    assert!(app.screen_count() > n_functionalities * 10);
    elapsed
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing guard: run it with --release")]
fn builder_scales_linearly() {
    // The two sizes alternate so that clock drift hits both alike; the
    // fastest of each is the least disturbed sample.
    let (mut small, mut large) = (Duration::MAX, Duration::MAX);
    for _ in 0..9 {
        small = small.min(build_time(100));
        large = large.min(build_time(400));
    }
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    eprintln!("builder_scales_linearly: {small:?} -> {large:?}, ratio {ratio:.2}");
    assert!(
        ratio < 8.0,
        "4x the functionalities took {ratio:.2}x the time"
    );
}
