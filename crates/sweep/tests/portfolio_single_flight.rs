//! Regression: concurrent `build_portfolio` calls for one cold
//! `(model, seed, sample_cap)` build each model once and share it.  The
//! reuse counter is process-wide, so this file is its own test binary and
//! nothing else moves the counter while it runs.

use bitwave_sweep::{build_portfolio, profile_reuse_total, SweepConfig};
use std::sync::{Arc, Barrier};

#[test]
fn racing_portfolio_builds_run_once_and_share_the_arc() {
    const THREADS: usize = 4;
    let mut config = SweepConfig::tiny();
    config.portfolio = vec!["cnn-lstm".to_string(), "resnet18".to_string()];
    config.seed = 0x5eed_f11e;
    let before = profile_reuse_total();

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let config = config.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                build_portfolio(&config).unwrap()
            })
        })
        .collect();
    let portfolios: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let first = &portfolios[0];
    assert_eq!(first.len(), config.portfolio.len());
    for other in &portfolios[1..] {
        for (a, b) in first.iter().zip(other) {
            assert!(Arc::ptr_eq(a, b), "{} built twice", a.network.name);
        }
    }
    // One build per model; every other caller hit or waited on it.
    assert_eq!(
        profile_reuse_total() - before,
        ((THREADS - 1) * first.len()) as u64
    );
}
