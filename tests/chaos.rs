//! Chaos-harness integration tests: bounded soaks through the public
//! [`ChaosConfig`] API plus seed-reproducibility of the generated
//! schedules. The heavyweight open-ended soak lives in CI (`blocksync
//! chaos`); these runs are sized to finish in seconds.

use std::time::Duration;

use blocksync::core::{ChaosConfig, FaultProfile, FaultSchedule, ShardKey, SyncMethod};

/// A one-shard soak: a standalone pool of 4 x 8 under `method`.
fn bounded(launches: usize, seed: u64, method: SyncMethod) -> ChaosConfig {
    ChaosConfig {
        launches,
        fault_rate: 0.35,
        seed,
        shards: vec![ShardKey::new(4, 8, method)],
        ..ChaosConfig::default()
    }
}

#[test]
fn bounded_pooled_soak_holds_every_invariant() {
    let report = bounded(48, 0xC0FFEE, SyncMethod::GpuLockFree)
        .run()
        .expect("config is valid");
    assert!(report.passed(), "soak failed:\n{report}");
    assert_eq!(report.launches, 48);
    assert!(
        report.faulty > 0,
        "0.35 rate over 48 launches drew no faults"
    );
    assert!(report.clean > 0, "every launch drew a fault");
}

/// The whole point of logging one u64: the same seed must regenerate the
/// same per-launch fault decisions and the same schedules.
#[test]
fn same_seed_reproduces_the_same_schedules() {
    let profile = FaultProfile::new(5, 8, Duration::from_millis(80));
    for seed in [0u64, 1, 42, u64::MAX] {
        assert_eq!(
            FaultSchedule::random(seed, &profile),
            FaultSchedule::random(seed, &profile),
            "seed {seed} not reproducible"
        );
    }
    // And different seeds should (overwhelmingly) differ somewhere.
    let schedules: Vec<FaultSchedule> = (0..16)
        .map(|s| FaultSchedule::random(s, &profile))
        .collect();
    assert!(
        schedules.windows(2).any(|w| w[0] != w[1]),
        "16 consecutive seeds produced identical schedules"
    );
}

/// Two soaks from the same seed must agree on the aggregate fault/clean
/// split — the run-level reproducibility the CLI promises when it prints
/// `reproduce with --seed`.
#[test]
fn same_seed_reproduces_the_same_soak_split() {
    let cfg = bounded(24, 7, SyncMethod::GpuSimple);
    let a = cfg.run().expect("valid");
    let b = cfg.run().expect("valid");
    assert!(a.passed() && b.passed(), "a:\n{a}\nb:\n{b}");
    assert_eq!(
        (a.faulty, a.benign, a.clean),
        (b.faulty, b.benign, b.clean),
        "same seed diverged"
    );
}

#[test]
fn chaos_rejects_configs_it_cannot_diagnose() {
    for method in [
        SyncMethod::CpuExplicit,
        SyncMethod::NoSync,
        SyncMethod::Auto,
    ] {
        let cfg = bounded(8, 1, method);
        assert!(cfg.validate().is_err(), "{method} should be rejected");
        assert!(cfg.run().is_err(), "{method} should be rejected by run()");
    }
}
