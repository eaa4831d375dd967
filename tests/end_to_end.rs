//! Cross-crate integration tests: the three applications, executed on the
//! host runtime under every synchronization method, verified against their
//! sequential references; and host/simulator structural agreement.

use blocksync::algos::bitonic::{bitonic_sort, GridBitonic};
use blocksync::algos::fft::{fft_inplace, kernel::Direction, reference::max_error, GridFft};
use blocksync::algos::seqgen::{complex_signal, dna_sequence, random_keys};
use blocksync::algos::swat::{smith_waterman, GapPenalties, GridSwat, Scoring};
use blocksync::core::{GridConfig, LaunchPlan, RoundKernel, SyncMethod};
use blocksync::microbench::micro_workload;
use blocksync::sim::{simulate, SimConfig, Workload};

const ALL_METHODS: [SyncMethod; 8] = [
    SyncMethod::CpuExplicit,
    SyncMethod::CpuImplicit,
    SyncMethod::GpuSimple,
    SyncMethod::GpuTree(blocksync::core::TreeLevels::Two),
    SyncMethod::GpuTree(blocksync::core::TreeLevels::Three),
    SyncMethod::GpuLockFree,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
];

fn execute<K: RoundKernel>(kernel: &K, n_blocks: usize, method: SyncMethod) {
    LaunchPlan::compile(GridConfig::new(n_blocks, 32), method)
        .and_then(|plan| plan.run(kernel))
        .expect("valid configuration");
}

#[test]
fn fft_all_methods_match_reference() {
    let input = complex_signal(1024, 2026);
    let mut expected = input.clone();
    fft_inplace(&mut expected);
    for method in ALL_METHODS {
        let k = GridFft::new(&input, Direction::Forward);
        execute(&k, 7, method);
        assert!(max_error(&k.output(), &expected) < 1e-3, "{method}");
    }
}

#[test]
fn swat_all_methods_match_reference() {
    let a = dna_sequence(150, 1);
    let b = dna_sequence(170, 2);
    let expected = smith_waterman(&a, &b, Scoring::dna(), GapPenalties::dna());
    for method in ALL_METHODS {
        let k = GridSwat::new(&a, &b, Scoring::dna(), GapPenalties::dna(), 5);
        execute(&k, 5, method);
        let got = k.result();
        assert_eq!(got.score, expected.score, "{method}");
        assert_eq!(got.end, expected.end, "{method}");
    }
}

#[test]
fn bitonic_all_methods_match_reference() {
    let keys = random_keys(2048, 3);
    let mut expected = keys.clone();
    bitonic_sort(&mut expected);
    for method in ALL_METHODS {
        let k = GridBitonic::new(&keys);
        execute(&k, 6, method);
        assert_eq!(k.output(), expected, "{method}");
    }
}

#[test]
fn host_and_simulator_agree_on_round_structure() {
    // The simulator workloads must mirror the host kernels' round counts.
    use blocksync::algos::{bitonic::BitonicWorkload, fft::FftWorkload, swat::SwatWorkload};
    use blocksync::device::GpuSpec;
    let spec = GpuSpec::gtx280();

    let k = GridFft::new(&complex_signal(1 << 10, 0), Direction::Forward);
    let w = FftWorkload::new(&spec, 1 << 10, 8);
    assert_eq!(k.rounds(), w.rounds());

    let k = GridSwat::new(
        &dna_sequence(64, 0),
        &dna_sequence(80, 1),
        Scoring::dna(),
        GapPenalties::dna(),
        8,
    );
    let w = SwatWorkload::new(&spec, 64, 80, 8);
    assert_eq!(k.rounds(), w.rounds());

    let k = GridBitonic::new(&random_keys(1 << 9, 0));
    let w = BitonicWorkload::new(&spec, 1 << 9, 8);
    assert_eq!(k.rounds(), w.rounds());
}

#[test]
fn one_block_per_sm_rule_binds_the_simulated_gpu_not_the_host() {
    // Simulator: blocks are never preempted, so a 31st spinning block
    // deadlocks the grid (paper §5) and the launch is refused.
    let w = micro_workload(&blocksync::device::GpuSpec::gtx280(), 64, 5);
    let r =
        std::panic::catch_unwind(|| simulate(&SimConfig::new(31, 64, SyncMethod::GpuLockFree), &w));
    assert!(r.is_err(), "simulator must reject 31 persistent blocks");
    // Host runtime: the grid folds onto the cores and waiters yield, so
    // the same grid sorts correctly — under a GPU-side barrier as under
    // CPU sync, which has no limit in either.
    let keys = random_keys(64, 0);
    let mut sorted = keys.clone();
    bitonic_sort(&mut sorted);
    for method in [SyncMethod::GpuSimple, SyncMethod::CpuImplicit] {
        let k = GridBitonic::new(&keys);
        LaunchPlan::compile(GridConfig::new(31, 32), method)
            .and_then(|plan| plan.run(&k))
            .unwrap_or_else(|e| panic!("{method}: {e}"));
        assert_eq!(k.output(), sorted, "{method}");
    }
    let _ = simulate(&SimConfig::new(31, 64, SyncMethod::CpuImplicit), &w);
}

#[test]
fn simulated_paper_orderings_hold_end_to_end() {
    // The central claims, one sweep each, through the public facade.
    let w = micro_workload(&blocksync::device::GpuSpec::gtx280(), 256, 300);
    let sync = |m: SyncMethod, n: usize| {
        simulate(&SimConfig::new(n, 256, m), &w)
            .sync_per_round()
            .as_nanos()
    };
    // Lock-free beats everything at 30 blocks.
    let lf = sync(SyncMethod::GpuLockFree, 30);
    for m in [
        SyncMethod::CpuExplicit,
        SyncMethod::CpuImplicit,
        SyncMethod::GpuSimple,
        SyncMethod::GpuTree(blocksync::core::TreeLevels::Two),
        SyncMethod::GpuTree(blocksync::core::TreeLevels::Three),
    ] {
        assert!(lf < sync(m, 30), "lock-free must win at 30 blocks vs {m}");
    }
    // Simple sync beats CPU implicit at small N, loses at 30 (crossover).
    assert!(sync(SyncMethod::GpuSimple, 4) < sync(SyncMethod::CpuImplicit, 4));
    assert!(sync(SyncMethod::GpuSimple, 30) > sync(SyncMethod::CpuImplicit, 30));
    // Weak-scaling compute is method-independent; totals differ only by sync.
    let w1 = w.compute(0, 0);
    let w2 = w.compute(29, 299);
    assert_eq!(w1, w2);
}
