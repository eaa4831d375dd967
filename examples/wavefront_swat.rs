//! Local sequence alignment with the wavefront Smith-Waterman kernel.
//!
//! Aligns a pair of related DNA sequences (point mutations + an insertion)
//! on the grid runtime — one grid barrier per anti-diagonal, the structure
//! whose synchronization cost dominates SWat in the paper (Table 1:
//! 49.7%) — then reproduces the alignment with the sequential trace-back
//! and prints it. Also shows a protein alignment under BLOSUM62.
//!
//! Run with: `cargo run --release --example wavefront_swat`

use blocksync::algos::seqgen::related_dna;
use blocksync::algos::swat::{smith_waterman_aligned, GapPenalties, GridSwat, Scoring};
use blocksync::core::{GridConfig, LaunchPlan, SyncMethod};

fn main() {
    // DNA: 600 bases, 5% point mutations, plus a 12-base insertion.
    let (a, mut b) = related_dna(600, 0.05, 7);
    let insert = b"ACGTACGTACGT";
    let mid = b.len() / 2;
    b.splice(mid..mid, insert.iter().copied());

    let n_blocks = 6;
    let kernel = GridSwat::new(&a, &b, Scoring::dna(), GapPenalties::dna(), n_blocks);
    let stats = LaunchPlan::compile(GridConfig::new(n_blocks, 64), SyncMethod::GpuLockFree)
        .and_then(|plan| plan.run(&kernel))
        .expect("valid grid");
    let result = kernel.result();
    println!(
        "aligned {}x{} DNA on {n_blocks} blocks: {} anti-diagonal rounds, {:.2} ms wall",
        a.len(),
        b.len(),
        stats.rounds,
        stats.wall.as_secs_f64() * 1e3
    );
    println!(
        "best local score: {} ending at {:?}",
        result.score, result.end
    );

    // Sequential trace-back (the phase the paper leaves on the CPU).
    let alignment = smith_waterman_aligned(&a, &b, Scoring::dna(), GapPenalties::dna());
    assert_eq!(
        alignment.score, result.score,
        "grid fill and trace-back must agree"
    );
    let gaps = alignment.aligned_a.bytes().filter(|&c| c == b'-').count()
        + alignment.aligned_b.bytes().filter(|&c| c == b'-').count();
    println!(
        "alignment spans a[{}..] / b[{}..], length {}, {} gap columns",
        alignment.start_a,
        alignment.start_b,
        alignment.aligned_a.len(),
        gaps
    );
    let window = 60.min(alignment.aligned_a.len());
    println!("first {window} columns:");
    println!("  a: {}", &alignment.aligned_a[..window]);
    println!("  b: {}", &alignment.aligned_b[..window]);

    // Protein alignment under BLOSUM62.
    let p1 = b"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQFEVVHSLAKWKRQTLGQHDFSAGEGLYTHMKALRPDEDRLSPLHSVYVDQWDWE";
    let p2 = b"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQFEVVHSLAKWKRQTLGQHDFSAGEGLYTHMKALRPDEDRLSPLHSVYVDQWDWE";
    let protein = smith_waterman_aligned(p1, p2, Scoring::Blosum62, GapPenalties::protein());
    println!(
        "\nBLOSUM62 self-alignment of a {}-residue protein scores {}",
        p1.len(),
        protein.score
    );
    assert!(protein.score > 500);
    println!("ok");
}
