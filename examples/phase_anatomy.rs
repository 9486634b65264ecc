//! Phase anatomy: trace a single four-choice broadcast round by round and
//! annotate each round with its phase, reproducing the narrative of the
//! paper's analysis (§4): exponential growth in Phase 1 (Lemmas 1–2,
//! Corollary 1: ≥ n/8 informed), constant-factor decay of the uninformed
//! set in Phase 2 (Lemma 3, Corollary 2), near-total collapse at the Phase 3
//! pull step, and the Phase 4 mop-up.
//!
//! Run with:
//! ```text
//! cargo run --release --example phase_anatomy
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rrb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(7);
    let n = 1 << 14;
    let d = 8;
    let graph = gen::random_regular(n, d, &mut rng)?;
    let alg = FourChoice::builder(n, d).force_small_degree().build();
    let schedule = *alg.schedule();

    let config = SimConfig::until_quiescent().with_history();
    let report = Simulation::new(&graph, alg, config).run(NodeId::new(0), &mut rng);

    let mut table = Table::new(vec![
        "round", "phase", "informed", "new", "uninformed", "push tx", "pull tx",
    ]);
    for rec in &report.history {
        // Compress the long quiet stretch of phase 4.
        if rec.newly_informed == 0
            && rec.tx == 0
            && rec.round > schedule.phase3_end() + 2
        {
            continue;
        }
        let phase = match schedule.phase(rec.round) {
            Phase::One => "1 push-once",
            Phase::Two => "2 push-all",
            Phase::Three => "3 pull",
            Phase::Four => "4 active",
            Phase::Done => "done",
        };
        table.row(vec![
            rec.round.to_string(),
            phase.to_string(),
            rec.informed.to_string(),
            rec.newly_informed.to_string(),
            (n - rec.informed).to_string(),
            rec.push_tx.to_string(),
            rec.pull_tx.to_string(),
        ]);
    }
    println!("{table}");

    // Check the analysis' milestones.
    let informed_after_p1 = report
        .history
        .iter()
        .find(|r| r.round == schedule.phase1_end())
        .map(|r| r.informed)
        .unwrap_or(0);
    println!(
        "after phase 1: {informed_after_p1}/{n} informed (Corollary 1 wants ≥ n/8 = {})",
        n / 8
    );
    let uninformed_after_p2 = report
        .history
        .iter()
        .find(|r| r.round == schedule.phase2_end())
        .map(|r| n - r.informed)
        .unwrap_or(n);
    let bound = (n as f64) / (n as f64).log2().powi(5);
    println!(
        "after phase 2: {uninformed_after_p2} uninformed (Corollary 2 wants O(n/log^5 n) ≈ {bound:.1})"
    );
    println!(
        "full coverage at round {:?} of a {}-round schedule; {:.2} tx/node",
        report.full_coverage_at,
        schedule.end(),
        report.tx_per_node()
    );
    Ok(())
}
