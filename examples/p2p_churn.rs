//! Broadcasting on a P2P overlay under churn: peers join and leave *during*
//! the broadcast, exercising the robustness the paper claims in its
//! abstract ("robust against limited changes in the size of the network").
//!
//! The overlay preserves near-regularity across membership changes (joins
//! splice into random edges, leaves re-pair their neighbours' stubs), and a
//! flip-style rewiring chain keeps it random — the Markov-process overlay
//! maintenance of §1.
//!
//! Run with:
//! ```text
//! cargo run --release --example p2p_churn
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rrb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(99);
    let n = 1 << 12;
    let d = 8;
    let mut overlay = Overlay::random(n, d, &mut rng)?;
    overlay.rewire(4 * n, &mut rng);

    let mut table = Table::new(vec![
        "churn/round", "survivors informed", "coverage", "rounds", "tx/node",
    ]);

    for &rate in &[0.0, 1.0, 4.0, 16.0] {
        let mut o = overlay.clone();
        let alg = FourChoice::for_graph(n, d);
        let mut churn = ChurnProcess::symmetric(rate, n / 2);
        let config = SimConfig::until_quiescent();
        let mut sim = SimState::new(&alg, Topology::node_count(&o), NodeId::new(0));
        let mut rounds = 0u32;
        // Drive the engine manually so churn interleaves with rounds; the
        // structured events feed the engine's alive census, so coverage
        // accounting tracks the survivors exactly.
        while !sim.finished(&o, &alg, config) {
            sim.step(&o, &alg, config, &mut rng);
            let events = churn.step(&mut o, &mut rng)?;
            o.rewire(8, &mut rng); // keep the overlay mixed
            sim.apply_membership(&alg, events.delta());
            rounds += 1;
        }
        let report = sim.into_report(&o, config);
        table.row(vec![
            format!("{rate:.0}"),
            format!("{}/{}", report.informed_count, report.alive_count),
            format!("{:.4}", report.coverage()),
            rounds.to_string(),
            format!("{:.2}", report.tx_per_node()),
        ]);
    }
    println!("four-choice broadcast under churn (n = {n}, d = {d}):");
    println!("{table}");
    println!(
        "note: nodes that joined after the pull phase can miss the rumour — \
         coverage is measured over survivors; limited churn leaves it near 1."
    );
    Ok(())
}
