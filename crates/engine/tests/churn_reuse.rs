//! Slot-reuse regression suite: with the overlay's slot recycling
//! enabled, a long symmetric-churn run must keep a **bounded footprint**
//! — the slot space (and with it every per-slot engine buffer, i.e. the
//! run's RSS) stops growing once the free list warms up — and rejoined
//! slots must behave as fresh peers on both engines, at any shard count.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use rrb_engine::protocols::FloodPushPull;
use rrb_engine::{
    MultiSimState, Round, RumorInjection, SimConfig, SimState, Topology,
};
use rrb_graph::NodeId;
use rrb_p2p::{ChurnProcess, Overlay};

#[test]
fn ten_thousand_round_churn_run_has_bounded_slots() {
    // Before the reuse path, every join consumed a fresh slot: a 10k-round
    // run at 2 joins+2 leaves per round grew ~20k slots (and every dense
    // per-slot buffer with them). With reuse, growth must stop at the
    // initial population plus the churn process's in-flight slack.
    let n0 = 64usize;
    let proto = FloodPushPull::new();
    let cfg = SimConfig { stop_at_coverage: false, ..SimConfig::default() }
        .with_max_rounds(20_000);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut overlay_rng = SmallRng::seed_from_u64(0x0EA1);
    let mut churn_rng = SmallRng::seed_from_u64(0xC0DE);
    let mut overlay =
        Overlay::random(n0, 6, &mut overlay_rng).expect("overlay").with_slot_reuse(true);
    let mut churn = ChurnProcess::symmetric(2.0, 32);
    let mut sim = SimState::new(&proto, n0, NodeId::new(4));
    let mut max_slots = n0;
    for _ in 0..10_000 {
        sim.step(&overlay, &proto, cfg, &mut rng);
        let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
        overlay.rewire(4, &mut churn_rng);
        sim.apply_joins(&proto, &events.joined);
        sim.apply_leaves(&events.left);
        sim.apply_rejoins(&proto, &events.rejoined);
        max_slots = max_slots.max(Topology::node_count(&overlay));
    }
    assert!(
        max_slots <= n0 + 8,
        "slot space grew to {max_slots} over 10k churn rounds (reuse broken)"
    );
    assert_eq!(overlay.alive_count(), n0, "symmetric churn keeps the population");
    // The engine's informed index never exceeds the (bounded) slot space.
    assert!(sim.informed_count() <= max_slots);
}

#[test]
fn sparse_multi_engine_state_stays_bounded_under_reuse() {
    // The multi engine's sparse state vectors hold one entry per informed
    // node; under churn with reuse, rejoins unmark recycled slots, so the
    // per-rumour state length is bounded by the (bounded) slot space —
    // not by the total number of peers ever seen.
    let n0 = 64usize;
    let proto = FloodPushPull::new();
    let cfg = SimConfig { stop_at_coverage: false, ..SimConfig::default() }
        .with_max_rounds(20_000);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut overlay_rng = SmallRng::seed_from_u64(0x0EA2);
    let mut churn_rng = SmallRng::seed_from_u64(0xC0DF);
    let mut overlay =
        Overlay::random(n0, 6, &mut overlay_rng).expect("overlay").with_slot_reuse(true);
    let mut churn = ChurnProcess::symmetric(2.0, 32);
    let mut sim = MultiSimState::new(
        &proto,
        &overlay,
        &[
            RumorInjection { birth: 0, origin: NodeId::new(4) },
            RumorInjection { birth: 3, origin: NodeId::new(9) },
        ],
    );
    for _ in 0..2_000 {
        sim.step(&overlay, &proto, cfg, &mut rng);
        let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
        overlay.rewire(4, &mut churn_rng);
        sim.apply_joins(&proto, &events.joined);
        sim.apply_leaves(&events.left);
        sim.apply_rejoins(&proto, &events.rejoined);
    }
    let slots = Topology::node_count(&overlay);
    assert!(slots <= n0 + 8, "slot space grew to {slots}");
    for r in 0..2 {
        assert!(
            sim.informed_count(r) <= slots,
            "rumour {r} informed census exceeds the slot space"
        );
    }
}

/// A rejoined slot must look exactly like a fresh peer: uninformed, alive,
/// participating — at one shard and at several alike, with
/// byte-identical trajectories.
#[test]
fn rejoins_reset_slots_identically_at_any_shard_count() {
    let n0 = 96usize;
    let proto = FloodPushPull::new();
    let run = |shards: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        pool.install(|| {
            let cfg = SimConfig::default().with_max_rounds(300).with_shards(shards);
            let mut rng = SmallRng::seed_from_u64(11);
            let mut overlay_rng = SmallRng::seed_from_u64(0x0EA3);
            let mut churn_rng = SmallRng::seed_from_u64(0xC0E0);
            let mut overlay = Overlay::random(n0, 6, &mut overlay_rng)
                .expect("overlay")
                .with_slot_reuse(true);
            let mut churn = ChurnProcess::symmetric(3.0, 48);
            let mut sim = SimState::new(&proto, n0, NodeId::new(4));
            let mut trajectory = Vec::new();
            while !sim.finished(&overlay, &proto, cfg) {
                trajectory.push(sim.step(&overlay, &proto, cfg, &mut rng));
                let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
                overlay.rewire(4, &mut churn_rng);
                sim.apply_joins(&proto, &events.joined);
                sim.apply_leaves(&events.left);
                sim.apply_rejoins(&proto, &events.rejoined);
                // Every rejoined slot starts over uninformed.
                for &v in &events.rejoined {
                    assert_eq!(
                        sim.informed_at(v),
                        None,
                        "rejoined slot {v} kept the departed peer's informedness"
                    );
                }
                assert!(trajectory.len() < 2_000, "runaway run");
            }
            let slots = Topology::node_count(&overlay);
            let deliveries: Vec<Option<Round>> =
                (0..slots).map(|i| sim.informed_at(NodeId::new(i))).collect();
            (trajectory, deliveries, sim.into_report(&overlay, cfg))
        })
    };
    let serial = run(1);
    for shards in [2usize, 4] {
        assert_eq!(serial, run(shards), "rejoin handling diverged at {shards} shards");
    }
}
