//! Property-based tests for the temporal-privacy core: buffer/victim
//! invariants and whole-simulation conservation laws on randomized
//! configurations.

use proptest::prelude::*;
use tempriv_core::adversary::{AdaptiveAdversary, BaselineAdversary, RouteAwareAdversary};
use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::config::{ExperimentConfig, LayoutSpec};
use tempriv_core::delay::{DelayPlan, DelayStrategy};
use tempriv_core::metrics::evaluate_adversary;
use tempriv_net::ids::{FlowId, NodeId, PacketId};
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::rng::{RngFactory, SimRng};
use tempriv_sim::time::SimTime;

/// The reference victim rule: a linear scan over buffered
/// `(id, buffered_at, release_at)` entries in any order. Ties break
/// toward the smallest id; Random takes one `sample_index` draw and picks
/// the idx-th smallest id; the other policies never draw.
fn select_victim_scan(
    entries: &[(PacketId, SimTime, SimTime)],
    policy: VictimPolicy,
    rng: &mut SimRng,
) -> Option<PacketId> {
    if entries.is_empty() {
        return None;
    }
    let id = match policy {
        VictimPolicy::ShortestRemaining => entries.iter().min_by_key(|e| (e.2, e.0))?.0,
        VictimPolicy::LongestRemaining => {
            entries
                .iter()
                .max_by(|a, b| a.2.cmp(&b.2).then_with(|| b.0.cmp(&a.0)))?
                .0
        }
        VictimPolicy::Oldest => entries.iter().min_by_key(|e| (e.1, e.0))?.0,
        VictimPolicy::Random => {
            let mut ids: Vec<PacketId> = entries.iter().map(|e| e.0).collect();
            ids.sort_unstable();
            ids[rng.sample_index(ids.len())]
        }
        _ => unreachable!("the four shipped policies"),
    };
    Some(id)
}

fn arb_traffic() -> impl Strategy<Value = TrafficModel> {
    prop_oneof![
        (0.5f64..20.0).prop_map(TrafficModel::periodic),
        (0.5f64..20.0).prop_map(|i| TrafficModel::periodic_jitter(i, 0.2)),
        (0.05f64..1.0).prop_map(TrafficModel::poisson),
    ]
}

fn arb_delay() -> impl Strategy<Value = DelayPlan> {
    prop_oneof![
        Just(DelayPlan::no_delay()),
        (1.0f64..60.0).prop_map(DelayPlan::shared_exponential),
        (1.0f64..60.0).prop_map(|m| DelayPlan::Shared(DelayStrategy::Uniform { mean: m })),
        (1.0f64..60.0).prop_map(|m| DelayPlan::Shared(DelayStrategy::Constant { delay: m })),
    ]
}

fn arb_victim() -> impl Strategy<Value = VictimPolicy> {
    prop_oneof![
        Just(VictimPolicy::ShortestRemaining),
        Just(VictimPolicy::LongestRemaining),
        Just(VictimPolicy::Random),
        Just(VictimPolicy::Oldest),
    ]
}

fn arb_buffer() -> impl Strategy<Value = BufferPolicy> {
    prop_oneof![
        Just(BufferPolicy::Unlimited),
        (1usize..20).prop_map(|capacity| BufferPolicy::DropTail { capacity }),
        (1usize..20, arb_victim())
            .prop_map(|(capacity, victim)| BufferPolicy::Rcad { capacity, victim }),
        (1usize..15).prop_map(|threshold| BufferPolicy::ThresholdMix { threshold }),
    ]
}

fn arb_layout() -> impl Strategy<Value = LayoutSpec> {
    prop_oneof![
        (1u32..12).prop_map(|hops| LayoutSpec::Line { hops }),
        (0u32..5, prop::collection::vec(1u32..10, 1..4)).prop_map(|(trunk, extra)| {
            LayoutSpec::Convergecast {
                trunk_hops: trunk,
                flow_hops: extra.into_iter().map(|e| trunk + e).collect(),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation across the whole randomized configuration space:
    /// created = delivered + dropped (+ link losses, here zero), truth
    /// and observation logs stay consistent, occupancy respects capacity,
    /// and two runs with the same seed agree exactly.
    #[test]
    fn simulation_conservation_laws(
        layout in arb_layout(),
        traffic in arb_traffic(),
        delay in arb_delay(),
        buffer in arb_buffer(),
        seed in any::<u64>(),
    ) {
        let cfg = ExperimentConfig {
            layout,
            traffic,
            packets_per_source: 120,
            delay,
            buffer,
            link_delay: 1.0,
            link_loss: 0.0,
            link_jitter: 0.0,
            seed,
        };
        let sim = cfg.build().expect("random config is valid");
        let out = sim.run();

        let created: u64 = out.flows.iter().map(|f| f.created).sum();
        prop_assert_eq!(created, 120 * out.flows.len() as u64);
        prop_assert_eq!(
            out.total_delivered() + out.total_drops() + out.total_stranded(),
            created
        );
        prop_assert_eq!(out.observations.len() as u64, out.total_delivered());
        prop_assert_eq!(out.truth.len() as u64, created);

        // Per-observation sanity: arrival after creation; flow hop counts
        // match the deployment.
        let knowledge = sim.adversary_knowledge();
        for obs in &out.observations {
            let truth = out.creation_time(obs.packet);
            prop_assert!(obs.arrival >= truth);
            prop_assert_eq!(obs.hop_count, knowledge.flow_hops[obs.flow.index()]);
        }

        // Only mixes strand packets.
        if !matches!(buffer, BufferPolicy::ThresholdMix { .. }) {
            prop_assert_eq!(out.total_stranded(), 0);
        }

        // Capacity is never violated.
        if let Some(cap) = buffer.capacity() {
            for node in out.field_reports() {
                prop_assert!(node.peak_occupancy <= cap as u64);
            }
        }

        // Only RCAD preempts; only drop-tail drops.
        match buffer {
            BufferPolicy::Unlimited => {
                prop_assert_eq!(out.total_preemptions(), 0);
                prop_assert_eq!(out.total_drops(), 0);
            }
            BufferPolicy::DropTail { .. } => prop_assert_eq!(out.total_preemptions(), 0),
            BufferPolicy::Rcad { .. } => prop_assert_eq!(out.total_drops(), 0),
            BufferPolicy::ThresholdMix { .. } => {
                prop_assert_eq!(out.total_preemptions(), 0);
                prop_assert_eq!(out.total_drops(), 0);
            }
            _ => unreachable!("strategy only yields the four policies"),
        }

        // Determinism.
        let again = cfg.build().expect("same config").run();
        prop_assert_eq!(out, again);
    }

    /// Latency lower bound: nothing arrives faster than h*tau, and with
    /// no artificial delay it arrives exactly at h*tau.
    #[test]
    fn latency_bounds(layout in arb_layout(), seed in any::<u64>()) {
        let cfg = ExperimentConfig {
            layout,
            traffic: TrafficModel::periodic(3.0),
            packets_per_source: 60,
            delay: DelayPlan::no_delay(),
            buffer: BufferPolicy::Unlimited,
            link_delay: 1.0,
            link_loss: 0.0,
            link_jitter: 0.0,
            seed,
        };
        let out = cfg.build().unwrap().run();
        for flow in &out.flows {
            prop_assert!((flow.latency.mean() - f64::from(flow.hops)).abs() < 1e-9);
            prop_assert!(flow.latency.population_variance() < 1e-12);
        }
    }

    /// Every adversary produces one finite estimate per observation, and
    /// estimates never postdate the arrival (delays are non-negative).
    #[test]
    fn adversaries_are_total_and_causal(
        inv_lambda in 1.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let cfg = ExperimentConfig {
            layout: LayoutSpec::PaperFigure1,
            traffic: TrafficModel::periodic(inv_lambda),
            packets_per_source: 150,
            delay: DelayPlan::shared_exponential(30.0),
            buffer: BufferPolicy::paper_rcad(),
            link_delay: 1.0,
            link_loss: 0.0,
            link_jitter: 0.0,
            seed,
        };
        let sim = cfg.build().unwrap();
        let out = sim.run();
        let knowledge = sim.adversary_knowledge();
        let adversaries: Vec<Box<dyn tempriv_core::adversary::Adversary>> = vec![
            Box::new(BaselineAdversary),
            Box::new(AdaptiveAdversary::paper_default()),
            Box::new(RouteAwareAdversary::paper_default()),
        ];
        for adv in &adversaries {
            let est = adv.estimate_creation_times(&out.observations, &knowledge);
            prop_assert_eq!(est.len(), out.observations.len());
            for (obs, e) in out.observations.iter().zip(&est) {
                prop_assert!(e.is_finite());
                prop_assert!(*e <= obs.arrival.as_units() + 1e-9);
            }
            // And the report machinery accepts them.
            let report = evaluate_adversary(&out, adv.as_ref(), &knowledge);
            prop_assert_eq!(report.overall.count(), out.observations.len() as u64);
        }
    }

    /// Victim selection always returns a buffered packet, respects its
    /// policy, and agrees with the scan reference on random buffer
    /// contents (coarse times, so ties exercise the id tie-break).
    #[test]
    fn victim_selection_respects_policy(
        entries in prop::collection::vec((0u64..32, 0u64..32), 1..30),
        policy in arb_victim(),
    ) {
        use tempriv_core::store::{PacketStore, StoreBuffer};

        let mut store = PacketStore::new();
        let mut buf = StoreBuffer::for_policy(&BufferPolicy::Rcad { capacity: 30, victim: policy });
        let mut reference = Vec::new();
        for (i, &(buffered, release)) in entries.iter().enumerate() {
            let (buffered, release) = (SimTime::from_ticks(buffered), SimTime::from_ticks(release));
            let slot = store.alloc(PacketId(i as u64), FlowId(0), NodeId(0), buffered, 0.0);
            store.park(slot, buffered, release, None);
            buf.insert(&store, slot);
            reference.push((PacketId(i as u64), buffered, release));
        }
        let mut rng = RngFactory::new(7).stream(0);
        let victim = buf.select_victim(policy, &mut rng).expect("non-empty buffer");
        prop_assert!(victim.0 < entries.len() as u64);
        match policy {
            VictimPolicy::ShortestRemaining => {
                let min = entries.iter().map(|&(_, r)| r).min().unwrap();
                prop_assert_eq!(entries[victim.0 as usize].1, min);
            }
            VictimPolicy::LongestRemaining => {
                let max = entries.iter().map(|&(_, r)| r).max().unwrap();
                prop_assert_eq!(entries[victim.0 as usize].1, max);
            }
            VictimPolicy::Oldest => {
                let min = entries.iter().map(|&(b, _)| b).min().unwrap();
                prop_assert_eq!(entries[victim.0 as usize].0, min);
            }
            VictimPolicy::Random => {}
            _ => unreachable!("strategy only yields the four policies"),
        }
        let mut r_ref = RngFactory::new(7).stream(0);
        prop_assert_eq!(Some(victim), select_victim_scan(&reference, policy, &mut r_ref));
        prop_assert_eq!(rng.draws(), r_ref.draws());
    }

    /// The SoA [`PacketStore`]/[`StoreBuffer`] data plane tracks a
    /// boxed-packet reference model (one `Box` per packet plus the
    /// `select_victim_scan` linear scan) under arbitrary interleavings of
    /// alloc / park / hop / unbuffer / victim-select / free / drain:
    /// identical per-packet state through the accessors, identical
    /// buffered sets, identical victims with identical RNG draw counts,
    /// identical drain order — and slab columns never grow past the
    /// peak live count (freed slots really recycle).
    #[test]
    fn packet_store_matches_boxed_reference_model(
        victim in arb_victim(),
        ops in prop::collection::vec(
            (0u8..7, any::<u64>(), 0u64..24, 0u64..24),
            1..160,
        ),
        seed in any::<u64>(),
    ) {
        use std::collections::BTreeMap;
        use tempriv_core::store::{PacketStore, StoreBuffer};

        /// One heap-boxed packet record, as the pre-SoA driver kept them.
        struct RefPacket {
            slot: u32,
            flow: FlowId,
            origin: NodeId,
            hops: u32,
            created_at: SimTime,
            reading: f64,
            buffered_at: SimTime,
            release_at: SimTime,
        }

        let policy = BufferPolicy::Rcad { capacity: 16, victim };
        let mut store = PacketStore::new();
        let mut buf = StoreBuffer::for_policy(&policy);
        let mut model: BTreeMap<PacketId, Box<RefPacket>> = BTreeMap::new();
        let mut buffered: Vec<PacketId> = Vec::new();
        let mut next_pid = 0u64;
        let mut peak_live = 0usize;
        let mut drained = Vec::new();

        for &(op, pick, t_buf, t_rel) in &ops {
            let loose: Vec<PacketId> = model
                .keys()
                .filter(|pid| !buffered.contains(pid))
                .copied()
                .collect();
            match op {
                // Alloc a fresh packet in both worlds.
                0 | 1 => {
                    let pid = PacketId(next_pid);
                    let flow = FlowId((pick % 4) as u32);
                    let origin = NodeId((pick % 30 + 1) as u32);
                    let created = SimTime::from_ticks(t_buf);
                    let reading = pick as f64;
                    let slot = store.alloc(pid, flow, origin, created, reading);
                    model.insert(pid, Box::new(RefPacket {
                        slot,
                        flow,
                        origin,
                        hops: 0,
                        created_at: created,
                        reading,
                        buffered_at: SimTime::ZERO,
                        release_at: SimTime::ZERO,
                    }));
                    next_pid += 1;
                }
                // Park a loose packet in both worlds (coarse, heavily
                // colliding timestamps to exercise tie-breaks).
                2 => {
                    if let Some(&pid) = loose.get(pick as usize % loose.len().max(1)) {
                        let rec = model.get_mut(&pid).unwrap();
                        rec.buffered_at = SimTime::from_ticks(t_buf);
                        rec.release_at = SimTime::from_ticks(t_rel);
                        store.park(rec.slot, rec.buffered_at, rec.release_at, None);
                        buf.insert(&store, rec.slot);
                        let pos = buffered.partition_point(|&p| p < pid);
                        buffered.insert(pos, pid);
                    }
                }
                // Record a forwarding hop on any live packet.
                3 => {
                    if !model.is_empty() {
                        let idx = pick as usize % model.len();
                        let (_, rec) = model.iter_mut().nth(idx).unwrap();
                        store.record_hop(rec.slot);
                        rec.hops += 1;
                    }
                }
                // Un-buffer one packet in both worlds.
                4 => {
                    if !buffered.is_empty() {
                        let pid = buffered.remove(pick as usize % buffered.len());
                        let slot = buf.remove(&store, pid);
                        prop_assert_eq!(slot, Some(model[&pid].slot));
                    }
                }
                // Free a loose packet (delivered/dropped); the slot goes
                // back to the slab's free list.
                5 => {
                    if let Some(&pid) = loose.get(pick as usize % loose.len().max(1)) {
                        let rec = model.remove(&pid).unwrap();
                        store.release(rec.slot);
                    }
                }
                // Mix flush: drain in ascending id order.
                _ => {
                    drained.clear();
                    buf.drain_slots_into(&mut drained);
                    let ids: Vec<PacketId> =
                        drained.iter().map(|&s| store.pid(s)).collect();
                    prop_assert_eq!(&ids, &buffered, "drain order diverged");
                    buffered.clear();
                }
            }
            peak_live = peak_live.max(model.len());

            // Both worlds agree after every operation.
            prop_assert_eq!(store.live(), model.len());
            prop_assert_eq!(buf.len(), buffered.len());
            let entry_ids: Vec<PacketId> = buf.entries().iter().map(|&(pid, _)| pid).collect();
            prop_assert_eq!(&entry_ids, &buffered, "buffered id sets diverged");
            for (pid, rec) in &model {
                prop_assert_eq!(store.pid(rec.slot), *pid);
                prop_assert_eq!(store.flow(rec.slot), rec.flow);
                prop_assert_eq!(store.origin(rec.slot), rec.origin);
                prop_assert_eq!(store.hop_count(rec.slot), rec.hops);
                prop_assert_eq!(store.created_at(rec.slot), rec.created_at);
                prop_assert!((store.reading(rec.slot) - rec.reading).abs() < 1e-12);
                if buffered.contains(pid) {
                    prop_assert_eq!(store.buffered_at(rec.slot), rec.buffered_at);
                    prop_assert_eq!(store.release_at(rec.slot), rec.release_at);
                }
            }
            // Identical victims from identical RNG states, with identical
            // draw counts (Random draws exactly once, the rest never).
            if !buffered.is_empty() {
                let entries: Vec<_> = buffered
                    .iter()
                    .map(|pid| (*pid, model[pid].buffered_at, model[pid].release_at))
                    .collect();
                let mut r_soa = RngFactory::new(seed).stream(next_pid);
                let mut r_ref = RngFactory::new(seed).stream(next_pid);
                prop_assert_eq!(
                    buf.select_victim(victim, &mut r_soa),
                    select_victim_scan(&entries, victim, &mut r_ref)
                );
                prop_assert_eq!(r_soa.draws(), r_ref.draws());
            }
            // Zero-alloc steady state: columns never outgrow peak live.
            prop_assert!(
                store.capacity() <= peak_live,
                "slab grew past the live high-water mark ({} > {})",
                store.capacity(),
                peak_live
            );
        }
    }
}
