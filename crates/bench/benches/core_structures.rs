//! Data-structure microbenchmarks for the hot-path core: event-queue
//! push/pop/cancel mixes and `StoreBuffer` victim selection across every
//! victim policy at several occupancies.
//!
//! These benches target the structures themselves (no network on top);
//! `kernel.rs` covers the end-to-end event rate and `perf_baseline
//! --bench scale` covers whole-simulation throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::store::{PacketStore, StoreBuffer};
use tempriv_net::ids::{FlowId, NodeId, PacketId};
use tempriv_sim::queue::EventQueue;
use tempriv_sim::rng::RngFactory;
use tempriv_sim::time::{SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");

    // Pure push-then-drain: the heap's best case, no tombstones at all.
    group.bench_function("push_pop_10k", |b| {
        let mut rng = RngFactory::new(11).stream(0);
        let times: Vec<SimTime> = (0..10_000)
            .map(|_| SimTime::from_units(rng.sample_exp(10.0)))
            .collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i);
            }
            let mut sum = 0usize;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            sum
        });
    });

    // RCAD-style steady state: every push is likely to be cancelled and
    // replaced before it fires, so tombstones accumulate and compaction
    // has to keep the heap bounded.
    group.bench_function("interleaved_cancel_10k", |b| {
        let mut rng = RngFactory::new(12).stream(0);
        let times: Vec<SimTime> = (0..10_000)
            .map(|_| SimTime::from_units(rng.sample_exp(10.0)))
            .collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut last = None;
            for (i, &t) in times.iter().enumerate() {
                if let Some(id) = last.take() {
                    q.cancel(id);
                }
                last = Some(q.push(t, i));
                if i % 4 == 3 {
                    // Let some events fire so the queue drains too.
                    q.pop();
                }
            }
            let mut n = 0usize;
            while q.pop().is_some() {
                n += 1;
            }
            n
        });
    });

    // Worst case for the old design: cancel almost everything, then pop
    // the survivors through the tombstone field.
    group.bench_function("cancel_90pct_then_drain_10k", |b| {
        let mut rng = RngFactory::new(13).stream(0);
        let times: Vec<SimTime> = (0..10_000)
            .map(|_| SimTime::from_units(rng.sample_exp(10.0)))
            .collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = times.iter().map(|&t| q.push(t, ())).collect();
            for (i, id) in ids.iter().enumerate() {
                if i % 10 != 0 {
                    q.cancel(*id);
                }
            }
            let mut n = 0usize;
            while q.pop().is_some() {
                n += 1;
            }
            n
        });
    });

    group.finish();
}

/// Builds a store and a buffer holding `k` parked packets with
/// distinct pseudo-random release and arrival times, indexed for the
/// given policy.
fn filled_buffer(k: usize, victim: VictimPolicy) -> (PacketStore, StoreBuffer) {
    let policy = BufferPolicy::Rcad {
        capacity: k,
        victim,
    };
    let mut store = PacketStore::with_capacity(k + 1);
    let mut buf = StoreBuffer::for_policy(&policy);
    let mut rng = RngFactory::new(21).stream(0);
    for i in 0..k {
        let buffered_at = SimTime::from_units(rng.sample_exp(5.0));
        let release_at = buffered_at + SimDuration::from_units(rng.sample_exp(30.0));
        let slot = store.alloc(PacketId(i as u64), FlowId(0), NodeId(1), buffered_at, 0.0);
        store.park(slot, buffered_at, release_at, None);
        buf.insert(&store, slot);
    }
    (store, buf)
}

fn bench_victim_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("victim_selection");
    let policies = [
        VictimPolicy::ShortestRemaining,
        VictimPolicy::LongestRemaining,
        VictimPolicy::Oldest,
        VictimPolicy::Random,
    ];

    for &k in &[10usize, 100, 1000] {
        for &victim in &policies {
            // Steady-state preemption churn: pick a victim, evict it,
            // admit a replacement into the freed slot. This is what RCAD
            // does on every arrival at a full buffer, and it exercises
            // both the select path and index maintenance. The buffer
            // stays full across iterations, so every one measures the
            // same occupancy.
            let name = format!("{}_k{}", victim.name(), k);
            group.bench_function(&name, |b| {
                let (mut store, mut buf) = filled_buffer(k, victim);
                let mut rng = RngFactory::new(22).stream(0);
                let mut next_id = k as u64;
                b.iter(|| {
                    for _ in 0..64 {
                        let id = buf
                            .select_victim(victim, &mut rng)
                            .expect("buffer is non-empty");
                        let slot = buf.remove(&store, id).expect("victim is buffered");
                        let (buffered_at, release_at) =
                            (store.buffered_at(slot), store.release_at(slot));
                        store.release(slot);
                        let fresh =
                            store.alloc(PacketId(next_id), FlowId(0), NodeId(1), buffered_at, 0.0);
                        store.park(
                            fresh,
                            buffered_at,
                            release_at + SimDuration::from_units(1.0),
                            None,
                        );
                        buf.insert(&store, fresh);
                        next_id += 1;
                    }
                    buf.len()
                });
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_victim_selection);
criterion_main!(benches);
