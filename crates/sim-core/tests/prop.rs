//! Property tests of the simulation substrate.

use linger_sim_core::{
    Context, Engine, EventQueue, NodeIndex, RngFactory, SimDuration, SimTime, Simulation,
};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #[test]
    fn queue_is_stable_for_equal_timestamps(
        groups in prop::collection::vec((0u64..50, 1usize..6), 1..40),
    ) {
        // Events scheduled at the same instant pop in scheduling order.
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut serial = 0usize;
        for (t, count) in groups {
            for _ in 0..count {
                q.schedule(SimTime::from_secs(t), serial);
                expected.push((t, serial));
                serial += 1;
            }
        }
        expected.sort_by_key(|&(t, s)| (t, s));
        let mut got = Vec::new();
        while let Some((at, e)) = q.pop() {
            got.push((at.as_nanos() / 1_000_000_000, e));
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn engine_clock_never_regresses(
        delays_ms in prop::collection::vec(0u64..5_000, 1..100),
    ) {
        struct Recorder {
            delays: Vec<u64>,
            next: usize,
            times: Vec<SimTime>,
        }
        impl Simulation for Recorder {
            type Event = ();
            fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
                self.times.push(ctx.now());
                if self.next < self.delays.len() {
                    let d = self.delays[self.next];
                    self.next += 1;
                    ctx.schedule_in(SimDuration::from_millis(d), ());
                }
            }
        }
        let mut eng = Engine::new(Recorder { delays: delays_ms.clone(), next: 0, times: vec![] });
        eng.prime(SimTime::ZERO, ());
        eng.run_to_completion();
        let times = &eng.model().times;
        prop_assert_eq!(times.len(), delays_ms.len() + 1);
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn rng_streams_are_independent_and_stable(
        master in any::<u64>(),
        dom_a in 0u32..16,
        dom_b in 0u32..16,
        idx_a in 0u64..1000,
        idx_b in 0u64..1000,
    ) {
        let f = RngFactory::new(master);
        let take = |d: u32, i: u64| -> Vec<u64> {
            let mut r = f.stream_for(d, i);
            (0..4).map(|_| r.random()).collect()
        };
        prop_assert_eq!(take(dom_a, idx_a), take(dom_a, idx_a));
        if (dom_a, idx_a) != (dom_b, idx_b) {
            prop_assert_ne!(take(dom_a, idx_a), take(dom_b, idx_b));
        }
    }

    #[test]
    fn node_index_matches_naive_scan_after_every_op(
        capacity in 1usize..600,
        ops in prop::collection::vec((0usize..600, 0u8..3), 0..300),
    ) {
        // The incremental index must agree with a naive Vec<bool> full
        // scan after *every* mutation: membership, length, ascending
        // iteration order, and min/max queries.
        let mut idx = NodeIndex::new(capacity);
        let mut naive = vec![false; capacity];
        for (raw_id, op) in ops {
            let id = raw_id % capacity;
            match op {
                0 => {
                    let newly = idx.insert(id);
                    prop_assert_eq!(newly, !naive[id]);
                    naive[id] = true;
                }
                1 => {
                    let was = idx.remove(id);
                    prop_assert_eq!(was, naive[id]);
                    naive[id] = false;
                }
                _ => {
                    naive[id] = !naive[id];
                    idx.set(id, naive[id]);
                }
            }
            let scan: Vec<usize> = (0..capacity).filter(|&i| naive[i]).collect();
            prop_assert_eq!(idx.len(), scan.len());
            prop_assert_eq!(idx.iter().collect::<Vec<_>>(), scan.clone());
            prop_assert_eq!(idx.first(), scan.first().copied());
            prop_assert_eq!(idx.last(), scan.last().copied());
            prop_assert_eq!(idx.contains(id), naive[id]);
        }
    }

    #[test]
    fn node_index_intersection_matches_naive_scan(
        capacity in 1usize..600,
        free_bits in prop::collection::vec(any::<bool>(), 600),
        idle_bits in prop::collection::vec(any::<bool>(), 600),
    ) {
        // free ∧ idle — the placement query both cluster simulators run
        // per window — must match the naive double-filter scan.
        let mut free = NodeIndex::new(capacity);
        let mut idle = NodeIndex::new(capacity);
        for i in 0..capacity {
            free.set(i, free_bits[i]);
            idle.set(i, idle_bits[i]);
        }
        let scan: Vec<usize> =
            (0..capacity).filter(|&i| free_bits[i] && idle_bits[i]).collect();
        prop_assert_eq!(free.iter_and(&idle).collect::<Vec<_>>(), scan.clone());
        prop_assert_eq!(free.last_and(&idle), scan.last().copied());
    }
}
