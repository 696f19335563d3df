//! Stress and edge-case tests for the virtual-time executor.

use bolted_sim::{channel, join_all, lock, Resource, Rng, Sim, SimDuration, SimTime};

use std::sync::{Arc, Mutex};

#[test]
fn ten_thousand_interleaved_timers_fire_in_order() {
    let sim = Sim::new();
    let fired = Arc::new(Mutex::new(Vec::with_capacity(10_000)));
    let mut rng = Rng::seed_from_u64(99);
    for _ in 0..10_000 {
        let d = rng.gen_range(1_000_000) + 1;
        let sim2 = sim.clone();
        let fired2 = Arc::clone(&fired);
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_nanos(d)).await;
            lock(&fired2).push(sim2.now().as_nanos());
        });
    }
    assert_eq!(sim.run(), 0);
    let fired = lock(&fired);
    assert_eq!(fired.len(), 10_000);
    assert!(fired.windows(2).all(|w| w[0] <= w[1]), "monotonic firing");
}

#[test]
fn sleep_until_in_the_past_completes_immediately() {
    let sim = Sim::new();
    sim.block_on({
        let sim2 = sim.clone();
        async move {
            sim2.sleep(SimDuration::from_secs(10)).await;
            // Deadline already passed: must not hang or rewind.
            sim2.sleep_until(SimTime::from_nanos(5)).await;
            assert_eq!(sim2.now().as_secs_f64(), 10.0);
        }
    });
}

#[test]
fn join_handle_try_take_only_once() {
    let sim = Sim::new();
    let h = sim.spawn(async { 5 });
    sim.run();
    assert!(h.is_finished());
    assert_eq!(h.try_take(), Some(5));
    assert_eq!(h.try_take(), None, "output is consumed");
}

#[test]
fn deeply_nested_spawns() {
    let sim = Sim::new();
    fn level(sim: Sim, depth: u32) -> bolted_sim::JoinHandle<u32> {
        let inner_sim = sim.clone();
        sim.spawn(async move {
            if depth == 0 {
                0
            } else {
                let inner = level(inner_sim.clone(), depth - 1);
                inner_sim.sleep(SimDuration::from_nanos(1)).await;
                inner.await + 1
            }
        })
    }
    let sim2 = sim.clone();
    let h = level(sim2, 100);
    sim.run();
    assert_eq!(h.try_take(), Some(100));
}

#[test]
fn resource_pipeline_through_channel() {
    // Producer -> channel -> consumer holding a resource: a classic
    // two-stage pipeline must preserve order and conserve time.
    let sim = Sim::new();
    let (tx, rx) = channel::<u32>();
    let stage = Resource::new(&sim, 1);
    let out = Arc::new(Mutex::new(Vec::new()));
    let sim_p = sim.clone();
    sim.spawn(async move {
        for i in 0..20 {
            sim_p.sleep(SimDuration::from_millis(5)).await;
            tx.send(i);
        }
    });
    let (sim_c, stage_c, out_c) = (sim.clone(), stage.clone(), Arc::clone(&out));
    sim.spawn(async move {
        while let Some(v) = rx.recv().await {
            stage_c.visit(SimDuration::from_millis(10)).await;
            let _ = sim_c.now();
            lock(&out_c).push(v);
        }
    });
    assert_eq!(sim.run(), 0);
    assert_eq!(*lock(&out), (0..20).collect::<Vec<_>>());
    // 20 items at 10ms service, arrivals every 5ms: consumer-bound.
    assert!((0.20..0.22).contains(&sim.now().as_secs_f64()));
}

#[test]
fn massive_fanout_join_all() {
    let sim = Sim::new();
    let sim2 = sim.clone();
    let total: u64 = sim.block_on(async move {
        let handles: Vec<_> = (0..5000u64)
            .map(|i| {
                let s = sim2.clone();
                sim2.spawn(async move {
                    s.sleep(SimDuration::from_nanos(i % 97 + 1)).await;
                    i
                })
            })
            .collect();
        join_all(handles).await.into_iter().sum()
    });
    assert_eq!(total, 5000 * 4999 / 2);
}

#[test]
fn resource_stats_under_bursty_load() {
    let sim = Sim::new();
    let res = Resource::new(&sim, 3);
    for burst in 0..5u64 {
        for _ in 0..10 {
            let (sim2, res2) = (sim.clone(), res.clone());
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_secs(burst * 100)).await;
                res2.visit(SimDuration::from_secs(7)).await;
            });
        }
    }
    assert_eq!(sim.run(), 0);
    // Each burst: 10 jobs, capacity 3 => ceil(10/3)=4 waves of 7s = 28s.
    assert_eq!(sim.now().as_secs_f64(), 400.0 + 28.0);
    assert!(res.max_queue_len() >= 7);
}
