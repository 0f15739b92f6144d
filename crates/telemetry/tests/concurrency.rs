//! Contention tests: no lost increments, no lost observations.

use crowdnet_telemetry::Telemetry;

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn counter_loses_no_increments_under_contention() {
    let t = Telemetry::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let t = t.clone();
            scope.spawn(move || {
                let c = t.counter("contended");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(t.counter("contended").value(), THREADS as u64 * PER_THREAD);
}

#[test]
fn histogram_loses_no_observations_under_contention() {
    let t = Telemetry::new();
    std::thread::scope(|scope| {
        for i in 0..THREADS {
            let t = t.clone();
            scope.spawn(move || {
                let h = t.histogram_with("contended", &[8, 64, 512]);
                for j in 0..PER_THREAD {
                    h.record((i as u64 * 31 + j) % 1000);
                }
            });
        }
    });
    let snap = t.histogram_with("contended", &[8, 64, 512]).snapshot();
    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(snap.count, expected);
    assert_eq!(snap.counts.iter().sum::<u64>(), expected);
    assert_eq!(snap.min, Some(0));
    assert_eq!(snap.max, Some(999));
}

#[test]
fn registry_races_resolve_to_one_metric_per_name() {
    let t = Telemetry::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let t = t.clone();
            scope.spawn(move || {
                // Everyone races to create the same names; each inc must
                // land on the single shared counter.
                for name in ["a", "b", "c"] {
                    t.counter(name).inc();
                }
            });
        }
    });
    for name in ["a", "b", "c"] {
        assert_eq!(t.counter(name).value(), THREADS as u64, "counter {name}");
    }
    assert_eq!(t.registry().counter_values().len(), 3);
}
