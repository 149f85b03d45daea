//! Oracle for the lean window summary.
//!
//! The asynchronous parallel engine settles windows on
//! [`SystemSim::step`]'s three scalars instead of a full ledger delta.
//! That is only sound if, window by window, (a) the scalar `host_lines`
//! equals the ledger delta's (the simulator's PCIe DMA ledger entries are
//! sourced solely from the memory engine's access counters), and (b)
//! `next_event` really is the idle-skip oracle: a window whose horizon it
//! clears processes nothing. This file pins both on a simulator driven
//! window-by-window, with the ledger delta taken around each step.

use kvd_core::system::{SystemSim, SystemSimConfig};
use kvd_core::KvDirectConfig;
use kvd_net::KvRequest;
use kvd_sim::SimTime;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn preloaded(pop: u64, batch: usize) -> SystemSim {
    let mut sim = SystemSim::new(SystemSimConfig::paper(
        KvDirectConfig::with_memory(1 << 20),
        batch,
    ));
    for id in 0..pop {
        sim.store_mut()
            .put(&id.to_le_bytes(), &[id as u8; 8])
            .expect("preload fits");
    }
    sim
}

fn stream(pop: u64, n: usize, seed: u64) -> Vec<KvRequest> {
    (0..n as u64)
        .map(|i| {
            let id = splitmix(seed ^ i) % pop;
            if splitmix(i).is_multiple_of(10) {
                KvRequest::put(&id.to_le_bytes(), &[7u8; 8])
            } else {
                KvRequest::get(&id.to_le_bytes())
            }
        })
        .collect()
}

#[test]
fn step_host_lines_match_the_ledger_delta_per_window() {
    const POP: u64 = 2_000;
    let mut sim = preloaded(POP, 24);
    sim.load_owned(stream(POP, 6_000, 0x5EED));

    let quantum = SimTime::from_us(8);
    let mut floor = SimTime::ZERO;
    let mut windows = 0u32;
    let mut busy = 0u32;
    loop {
        let horizon = floor + quantum;
        let skip = sim.next_event() >= horizon;
        let base = sim.ledger();
        let w = sim.step(horizon, floor);
        let delta = sim.ledger().since(&base);
        assert_eq!(
            delta.host_lines(),
            w.host_lines,
            "window {windows}: ledger-delta vs memory-stats host lines"
        );
        if skip {
            assert_eq!(
                w.host_lines, 0,
                "window {windows}: next_event cleared the horizon, yet the window issued traffic"
            );
        }
        busy += u32::from(w.host_lines > 0);
        // Inject a stall every third window so the floored path is
        // exercised, not just back-to-back quanta.
        let stall = if windows % 3 == 2 {
            SimTime::from_us(5)
        } else {
            SimTime::ZERO
        };
        sim.absorb_host_stall(stall, quantum);
        floor = horizon + stall;
        windows += 1;
        if w.done {
            break;
        }
        assert!(windows < 1_000_000, "stream failed to drain");
    }
    assert!(busy > 3, "stream should span several busy windows");
    assert_eq!(sim.report().ops, 6_000);
}

#[test]
fn next_event_is_max_once_drained_and_skipped_windows_are_free() {
    const POP: u64 = 500;
    let mut sim = preloaded(POP, 8);
    sim.load_owned(stream(POP, 400, 0xA11));
    let mut floor = SimTime::ZERO;
    let quantum = SimTime::from_us(8);
    loop {
        let out = sim.step(floor + quantum, floor);
        floor += quantum;
        if out.done {
            assert_eq!(
                out.next_event,
                SimTime::MAX,
                "drained shard must report MAX"
            );
            break;
        }
    }
    assert_eq!(sim.next_event(), SimTime::MAX);
    // Stepping a drained simulator is a no-op window.
    let extra = sim.step(floor + quantum, floor);
    assert_eq!(extra.host_lines, 0);
    assert!(extra.done);
}
