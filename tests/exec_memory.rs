//! What the grid scheduler keeps per replication: a tracking global
//! allocator records live and peak heap bytes on every thread, and a
//! 2-thread [`run_grid`] over 64 cells must peak within 16 bytes per grid
//! replication above its starting level. Result memory has to follow the
//! cells in flight; columns sized for the whole grid up front (five
//! per-replication columns and a flag, ~34 bytes) or a probe slot per
//! replication (~2 KB) cannot fit.
//!
//! This file deliberately holds ONE test: the allocator is process-global,
//! and the default test harness runs sibling tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use churnbal::cluster::{run_grid, PointJob, SimOptions, SystemConfig};
use churnbal::core::Lbp2;

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: the obligations are exactly `System`'s — every call is forwarded
// verbatim, and the counters have no effect on layouts or pointers.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

const POINTS: u64 = 32;
const POLICIES: usize = 2;
const REPS: u64 = 500;

/// Runs the 32-point × 2-policy grid of 500 replications each on two
/// threads and returns the heap peak above the level at the call, after
/// checking that every cell arrives in order with `probes_per_rep`
/// probe reports per replication.
fn grid_peak(config: &SystemConfig, options: SimOptions, probes_per_rep: usize) -> usize {
    // One job per (point, policy) cell, every cell of a point on its seed.
    let jobs: Vec<PointJob<'_>> = (0..POINTS * POLICIES as u64)
        .map(|cell| PointJob {
            config,
            reps: REPS,
            seed: cell / POLICIES as u64,
            rep_base: 0,
            antithetic: false,
            options,
        })
        .collect();
    let mut next = 0usize;
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    run_grid(
        &jobs,
        &|cell, _| Lbp2::new(if cell % POLICIES == 0 { 1.0 } else { 0.5 }),
        2,
        0,
        |cell, stats| {
            assert_eq!(cell, next, "cells drain in grid order");
            next += 1;
            assert_eq!(stats.completion_times.len() as u64, REPS);
            assert_eq!(stats.probes.len(), probes_per_rep * REPS as usize);
            Ok(())
        },
    )
    .expect("grid runs");
    assert_eq!(next, POINTS as usize * POLICIES, "every cell emits");
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

#[test]
fn grid_result_memory_follows_the_cells_in_flight() {
    // A 2-node, 4-task system: a replication is short, so result
    // bookkeeping dominates what the scheduler holds.
    let config = SystemConfig::paper([3, 1]);
    let grid_reps = POINTS as usize * POLICIES * REPS as usize;
    let peak = grid_peak(&config, SimOptions::default(), 0);
    assert!(
        peak <= 16 * grid_reps,
        "a 2-thread grid of {grid_reps} replications peaked {peak} bytes above its \
         start ({:.1} bytes per replication, limit 16)",
        peak as f64 / grid_reps as f64
    );
    // Armed probing still hands every replication's report over.
    let probed = SimOptions {
        probe_dt: Some(0.5),
        ..SimOptions::default()
    };
    grid_peak(&config, probed, 1);
}
