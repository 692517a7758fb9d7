//! The stepwise differential suite (`tests/stepwise/mod.rs`) on the
//! cache geometries whose miss bursts are served as merged runs, and
//! the ring-event checks on one configuration per simulator mode too.

mod stepwise;

/// Merged-run bursts commit results, counters and phases bit-identical
/// to the stepwise engine at 1, 4 and 8 worker threads.
#[test]
fn miss_schedule_is_bit_identical_to_stepwise() {
    stepwise::assert_bit_identical_to_stepwise(stepwise::merged_geometries());
}

/// Every simulator mode and every merged-run geometry records the
/// stepwise run's ring events, with the same virtual timestamps.
#[test]
fn miss_schedule_preserves_ring_event_timestamps() {
    stepwise::assert_ring_events_match_stepwise(
        [stepwise::simulator_modes(), stepwise::merged_geometries()].concat(),
    );
}
