//! The stepwise differential suite (`tests/stepwise/mod.rs`) on one
//! configuration per simulator mode: the resident-run fast path and
//! burst service against `SystemConfig::with_fast_path(false)`.

mod stepwise;

/// Every simulator mode commits results, counters and phases
/// bit-identical to the stepwise engine at 1, 4 and 8 worker threads.
#[test]
fn fast_path_is_bit_identical_to_slow_path() {
    stepwise::assert_bit_identical_to_stepwise(stepwise::simulator_modes());
}

/// The fast path engages on every cache-style simulator mode, never on
/// TLB or kernel-trace-buffer mode, and nowhere when switched off.
#[test]
fn fast_path_engages_exactly_where_expected() {
    stepwise::assert_engages_where_expected(stepwise::simulator_modes());
}
