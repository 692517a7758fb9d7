//! Randomized properties of the memory substrate. Each case draws its
//! inputs from its own SplitMix64 stream, a pure function of the
//! property's name and the case index, so a failing case replays
//! alone. Dependency-free; runs with the default `cargo test`.

use tapeworm_mem::{Codec, Decoded, EccMemory, PhysAddr, TrapMap};
use tapeworm_stats::{Rng, SeedSeq};

const CASES: u64 = 256;

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

/// Runs `check` on `CASES` random data words and data-bit indices.
fn for_words_and_bits(property: &str, check: impl Fn(u32, u8)) {
    for case in 0..CASES {
        let mut rng = case_rng(property, case);
        check(rng.gen(), rng.gen_range(0..32u8));
    }
}

#[test]
fn ecc_clean_roundtrip() {
    let c = Codec::new();
    for_words_and_bits("ecc_clean_roundtrip", |data, _| {
        assert_eq!(c.decode(data, c.encode(data)), Decoded::Clean, "{data:#x}");
    });
}

#[test]
fn ecc_corrects_any_single_data_bit() {
    let c = Codec::new();
    for_words_and_bits("ecc_corrects_any_single_data_bit", |data, bit| {
        let check = c.encode(data);
        match c.decode(data ^ (1u32 << bit), check) {
            Decoded::CorrectedData {
                data: fixed,
                bit: b,
            } => {
                assert_eq!(fixed, data);
                assert_eq!(b, bit);
            }
            other => panic!("{data:#x} bit {bit}: expected correction, got {other:?}"),
        }
    });
}

#[test]
fn ecc_detects_any_double_data_error() {
    let c = Codec::new();
    for case in 0..CASES {
        let mut rng = case_rng("ecc_detects_any_double_data_error", case);
        let data: u32 = rng.gen();
        // Two distinct bits: redraw until they differ.
        let (a, b) = loop {
            let (a, b) = (rng.gen_range(0..32u8), rng.gen_range(0..32u8));
            if a != b {
                break (a, b);
            }
        };
        let check = c.encode(data);
        assert_eq!(
            c.decode(data ^ (1u32 << a) ^ (1u32 << b), check),
            Decoded::Double,
            "{data:#x} bits {a},{b}"
        );
    }
}

#[test]
fn ecc_trap_never_mistaken_for_true_error() {
    let c = Codec::new();
    for_words_and_bits("ecc_trap_never_mistaken_for_true_error", |data, _| {
        let trapped = c.set_trap(c.encode(data));
        let out = c.decode(data, trapped);
        assert!(out.is_tapeworm_trap(), "{data:#x}: {out:?}");
        assert!(!out.is_true_error(), "{data:#x}: {out:?}");
    });
}

#[test]
fn ecc_trap_plus_any_data_error_is_true_error() {
    let c = Codec::new();
    for_words_and_bits("ecc_trap_plus_any_data_error_is_true_error", |data, bit| {
        let trapped = c.set_trap(c.encode(data));
        let out = c.decode(data ^ (1u32 << bit), trapped);
        assert!(out.is_true_error(), "{data:#x} bit {bit}: {out:?}");
        assert!(!out.is_tapeworm_trap(), "{data:#x} bit {bit}: {out:?}");
    });
}

/// TrapMap and EccMemory implement the same trap semantics: apply a
/// random sequence of set/clear range operations to both and compare
/// the trapped state of every word.
#[test]
fn trapmap_equivalent_to_ecc_memory() {
    const MEM: u64 = 1024; // 64 granules of 16 bytes
    const GRANULE: u64 = 16;
    for case in 0..CASES {
        let mut rng = case_rng("trapmap_equivalent_to_ecc_memory", case);
        let mut fast = TrapMap::new(MEM, GRANULE);
        let mut exact = EccMemory::new(MEM);
        for _ in 0..rng.gen_range(0..40usize) {
            let set: bool = rng.gen();
            let granule = rng.gen_range(0..64u64);
            let len_g = rng.gen_range(0..64u64);
            let pa = PhysAddr::new(granule.min(63) * GRANULE);
            let size = ((len_g % 8) + 1) * GRANULE;
            let size = size.min(MEM - pa.raw());
            if set {
                fast.set_range(pa, size);
                exact.set_trap(pa, size).unwrap();
            } else {
                fast.clear_range(pa, size);
                exact.clear_trap(pa, size).unwrap();
            }
        }
        for _ in 0..rng.gen_range(1..20usize) {
            let g = rng.gen_range(0..64u64);
            let pa = PhysAddr::new((g % 64) * GRANULE + 4);
            assert_eq!(
                fast.is_trapped(pa),
                exact.is_trapped(pa).unwrap(),
                "case {case}: granule {} disagrees",
                g % 64
            );
        }
    }
}

#[test]
fn trapmap_count_matches_iter() {
    for case in 0..CASES {
        let mut rng = case_rng("trapmap_count_matches_iter", case);
        let mut t = TrapMap::new(2048, 16);
        for _ in 0..rng.gen_range(0..60usize) {
            let g = rng.gen_range(0..128u64);
            if rng.gen() {
                t.set_granule(g);
            } else {
                t.clear_granule(g);
            }
        }
        assert_eq!(t.count() as usize, t.iter_trapped().count(), "case {case}");
    }
}
