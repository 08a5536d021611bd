//! `StdRng::advance` is exact: jumping `k` steps leaves the generator in
//! the state `k` calls of `next_u64` leave it in. Waxman's split pair
//! loop starts every chunk from such a jump, so its graphs depend on
//! this. (The vendored `rand` shim is not a workspace member, so its own
//! tests do not run under `cargo test --workspace`; these do.)

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn stepped(seed: u64, k: u64) -> StdRng {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..k {
        rng.next_u64();
    }
    rng
}

fn jumped(seed: u64, k: u64) -> StdRng {
    let mut rng = StdRng::seed_from_u64(seed);
    rng.advance(k);
    rng
}

#[test]
fn advance_equals_stepping_at_word_and_table_edges() {
    for seed in [0u64, 1, 0xDEAD_BEEF] {
        for k in [0u64, 1, 63, 64, 65, 255, 256] {
            assert_eq!(jumped(seed, k), stepped(seed, k), "seed {seed}, k {k}");
        }
    }
}

#[test]
fn advance_equals_stepping_at_random_counts() {
    let mut draw = StdRng::seed_from_u64(0xAD7A);
    for _ in 0..24 {
        let seed = draw.gen::<u64>();
        let k = draw.gen_range(0..=1u64 << 20);
        let mut a = jumped(seed, k);
        let mut b = stepped(seed, k);
        assert_eq!(a, b, "seed {seed}, k {k}");
        // Equal states give equal streams from here on.
        assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}, k {k}");
    }
}

#[test]
fn advances_compose() {
    let mut draw = StdRng::seed_from_u64(0xC0DE);
    let mut cases = vec![(0u64, 0u64), (1, 0), (0, 1), (1 << 39, 1 << 39)];
    for _ in 0..32 {
        let sum = draw.gen_range(0..=1u64 << 40);
        let a = draw.gen_range(0..=sum);
        cases.push((a, sum - a));
    }
    for (a, b) in cases {
        let seed = a ^ b.rotate_left(17);
        let mut split = StdRng::seed_from_u64(seed);
        split.advance(a);
        split.advance(b);
        assert_eq!(split, jumped(seed, a + b), "a {a}, b {b}");
    }
}
