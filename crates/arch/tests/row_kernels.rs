//! The row store's slice kernels against a per-word reference.
//!
//! The reference reads each operand word through `RowStore::row`, treating
//! a never-written row as zeros word by word. Every case runs all sixteen
//! present/absent patterns of four rows and a fixed set of aliasing
//! shapes (`dst == a`, `a == b`, all operands equal) on a random row
//! length, so vector tails are covered too.

use felim_arch::engine::RowStore;
use felim_arch::{ArchError, MemoryGeometry, RowId};
use proptest::prelude::*;

/// Rows the operands are drawn from.
const ROWS: u64 = 4;

/// Operand shapes `(a, b, c, dst)`: distinct rows and the aliasings the
/// backends produce.
const SHAPES: [(u64, u64, u64, u64); 6] = [
    (0, 1, 2, 3),
    (0, 1, 2, 0), // dst == a
    (0, 0, 2, 3), // a == b
    (0, 1, 1, 1), // b == c == dst
    (0, 0, 0, 0), // everything aliased
    (3, 2, 1, 0),
];

fn f2(x: u64, y: u64) -> u64 {
    x.wrapping_sub(y.rotate_left(3))
}

fn f3(x: u64, y: u64, z: u64) -> u64 {
    (x & !y) ^ z.rotate_left(7) ^ y.wrapping_mul(3)
}

fn f1(x: u64) -> u64 {
    !x.rotate_right(5)
}

fn word(s: &RowStore, row: u64, i: usize) -> u64 {
    s.row(RowId(row)).unwrap().map_or(0, |r| r[i])
}

fn reference(s: &RowStore, f: impl Fn(usize) -> u64) -> Vec<u64> {
    (0..s.geometry().row_words()).map(f).collect()
}

/// Every row's materialisation state and contents.
fn contents(s: &RowStore) -> Vec<Option<Vec<u64>>> {
    (0..ROWS)
        .map(|r| s.row(RowId(r)).unwrap().map(<[u64]>::to_vec))
        .collect()
}

/// A store over `words`-word rows with the rows in `present` written.
fn store(words: usize, present: u32, data: &[Vec<u64>]) -> RowStore {
    let row_bytes = 8 * words as u64;
    let mut s = RowStore::new(MemoryGeometry {
        capacity_bytes: row_bytes * 16,
        row_bytes,
        rows_per_subarray: 4,
    });
    for r in 0..ROWS {
        if present & (1 << r) != 0 {
            s.write(RowId(r), &data[r as usize][..words]).unwrap();
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each case: one random row length and contents, every presence
    /// pattern, every aliasing shape, all four kernels.
    fn slice_kernels_match_per_word_reference(
        words in 1usize..40,
        data in prop::collection::vec(prop::collection::vec(any::<u64>(), 40..41), 4..5),
    ) {
        for present in 0..1u32 << ROWS {
            for &(a, b, c, d) in &SHAPES {
                let s = store(words, present, &data);
                let ctx = format!("words {words}, present {present:04b}, shape {a}{b}{c}{d}");

                let mut out = vec![7; 3]; // stale and the wrong length
                s.combine2_into(RowId(a), RowId(b), &mut out, f2).unwrap();
                let want2 = reference(&s, |i| f2(word(&s, a, i), word(&s, b, i)));
                prop_assert_eq!(&out, &want2, "combine2_into {}", ctx);

                s.combine3_into(RowId(a), RowId(b), RowId(c), &mut out, f3)
                    .unwrap();
                let want3 =
                    reference(&s, |i| f3(word(&s, a, i), word(&s, b, i), word(&s, c, i)));
                prop_assert_eq!(&out, &want3, "combine3_into {}", ctx);

                // The mutating kernels: dst gets the result (and is
                // materialised); every other row is untouched.
                let mut expect = contents(&s);
                expect[d as usize] = Some(want3);
                let mut m = s.clone();
                m.combine3(RowId(a), RowId(b), RowId(c), RowId(d), f3).unwrap();
                prop_assert_eq!(contents(&m), expect, "combine3 {}", ctx);

                let mut expect = contents(&s);
                expect[d as usize] = Some(reference(&s, |i| f1(word(&s, a, i))));
                let mut m = s.clone();
                m.map(RowId(a), RowId(d), f1).unwrap();
                prop_assert_eq!(contents(&m), expect, "map {}", ctx);
            }
        }
    }
}

#[test]
fn kernels_reject_out_of_range_operands_without_writing() {
    let mut s = RowStore::new(MemoryGeometry::tiny());
    let far = RowId(MemoryGeometry::tiny().total_rows());
    let mut out = Vec::new();
    for (a, b, c) in [
        (far, RowId(0), RowId(1)),
        (RowId(0), far, RowId(1)),
        (RowId(0), RowId(1), far),
    ] {
        assert!(matches!(
            s.combine3_into(a, b, c, &mut out, f3),
            Err(ArchError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            s.combine3(a, b, c, RowId(2), f3),
            Err(ArchError::RowOutOfRange { .. })
        ));
    }
    assert!(matches!(
        s.map(far, RowId(2), f1),
        Err(ArchError::RowOutOfRange { .. })
    ));
    assert!(matches!(
        s.combine2_into(RowId(0), far, &mut out, f2),
        Err(ArchError::RowOutOfRange { .. })
    ));
    assert_eq!(s.touched_rows(), 0, "a failed kernel writes nothing");
}
