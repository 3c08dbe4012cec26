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

                let out = s.compute(RowId(a), RowId(b), RowId(b), |x, y, _| f2(x, y)).unwrap();
                let want2 = reference(&s, |i| f2(word(&s, a, i), word(&s, b, i)));
                prop_assert_eq!(&*out, &want2[..], "two-operand compute {}", ctx);

                let out = s.compute(RowId(a), RowId(b), RowId(c), f3).unwrap();
                let want3 =
                    reference(&s, |i| f3(word(&s, a, i), word(&s, b, i), word(&s, c, i)));
                prop_assert_eq!(&*out, &want3[..], "compute {}", ctx);

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
    for (a, b, c) in [
        (far, RowId(0), RowId(1)),
        (RowId(0), far, RowId(1)),
        (RowId(0), RowId(1), far),
    ] {
        assert!(matches!(
            s.compute(a, b, c, f3),
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
    assert_eq!(s.touched_rows(), 0, "a failed kernel writes nothing");
}

/// Copy-on-write isolation: a store whose rows share buffers (copies,
/// clones) must behave exactly like one that copies every row.
mod copy_on_write {
    use super::*;
    use felim_arch::snapshot::{put_u64, put_words};
    use std::collections::HashMap;

    /// Rows the sequence draws from, so sources and destinations collide
    /// often (`src == dst` included); a few start unwritten each time.
    const ROWS: u64 = 6;
    /// Stores alive at once: clones of each other that then diverge.
    const STORES: usize = 3;
    const WORDS: usize = 4;

    /// The plain model: every row owns its words.
    type Model = HashMap<u64, Vec<u64>>;

    fn geometry() -> MemoryGeometry {
        MemoryGeometry {
            capacity_bytes: 8 * WORDS as u64 * 16,
            row_bytes: 8 * WORDS as u64,
            rows_per_subarray: 4,
        }
    }

    fn model_row(m: &Model, row: u64) -> Vec<u64> {
        m.get(&row).cloned().unwrap_or_else(|| vec![0; WORDS])
    }

    /// The snapshot bytes `RowStore::encode_state` must produce.
    fn encode(m: &Model) -> Vec<u8> {
        let mut keys: Vec<u64> = m.keys().copied().collect();
        keys.sort_unstable();
        let mut out = Vec::new();
        put_u64(&mut out, keys.len() as u64);
        for k in keys {
            put_u64(&mut out, k);
            put_words(&mut out, &m[&k]);
        }
        out
    }

    /// Applies one random op to store `i` of `stores` and to its model.
    /// `op` picks the operation, `r` its rows and `w` its data.
    fn apply(stores: &mut [(RowStore, Model)], i: usize, op: u64, r: [u64; 4], w: u64) {
        let [a, b, c, d] = r.map(|x| x % ROWS);
        let j = (r[0] as usize) % STORES;
        let (s, m) = &mut stores[i];
        match op % 7 {
            0 => {
                let data: Vec<u64> = (0..WORDS as u64).map(|k| w.rotate_left(k as u32)).collect();
                s.write(RowId(d), &data).unwrap();
                m.insert(d, data);
            }
            1 => {
                // A quarter of the fills are zero fills, which share the
                // process-wide zero row.
                let word = if w.is_multiple_of(4) { 0 } else { w };
                s.fill(RowId(d), word).unwrap();
                m.insert(d, vec![word; WORDS]);
            }
            2 => {
                s.copy_row(RowId(a), RowId(d)).unwrap();
                m.insert(d, model_row(m, a));
            }
            3 => {
                s.combine3(RowId(a), RowId(b), RowId(c), RowId(d), f3).unwrap();
                let (x, y, z) = (model_row(m, a), model_row(m, b), model_row(m, c));
                m.insert(d, (0..WORDS).map(|k| f3(x[k], y[k], z[k])).collect());
            }
            4 => {
                s.map(RowId(a), RowId(d), f1).unwrap();
                let x = model_row(m, a);
                m.insert(d, x.iter().map(|&v| f1(v)).collect());
            }
            5 => {
                let (src, model) = (stores[j].0.clone(), stores[j].1.clone());
                stores[i] = (src, model);
            }
            _ => {
                let mut snapshot = Vec::new();
                stores[j].0.encode_state(&mut snapshot);
                let model = stores[j].1.clone();
                let (s, m) = &mut stores[i];
                let mut pos = 0;
                s.restore_state(&snapshot, &mut pos).unwrap();
                *m = model;
            }
        }
    }

    fn check(stores: &[(RowStore, Model)]) -> Result<(), String> {
        for (i, (s, m)) in stores.iter().enumerate() {
            for row in 0..ROWS {
                let got = s.row(RowId(row)).unwrap().map(<[u64]>::to_vec);
                if got.as_ref() != m.get(&row) {
                    return Err(format!("store {i} row {row}: {got:?} vs {:?}", m.get(&row)));
                }
            }
            if s.touched_rows() != m.len() as u64 {
                return Err(format!("store {i}: touched_rows {}", s.touched_rows()));
            }
            let mut bytes = Vec::new();
            s.encode_state(&mut bytes);
            if bytes != encode(m) {
                return Err(format!("store {i}: snapshot bytes differ"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random write/fill/copy/combine3/map/clone/restore sequences
        /// across three stores that start as clones of one.
        fn shared_rows_never_leak_writes(
            steps in prop::collection::vec(
                ((0..STORES, any::<u64>()), (0..ROWS, 0..ROWS, 0..ROWS, 0..ROWS), any::<u64>()),
                1..60,
            ),
        ) {
            let mut stores: Vec<(RowStore, Model)> =
                vec![(RowStore::new(geometry()), Model::new()); STORES];
            for (n, ((i, op), (a, b, c, d), w)) in steps.into_iter().enumerate() {
                apply(&mut stores, i, op, [a, b, c, d], w);
                let verdict = check(&stores);
                prop_assert!(verdict.is_ok(), "step {} (op {}): {:?}", n, op % 7, verdict);
            }
        }
    }

    /// The shapes a random sequence may reach only rarely, spelled out:
    /// writing either side of a shared pair, a copy of an unwritten row,
    /// a self-copy, and a clone that diverges from its original.
    #[test]
    fn writes_into_shared_rows_stay_private() {
        let mut s = RowStore::new(geometry());
        s.fill(RowId(0), 7).unwrap();
        s.copy_row(RowId(0), RowId(1)).unwrap();
        s.fill(RowId(1), 9).unwrap(); // write the copy
        assert_eq!(s.row(RowId(0)).unwrap().unwrap(), &[7; WORDS]);
        s.copy_row(RowId(1), RowId(2)).unwrap();
        s.write(RowId(1), &[1, 2, 3, 4]).unwrap(); // write the source
        assert_eq!(s.row(RowId(2)).unwrap().unwrap(), &[9; WORDS]);
        s.copy_row(RowId(5), RowId(3)).unwrap(); // shares the zero row
        s.copy_row(RowId(5), RowId(4)).unwrap();
        s.fill(RowId(3), 1).unwrap();
        assert_eq!(s.row(RowId(4)).unwrap().unwrap(), &[0; WORDS]);
        assert_eq!(s.read(RowId(5)).unwrap(), vec![0; WORDS], "zero row intact");
        s.copy_row(RowId(2), RowId(2)).unwrap();
        assert_eq!(s.row(RowId(2)).unwrap().unwrap(), &[9; WORDS]);
        s.fill(RowId(4), 0).unwrap(); // shares the zero row too
        let mut other = RowStore::new(geometry());
        other.fill(RowId(0), 0).unwrap(); // and so does another store's
        other.write(RowId(0), &[5; WORDS]).unwrap();
        assert_eq!(s.row(RowId(4)).unwrap().unwrap(), &[0; WORDS]);
        s.fill(RowId(4), 3).unwrap();
        assert_eq!(s.read(RowId(5)).unwrap(), vec![0; WORDS]);
        assert_eq!(other.read(RowId(1)).unwrap(), vec![0; WORDS]);
        assert_eq!(RowStore::new(geometry()).read(RowId(0)).unwrap(), vec![0; WORDS]);
        let original = s.clone();
        s.map(RowId(2), RowId(2), f1).unwrap();
        s.fill(RowId(0), 0).unwrap();
        assert_eq!(original.row(RowId(2)).unwrap().unwrap(), &[9; WORDS]);
        assert_eq!(original.row(RowId(0)).unwrap().unwrap(), &[7; WORDS]);
        assert_eq!(s.touched_rows(), 5);
    }
}
