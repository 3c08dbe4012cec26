//! Differential testing: the DRAM and FeRAM backends must compute
//! identical row contents for arbitrary random programs — they differ in
//! cost, never in semantics.

use felim_arch::{
    ArchError, BulkBackend, Command, DramBackend, FeramBackend, MemoryGeometry, RowId,
};
use proptest::prelude::*;

/// One random program step over a small row set.
#[derive(Debug, Clone)]
enum Step {
    And(u64, u64, u64),
    Or(u64, u64, u64),
    Xor(u64, u64, u64),
    Nand(u64, u64, u64),
    Nor(u64, u64, u64),
    Not(u64, u64),
    Copy(u64, u64),
    Write(u64, u64), // (row, fill word)
}

const ROWS: u64 = 12;

fn step_strategy() -> impl Strategy<Value = Step> {
    let r = 0..ROWS;
    prop_oneof![
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::And(a, b, d)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::Or(a, b, d)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::Xor(a, b, d)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::Nand(a, b, d)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::Nor(a, b, d)),
        (r.clone(), r.clone()).prop_map(|(a, d)| Step::Not(a, d)),
        (r.clone(), r.clone()).prop_map(|(a, d)| Step::Copy(a, d)),
        (r, any::<u64>()).prop_map(|(a, w)| Step::Write(a, w)),
    ]
}

fn run_program(backend: &mut dyn BulkBackend, program: &[Step]) -> Vec<Vec<u64>> {
    let words = backend.geometry().row_words();
    // Deterministic starting contents.
    for row in 0..ROWS {
        backend
            .install_row(RowId(row), &vec![row.wrapping_mul(0x9E37_79B9); words])
            .unwrap();
    }
    for step in program {
        match *step {
            Step::And(a, b, d) => backend.and(RowId(a), RowId(b), RowId(d)),
            Step::Or(a, b, d) => backend.or(RowId(a), RowId(b), RowId(d)),
            Step::Xor(a, b, d) => backend.xor(RowId(a), RowId(b), RowId(d)),
            Step::Nand(a, b, d) => backend.nand(RowId(a), RowId(b), RowId(d)),
            Step::Nor(a, b, d) => backend.nor(RowId(a), RowId(b), RowId(d)),
            Step::Not(a, d) => backend.not(RowId(a), RowId(d)),
            Step::Copy(a, d) => backend.copy(RowId(a), RowId(d)),
            Step::Write(a, w) => backend.write_row(RowId(a), &vec![w; words]),
        }
        .unwrap();
    }
    (0..ROWS)
        .map(|r| backend.read_row(RowId(r)).unwrap())
        .collect()
}

/// Word-level software oracle of the same program.
fn run_oracle(program: &[Step], words: usize) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = (0..ROWS)
        .map(|r| vec![r.wrapping_mul(0x9E37_79B9); words])
        .collect();
    for step in program {
        let get = |rows: &Vec<Vec<u64>>, i: u64| rows[i as usize].clone();
        match *step {
            Step::And(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| p & q).collect();
            }
            Step::Or(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| p | q).collect();
            }
            Step::Xor(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| p ^ q).collect();
            }
            Step::Nand(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| !(p & q)).collect();
            }
            Step::Nor(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| !(p | q)).collect();
            }
            Step::Not(a, d) => {
                let x = get(&rows, a);
                rows[d as usize] = x.iter().map(|p| !p).collect();
            }
            Step::Copy(a, d) => {
                rows[d as usize] = get(&rows, a);
            }
            Step::Write(a, w) => {
                rows[a as usize] = vec![w; words];
            }
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary programs (including aliased operands and in-place
    /// destinations) produce identical memory images on both backends and
    /// match the software oracle.
    #[test]
    fn backends_agree_with_oracle(program in prop::collection::vec(step_strategy(), 1..24)) {
        let words = MemoryGeometry::tiny().row_words();
        let oracle = run_oracle(&program, words);
        let mut feram = FeramBackend::new(MemoryGeometry::tiny());
        let feram_rows = run_program(&mut feram, &program);
        prop_assert_eq!(&feram_rows, &oracle, "FeRAM diverged from the oracle");
        let mut dram = DramBackend::new(MemoryGeometry::tiny());
        let dram_rows = run_program(&mut dram, &program);
        prop_assert_eq!(&dram_rows, &oracle, "DRAM diverged from the oracle");
    }

    /// FeRAM never loses to DRAM on cost, for any program.
    #[test]
    fn feram_cost_dominates_for_any_program(
        program in prop::collection::vec(step_strategy(), 1..16)
    ) {
        let mut feram = FeramBackend::new(MemoryGeometry::tiny());
        run_program(&mut feram, &program);
        let mut dram = DramBackend::new(MemoryGeometry::tiny());
        run_program(&mut dram, &program);
        prop_assert!(dram.stats().total_cycles() >= feram.stats().total_cycles());
        prop_assert!(dram.stats().total_energy_nj() >= feram.stats().total_energy_nj() - 1e-9);
    }
}

/// Runs every op once with a row outside the geometry in each operand
/// position, plus a short write; returns each call's name and result.
fn rejected_calls(b: &mut dyn BulkBackend) -> Vec<(String, Result<(), ArchError>)> {
    let (ok, far) = (RowId(0), RowId(b.geometry().total_rows()));
    let mut calls = Vec::new();
    for (x, y, d) in [(far, ok, ok), (ok, far, ok), (ok, ok, far)] {
        let at = format!("({}, {}, {})", x.0, y.0, d.0);
        calls.push((format!("and{at}"), b.and(x, y, d)));
        calls.push((format!("or{at}"), b.or(x, y, d)));
        calls.push((format!("nand{at}"), b.nand(x, y, d)));
        calls.push((format!("nor{at}"), b.nor(x, y, d)));
        calls.push((format!("xor{at}"), b.xor(x, y, d)));
        calls.push((format!("xnor{at}"), b.xnor(x, y, d)));
    }
    for (src, d) in [(far, ok), (ok, far)] {
        let at = format!("({}, {})", src.0, d.0);
        calls.push((format!("not{at}"), b.not(src, d)));
        calls.push((format!("copy{at}"), b.copy(src, d)));
    }
    let words = b.geometry().row_words();
    calls.push(("short write".into(), b.write_row(ok, &[1, 2, 3])));
    calls.push(("far write".into(), b.write_row(far, &vec![0; words])));
    calls.push(("far read".into(), b.read_row(far).map(drop)));
    calls
}

/// A rejected op fails before its first command: no cycles, no energy,
/// no logged command and no change to the backend's state (rows,
/// disturb counters, wear).
fn assert_rejections_charge_nothing<B: BulkBackend>(mut b: B, log: fn(&B) -> &[Command]) {
    let words = b.geometry().row_words();
    b.install_row(RowId(0), &vec![0xA5; words]).unwrap();
    let (stats, state) = (b.stats().clone(), b.snapshot_state());
    for (call, result) in rejected_calls(&mut b) {
        assert!(result.is_err(), "{}: {call} succeeded", b.tech_name());
    }
    let tech = b.tech_name();
    assert_eq!(b.stats(), &stats, "{tech}: rejected ops were charged");
    assert_eq!(
        log(&b),
        &[] as &[Command],
        "{tech}: rejected ops issued commands"
    );
    assert_eq!(
        b.snapshot_state(),
        state,
        "{tech}: rejected ops changed state"
    );
}

#[test]
fn rejected_ops_charge_nothing_on_either_backend() {
    assert_rejections_charge_nothing(
        DramBackend::tiny().with_command_log(),
        DramBackend::command_log,
    );
    assert_rejections_charge_nothing(
        FeramBackend::tiny().with_command_log(),
        FeramBackend::command_log,
    );
}
