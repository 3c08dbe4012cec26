//! Pinned command streams and end states for one seeded mixed op
//! sequence on each backend.
//!
//! The row-store kernels are free to change how they compute a row, but
//! never what the backends issue or leave behind: the command log, the
//! cycle/energy statistics and the snapshot bytes (row contents, wear,
//! disturb counters) must stay exactly as pinned here. The sequence
//! covers all eight logic/copy ops plus writes and reads, and half of
//! its row range is never written before it is first read or used as an
//! operand.

use felim_arch::{BulkBackend, DramBackend, FeramBackend, MemoryGeometry, RowId};

/// Rows the sequence draws from; rows `INSTALLED..ROWS` start unwritten.
const ROWS: u64 = 24;
const INSTALLED: u64 = 12;
const STEPS: usize = 600;

/// SplitMix64: the sequence must not depend on any RNG crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn row(&mut self) -> RowId {
        RowId(self.next() % ROWS)
    }
}

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn words(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

/// Runs the seeded sequence; returns the digest of everything the
/// backend read back (the sequence's observable results).
fn run(backend: &mut dyn BulkBackend, seed: u64) -> u64 {
    let words = backend.geometry().row_words();
    let mut rng = SplitMix(seed);
    for r in 0..INSTALLED {
        let data: Vec<u64> = (0..words).map(|_| rng.next()).collect();
        backend.install_row(RowId(r), &data).unwrap();
    }
    let mut reads = Fnv::new();
    for _ in 0..STEPS {
        let (a, b, d) = (rng.row(), rng.row(), rng.row());
        match rng.next() % 10 {
            0 => backend.not(a, d),
            1 => backend.and(a, b, d),
            2 => backend.or(a, b, d),
            3 => backend.nand(a, b, d),
            4 => backend.nor(a, b, d),
            5 => backend.xor(a, b, d),
            6 => backend.xnor(a, b, d),
            7 => backend.copy(a, d),
            8 => {
                let data: Vec<u64> = (0..words).map(|_| rng.next()).collect();
                backend.write_row(d, &data)
            }
            _ => backend.read_row(a).map(|row| reads.words(&row)),
        }
        .unwrap();
    }
    reads.0
}

/// Digest of a finished run: read results, command log, stats and
/// snapshot bytes.
fn digest(reads: u64, log: &[felim_arch::Command], backend: &dyn BulkBackend) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&reads.to_le_bytes());
    h.bytes(&(log.len() as u64).to_le_bytes());
    for cmd in log {
        h.bytes(format!("{cmd:?}").as_bytes());
    }
    h.bytes(format!("{:?}", backend.stats()).as_bytes());
    h.bytes(
        &backend
            .snapshot_state()
            .expect("fault-free backends snapshot"),
    );
    h.0
}

#[test]
fn feram_stream_and_state_are_pinned() {
    // A small disturb budget so the sequence also exercises the
    // maintenance write-backs.
    let mut b = FeramBackend::new(MemoryGeometry::tiny())
        .with_disturb_budget(2)
        .with_command_log();
    let reads = run(&mut b, 0xFE11);
    assert!(b.writebacks() > 0, "sequence must trigger write-backs");
    let got = digest(reads, b.command_log(), &b);
    assert_eq!(got, 0xb783_cb51_c6cc_ca84, "FeRAM digest {got:#018x}");
}

#[test]
fn dram_stream_and_state_are_pinned() {
    let mut b = DramBackend::new(MemoryGeometry::tiny()).with_command_log();
    let reads = run(&mut b, 0xD7A3);
    let got = digest(reads, b.command_log(), &b);
    assert_eq!(got, 0x8d89_6d32_228f_8830, "DRAM digest {got:#018x}");
}
