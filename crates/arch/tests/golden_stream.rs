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
//!
//! Two further pins guard the paths a shared-buffer store could get
//! wrong: a FeRAM run with fault injection and every mitigation on (the
//! write/verify/retry/retire slow path), and a backend cloned halfway
//! through whose original and clone must both finish on the pinned
//! digest.

use felim_arch::{
    BulkBackend, Command, DegradationPolicy, DramBackend, FaultSpec, FeramBackend, MemoryGeometry,
    RowId,
};

/// Rows the sequence draws from; rows `INSTALLED..ROWS` start unwritten.
const ROWS: u64 = 24;
const INSTALLED: u64 = 12;
const STEPS: usize = 600;

const FERAM_DIGEST: u64 = 0xb783_cb51_c6cc_ca84;
const DRAM_DIGEST: u64 = 0x8d89_6d32_228f_8830;
const FAULTY_FERAM_DIGEST: u64 = 0xde34_6270_3716_1768;

/// SplitMix64: the sequence must not depend on any RNG crate's stream.
#[derive(Clone)]
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
#[derive(Clone)]
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

/// The seeded sequence in flight: its RNG and the digest of everything
/// the backend returned so far (read results, and the typed error of
/// any op that failed). Cloned together with the backend, it carries
/// on with the same sequence.
#[derive(Clone)]
struct Seq {
    rng: SplitMix,
    reads: Fnv,
}

impl Seq {
    /// Installs the sequence's initial rows.
    fn start(backend: &mut dyn BulkBackend, seed: u64) -> Self {
        let words = backend.geometry().row_words();
        let mut rng = SplitMix(seed);
        for r in 0..INSTALLED {
            let data: Vec<u64> = (0..words).map(|_| rng.next()).collect();
            backend.install_row(RowId(r), &data).unwrap();
        }
        Self {
            rng,
            reads: Fnv::new(),
        }
    }

    /// Runs the next `steps` ops of the sequence.
    fn run(&mut self, backend: &mut dyn BulkBackend, steps: usize) {
        let words = backend.geometry().row_words();
        let rng = &mut self.rng;
        for _ in 0..steps {
            let (a, b, d) = (rng.row(), rng.row(), rng.row());
            let result = match rng.next() % 10 {
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
                _ => backend.read_row(a).map(|row| self.reads.words(&row)),
            };
            if let Err(e) = result {
                self.reads.bytes(format!("{e:?}").as_bytes());
            }
        }
    }
}

/// Digest of a finished run: results, command log, stats and end state.
/// The end state is the snapshot bytes; a backend that cannot snapshot
/// (a live fault injector) contributes its reliability counters and
/// every row's stored bits and wear instead.
fn digest(seq: &Seq, log: &[Command], backend: &dyn BulkBackend) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&seq.reads.0.to_le_bytes());
    h.bytes(&(log.len() as u64).to_le_bytes());
    for cmd in log {
        h.bytes(format!("{cmd:?}").as_bytes());
    }
    h.bytes(format!("{:?}", backend.stats()).as_bytes());
    match backend.snapshot_state() {
        Some(snapshot) => h.bytes(&snapshot),
        None => {
            h.bytes(format!("{:?}", backend.reliability()).as_bytes());
            for r in 0..backend.geometry().total_rows() {
                let row = backend.peek_row(RowId(r)).unwrap();
                h.bytes(format!("{row:?} {}", backend.wear_fraction(RowId(r))).as_bytes());
            }
        }
    }
    h.0
}

fn feram() -> FeramBackend {
    // A small disturb budget so the sequence also exercises the
    // maintenance write-backs.
    FeramBackend::new(MemoryGeometry::tiny())
        .with_disturb_budget(2)
        .with_command_log()
}

/// Write flips, sense faults and wear-out under every mitigation:
/// verify-and-retry, triple sensing, scratch rotation and retirement.
/// The wear budget runs the spare pool dry late in the sequence, so
/// some ops also fail with a typed error.
fn faulty_feram() -> FeramBackend {
    let spec = FaultSpec {
        write_bitflip_rate: 1e-5,
        sense_fault_rate: 2e-4,
        ..FaultSpec::none(0xFA17)
    }
    .with_wear_budget(80);
    feram()
        .with_faults(spec)
        .with_policy(DegradationPolicy::hardened())
}

fn dram() -> DramBackend {
    DramBackend::new(MemoryGeometry::tiny()).with_command_log()
}

#[test]
fn feram_stream_and_state_are_pinned() {
    let mut b = feram();
    let mut seq = Seq::start(&mut b, 0xFE11);
    seq.run(&mut b, STEPS);
    assert!(b.writebacks() > 0, "sequence must trigger write-backs");
    let got = digest(&seq, b.command_log(), &b);
    assert_eq!(got, FERAM_DIGEST, "FeRAM digest {got:#018x}");
}

#[test]
fn dram_stream_and_state_are_pinned() {
    let mut b = dram();
    let mut seq = Seq::start(&mut b, 0xD7A3);
    seq.run(&mut b, STEPS);
    let got = digest(&seq, b.command_log(), &b);
    assert_eq!(got, DRAM_DIGEST, "DRAM digest {got:#018x}");
}

#[test]
fn faulty_feram_stream_and_state_are_pinned() {
    let mut b = faulty_feram();
    let mut seq = Seq::start(&mut b, 0xFE11);
    seq.run(&mut b, STEPS);
    let r = b.reliability().unwrap();
    assert!(
        r.corrected_writes > 0 && r.sense_faults_corrected > 0,
        "mitigations must fire: {r:?}"
    );
    assert!(
        r.scratch_rotations > 0 && r.dead_row_writes > 0,
        "wear-out must fire: {r:?}"
    );
    let got = digest(&seq, b.command_log(), &b);
    assert_eq!(got, FAULTY_FERAM_DIGEST, "faulty FeRAM digest {got:#018x}");
}

/// Runs half the sequence, clones backend and sequence, and finishes
/// both; each must land on the uncloned run's pinned digest.
fn clone_halfway<B: BulkBackend + Clone>(
    mut b: B,
    seed: u64,
    log: fn(&B) -> &[Command],
) -> [u64; 2] {
    let mut seq = Seq::start(&mut b, seed);
    seq.run(&mut b, STEPS / 2);
    let (mut c, mut seq_c) = (b.clone(), seq.clone());
    seq.run(&mut b, STEPS - STEPS / 2);
    seq_c.run(&mut c, STEPS - STEPS / 2);
    [digest(&seq, log(&b), &b), digest(&seq_c, log(&c), &c)]
}

#[test]
fn clones_diverge_from_the_original_without_disturbing_it() {
    let feram = clone_halfway(feram(), 0xFE11, FeramBackend::command_log);
    assert_eq!(feram, [FERAM_DIGEST; 2], "FeRAM original, clone");
    let faulty = clone_halfway(faulty_feram(), 0xFE11, FeramBackend::command_log);
    assert_eq!(
        faulty, [FAULTY_FERAM_DIGEST; 2],
        "faulty FeRAM original, clone"
    );
    let dram = clone_halfway(dram(), 0xD7A3, DramBackend::command_log);
    assert_eq!(dram, [DRAM_DIGEST; 2], "DRAM original, clone");
}
