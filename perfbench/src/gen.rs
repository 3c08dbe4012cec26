//! Seeded serve-trace generator.
//!
//! Expands a [`ServeSpec`] and a seed into the vectors to create and a
//! tick-sorted list of [`TraceEvent`]s. The service only ever sees the
//! events; the expected outcomes are derived separately by
//! [`crate::oracle`].
//!
//! Every tenant owns five vectors (`t<k>.a` … `t<k>.e`). The trace opens
//! with one `Write` per vector (warm-up is offered load), then draws
//! `ticks × per_tick` requests round-robin over tenants from a fixed mix:
//! the eight logic ops, `Write`s to the operand vectors, repeated `Read`s
//! (digest-cache hits until a write invalidates them) and `Kernel`
//! requests running one of [`KERNEL_PROGRAMS`] (plan-cache hits after the
//! first submission per tenant and program). The seed orders the mix and
//! picks operands and data; the count of each op and program is the same
//! for every seed.

use felim_exec::derive_seed;
use felim_serve::dsl::Program;
use felim_serve::{LogicalOp, TenantId, TraceEvent};

/// The fixed DSL programs `Kernel` requests draw from. Free names bind to
/// the tenant's vector of the same letter.
pub const KERNEL_PROGRAMS: [&str; 3] = [
    "d = (a & b) ^ ~c; e = (a & b) | c",
    "t = a ^ b; d = t ^ c; e = (a & b) | (t & c)",
    "e = ~(a | b) & (c ^ d)",
];

/// Vector letters of one tenant; `a`–`c` are operands, `d`/`e` results.
pub const LETTERS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Tenant accounts, each with its own vectors.
pub const TENANTS: u32 = 4;

/// Request kinds of the op mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One of the eight logic ops.
    Logic,
    /// A `Write` of a fresh pattern into an operand vector.
    Write,
    /// A `Read` of any vector.
    Read,
    /// A `Kernel` request running one of [`KERNEL_PROGRAMS`].
    Kernel,
}

/// The op mix of every block of [`MIX_BLOCK`] requests: 9 logic ops
/// (45 %), 2 writes (10 %), 6 reads (30 %) and 3 kernels (15 %). Each
/// block holds exactly these counts in a seeded order, so every seed
/// offers the same amount of each kind of work.
const MIX: [(Kind, usize); 4] = [
    (Kind::Logic, 9),
    (Kind::Write, 2),
    (Kind::Read, 6),
    (Kind::Kernel, 3),
];

/// Requests per block of the op mix.
const MIX_BLOCK: usize = 20;

/// The request kinds of block `block` under `seed`: [`MIX`] in a seeded
/// order (Fisher–Yates).
fn mix_block(seed: u64, block: u64) -> [Kind; MIX_BLOCK] {
    let mut kinds = [Kind::Logic; MIX_BLOCK];
    let mut at = 0;
    for (kind, n) in MIX {
        kinds[at..at + n].fill(kind);
        at += n;
    }
    let block_seed = derive_seed(seed ^ 0x51ab_c0de, block);
    for i in (1..MIX_BLOCK).rev() {
        let j = (derive_seed(block_seed, i as u64) % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    kinds
}

/// Shape of a generated serve trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    /// Rows per vector.
    pub vector_rows: u64,
    /// Virtual ticks of post-warm-up load.
    pub ticks: u64,
    /// Requests offered per tick.
    pub per_tick: u32,
}

/// A generated trace: vectors to create, then the events to submit.
#[derive(Debug, Clone)]
pub struct ServeTrace {
    /// `(name, rows)` of every vector, created before the first event.
    pub vectors: Vec<(String, u64)>,
    /// Events sorted by `at_tick`.
    pub events: Vec<TraceEvent>,
}

/// Catalog name of tenant `t`'s vector `letter`.
pub fn vector_name(t: u32, letter: &str) -> String {
    format!("t{t}.{letter}")
}

/// The `(dsl_name, vector)` bindings of program `p` for tenant `t`:
/// every input plus every target that is one of [`LETTERS`].
pub fn kernel_bindings(program: &Program, t: u32) -> Vec<(String, String)> {
    let mut names = program.inputs();
    for target in program.targets() {
        if LETTERS.contains(&target.as_str()) && !names.contains(&target) {
            names.push(target);
        }
    }
    names
        .into_iter()
        .map(|n| {
            let v = vector_name(t, &n);
            (n, v)
        })
        .collect()
}

/// Expands `spec` under `seed` into a trace. Same inputs, same trace.
pub fn generate(spec: &ServeSpec, seed: u64) -> ServeTrace {
    assert!(spec.per_tick > 0, "empty load");
    let programs: Vec<Program> = KERNEL_PROGRAMS
        .iter()
        .map(|p| Program::parse(p).expect("fixed programs parse"))
        .collect();

    let vectors = (0..TENANTS)
        .flat_map(|t| {
            LETTERS
                .iter()
                .map(move |l| (vector_name(t, l), spec.vector_rows))
        })
        .collect();

    let mut events = Vec::new();
    let mut slot = 0u64;
    let mut push = |tenant: u32, op: LogicalOp| {
        events.push(TraceEvent {
            at_tick: slot / u64::from(spec.per_tick),
            tenant: TenantId(tenant),
            op,
            deadline_ticks: None,
        });
        slot += 1;
    };

    for t in 0..TENANTS {
        for (i, letter) in LETTERS.iter().enumerate() {
            let w = derive_seed(seed, u64::from(t) * 16 + i as u64);
            push(
                t,
                LogicalOp::Write {
                    dst: vector_name(t, letter),
                    words: vec![w, !w, w.rotate_left(17)],
                },
            );
        }
    }

    let requests = spec.ticks * u64::from(spec.per_tick);
    let (mut logic_ops, mut kernels) = (0, 0);
    let mut block = [Kind::Logic; MIX_BLOCK];
    for r in 0..requests {
        let t = (r % u64::from(TENANTS)) as u32;
        if r % MIX_BLOCK as u64 == 0 {
            block = mix_block(seed, r / MIX_BLOCK as u64);
        }
        let draw = derive_seed(seed ^ 0x7e4c_b3a1, r);
        let pick = |n: u64, salt: u32| ((draw >> (8 * salt + 8)) % n) as usize;
        let name = |letter: &str| vector_name(t, letter);
        let op = match block[(r % MIX_BLOCK as u64) as usize] {
            Kind::Logic => {
                // Two distinct operands from a–d, result into d or e (never
                // an operand, so every logic op reads pre-op state).
                let x = pick(4, 0);
                let y = (x + 1 + pick(3, 1)) % 4;
                let mut dst = 3 + pick(2, 2);
                if dst == x || dst == y {
                    dst = 4;
                }
                let (a, b, dst) = (name(LETTERS[x]), name(LETTERS[y]), name(LETTERS[dst]));
                logic_ops += 1;
                match (logic_ops - 1) % 8 {
                    0 => LogicalOp::Not { src: a, dst },
                    1 => LogicalOp::And { a, b, dst },
                    2 => LogicalOp::Or { a, b, dst },
                    3 => LogicalOp::Xor { a, b, dst },
                    4 => LogicalOp::Nand { a, b, dst },
                    5 => LogicalOp::Nor { a, b, dst },
                    6 => LogicalOp::Xnor { a, b, dst },
                    _ => LogicalOp::Copy { src: a, dst },
                }
            }
            Kind::Write => {
                let w = derive_seed(seed ^ 0x3b17, r);
                LogicalOp::Write {
                    dst: name(LETTERS[pick(3, 0)]),
                    words: vec![w, w.rotate_left(29), r + 1],
                }
            }
            Kind::Read => LogicalOp::Read {
                src: name(LETTERS[pick(5, 0)]),
            },
            Kind::Kernel => {
                let p = kernels % KERNEL_PROGRAMS.len();
                kernels += 1;
                LogicalOp::Kernel {
                    program: KERNEL_PROGRAMS[p].to_owned(),
                    bindings: kernel_bindings(&programs[p], t),
                }
            }
        };
        push(t, op);
    }
    ServeTrace { vectors, events }
}

/// Count of events per op mnemonic, in first-seen order.
pub fn op_counts(events: &[TraceEvent]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for e in events {
        let m = e.op.mnemonic();
        match out.iter_mut().find(|(k, _)| *k == m) {
            Some((_, n)) => *n += 1,
            None => out.push((m, 1)),
        }
    }
    out
}
