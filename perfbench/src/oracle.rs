//! Correctness oracle for the serve workloads.
//!
//! A software bit-vector model replays the same events the service
//! receives, in submission order, and predicts every `Read` digest and
//! every vector's final contents. Tenants own disjoint vectors and the
//! service settles each tenant's requests in submission order, so the
//! model's sequential replay is the specification. Kernel outputs come
//! from [`Program::eval_words`]: one evaluation over lane patterns that
//! enumerate every input combination yields each output's truth table,
//! which the model then applies word by word.

use felim_serve::dsl::Program;
use felim_serve::{fnv1a_words, LogicalOp, RequestId, ResponsePayload, ServeResponse, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// A kernel program reduced to per-output truth tables.
#[derive(Debug, Clone)]
struct TruthTable {
    /// DSL input names, in lane-pattern order.
    inputs: Vec<String>,
    /// `(dsl_name, table)`: bit `m` of `table` is the output for the
    /// input combination whose bit `i` is input `i`.
    outputs: Vec<(String, u64)>,
}

impl TruthTable {
    fn new(program: &Program, bound: &[(String, String)]) -> Self {
        let inputs = program.inputs();
        assert!(inputs.len() <= 6, "truth tables cover at most six inputs");
        let env: BTreeMap<String, u64> = inputs
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let lanes = (0..64u64).fold(0u64, |w, m| w | (((m >> i) & 1) << m));
                (n.clone(), lanes)
            })
            .collect();
        let out = program.eval_words(&env);
        let combos = 1u32 << inputs.len();
        let mask = if combos == 64 {
            !0
        } else {
            (1u64 << combos) - 1
        };
        let outputs = program
            .targets()
            .into_iter()
            .filter(|t| bound.iter().any(|(n, _)| n == t))
            .map(|t| {
                let table = out[&t] & mask;
                (t, table)
            })
            .collect();
        Self { inputs, outputs }
    }

    fn eval(&self, table: u64, words: &[u64]) -> u64 {
        let mut out = 0u64;
        for m in 0..(1u64 << self.inputs.len()) {
            if (table >> m) & 1 == 1 {
                let term = words.iter().enumerate().fold(!0u64, |acc, (i, &w)| {
                    acc & if (m >> i) & 1 == 1 { w } else { !w }
                });
                out |= term;
            }
        }
        out
    }
}

/// The software model: every vector's words, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    row_words: usize,
    vectors: HashMap<String, Vec<u64>>,
}

impl Model {
    /// Zero-filled vectors of the given shapes.
    pub fn new(vectors: &[(String, u64)], row_words: usize) -> Self {
        let vectors = vectors
            .iter()
            .map(|(n, rows)| (n.clone(), vec![0u64; *rows as usize * row_words]))
            .collect();
        Self { row_words, vectors }
    }

    /// A vector's words, row-major.
    pub fn words(&self, name: &str) -> &[u64] {
        &self.vectors[name]
    }

    fn binary(&mut self, a: &str, b: &str, dst: &str, f: impl Fn(u64, u64) -> u64) {
        let out: Vec<u64> = self.vectors[a]
            .iter()
            .zip(&self.vectors[b])
            .map(|(&x, &y)| f(x, y))
            .collect();
        self.vectors.insert(dst.to_owned(), out);
    }

    /// Applies one op; returns the digest a `Read` must report.
    pub fn apply(&mut self, op: &LogicalOp) -> Option<u64> {
        match op {
            LogicalOp::Not { src, dst } => {
                let out = self.vectors[src].iter().map(|w| !w).collect();
                self.vectors.insert(dst.clone(), out);
            }
            LogicalOp::Copy { src, dst } => {
                let out = self.vectors[src].clone();
                self.vectors.insert(dst.clone(), out);
            }
            LogicalOp::And { a, b, dst } => self.binary(a, b, dst, |x, y| x & y),
            LogicalOp::Or { a, b, dst } => self.binary(a, b, dst, |x, y| x | y),
            LogicalOp::Xor { a, b, dst } => self.binary(a, b, dst, |x, y| x ^ y),
            LogicalOp::Nand { a, b, dst } => self.binary(a, b, dst, |x, y| !(x & y)),
            LogicalOp::Nor { a, b, dst } => self.binary(a, b, dst, |x, y| !(x | y)),
            LogicalOp::Xnor { a, b, dst } => self.binary(a, b, dst, |x, y| !(x ^ y)),
            LogicalOp::Write { dst, words } => {
                let rw = self.row_words;
                let v = self.vectors.get_mut(dst).expect("known vector");
                for (r, row) in v.chunks_mut(rw).enumerate() {
                    for (j, w) in row.iter_mut().enumerate() {
                        *w = words[(j + r) % words.len()];
                    }
                }
            }
            LogicalOp::Read { src } => return Some(fnv1a_words(&self.vectors[src])),
            LogicalOp::Kernel { program, bindings } => {
                let program = Program::parse(program).expect("generated programs parse");
                self.kernel(&TruthTable::new(&program, bindings), bindings);
            }
        }
        None
    }

    fn kernel(&mut self, table: &TruthTable, bindings: &[(String, String)]) {
        let vector = |n: &str| &bindings.iter().find(|(d, _)| d == n).expect("bound").1;
        let inputs: Vec<&Vec<u64>> = table
            .inputs
            .iter()
            .map(|n| &self.vectors[vector(n)])
            .collect();
        let len = inputs.first().map_or(0, |v| v.len());
        let results: Vec<(String, Vec<u64>)> = table
            .outputs
            .iter()
            .map(|(name, t)| {
                let mut lane = [0u64; 6];
                let words = (0..len)
                    .map(|k| {
                        for (slot, v) in lane.iter_mut().zip(&inputs) {
                            *slot = v[k];
                        }
                        table.eval(*t, &lane[..inputs.len()])
                    })
                    .collect();
                (vector(name).clone(), words)
            })
            .collect();
        for (v, words) in results {
            self.vectors.insert(v, words);
        }
    }
}

/// What a correct service must produce for one trace.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Per event (submission order): the digest a `Read` reports.
    pub digests: Vec<Option<u64>>,
    /// The model after every event.
    pub model: Model,
}

impl Expected {
    /// Replays `events` through the model.
    pub fn new(vectors: &[(String, u64)], events: &[TraceEvent], row_words: usize) -> Self {
        let mut model = Model::new(vectors, row_words);
        let digests = events.iter().map(|e| model.apply(&e.op)).collect();
        Self { digests, model }
    }

    /// Flips one bit of the first expected `Read` digest, so a correct
    /// service must now fail the check (the oracle's self-test).
    pub fn corrupt(&mut self) {
        if let Some(d) = self.digests.iter_mut().flatten().next() {
            *d ^= 1;
        }
    }
}

/// Checks one replay's responses against the expectations: exactly one
/// successful response per event, and every `Read` digest as predicted.
/// `ids[i]` is the request id `submit` returned for event `i`.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_responses(
    expected: &Expected,
    ids: &[RequestId],
    responses: &[ServeResponse],
) -> Result<(), String> {
    if responses.len() != ids.len() {
        return Err(format!(
            "{} responses for {} requests",
            responses.len(),
            ids.len()
        ));
    }
    let by_id: HashMap<RequestId, &ServeResponse> =
        responses.iter().map(|r| (r.request, r)).collect();
    for (i, id) in ids.iter().enumerate() {
        let r = by_id
            .get(id)
            .ok_or_else(|| format!("no response for {id}"))?;
        match (&r.outcome, expected.digests[i]) {
            (Err(e), _) => return Err(format!("{id} ({}) failed: {e}", r.op)),
            (Ok(ResponsePayload::Digest { digest, .. }), Some(want)) if *digest != want => {
                return Err(format!(
                    "{id} read digest {digest:#x}, model says {want:#x}"
                ));
            }
            (Ok(ResponsePayload::Digest { .. }), Some(_)) => {}
            (Ok(ResponsePayload::Digest { .. }), None) | (Ok(_), Some(_)) => {
                return Err(format!("{id} ({}) has the wrong payload kind", r.op));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Checks the service's final vector contents (as `read_vector` returns
/// them, row by row) against the model.
///
/// # Errors
///
/// The first vector whose contents differ.
pub fn check_vector(expected: &Expected, name: &str, rows: &[Vec<u64>]) -> Result<(), String> {
    let got: Vec<u64> = rows.concat();
    if got != expected.model.words(name) {
        return Err(format!("final contents of {name} differ from the model"));
    }
    Ok(())
}

/// FNV-1a digest of the serialised response log (completion order).
pub fn log_digest(responses: &[ServeResponse]) -> u64 {
    let json = serde_json::to_string(responses).expect("responses serialise");
    felim_exec::hash::fnv1a_bytes(json.as_bytes())
}
