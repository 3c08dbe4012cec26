//! A delegating timing wrapper around [`BulkBackend`].
//!
//! [`TimedBackend`] forwards every trait method — the defaulted `xor`,
//! `xnor`, `peek_row`, `reliability` and friends included — to the
//! wrapped backend, so the command stream and the resulting
//! [`ExecStats`] are exactly those of an unwrapped
//! run. Row commands are additionally counted and timed per class.

use felim_arch::{ArchError, BulkBackend, ExecStats, MemoryGeometry, ReliabilityStats, RowId};
use std::time::Instant;

/// Row-command classes the wrapper times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `write_row`, `install_row`, `decay_row`.
    Write,
    /// `read_row` (`peek_row` takes `&self` and is forwarded untimed).
    Read,
    /// `not`, `and`, `or`, `nand`, `nor`.
    Logic,
    /// `xor`, `xnor`.
    Xor,
    /// `copy`.
    Copy,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 5] = [
        Class::Write,
        Class::Read,
        Class::Logic,
        Class::Xor,
        Class::Copy,
    ];

    /// Metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            Class::Write => "write",
            Class::Read => "read",
            Class::Logic => "logic",
            Class::Xor => "xor",
            Class::Copy => "copy",
        }
    }
}

/// Calls and host nanoseconds per [`Class`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTimes {
    /// Calls, indexed like [`Class::ALL`].
    pub calls: [u64; 5],
    /// Host ns, indexed like [`Class::ALL`].
    pub ns: [u64; 5],
}

impl ClassTimes {
    /// Summed host ns over all classes.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &ClassTimes) {
        for i in 0..5 {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }
}

/// Forwards to `inner`, timing row commands.
pub struct TimedBackend<'a> {
    inner: &'a mut dyn BulkBackend,
    /// Tally so far.
    pub times: ClassTimes,
}

impl<'a> TimedBackend<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn BulkBackend) -> Self {
        Self {
            inner,
            times: ClassTimes::default(),
        }
    }

    fn timed<R>(&mut self, class: Class, f: impl FnOnce(&mut dyn BulkBackend) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut *self.inner);
        let i = class as usize;
        self.times.ns[i] += start.elapsed().as_nanos() as u64;
        self.times.calls[i] += 1;
        out
    }
}

impl BulkBackend for TimedBackend<'_> {
    fn geometry(&self) -> &MemoryGeometry {
        self.inner.geometry()
    }
    fn write_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.timed(Class::Write, |b| b.write_row(row, data))
    }
    fn install_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.timed(Class::Write, |b| b.install_row(row, data))
    }
    fn read_row(&mut self, row: RowId) -> Result<Vec<u64>, ArchError> {
        self.timed(Class::Read, |b| b.read_row(row))
    }
    fn not(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(Class::Logic, |b| b.not(src, dst))
    }
    fn and(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(Class::Logic, |x| x.and(a, b, dst))
    }
    fn or(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(Class::Logic, |x| x.or(a, b, dst))
    }
    fn nand(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(Class::Logic, |x| x.nand(a, b, dst))
    }
    fn nor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(Class::Logic, |x| x.nor(a, b, dst))
    }
    fn xor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(Class::Xor, |x| x.xor(a, b, dst))
    }
    fn xnor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(Class::Xor, |x| x.xnor(a, b, dst))
    }
    fn copy(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(Class::Copy, |b| b.copy(src, dst))
    }
    fn scratch_rows(&self, count: usize) -> Vec<RowId> {
        self.inner.scratch_rows(count)
    }
    fn stats(&self) -> &ExecStats {
        self.inner.stats()
    }
    fn reliability(&self) -> Option<&ReliabilityStats> {
        self.inner.reliability()
    }
    fn finish(&mut self) -> ExecStats {
        self.inner.finish()
    }
    fn tech_name(&self) -> &'static str {
        self.inner.tech_name()
    }
    fn peek_row(&self, row: RowId) -> Result<Option<Vec<u64>>, ArchError> {
        self.inner.peek_row(row)
    }
    fn decay_row(&mut self, row: RowId, mask: &[u64]) -> Result<bool, ArchError> {
        self.timed(Class::Write, |b| b.decay_row(row, mask))
    }
    fn wear_fraction(&self, row: RowId) -> f64 {
        self.inner.wear_fraction(row)
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }
    fn restore_state(&mut self, snapshot: &[u8]) -> bool {
        self.inner.restore_state(snapshot)
    }
}
