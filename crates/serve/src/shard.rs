//! One shard of the service: a command-logging backend plus its batch
//! execution entry point.
//!
//! A shard owns an independent [`BulkBackend`] instance — FeRAM, the
//! Ambit DRAM baseline, or either wrapped in a
//! [`ReliabilityController`] — always built `.with_command_log()`. Each
//! dispatch runs one coalesced [`RowOp`] batch through
//! [`execute_batch`], then replays the batch's command log with
//! [`schedule`] to price it as a *makespan* under subarray parallelism
//! (one slot per subarray), and finally clears the log so the next
//! batch's replay stands alone. The service charges each virtual tick
//! the slowest shard's makespan — the quantity the PR-7 benchmark sweeps
//! against shard count.

use felim_arch::batch::{execute_batch, RowOp, RowOpOutput};
use felim_arch::command::Command;
use felim_arch::controller::{ControllerConfig, ReliabilityController};
use felim_arch::drift::DriftSpec;
use felim_arch::energy::LatencyModel;
use felim_arch::geometry::MemoryGeometry;
use felim_arch::schedule::schedule;
use felim_arch::{ArchError, BulkBackend, ControllerHealth, DramBackend, FeramBackend};
use serde::Serialize;

/// Which memory technology backs each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Technology {
    /// The paper's 2T-nC FeRAM logic-in-memory array.
    Feram,
    /// The Ambit-style triple-row-activation DRAM baseline.
    Dram,
}

impl Technology {
    /// Lower-case label for reports and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Technology::Feram => "feram",
            Technology::Dram => "dram",
        }
    }
}

/// What a shard needs from its backend beyond [`BulkBackend`]: the
/// command log a batch is priced from, the data-row boundary, and the
/// reliability clock. Implemented by both raw backends and by a
/// [`ReliabilityController`] over either, so the backend kind is decided
/// once, in [`Shard::new`].
trait ShardBackend: BulkBackend + Send {
    /// Commands issued since the log was last cleared.
    fn command_log(&self) -> &[Command];
    fn clear_command_log(&mut self);
    /// First reserved local row — data rows live strictly below it.
    fn data_rows(&self) -> u64;
    /// The cycle costs the command log is replayed at.
    fn latency_model(&self) -> &LatencyModel;
    /// Advances reliability time by `dt_s` (scrub and drift); raw
    /// backends model neither.
    fn tick(&mut self, _dt_s: f64) -> Result<(), ArchError> {
        Ok(())
    }
    /// Raw backends track nothing, so nothing can degrade: all-zero.
    fn health(&self) -> ControllerHealth {
        ControllerHealth::default()
    }
}

macro_rules! raw_shard_backend {
    ($($backend:ty),*) => {$(
        impl ShardBackend for $backend {
            fn command_log(&self) -> &[Command] {
                <$backend>::command_log(self)
            }
            fn clear_command_log(&mut self) {
                <$backend>::clear_command_log(self);
            }
            fn data_rows(&self) -> u64 {
                self.first_reserved_row().0
            }
            fn latency_model(&self) -> &LatencyModel {
                <$backend>::latency_model(self)
            }
        }
    )*};
}

raw_shard_backend!(FeramBackend, DramBackend);

impl<B: ShardBackend> ShardBackend for ReliabilityController<B> {
    fn command_log(&self) -> &[Command] {
        self.inner().command_log()
    }
    fn clear_command_log(&mut self) {
        self.inner_mut().clear_command_log();
    }
    fn data_rows(&self) -> u64 {
        self.inner().data_rows()
    }
    fn latency_model(&self) -> &LatencyModel {
        self.inner().latency_model()
    }
    fn tick(&mut self, dt_s: f64) -> Result<(), ArchError> {
        ReliabilityController::tick(self, dt_s)
    }
    fn health(&self) -> ControllerHealth {
        ReliabilityController::health(self)
    }
}

/// Outcome of one batch dispatch on one shard. `Clone + PartialEq` so
/// outcomes can cross the [`wire`](crate::wire) protocol and be
/// compared end-to-end in transport tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBatchOutcome {
    /// Per-op results, in batch order (empty batches yield an empty
    /// vector — the dispatch still ticks the reliability clock).
    pub outputs: Vec<Result<RowOpOutput, ArchError>>,
    /// Serial cycles the batch's commands would take back-to-back.
    pub serial_cycles: u64,
    /// Makespan of the batch under subarray-parallel replay — the
    /// shard's contribution to the tick's duration.
    pub makespan_cycles: u64,
    /// Energy charged for the batch, nanojoules.
    pub energy_nj: f64,
    /// A maintenance (scrub/drift tick) fault, if one fired. Recorded,
    /// not escalated: maintenance failures do not fail client requests.
    pub maintenance_error: Option<ArchError>,
}

/// One shard: an isolated backend plus its dispatch state.
pub struct Shard {
    backend: Box<dyn ShardBackend>,
    technology: Technology,
    slots: usize,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("tech", &self.tech_name())
            .field("slots", &self.slots)
            .finish()
    }
}

/// Wraps `raw` in a protected [`ReliabilityController`] when the tier
/// asks for one.
fn protect<B: ShardBackend + 'static>(
    raw: B,
    tier_config: Option<(DriftSpec, f64)>,
) -> Box<dyn ShardBackend> {
    match tier_config {
        None => Box::new(raw),
        Some((drift, period)) => Box::new(ReliabilityController::new(
            raw,
            ControllerConfig::protected(drift, period),
        )),
    }
}

impl Shard {
    /// Builds a shard over `geometry`. `tier_config` of `None` gives the
    /// raw backend; `Some((drift, scrub_period_s))` wraps it in a
    /// protected [`ReliabilityController`].
    pub fn new(
        technology: Technology,
        geometry: MemoryGeometry,
        tier_config: Option<(DriftSpec, f64)>,
    ) -> Self {
        let slots = geometry.subarrays().max(1) as usize;
        let backend = match technology {
            Technology::Feram => {
                protect(FeramBackend::new(geometry).with_command_log(), tier_config)
            }
            Technology::Dram => protect(DramBackend::new(geometry).with_command_log(), tier_config),
        };
        Self {
            backend,
            technology,
            slots,
        }
    }

    /// The shard's technology label (`"feram"` / `"dram"`).
    pub fn tech_name(&self) -> &'static str {
        self.technology.label()
    }

    /// First reserved local row — data rows live strictly below it.
    pub fn data_rows(&self) -> u64 {
        self.backend.data_rows()
    }

    /// Runs one coalesced batch: advances the reliability clock by
    /// `tick_s` (protected tiers), executes the ops, and prices the
    /// batch's command log as a subarray-parallel makespan.
    pub fn execute(&mut self, ops: &[RowOp], tick_s: f64) -> ShardBatchOutcome {
        let maintenance_error = self.backend.tick(tick_s).err();
        let report = execute_batch(self.backend.as_mut(), ops);
        let log = self.backend.command_log();
        let (serial_cycles, makespan_cycles) = if log.is_empty() {
            (0, 0)
        } else {
            let replay = schedule(
                log,
                self.backend.geometry(),
                self.backend.latency_model(),
                self.slots,
            );
            (replay.serial_cycles, replay.makespan_cycles)
        };
        self.backend.clear_command_log();
        ShardBatchOutcome {
            outputs: report.outputs,
            serial_cycles,
            makespan_cycles,
            energy_nj: report.energy_nj,
            maintenance_error,
        }
    }

    /// Direct maintenance read of a local row (bypasses the queue; used
    /// by [`BulkService::read_vector`](crate::BulkService::read_vector)).
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`ArchError`].
    pub fn read_local_row(&mut self, row: u64) -> Result<Vec<u64>, ArchError> {
        let data = self.backend.read_row(felim_arch::geometry::RowId(row));
        // Keep maintenance traffic out of the next batch's makespan.
        self.backend.clear_command_log();
        data
    }

    /// Serialises the complete backend state (rows, wear, ECC
    /// side-bands, drift clocks) for replica transfer. `None` when the
    /// backend cannot snapshot (e.g. a fault injector is attached).
    pub fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.backend.snapshot_state()
    }

    /// Restores the backend from a [`snapshot_state`](Self::snapshot_state)
    /// buffer. `false` (state untouched) on any mismatch or corruption.
    pub fn restore_state(&mut self, snapshot: &[u8]) -> bool {
        self.backend.restore_state(snapshot)
    }

    /// Current reliability-health counters. Raw (Baseline) shards report
    /// all-zero health: nothing is tracked, so nothing can degrade.
    pub fn health(&self) -> ControllerHealth {
        self.backend.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felim_arch::geometry::RowId;

    #[test]
    fn batch_prices_as_makespan_not_serial_sum() {
        let mut shard = Shard::new(Technology::Feram, MemoryGeometry::tiny(), None);
        // Ops in different subarrays overlap under replay.
        let ops: Vec<RowOp> = (0..8)
            .map(|i| RowOp::Write {
                row: RowId(i * 64),
                data: vec![i; 128],
            })
            .collect();
        let out = shard.execute(&ops, 1e-3);
        assert!(out.outputs.iter().all(|o| o.is_ok()));
        assert!(out.makespan_cycles > 0);
        assert!(
            out.makespan_cycles < out.serial_cycles,
            "8 subarrays must overlap: makespan {} vs serial {}",
            out.makespan_cycles,
            out.serial_cycles
        );
    }

    #[test]
    fn consecutive_batches_price_independently() {
        let mut shard = Shard::new(Technology::Dram, MemoryGeometry::tiny(), None);
        let ops = vec![RowOp::Write {
            row: RowId(0),
            data: vec![7; 128],
        }];
        let first = shard.execute(&ops, 1e-3);
        let second = shard.execute(&ops, 1e-3);
        assert_eq!(
            first.makespan_cycles, second.makespan_cycles,
            "log must be cleared between batches"
        );
    }

    #[test]
    fn protected_shard_serves_and_ticks() {
        let ops = vec![
            RowOp::Write {
                row: RowId(0),
                data: vec![0b1100; 128],
            },
            RowOp::Write {
                row: RowId(1),
                data: vec![0b1010; 128],
            },
            RowOp::And {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(2),
            },
            RowOp::Read { row: RowId(2) },
        ];
        // The full backend matrix: FeRAM/DRAM x raw/Protected.
        let mut reads = Vec::new();
        for technology in [Technology::Feram, Technology::Dram] {
            for tier in [None, Some((DriftSpec::quiet(7), 1.0))] {
                let mut shard = Shard::new(technology, MemoryGeometry::tiny(), tier);
                assert_eq!(shard.tech_name(), technology.label());
                let out = shard.execute(&ops, 0.5);
                assert!(out.maintenance_error.is_none());
                let words = match &out.outputs[3] {
                    Ok(RowOpOutput::Data(words)) => words.clone(),
                    other => panic!("expected read data, got {other:?}"),
                };
                assert_eq!(words[0], 0b1000);
                assert_eq!(shard.read_local_row(2).unwrap(), words);
                reads.push(words);
            }
        }
        assert!(reads.windows(2).all(|w| w[0] == w[1]), "backends disagree");
    }

    #[test]
    fn empty_batch_is_a_priced_noop() {
        let mut shard = Shard::new(Technology::Feram, MemoryGeometry::tiny(), None);
        let out = shard.execute(&[], 1e-3);
        assert!(out.outputs.is_empty());
        assert_eq!(out.makespan_cycles, 0);
    }
}
