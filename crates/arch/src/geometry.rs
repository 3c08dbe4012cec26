//! Memory geometry and row addressing.

use crate::ArchError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one memory row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

// Maps keyed by `RowId` serialize with the same stringified-number keys
// as maps keyed by the raw `u64`.
impl serde::JsonKey for RowId {
    fn write_key(&self, out: &mut String) {
        serde::JsonKey::write_key(&self.0, out);
    }
}

/// Geometry of the simulated memory.
///
/// The paper's configuration: 8 GB capacity, 8 KB rows, subarrays of 512
/// rows (the granularity at which compute rows are reserved and at which
/// the thermal model applies power).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Rows per subarray.
    pub rows_per_subarray: u64,
}

impl MemoryGeometry {
    /// The paper's 8 GB / 8 KB-row configuration.
    pub fn paper_8gb() -> Self {
        Self {
            capacity_bytes: 8 << 30,
            row_bytes: 8 << 10,
            rows_per_subarray: 512,
        }
    }

    /// A small geometry for unit tests (1 MB, 1 KB rows).
    pub fn tiny() -> Self {
        Self {
            capacity_bytes: 1 << 20,
            row_bytes: 1 << 10,
            rows_per_subarray: 64,
        }
    }

    /// Validates divisibility constraints.
    ///
    /// # Errors
    ///
    /// Returns a message when the geometry is inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_bytes == 0 || !self.row_bytes.is_multiple_of(8) {
            return Err(format!(
                "row size must be a positive multiple of 8 bytes, got {}",
                self.row_bytes
            ));
        }
        if !self.capacity_bytes.is_multiple_of(self.row_bytes) {
            return Err("capacity must be a whole number of rows".into());
        }
        if self.rows_per_subarray == 0 || !self.total_rows().is_multiple_of(self.rows_per_subarray)
        {
            return Err("rows must divide evenly into subarrays".into());
        }
        Ok(())
    }

    /// Total number of rows.
    pub fn total_rows(&self) -> u64 {
        self.capacity_bytes / self.row_bytes
    }

    /// Number of 64-bit words per row.
    pub fn row_words(&self) -> usize {
        (self.row_bytes / 8) as usize
    }

    /// Number of bits per row.
    pub fn row_bits(&self) -> u64 {
        self.row_bytes * 8
    }

    /// Number of subarrays.
    pub fn subarrays(&self) -> u64 {
        self.total_rows() / self.rows_per_subarray
    }

    /// The subarray containing `row`.
    pub fn subarray_of(&self, row: RowId) -> u64 {
        row.0 / self.rows_per_subarray
    }

    /// Is `row` a valid address?
    pub fn contains(&self, row: RowId) -> bool {
        row.0 < self.total_rows()
    }

    /// Checks that every row is a valid address: the first one that is
    /// not is a [`ArchError::RowOutOfRange`].
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for the first row outside the
    /// geometry.
    pub fn check_rows(&self, rows: &[RowId]) -> Result<(), ArchError> {
        match rows.iter().find(|&&r| !self.contains(r)) {
            Some(r) => Err(ArchError::RowOutOfRange {
                row: r.0,
                rows: self.total_rows(),
            }),
            None => Ok(()),
        }
    }

    /// Rows needed to hold `bytes` of data.
    pub fn rows_for_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.row_bytes)
    }
}

impl Default for MemoryGeometry {
    fn default() -> Self {
        Self::paper_8gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_section_vi() {
        let g = MemoryGeometry::paper_8gb();
        g.validate().unwrap();
        assert_eq!(g.capacity_bytes, 8 * 1024 * 1024 * 1024);
        assert_eq!(g.row_bytes, 8192);
        assert_eq!(g.total_rows(), 1 << 20); // 1 Mi rows
        assert_eq!(g.row_words(), 1024);
        assert_eq!(g.row_bits(), 65536);
        assert_eq!(g.subarrays(), 2048);
    }

    #[test]
    fn tiny_geometry_validates() {
        let g = MemoryGeometry::tiny();
        g.validate().unwrap();
        assert_eq!(g.total_rows(), 1024);
        assert_eq!(g.row_words(), 128);
    }

    #[test]
    fn subarray_mapping() {
        let g = MemoryGeometry::tiny();
        assert_eq!(g.subarray_of(RowId(0)), 0);
        assert_eq!(g.subarray_of(RowId(63)), 0);
        assert_eq!(g.subarray_of(RowId(64)), 1);
    }

    #[test]
    fn bounds_and_sizing() {
        let g = MemoryGeometry::tiny();
        assert!(g.contains(RowId(1023)));
        assert!(!g.contains(RowId(1024)));
        assert_eq!(g.rows_for_bytes(0), 0);
        assert_eq!(g.rows_for_bytes(1), 1);
        assert_eq!(g.rows_for_bytes(1024), 1);
        assert_eq!(g.rows_for_bytes(1025), 2);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let mut g = MemoryGeometry::tiny();
        g.row_bytes = 12;
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::tiny();
        g.capacity_bytes = 1000;
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::tiny();
        g.rows_per_subarray = 7;
        assert!(g.validate().is_err());
    }

    #[test]
    fn row_display() {
        assert_eq!(RowId(5).to_string(), "row#5");
    }
}
