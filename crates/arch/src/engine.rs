//! Bit-accurate functional row store.
//!
//! Every simulated command also computes its real result, so workload
//! outputs can be verified bit-for-bit against software references. Rows
//! are lazily materialised (an 8 GB memory is addressable without 8 GB of
//! host RAM). Addressing mistakes surface as [`ArchError`]s rather than
//! panics, so backends can propagate them as typed failures.
//!
//! Rows are copy-on-write: each materialised row is a shared buffer, so a
//! row copy (RowClone, AAP staging, FeRAM COPY) and a cloned store only
//! bump reference counts, and a computed row moves into its destination.
//! Every write into a row that shares its buffer gives the row a buffer of
//! its own first, so no write is ever visible through another row.

use crate::geometry::{MemoryGeometry, RowId};
use crate::ArchError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One row's words, shareable between rows, stores and threads.
pub type SharedRow = Arc<[u64]>;

/// The zero row of the row width used last, kept process-wide so the
/// stores of one geometry (every backend a sweep or a service builds)
/// share one instead of each filling its own. One slot bounds it to one
/// row.
static ZERO_ROW: Mutex<Option<SharedRow>> = Mutex::new(None);

/// Lazily-materialised storage for full memory rows.
#[derive(Debug, Clone, Default)]
pub struct RowStore {
    geometry: MemoryGeometry,
    rows: HashMap<u64, SharedRow>,
    /// One all-zero row standing in for every row never written, so
    /// each kernel operand resolves to a plain slice once per row
    /// instead of an `Option` per word; a copy of a never-written row
    /// and a zero fill share it. Taken from [`ZERO_ROW`] on first use.
    zero: OnceLock<SharedRow>,
}

impl RowStore {
    /// Creates an empty store over the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub fn new(geometry: MemoryGeometry) -> Self {
        geometry.validate().expect("valid geometry");
        Self {
            geometry,
            rows: HashMap::new(),
            zero: OnceLock::new(),
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> &MemoryGeometry {
        &self.geometry
    }

    /// Number of rows ever touched (materialised).
    pub fn touched_rows(&self) -> u64 {
        self.rows.len() as u64
    }

    fn check_len(&self, len: usize) -> Result<(), ArchError> {
        if len == self.geometry.row_words() {
            Ok(())
        } else {
            Err(ArchError::RowSizeMismatch {
                expected: self.geometry.row_words(),
                got: len,
            })
        }
    }

    fn zero_row(&self) -> &SharedRow {
        self.zero.get_or_init(|| {
            let words = self.geometry.row_words();
            // Every update leaves the slot holding a valid row or none.
            let mut slot = ZERO_ROW.lock().unwrap_or_else(PoisonError::into_inner);
            match &*slot {
                Some(row) if row.len() == words => Arc::clone(row),
                _ => Arc::clone(slot.insert(std::iter::repeat_n(0, words).collect())),
            }
        })
    }

    /// A row's buffer: the shared zero row when it was never
    /// materialised.
    fn buffer(&self, row: RowId) -> Result<&SharedRow, ArchError> {
        self.geometry.check_rows(&[row])?;
        Ok(self.rows.get(&row.0).unwrap_or_else(|| self.zero_row()))
    }

    /// A materialised row's buffer, if no other row or store shares it:
    /// the only buffer a write may change in place.
    fn own_buffer(&mut self, row: RowId) -> Option<&mut [u64]> {
        self.rows.get_mut(&row.0).and_then(Arc::get_mut)
    }

    /// Reads a row (zeros if never written).
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn read(&self, row: RowId) -> Result<Vec<u64>, ArchError> {
        self.buffer(row).map(|r| r.to_vec())
    }

    /// Borrows a row's words without copying; `None` if the row was
    /// never materialised (reads as zeros).
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn row(&self, row: RowId) -> Result<Option<&[u64]>, ArchError> {
        self.geometry.check_rows(&[row])?;
        Ok(self.rows.get(&row.0).map(|r| &r[..]))
    }

    /// Shares a row's buffer (the zero row if never written) without
    /// copying it: the row-by-value form of [`RowStore::read`].
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub(crate) fn share(&self, row: RowId) -> Result<SharedRow, ArchError> {
        self.buffer(row).map(Arc::clone)
    }

    /// Stores a whole row by value: `data` becomes the row's buffer
    /// without a copy, shared with whoever else holds it.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry;
    /// [`ArchError::RowSizeMismatch`] unless `data` is exactly one row.
    pub(crate) fn put(&mut self, row: RowId, data: SharedRow) -> Result<(), ArchError> {
        self.geometry.check_rows(&[row])?;
        self.check_len(data.len())?;
        self.rows.insert(row.0, data);
        Ok(())
    }

    /// Writes a full row, in place when no other row shares its buffer;
    /// otherwise the row gets a buffer of its own.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry;
    /// [`ArchError::RowSizeMismatch`] unless `data` is exactly one row.
    pub fn write(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.geometry.check_rows(&[row])?;
        self.check_len(data.len())?;
        match self.own_buffer(row) {
            Some(buf) => buf.copy_from_slice(data),
            None => {
                self.rows.insert(row.0, Arc::from(data));
            }
        }
        Ok(())
    }

    /// Copies one row onto another by sharing the source's buffer (the
    /// zero row if the source was never written): no words move.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn copy_row(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        let shared = self.share(src)?;
        self.put(dst, shared)
    }

    /// `dst[i] = f(src[i])` across the whole row.
    ///
    /// # Errors
    ///
    /// As for [`RowStore::read`] / [`RowStore::write`].
    pub fn map(&mut self, src: RowId, dst: RowId, f: impl Fn(u64) -> u64) -> Result<(), ArchError> {
        self.combine3(src, src, src, dst, |x, _, _| f(x))
    }

    /// `dst[i] = f(a[i], b[i], c[i])` across the whole row (TRA/TBA); the
    /// computed row moves into `dst`.
    ///
    /// # Errors
    ///
    /// As for [`RowStore::read`] / [`RowStore::write`].
    pub fn combine3(
        &mut self,
        a: RowId,
        b: RowId,
        c: RowId,
        dst: RowId,
        f: impl Fn(u64, u64, u64) -> u64,
    ) -> Result<(), ArchError> {
        let row = self.compute(a, b, c, f)?;
        self.put(dst, row)
    }

    /// `f(a[i], b[i], c[i])` across the whole row as a new row, written
    /// straight into its one allocation and not stored: the caller
    /// decides where it lands. The read side of TRA/TBA.
    ///
    /// This is the store's one per-word loop: every operand resolves to a
    /// full-length slice up front and the words stream through a single
    /// zipped pass, which the compiler vectorises. Callers with fewer
    /// operands repeat one, whose unused loads optimise away.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn compute(
        &self,
        a: RowId,
        b: RowId,
        c: RowId,
        f: impl Fn(u64, u64, u64) -> u64,
    ) -> Result<SharedRow, ArchError> {
        let (ra, rb, rc) = (self.buffer(a)?, self.buffer(b)?, self.buffer(c)?);
        Ok(ra
            .iter()
            .zip(rb.iter())
            .zip(rc.iter())
            .map(|((&x, &y), &z)| f(x, y, z))
            .collect())
    }

    /// Fills a row with a constant word: in place when no other row
    /// shares its buffer; a zero fill of any other row shares the zero
    /// row.
    ///
    /// # Errors
    ///
    /// As for [`RowStore::write`].
    pub fn fill(&mut self, row: RowId, word: u64) -> Result<(), ArchError> {
        self.geometry.check_rows(&[row])?;
        if let Some(buf) = self.own_buffer(row) {
            buf.fill(word);
            return Ok(());
        }
        let fresh = if word == 0 {
            Arc::clone(self.zero_row())
        } else {
            std::iter::repeat_n(word, self.geometry.row_words()).collect()
        };
        self.rows.insert(row.0, fresh);
        Ok(())
    }

    /// Appends every materialised row (sorted by address, so the
    /// encoding is deterministic) to a state snapshot.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_u64, put_words};
        let mut keys: Vec<u64> = self.rows.keys().copied().collect();
        keys.sort_unstable();
        put_u64(out, keys.len() as u64);
        for k in keys {
            put_u64(out, k);
            put_words(out, &self.rows[&k]);
        }
    }

    /// Replaces this store's contents from a snapshot produced by
    /// [`RowStore::encode_state`] over the same geometry. `None` (with
    /// the store unchanged) on malformed input.
    pub fn restore_state(&mut self, buf: &[u8], pos: &mut usize) -> Option<()> {
        use crate::snapshot::{take_u64, take_words};
        let mut probe = *pos;
        let n = take_u64(buf, &mut probe)?;
        let mut rows = HashMap::with_capacity(n as usize);
        for _ in 0..n {
            let key = take_u64(buf, &mut probe)?;
            let data = take_words(buf, &mut probe)?;
            if data.len() != self.geometry.row_words() {
                return None;
            }
            rows.insert(key, Arc::from(data));
        }
        self.rows = rows;
        *pos = probe;
        Some(())
    }
}

/// Bitwise MAJORITY of three words (the TRA function).
pub fn majority_words(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (b & c) | (a & c)
}

/// Bitwise MINORITY of three words (the TBA function).
pub fn minority_words(a: u64, b: u64, c: u64) -> u64 {
    !majority_words(a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> RowStore {
        RowStore::new(MemoryGeometry::tiny())
    }

    #[test]
    fn unwritten_rows_read_zero() {
        let s = store();
        assert!(s.read(RowId(5)).unwrap().iter().all(|&w| w == 0));
        assert_eq!(s.touched_rows(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = store();
        let data: Vec<u64> = (0..128).map(|i| i * 3).collect();
        s.write(RowId(7), &data).unwrap();
        assert_eq!(s.read(RowId(7)).unwrap(), data);
        assert_eq!(s.touched_rows(), 1);
    }

    #[test]
    fn combine_and_map() {
        let mut s = store();
        s.fill(RowId(0), 0b1100).unwrap();
        s.fill(RowId(1), 0b1010).unwrap();
        let out = s.compute(RowId(0), RowId(1), RowId(1), |a, b, _| a & b).unwrap();
        assert_eq!(out[0], 0b1000);
        s.write(RowId(2), &out).unwrap();
        s.map(RowId(2), RowId(3), |x| !x).unwrap();
        assert_eq!(s.read(RowId(3)).unwrap()[0], !0b1000u64);
    }

    #[test]
    fn combine3_majority_minority() {
        let mut s = store();
        s.fill(RowId(0), 0b1100).unwrap();
        s.fill(RowId(1), 0b1010).unwrap();
        s.fill(RowId(2), 0b0110).unwrap();
        s.combine3(RowId(0), RowId(1), RowId(2), RowId(3), majority_words)
            .unwrap();
        assert_eq!(s.read(RowId(3)).unwrap()[0], 0b1110);
        s.combine3(RowId(0), RowId(1), RowId(2), RowId(4), minority_words)
            .unwrap();
        assert_eq!(s.read(RowId(4)).unwrap()[0], !0b1110u64);
    }

    #[test]
    fn word_functions_are_complementary() {
        for v in 0..8u64 {
            let (a, b, c) = (
                if v & 4 != 0 { !0 } else { 0 },
                if v & 2 != 0 { !0 } else { 0 },
                if v & 1 != 0 { !0 } else { 0 },
            );
            assert_eq!(majority_words(a, b, c), !minority_words(a, b, c));
            let expect = if v.count_ones() >= 2 { !0u64 } else { 0 };
            assert_eq!(majority_words(a, b, c), expect, "pattern {v:03b}");
        }
    }

    #[test]
    fn borrow_and_buffer_reads_match_owned_reads() {
        let mut s = store();
        let data: Vec<u64> = (0..128).map(|i| i ^ 0x5A).collect();
        s.write(RowId(3), &data).unwrap();
        assert_eq!(s.row(RowId(3)).unwrap().unwrap(), &data[..]);
        assert!(s.row(RowId(4)).unwrap().is_none(), "unmaterialised row");
        assert_eq!(s.read(RowId(3)).unwrap(), data);
        assert_eq!(&*s.share(RowId(3)).unwrap(), &data[..]);
        let zeros = vec![0u64; s.geometry().row_words()];
        assert_eq!(s.read(RowId(4)).unwrap(), zeros);
        assert_eq!(&*s.share(RowId(4)).unwrap(), &zeros[..]);
        assert_eq!(s.touched_rows(), 1, "sharing an unwritten row reads it");
    }

    #[test]
    fn copy_row_materialises_and_copies() {
        let mut s = store();
        let data: Vec<u64> = (0..128).map(|i| i * 7).collect();
        s.write(RowId(0), &data).unwrap();
        s.copy_row(RowId(0), RowId(1)).unwrap();
        assert_eq!(s.read(RowId(1)).unwrap(), data);
        // Copying an unmaterialised row writes zeros.
        s.copy_row(RowId(9), RowId(1)).unwrap();
        assert!(s.read(RowId(1)).unwrap().iter().all(|&w| w == 0));
        // Self-copy is a materialising no-op.
        s.copy_row(RowId(0), RowId(0)).unwrap();
        assert_eq!(s.read(RowId(0)).unwrap(), data);
        s.copy_row(RowId(5), RowId(5)).unwrap();
        assert_eq!(s.touched_rows(), 3, "rows 0, 1, 5 and nothing else");
        assert!(matches!(
            s.copy_row(RowId(0), RowId(10_000)),
            Err(ArchError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn out_of_range_rows_are_typed_errors() {
        let s = store();
        let err = s.read(RowId(10_000)).unwrap_err();
        assert!(matches!(err, ArchError::RowOutOfRange { row: 10_000, .. }));
        assert!(err.to_string().contains("out of range"));
        let mut s = store();
        let err = s.fill(RowId(10_000), 1).unwrap_err();
        assert!(matches!(err, ArchError::RowOutOfRange { .. }));
    }

    #[test]
    fn short_rows_are_typed_errors() {
        let mut s = store();
        let err = s.write(RowId(0), &[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            ArchError::RowSizeMismatch {
                expected: s.geometry().row_words(),
                got: 3
            }
        );
        assert!(err.to_string().contains("exactly"));
    }
}
