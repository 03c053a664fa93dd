//! Physical storage for the single-version engine: rows stored in place,
//! grouped into hash buckets, with secondary indexes mapping secondary keys
//! to primary keys.
//!
//! Concurrency control (the partitioned lock table) lives one layer up in the
//! transaction logic; this module only guarantees physically consistent
//! structure updates via short per-bucket latches.

use parking_lot::RwLock;

use mmdb_common::error::{MmdbError, Result};
use mmdb_common::hash::bucket_of;
use mmdb_common::ids::{IndexId, Key, TableId};
use mmdb_common::row::{KeyScratch, Row, TableSpec};

use crate::lock::LockTable;

/// One bucket of a secondary index: (secondary key, primary key) pairs.
type SecondaryBucket = RwLock<Vec<(Key, Key)>>;

/// A single-version table.
pub struct SvTable {
    id: TableId,
    spec: TableSpec,
    /// Primary rows, grouped by the bucket their primary (index 0) key hashes
    /// to.
    primary: Vec<RwLock<Vec<Row>>>,
    /// Secondary index structures (one per index with slot ≥ 1): bucket →
    /// (secondary key, primary key) pairs.
    secondaries: Vec<Vec<SecondaryBucket>>,
    /// The partitioned lock table embedded in each index.
    locks: Vec<LockTable>,
}

impl SvTable {
    /// Create a table from its spec.
    pub fn new(id: TableId, spec: TableSpec) -> Result<SvTable> {
        if spec.indexes.is_empty() {
            return Err(MmdbError::Internal("a table needs at least one index"));
        }
        let primary_buckets = spec.indexes[0].buckets.max(1);
        let primary = (0..primary_buckets)
            .map(|_| RwLock::new(Vec::new()))
            .collect();
        let secondaries = spec
            .indexes
            .iter()
            .skip(1)
            .map(|idx| {
                (0..idx.buckets.max(1))
                    .map(|_| RwLock::new(Vec::new()))
                    .collect()
            })
            .collect();
        let locks = spec
            .indexes
            .iter()
            .map(|idx| LockTable::new(idx.buckets.max(1)))
            .collect();
        Ok(SvTable {
            id,
            spec,
            primary,
            secondaries,
            locks,
        })
    }

    /// Table identifier.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table spec.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// Number of indexes.
    pub fn index_count(&self) -> usize {
        self.spec.indexes.len()
    }

    /// The partitioned lock table of `index`.
    pub fn lock_table(&self, index: IndexId) -> Result<&LockTable> {
        self.locks
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))
    }

    /// Key of `row` under `index`.
    pub fn key_of(&self, index: IndexId, row: &[u8]) -> Result<Key> {
        self.spec
            .indexes
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))?
            .key
            .key_of(row)
    }

    /// Keys of `row` under every index, extracted into `scratch` (index
    /// order, allocation-free after warmup).
    #[inline]
    pub fn keys_into(&self, row: &[u8], scratch: &mut KeyScratch) -> Result<()> {
        self.spec.keys_into(row, scratch)
    }

    /// Whether `index` was declared unique.
    pub fn is_unique(&self, index: IndexId) -> Result<bool> {
        Ok(self
            .spec
            .indexes
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))?
            .unique)
    }

    /// Whether `index` was declared ordered (range-scannable).
    pub fn is_ordered(&self, index: IndexId) -> Result<bool> {
        Ok(self
            .spec
            .indexes
            .get(index.0 as usize)
            .ok_or(MmdbError::IndexNotFound(self.id, index))?
            .ordered)
    }

    /// Number of physical buckets of `index` (ordered indexes declare
    /// `buckets = 0` in the spec and get exactly one).
    pub fn bucket_count(&self, index: IndexId) -> Result<usize> {
        match index.0 as usize {
            0 => Ok(self.primary.len()),
            i => Ok(self
                .secondaries
                .get(i - 1)
                .ok_or(MmdbError::IndexNotFound(self.id, index))?
                .len()),
        }
    }

    /// Bucket `key` hashes to under `index`.
    pub fn bucket_of_key(&self, index: IndexId, key: Key) -> Result<usize> {
        let buckets = match index.0 as usize {
            0 => self.primary.len(),
            i => self
                .secondaries
                .get(i - 1)
                .ok_or(MmdbError::IndexNotFound(self.id, index))?
                .len(),
        };
        Ok(bucket_of(key, buckets))
    }

    /// Fetch the row with primary key `pk`, if present.
    pub fn get_by_pk(&self, pk: Key) -> Result<Option<Row>> {
        let bucket = self.bucket_of_key(IndexId(0), pk)?;
        let rows = self.primary[bucket].read();
        for row in rows.iter() {
            if self.key_of(IndexId(0), row)? == pk {
                return Ok(Some(row.clone()));
            }
        }
        Ok(None)
    }

    /// Fetch every row whose key under `index` equals `key`.
    pub fn lookup(&self, index: IndexId, key: Key) -> Result<Vec<Row>> {
        if index.0 == 0 {
            return Ok(self.get_by_pk(key)?.into_iter().collect());
        }
        let sec = self
            .secondaries
            .get(index.0 as usize - 1)
            .ok_or(MmdbError::IndexNotFound(self.id, index))?;
        let bucket = self.bucket_of_key(index, key)?;
        let pks: Vec<Key> = sec[bucket]
            .read()
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, pk)| *pk)
            .collect();
        let mut out = Vec::with_capacity(pks.len());
        for pk in pks {
            if let Some(row) = self.get_by_pk(pk)? {
                // The secondary entry may be momentarily stale; re-check.
                if self.key_of(index, &row)? == key {
                    out.push(row);
                }
            }
        }
        Ok(out)
    }

    /// Visitor variant of [`SvTable::lookup`]: hand every matching row to
    /// `visit` by reference instead of materializing a `Vec<Row>`.
    ///
    /// A primary lookup visits rows in place **under the bucket latch** — no
    /// clone, no allocation, and therefore the visitor must not call back
    /// into this table or its engine (see the reentrancy rule on
    /// `EngineTxn::read_with`). A secondary lookup still stages the matching
    /// primary keys (the secondary latch must be dropped before taking
    /// primary latches), so it allocates one small `Vec<Key>`; the 1V read
    /// path is inherently not allocation-free, which is exactly the contrast
    /// the multiversion engines' zero-allocation regression test documents.
    pub fn visit_lookup(
        &self,
        index: IndexId,
        key: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        if index.0 == 0 {
            let bucket = self.bucket_of_key(IndexId(0), key)?;
            let rows = self.primary[bucket].read();
            for row in rows.iter() {
                if self.key_of(IndexId(0), row)? == key {
                    visit(row);
                    return Ok(1);
                }
            }
            return Ok(0);
        }
        let sec = self
            .secondaries
            .get(index.0 as usize - 1)
            .ok_or(MmdbError::IndexNotFound(self.id, index))?;
        let bucket = self.bucket_of_key(index, key)?;
        let pks: Vec<Key> = sec[bucket]
            .read()
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, pk)| *pk)
            .collect();
        let mut visited = 0;
        for pk in pks {
            let bucket = self.bucket_of_key(IndexId(0), pk)?;
            let rows = self.primary[bucket].read();
            for row in rows.iter() {
                if self.key_of(IndexId(0), row)? == pk {
                    // The secondary entry may be momentarily stale; re-check.
                    if self.key_of(index, row)? == key {
                        visit(row);
                        visited += 1;
                    }
                    break;
                }
            }
        }
        Ok(visited)
    }

    /// Visit every row whose key under `index` falls in the inclusive range
    /// `[lo, hi]`, in ascending key order. Requires an ordered index
    /// ([`MmdbError::IndexNotOrdered`] otherwise). The single-version store
    /// has no ordered physical structure — an ordered index here is a single
    /// unordered bucket — so the scan stages the matching `(key, pk)` pairs,
    /// sorts them, and visits each row under its primary-bucket latch (the
    /// same latch protocol as [`SvTable::visit_lookup`]; the staging `Vec`
    /// is part of the documented 1V allocation contrast).
    pub fn visit_range(
        &self,
        index: IndexId,
        lo: Key,
        hi: Key,
        visit: &mut dyn FnMut(&Row),
    ) -> Result<usize> {
        if !self.is_ordered(index)? {
            return Err(MmdbError::IndexNotOrdered(self.id, index));
        }
        let mut pairs: Vec<(Key, Key)> = Vec::new();
        if index.0 == 0 {
            for bucket in &self.primary {
                for row in bucket.read().iter() {
                    let k = self.key_of(index, row)?;
                    if lo <= k && k <= hi {
                        pairs.push((k, k));
                    }
                }
            }
        } else {
            let sec = self
                .secondaries
                .get(index.0 as usize - 1)
                .ok_or(MmdbError::IndexNotFound(self.id, index))?;
            for bucket in sec {
                pairs.extend(
                    bucket
                        .read()
                        .iter()
                        .filter(|(k, _)| lo <= *k && *k <= hi)
                        .copied(),
                );
            }
        }
        pairs.sort_unstable();
        let mut visited = 0;
        for (key, pk) in pairs {
            let bucket = self.bucket_of_key(IndexId(0), pk)?;
            let rows = self.primary[bucket].read();
            for row in rows.iter() {
                if self.key_of(IndexId(0), row)? == pk {
                    // The staged entry may be momentarily stale; re-check.
                    if self.key_of(index, row)? == key {
                        visit(row);
                        visited += 1;
                    }
                    break;
                }
            }
        }
        Ok(visited)
    }

    /// Insert a new row (physically). The caller has already checked
    /// uniqueness under the appropriate locks.
    pub fn insert_row(&self, row: Row) -> Result<()> {
        let mut keys = KeyScratch::new();
        self.keys_into(&row, &mut keys)?;
        let keys = keys.keys();
        let pk = keys[0];
        let bucket = self.bucket_of_key(IndexId(0), pk)?;
        self.primary[bucket].write().push(row);
        for (slot, key) in keys.iter().enumerate().skip(1) {
            let sec_bucket = self.bucket_of_key(IndexId(slot as u32), *key)?;
            self.secondaries[slot - 1][sec_bucket]
                .write()
                .push((*key, pk));
        }
        Ok(())
    }

    /// Replace the row with primary key `pk` by `new_row` (which may carry
    /// different secondary keys, but must keep the same primary key).
    /// Returns the old row, or `None` if `pk` was not present.
    pub fn update_row(&self, pk: Key, new_row: Row) -> Result<Option<Row>> {
        let mut new_keys = KeyScratch::new();
        self.keys_into(&new_row, &mut new_keys)?;
        let new_keys = new_keys.keys();
        if new_keys[0] != pk {
            return Err(MmdbError::Internal(
                "update_row must preserve the primary key",
            ));
        }
        let bucket = self.bucket_of_key(IndexId(0), pk)?;
        let old = {
            let mut rows = self.primary[bucket].write();
            let mut found = None;
            for row in rows.iter_mut() {
                if self.key_of(IndexId(0), row)? == pk {
                    found = Some(std::mem::replace(row, new_row.clone()));
                    break;
                }
            }
            found
        };
        let Some(old_row) = old else { return Ok(None) };
        // Fix secondary entries whose key changed.
        let mut old_keys = KeyScratch::new();
        self.keys_into(&old_row, &mut old_keys)?;
        let old_keys = old_keys.keys();
        for slot in 1..self.spec.indexes.len() {
            if old_keys[slot] == new_keys[slot] {
                continue;
            }
            let old_bucket = self.bucket_of_key(IndexId(slot as u32), old_keys[slot])?;
            {
                let mut entries = self.secondaries[slot - 1][old_bucket].write();
                if let Some(pos) = entries
                    .iter()
                    .position(|(k, p)| *k == old_keys[slot] && *p == pk)
                {
                    entries.swap_remove(pos);
                }
            }
            let new_bucket = self.bucket_of_key(IndexId(slot as u32), new_keys[slot])?;
            self.secondaries[slot - 1][new_bucket]
                .write()
                .push((new_keys[slot], pk));
        }
        Ok(Some(old_row))
    }

    /// Remove the row with primary key `pk`. Returns the removed row.
    pub fn delete_row(&self, pk: Key) -> Result<Option<Row>> {
        let bucket = self.bucket_of_key(IndexId(0), pk)?;
        let old = {
            let mut rows = self.primary[bucket].write();
            let mut found = None;
            for (i, row) in rows.iter().enumerate() {
                if self.key_of(IndexId(0), row)? == pk {
                    found = Some(i);
                    break;
                }
            }
            found.map(|i| rows.swap_remove(i))
        };
        let Some(old_row) = old else { return Ok(None) };
        let mut old_keys = KeyScratch::new();
        self.keys_into(&old_row, &mut old_keys)?;
        for (slot, old_key) in old_keys.keys().iter().enumerate().skip(1) {
            let sec_bucket = self.bucket_of_key(IndexId(slot as u32), *old_key)?;
            let mut entries = self.secondaries[slot - 1][sec_bucket].write();
            if let Some(pos) = entries.iter().position(|(k, p)| k == old_key && *p == pk) {
                entries.swap_remove(pos);
            }
        }
        Ok(Some(old_row))
    }

    /// Number of rows (walks every bucket; diagnostics only).
    pub fn row_count(&self) -> usize {
        self.primary.iter().map(|b| b.read().len()).sum()
    }

    /// Visit every row in the table, primary-bucket order. Only physically
    /// consistent (each bucket's latch is held across its rows); callers
    /// wanting a transactionally stable full scan must hold shared locks on
    /// every primary bucket first — which is what the checkpoint walk does,
    /// and exactly the "readers block writers" cost the paper charges to
    /// single-version locking.
    pub fn visit_all(&self, visit: &mut dyn FnMut(&Row)) -> usize {
        let mut visited = 0;
        for bucket in &self.primary {
            let rows = bucket.read();
            for row in rows.iter() {
                visited += 1;
                visit(row);
            }
        }
        visited
    }
}

impl std::fmt::Debug for SvTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvTable")
            .field("id", &self.id)
            .field("name", &self.spec.name)
            .field("rows", &self.row_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_common::row::{rowbuf, IndexSpec, KeySpec};

    fn spec() -> TableSpec {
        TableSpec::keyed_u64("t", 64).with_index(IndexSpec {
            name: "by_fill".into(),
            key: KeySpec::BytesAt { offset: 8, len: 1 },
            buckets: 16,
            unique: false,
            ordered: false,
        })
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let t = SvTable::new(TableId(0), spec()).unwrap();
        for k in 0..50u64 {
            t.insert_row(rowbuf::keyed_row(k, 16, (k % 5) as u8))
                .unwrap();
        }
        assert_eq!(t.row_count(), 50);
        assert_eq!(t.get_by_pk(7).unwrap().map(|r| rowbuf::key_of(&r)), Some(7));
        assert!(t.get_by_pk(999).unwrap().is_none());
        let fill2 = mmdb_common::hash::hash_bytes(&[2u8]);
        assert_eq!(t.lookup(IndexId(1), fill2).unwrap().len(), 10);
    }

    #[test]
    fn update_fixes_secondary_entries() {
        let t = SvTable::new(TableId(0), spec()).unwrap();
        t.insert_row(rowbuf::keyed_row(1, 16, 3)).unwrap();
        let old = t
            .update_row(1, rowbuf::keyed_row(1, 16, 9))
            .unwrap()
            .unwrap();
        assert_eq!(rowbuf::fill_of(&old), 3);
        let fill3 = mmdb_common::hash::hash_bytes(&[3u8]);
        let fill9 = mmdb_common::hash::hash_bytes(&[9u8]);
        assert!(t.lookup(IndexId(1), fill3).unwrap().is_empty());
        assert_eq!(t.lookup(IndexId(1), fill9).unwrap().len(), 1);
        // Updating a missing key is a no-op.
        assert!(t
            .update_row(555, rowbuf::keyed_row(555, 16, 1))
            .unwrap()
            .is_none());
    }

    #[test]
    fn update_must_keep_primary_key() {
        let t = SvTable::new(TableId(0), spec()).unwrap();
        t.insert_row(rowbuf::keyed_row(1, 16, 3)).unwrap();
        assert!(t.update_row(1, rowbuf::keyed_row(2, 16, 3)).is_err());
    }

    #[test]
    fn delete_removes_everywhere() {
        let t = SvTable::new(TableId(0), spec()).unwrap();
        t.insert_row(rowbuf::keyed_row(1, 16, 3)).unwrap();
        t.insert_row(rowbuf::keyed_row(2, 16, 3)).unwrap();
        let old = t.delete_row(1).unwrap().unwrap();
        assert_eq!(rowbuf::key_of(&old), 1);
        assert!(t.get_by_pk(1).unwrap().is_none());
        let fill3 = mmdb_common::hash::hash_bytes(&[3u8]);
        assert_eq!(t.lookup(IndexId(1), fill3).unwrap().len(), 1);
        assert!(t.delete_row(1).unwrap().is_none());
    }

    #[test]
    fn rejects_empty_spec() {
        assert!(SvTable::new(
            TableId(0),
            TableSpec {
                name: "x".into(),
                indexes: vec![]
            }
        )
        .is_err());
    }
}
