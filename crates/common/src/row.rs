//! Rows, key extraction, and table/index schemas.
//!
//! The engines store rows as opaque byte payloads ([`Row`] = [`bytes::Bytes`])
//! and index them by 64-bit keys extracted according to a per-index
//! [`KeySpec`]. This keeps the storage layer monomorphic and cheap while
//! still supporting multi-table, multi-index workloads such as TATP (which
//! packs its typed records into fixed layouts and declares the key offsets).

use bytes::Bytes;

use crate::error::{MmdbError, Result};
use crate::hash::hash_bytes;
use crate::ids::Key;

/// A row payload. Cheaply cloneable (reference counted), immutable once
/// stored — updates always create a new version with a new payload, exactly
/// as the multiversion engine requires.
pub type Row = Bytes;

/// How an index derives its 64-bit key from a row payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeySpec {
    /// Read a little-endian `u64` at the given byte offset.
    U64At(usize),
    /// Read a little-endian `u32` at the given byte offset (zero-extended).
    U32At(usize),
    /// Hash `len` bytes starting at `offset` (for string or composite keys).
    BytesAt {
        /// Byte offset of the field within the row.
        offset: usize,
        /// Length of the field in bytes.
        len: usize,
    },
}

impl KeySpec {
    /// Extract the index key from a row.
    pub fn key_of(&self, row: &[u8]) -> Result<Key> {
        match *self {
            KeySpec::U64At(offset) => {
                let end = offset + 8;
                let slice = row.get(offset..end).ok_or(MmdbError::RowTooShort {
                    needed: end,
                    actual: row.len(),
                })?;
                Ok(u64::from_le_bytes(
                    slice.try_into().expect("slice is 8 bytes"),
                ))
            }
            KeySpec::U32At(offset) => {
                let end = offset + 4;
                let slice = row.get(offset..end).ok_or(MmdbError::RowTooShort {
                    needed: end,
                    actual: row.len(),
                })?;
                Ok(u32::from_le_bytes(slice.try_into().expect("slice is 4 bytes")) as u64)
            }
            KeySpec::BytesAt { offset, len } => {
                let end = offset + len;
                let slice = row.get(offset..end).ok_or(MmdbError::RowTooShort {
                    needed: end,
                    actual: row.len(),
                })?;
                Ok(hash_bytes(slice))
            }
        }
    }

    /// Number of row bytes this extractor needs.
    pub fn min_row_len(&self) -> usize {
        match *self {
            KeySpec::U64At(offset) => offset + 8,
            KeySpec::U32At(offset) => offset + 4,
            KeySpec::BytesAt { offset, len } => offset + len,
        }
    }
}

/// Declaration of one index on a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexSpec {
    /// Human-readable name (used in error messages and reports).
    pub name: String,
    /// How the index key is derived from a row.
    pub key: KeySpec,
    /// Number of hash buckets. The paper sizes tables so there are no
    /// collisions; callers typically pass ~the expected row count. Ignored by
    /// ordered indexes (a skip list has no buckets).
    pub buckets: usize,
    /// Whether the index enforces uniqueness on insert.
    pub unique: bool,
    /// Whether the index keeps its keys ordered (a lock-free skip list in the
    /// MV engines), making it eligible for range scans ([`SearchPred::Range`]).
    /// Ordered indexes only make sense for [`KeySpec::U64At`] / `U32At` keys;
    /// a `BytesAt` key is hashed, so its order is meaningless.
    pub ordered: bool,
}

impl IndexSpec {
    /// Convenience constructor for a unique index on a `u64` field.
    pub fn unique_u64(name: impl Into<String>, offset: usize, buckets: usize) -> Self {
        IndexSpec {
            name: name.into(),
            key: KeySpec::U64At(offset),
            buckets,
            unique: true,
            ordered: false,
        }
    }

    /// Convenience constructor for a non-unique index on a `u64` field.
    pub fn multi_u64(name: impl Into<String>, offset: usize, buckets: usize) -> Self {
        IndexSpec {
            name: name.into(),
            key: KeySpec::U64At(offset),
            buckets,
            unique: false,
            ordered: false,
        }
    }

    /// Convenience constructor for an ordered (range-scannable) non-unique
    /// index on a `u64` field.
    pub fn ordered_u64(name: impl Into<String>, offset: usize) -> Self {
        IndexSpec {
            name: name.into(),
            key: KeySpec::U64At(offset),
            buckets: 0,
            unique: false,
            ordered: true,
        }
    }
}

/// A search predicate over one index: the argument of a scan.
///
/// Equality probes work on every index; range predicates require an
/// [`ordered`](IndexSpec::ordered) index. Phantom protection is taken at the
/// granularity of the predicate (§4.3 generalized): an optimistic
/// serializable transaction re-runs the predicate at commit, a pessimistic
/// one locks it (hash bucket for `Eq`, key range for `Range`) so inserters of
/// matching keys must wait behind the scanner.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SearchPred {
    /// Exactly this key.
    Eq(Key),
    /// Every key in the **inclusive** interval `[lo, hi]`.
    Range {
        /// Lower bound (inclusive).
        lo: Key,
        /// Upper bound (inclusive).
        hi: Key,
    },
}

impl SearchPred {
    /// Does `key` satisfy the predicate?
    #[inline]
    pub fn matches(&self, key: Key) -> bool {
        match *self {
            SearchPred::Eq(k) => key == k,
            SearchPred::Range { lo, hi } => lo <= key && key <= hi,
        }
    }
}

/// Reusable buffer for per-index key extraction (cleared, never freed).
///
/// The write path extracts every index key of a row at least once per
/// insert/update (uniqueness checks, bucket locks, the version header), and
/// a fresh `Vec<Key>` per extraction is the single largest allocation source
/// on that path. Transactions keep one `KeyScratch` and pass it to
/// `keys_into`-style extractors; after warmup the capacity is stable and
/// extraction allocates nothing (pinned by `crates/core/tests/alloc_free.rs`).
#[derive(Debug, Default)]
pub struct KeyScratch {
    keys: Vec<Key>,
}

impl KeyScratch {
    /// Create an empty scratch.
    pub fn new() -> KeyScratch {
        KeyScratch::default()
    }

    /// The extracted keys, in index order.
    #[inline]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Clear without releasing capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Clear, then refill from `specs` applied to `row`. Capacity is reused.
    pub fn extract_from<'a, I>(&mut self, specs: I, row: &[u8]) -> Result<()>
    where
        I: IntoIterator<Item = &'a KeySpec>,
    {
        self.keys.clear();
        for spec in specs {
            self.keys.push(spec.key_of(row)?);
        }
        Ok(())
    }
}

/// Declaration of a table: a name plus one or more indexes. Index 0 is the
/// primary index (every row must be reachable through every index — there is
/// no direct access to records except via an index, §2.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSpec {
    /// Human-readable table name.
    pub name: String,
    /// Indexes on the table; must be non-empty.
    pub indexes: Vec<IndexSpec>,
}

impl TableSpec {
    /// Create a table spec with a single unique primary hash index on a
    /// little-endian `u64` key stored at byte offset 0 of each row.
    pub fn keyed_u64(name: impl Into<String>, buckets: usize) -> Self {
        TableSpec {
            name: name.into(),
            indexes: vec![IndexSpec::unique_u64("pk", 0, buckets)],
        }
    }

    /// Extract the key of `row` under every index into `scratch` (index
    /// order, allocation-free after warmup).
    pub fn keys_into(&self, row: &[u8], scratch: &mut KeyScratch) -> Result<()> {
        scratch.extract_from(self.indexes.iter().map(|idx| &idx.key), row)
    }

    /// Add an extra index and return self (builder style).
    pub fn with_index(mut self, index: IndexSpec) -> Self {
        self.indexes.push(index);
        self
    }
}

/// Helpers for building small fixed-layout rows used by the workload
/// generators and examples.
pub mod rowbuf {
    use super::{IndexSpec, Row, TableSpec};

    /// Keys per secondary-index group of [`grouped_row`]: a short (8-row)
    /// equality scan, the paper's short-scan shape.
    pub const GROUP_SIZE: u64 = 8;

    /// Build a 24-byte row `[pk: u64][group: u64][8 filler bytes]`, where
    /// `group` buckets [`GROUP_SIZE`] consecutive keys. This is the
    /// read-path fixture of the zero-allocation regression test
    /// (`crates/core/tests/alloc_free.rs`).
    pub fn grouped_row(key: u64) -> Row {
        let mut bytes = Vec::with_capacity(24);
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&(key / GROUP_SIZE).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        Row::from(bytes)
    }

    /// Table spec matching [`grouped_row`]: unique primary key plus a
    /// non-unique `group` index.
    pub fn grouped_spec(rows: u64) -> TableSpec {
        TableSpec::keyed_u64("readpath", rows as usize).with_index(IndexSpec::multi_u64(
            "group",
            8,
            (rows / GROUP_SIZE) as usize,
        ))
    }

    /// Build a row consisting of a `u64` key followed by `payload_len` filler
    /// bytes derived from `fill` — the paper's homogeneous workload uses
    /// 24-byte rows with a unique key.
    pub fn keyed_row(key: u64, payload_len: usize, fill: u8) -> Row {
        let mut v = Vec::with_capacity(8 + payload_len);
        v.extend_from_slice(&key.to_le_bytes());
        v.resize(8 + payload_len, fill);
        Row::from(v)
    }

    /// Read the leading `u64` key of a row built by [`keyed_row`].
    pub fn key_of(row: &[u8]) -> u64 {
        u64::from_le_bytes(row[0..8].try_into().expect("row has a u64 key prefix"))
    }

    /// Read the filler byte of a row built by [`keyed_row`] (detects lost
    /// updates in tests).
    pub fn fill_of(row: &[u8]) -> u8 {
        row.get(8).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_extraction() {
        let row = rowbuf::keyed_row(0xDEAD_BEEF_0102_0304, 16, 7);
        assert_eq!(
            KeySpec::U64At(0).key_of(&row).unwrap(),
            0xDEAD_BEEF_0102_0304
        );
        assert_eq!(rowbuf::key_of(&row), 0xDEAD_BEEF_0102_0304);
        assert_eq!(rowbuf::fill_of(&row), 7);
        assert_eq!(row.len(), 24);
    }

    #[test]
    fn u32_extraction_zero_extends() {
        let mut v = vec![0u8; 12];
        v[4..8].copy_from_slice(&0xAABBCCDDu32.to_le_bytes());
        assert_eq!(KeySpec::U32At(4).key_of(&v).unwrap(), 0xAABBCCDD);
    }

    #[test]
    fn bytes_extraction_hashes() {
        let a = b"subscriber-000001-row".to_vec();
        let b = b"subscriber-000002-row".to_vec();
        let spec = KeySpec::BytesAt { offset: 0, len: 17 };
        assert_ne!(spec.key_of(&a).unwrap(), spec.key_of(&b).unwrap());
        assert_eq!(spec.key_of(&a).unwrap(), spec.key_of(&a).unwrap());
    }

    #[test]
    fn short_row_is_rejected() {
        let row = vec![0u8; 4];
        let err = KeySpec::U64At(0).key_of(&row).unwrap_err();
        assert!(matches!(
            err,
            MmdbError::RowTooShort {
                needed: 8,
                actual: 4
            }
        ));
        assert_eq!(KeySpec::U64At(16).min_row_len(), 24);
    }

    #[test]
    fn search_pred_matching() {
        assert!(SearchPred::Eq(5).matches(5));
        assert!(!SearchPred::Eq(5).matches(6));
        let r = SearchPred::Range { lo: 3, hi: 7 };
        assert!(!r.matches(2));
        assert!(r.matches(3), "lower bound is inclusive");
        assert!(r.matches(5));
        assert!(r.matches(7), "upper bound is inclusive");
        assert!(!r.matches(8));
        let point = SearchPred::Range { lo: 4, hi: 4 };
        assert!(point.matches(4));
        assert!(!point.matches(5));
    }

    #[test]
    fn ordered_index_constructor() {
        let idx = IndexSpec::ordered_u64("by_key", 0);
        assert!(idx.ordered);
        assert!(!idx.unique);
        assert_eq!(idx.key, KeySpec::U64At(0));
        assert!(!IndexSpec::unique_u64("pk", 0, 8).ordered);
    }

    #[test]
    fn table_spec_builder() {
        let spec = TableSpec::keyed_u64("accounts", 1024).with_index(IndexSpec::multi_u64(
            "by_branch",
            8,
            256,
        ));
        assert_eq!(spec.indexes.len(), 2);
        assert!(spec.indexes[0].unique);
        assert!(!spec.indexes[1].unique);
        assert_eq!(spec.indexes[1].key, KeySpec::U64At(8));
    }
}
