//! OPQ entries: the record format shared by the operation queue and the append-only
//! leaf segments.
//!
//! Section 3.1.3 of the paper defines an OPQ entry as an index record (key + data
//! page id) plus an operation flag (`i`nsert, `d`elete, `u`pdate). The same format is
//! appended to leaf nodes under the append-only feature of Section 3.2.2, which is
//! why it lives in its own module.

use btree::{Key, Value};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// The kind of update operation an entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Index-insert.
    Insert,
    /// Index-delete.
    Delete,
    /// Index-update (replace the record pointer of an existing key).
    Update,
}

impl OpKind {
    /// One-byte encoding used on disk (`b'i'`, `b'd'`, `b'u'` as in the paper's
    /// figures).
    pub fn to_byte(self) -> u8 {
        match self {
            OpKind::Insert => b'i',
            OpKind::Delete => b'd',
            OpKind::Update => b'u',
        }
    }

    /// Decodes the one-byte representation; returns `None` for anything else.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            b'i' => Some(OpKind::Insert),
            b'd' => Some(OpKind::Delete),
            b'u' => Some(OpKind::Update),
            _ => None,
        }
    }
}

/// An OPQ entry: an index record plus the operation flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEntry {
    /// The index key.
    pub key: Key,
    /// The record pointer (data page id). Ignored for deletes.
    pub value: Value,
    /// The operation kind.
    pub op: OpKind,
}

/// Serialized size of an entry on disk: 8-byte key + 8-byte value + 1-byte flag,
/// padded to keep records aligned.
pub const ENTRY_BYTES: usize = 20;

impl OpEntry {
    /// Creates an insert entry.
    pub fn insert(key: Key, value: Value) -> Self {
        Self {
            key,
            value,
            op: OpKind::Insert,
        }
    }

    /// Creates a delete entry.
    pub fn delete(key: Key) -> Self {
        Self {
            key,
            value: 0,
            op: OpKind::Delete,
        }
    }

    /// Creates an update entry.
    pub fn update(key: Key, value: Value) -> Self {
        Self {
            key,
            value,
            op: OpKind::Update,
        }
    }

    /// What this entry says about its key: `Some(value)` establishes it,
    /// `None` deletes it.
    pub fn verdict(&self) -> Option<Value> {
        match self.op {
            OpKind::Insert | OpKind::Update => Some(self.value),
            OpKind::Delete => None,
        }
    }

    /// Serialises the entry into `buf` (which must be at least [`ENTRY_BYTES`] long).
    pub fn encode_into(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.key.to_le_bytes());
        buf[8..16].copy_from_slice(&self.value.to_le_bytes());
        buf[16] = self.op.to_byte();
        buf[17..ENTRY_BYTES].fill(0);
    }

    /// Parses an entry serialised by [`OpEntry::encode_into`]. Returns `None` when the
    /// slot is empty (op byte zero), corrupt or too short to hold the flag.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let op = OpKind::from_byte(*buf.get(16)?)?;
        Some(Self {
            key: u64::from_le_bytes(buf[..8].try_into().ok()?),
            value: u64::from_le_bytes(buf[8..16].try_into().ok()?),
            op,
        })
    }
}

/// Resolves a sequence of entries in arrival order into the final key → value state:
/// inserts add, deletes cancel matching inserts, updates replace the value (an update
/// of an absent key behaves as an insert, matching the leaf-shrink rule of treating an
/// update as delete-then-insert).
pub fn resolve(entries: impl IntoIterator<Item = impl Borrow<OpEntry>>) -> BTreeMap<Key, Value> {
    let mut state = BTreeMap::new();
    for e in entries {
        let e = e.borrow();
        match e.verdict() {
            Some(value) => state.insert(e.key, value),
            None => state.remove(&e.key),
        };
    }
    state
}

/// Resolution of a single key against a sequence of entries: `Some(Some(v))` if the
/// latest matching entry establishes the key with value `v`, `Some(None)` if the
/// latest matching entry deletes it, `None` if no entry mentions the key.
pub fn resolve_key(entries: impl IntoIterator<Item = impl Borrow<OpEntry>>, key: Key) -> Option<Option<Value>> {
    let mentions = entries.into_iter().filter(|e| e.borrow().key == key);
    mentions.last().map(|e| e.borrow().verdict())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_bytes_round_trip() {
        for op in [OpKind::Insert, OpKind::Delete, OpKind::Update] {
            assert_eq!(OpKind::from_byte(op.to_byte()), Some(op));
        }
        assert_eq!(OpKind::from_byte(b'x'), None);
        assert_eq!(OpKind::from_byte(0), None);
    }

    #[test]
    fn entry_encode_decode_round_trip() {
        let entries = [
            OpEntry::insert(42, 1000),
            OpEntry::delete(7),
            OpEntry::update(u64::MAX, 3),
        ];
        let mut buf = [0u8; ENTRY_BYTES];
        for e in entries {
            e.encode_into(&mut buf);
            assert_eq!(OpEntry::decode(&buf), Some(e));
        }
    }

    #[test]
    fn empty_slot_decodes_to_none() {
        let buf = [0u8; ENTRY_BYTES];
        assert_eq!(OpEntry::decode(&buf), None);
    }

    /// Fuzz: every value at every byte of an encoded entry, every truncation
    /// and seeded extensions decode without a panic, to `None` or to an entry
    /// that re-encodes to the bytes it was read from.
    #[test]
    fn fuzz_op_entry_mutations_truncations_and_extensions() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_E4D7);
        let mut x = seed | 1;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let check = |buf: &[u8], ctx: &str| {
            if let Some(e) = OpEntry::decode(buf) {
                let mut again = [0u8; ENTRY_BYTES];
                e.encode_into(&mut again);
                assert_eq!(again[..17], buf[..17], "{ctx}");
            }
        };
        for e in [
            OpEntry::insert(42, 1000),
            OpEntry::delete(7),
            OpEntry::update(u64::MAX, 3),
        ] {
            let mut image = [0u8; ENTRY_BYTES];
            e.encode_into(&mut image);
            for at in 0..ENTRY_BYTES {
                for value in 0..=255u8 {
                    let mut mutated = image;
                    mutated[at] = value;
                    check(&mutated, &format!("{e:?}: byte {at} = {value}"));
                }
            }
            for cut in 0..ENTRY_BYTES {
                let decoded = OpEntry::decode(&image[..cut]);
                assert_eq!(decoded, (cut > 16).then_some(e), "{e:?} cut at {cut}");
            }
            for _ in 0..64 {
                let mut extended = image.to_vec();
                extended.extend((0..1 + rand(32)).map(|_| rand(256) as u8));
                assert_eq!(OpEntry::decode(&extended), Some(e), "CRASH_SEED={seed} {e:?} extended");
            }
        }
    }

    #[test]
    fn resolve_applies_ops_in_order() {
        let ops = vec![
            OpEntry::insert(1, 10),
            OpEntry::insert(2, 20),
            OpEntry::delete(1),
            OpEntry::insert(3, 30),
            OpEntry::update(2, 25),
            OpEntry::insert(1, 11),
        ];
        let state = resolve(&ops);
        assert_eq!(state.get(&1), Some(&11));
        assert_eq!(state.get(&2), Some(&25));
        assert_eq!(state.get(&3), Some(&30));
        assert_eq!(state.len(), 3);
    }

    #[test]
    fn resolve_key_reports_latest_verdict() {
        let ops = vec![OpEntry::insert(5, 1), OpEntry::delete(5), OpEntry::insert(6, 2)];
        assert_eq!(resolve_key(&ops, 5), Some(None));
        assert_eq!(resolve_key(&ops, 6), Some(Some(2)));
        assert_eq!(resolve_key(&ops, 7), None);
    }

    #[test]
    fn update_of_absent_key_acts_as_insert_in_resolution() {
        let ops = vec![OpEntry::update(9, 99)];
        assert_eq!(resolve(&ops).get(&9), Some(&99));
    }
}
