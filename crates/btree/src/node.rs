//! On-disk node layout shared by the baseline B+-tree and (for internal nodes) the
//! PIO B-tree.
//!
//! A node occupies exactly one page. The layout follows Figure 5 of the paper: an
//! internal node is a sequence of keys `K1..K_{c-1}` and child pointers `P1..P_c`
//! (`F` = maximum number of pointers = fanout); a leaf node is a sorted sequence of
//! `(key, record-pointer)` index records plus the page id of its right sibling, which
//! forms the leaf chain used by the conventional range search.
//!
//! Encoding (little-endian):
//!
//! ```text
//! byte 0      : tag (1 = internal, 2 = leaf)
//! bytes 2..4  : entry count (u16)
//! internal    : 8 + i*8        -> key i            (count keys)
//!               8 + count*8 + i*8 -> child i       (count+1 children)
//! leaf        : 8..16          -> right sibling page id
//!               16 + i*16      -> (key, value) record i
//! ```
//!
//! Each format has **one parser**, and it is fallible: the bytes come off a
//! device. [`InternalView`] borrows an internal node's page, checks tag and
//! count once, and binary-searches the encoded keys where they lie — the read
//! paths never build the owned [`InternalNode`], which stays for the paths
//! that mutate (splits, fence inserts, the baseline tree) and is collected
//! *from* the view. [`Node::decode`] parses a baseline leaf the same way. A
//! page is **corrupt** — [`pio::IoError::Corruption`], never a panic — when
//! its tag is unknown or of the wrong kind, or its count does not fit the
//! page. Key order and child ids are not checked: a node with rotted keys
//! routes to *some* child inside the page, never outside it.

use pio::{IoError, IoResult};
use storage::{new_image, PageId, PageImage, INVALID_PAGE};

/// Index key type (the paper's trees index fixed-width integer keys).
pub type Key = u64;
/// Index record payload: the data page id / record pointer.
pub type Value = u64;

const TAG_INTERNAL: u8 = 1;
const TAG_LEAF: u8 = 2;
const HEADER_BYTES: usize = 8;
const LEAF_HEADER_BYTES: usize = 16;

/// The error for a node image at `page` that does not parse.
fn corrupt(page: PageId, image: &[u8]) -> IoError {
    IoError::Corruption {
        offset: page.saturating_mul(image.len() as u64),
        len: image.len() as u64,
    }
}

/// Tag and entry count of a node image; `None` if it is too short to have them.
fn header(image: &[u8]) -> Option<(u8, usize)> {
    let count = image.get(2..4)?;
    Some((image[0], u16::from_le_bytes([count[0], count[1]]) as usize))
}

/// The `i`-th little-endian word of `words` (whose length the caller's
/// constructor has checked against the node's count).
fn word(words: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(words[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
}

/// A borrowed, validated internal node: the encoded keys and children of one
/// page image, searched in place.
#[derive(Debug, Clone, Copy)]
pub struct InternalView<'a> {
    keys: &'a [u8],
    children: &'a [u8],
}

impl<'a> InternalView<'a> {
    /// Validates the image of the internal node stored at `page`: the tag must
    /// say internal and `count` keys plus `count + 1` children must fit.
    pub fn new(page: PageId, image: &'a [u8]) -> IoResult<Self> {
        let view = header(image).and_then(|(tag, count)| {
            let keys = image.get(HEADER_BYTES..HEADER_BYTES + count * 8)?;
            let children = image.get(HEADER_BYTES + count * 8..HEADER_BYTES + (2 * count + 1) * 8)?;
            (tag == TAG_INTERNAL).then_some(Self { keys, children })
        });
        view.ok_or_else(|| corrupt(page, image))
    }

    /// Number of separator keys (one less than the number of children).
    pub fn key_count(&self) -> usize {
        self.keys.len() / 8
    }

    /// Child `i`'s page id; `i` is at most [`InternalView::key_count`].
    pub fn child(&self, i: usize) -> PageId {
        word(self.children, i)
    }

    /// The child page ids, in key order.
    pub fn children(&self) -> impl Iterator<Item = PageId> + 'a {
        self.children.chunks_exact(8).map(|child| word(child, 0))
    }

    /// Child index to follow for `key` — [`InternalNode::child_for`], on the
    /// encoded keys: the number of separators `<= key`.
    pub fn child_for(&self, key: Key) -> usize {
        let (mut lo, mut hi) = (0, self.key_count());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if word(self.keys, mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The owned form, for the paths that mutate the node.
    pub fn to_owned(&self) -> InternalNode {
        InternalNode {
            keys: self.keys.chunks_exact(8).map(|key| word(key, 0)).collect(),
            children: self.children().collect(),
        }
    }
}

/// An internal (non-leaf) node: `keys.len() + 1 == children.len()` except while the
/// node is being built.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InternalNode {
    /// Separator keys, sorted ascending.
    pub keys: Vec<Key>,
    /// Child node page ids; child `i` covers keys in `[keys[i-1], keys[i])` with the
    /// conventions `keys[-1] = -inf`, `keys[len] = +inf`.
    pub children: Vec<PageId>,
}

/// A leaf node: sorted `(key, value)` records plus the right-sibling pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafNode {
    /// Sorted index records.
    pub entries: Vec<(Key, Value)>,
    /// Page id of the next leaf to the right, or [`INVALID_PAGE`].
    pub next: PageId,
}

impl Default for LeafNode {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            next: INVALID_PAGE,
        }
    }
}

/// Either kind of node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An internal node.
    Internal(InternalNode),
    /// A leaf node.
    Leaf(LeafNode),
}

impl InternalNode {
    /// Maximum number of child pointers (`F`, the fanout) for a page of `page_size`
    /// bytes.
    pub fn max_children(page_size: usize) -> usize {
        // count keys (c-1) * 8 + c * 8 + header <= page_size  =>  c <= (page_size - header + 8) / 16
        (page_size - HEADER_BYTES + 8) / 16
    }

    /// Child index to follow for `key`: the `i` with `keys[i-1] <= key < keys[i]`.
    pub fn child_for(&self, key: Key) -> usize {
        // partition_point returns the number of separators <= key, which is exactly
        // the child index under the paper's convention K_{i-1} <= s < K_i.
        self.keys.partition_point(|&k| k <= key)
    }

    /// Serialises the node into a new page image of `page_size` bytes.
    pub fn encode(&self, page_size: usize) -> PageImage {
        assert_eq!(self.children.len(), self.keys.len() + 1, "malformed internal node");
        assert!(self.children.len() <= Self::max_children(page_size), "node overflow");
        new_image(page_size, |buf| {
            buf[0] = TAG_INTERNAL;
            buf[2..4].copy_from_slice(&(self.keys.len() as u16).to_le_bytes());
            let mut off = HEADER_BYTES;
            for k in &self.keys {
                buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                off += 8;
            }
            for c in &self.children {
                buf[off..off + 8].copy_from_slice(&c.to_le_bytes());
                off += 8;
            }
        })
    }
}

impl LeafNode {
    /// Maximum number of `(key, value)` records for a page of `page_size` bytes.
    pub fn max_entries(page_size: usize) -> usize {
        (page_size - LEAF_HEADER_BYTES) / 16
    }

    /// Serialises the node into a new page image of `page_size` bytes.
    pub fn encode(&self, page_size: usize) -> PageImage {
        assert!(self.entries.len() <= Self::max_entries(page_size), "leaf overflow");
        new_image(page_size, |buf| {
            buf[0] = TAG_LEAF;
            buf[2..4].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
            buf[8..16].copy_from_slice(&self.next.to_le_bytes());
            let mut off = LEAF_HEADER_BYTES;
            for (k, v) in &self.entries {
                buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
                off += 16;
            }
        })
    }

    /// Binary-searches for `key` and returns its value if present.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.entries[i].1)
    }
}

impl Node {
    /// Serialises either kind of node into a new page image.
    pub fn encode(&self, page_size: usize) -> PageImage {
        match self {
            Node::Internal(n) => n.encode(page_size),
            Node::Leaf(n) => n.encode(page_size),
        }
    }

    /// Parses the image of the node stored at `page` (produced by
    /// [`Node::encode`]): an internal node through [`InternalView`], a leaf
    /// here. See the [module docs](self) for what counts as corrupt.
    pub fn decode(page: PageId, buf: &[u8]) -> IoResult<Node> {
        match header(buf) {
            Some((TAG_INTERNAL, _)) => Ok(Node::Internal(InternalView::new(page, buf)?.to_owned())),
            Some((TAG_LEAF, count)) => {
                let records = buf
                    .get(LEAF_HEADER_BYTES..LEAF_HEADER_BYTES + count * 16)
                    .ok_or_else(|| corrupt(page, buf))?;
                Ok(Node::Leaf(LeafNode {
                    entries: records.chunks_exact(16).map(|r| (word(r, 0), word(r, 1))).collect(),
                    next: word(&buf[8..LEAF_HEADER_BYTES], 0),
                }))
            }
            _ => Err(corrupt(page, buf)),
        }
    }

    /// [`Node::decode`] where the tree's shape says `page` holds a leaf: an
    /// internal node there is corruption too.
    pub fn decode_leaf(page: PageId, buf: &[u8]) -> IoResult<LeafNode> {
        match Self::decode(page, buf)? {
            Node::Leaf(leaf) => Ok(leaf),
            Node::Internal(_) => Err(corrupt(page, buf)),
        }
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_round_trip() {
        let node = InternalNode {
            keys: vec![10, 20, 30],
            children: vec![100, 200, 300, 400],
        };
        let buf = node.encode(4096);
        assert_eq!(buf.len(), 4096);
        assert_eq!(Node::decode(0, &buf).unwrap(), Node::Internal(node.clone()));
        assert_eq!(InternalView::new(0, &buf).unwrap().to_owned(), node);
    }

    #[test]
    fn leaf_round_trip() {
        let node = LeafNode {
            entries: (0..100).map(|i| (i * 2, i * 2 + 1)).collect(),
            next: 77,
        };
        let buf = node.encode(4096);
        let back = Node::decode_leaf(0, &buf).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn empty_nodes_round_trip() {
        let leaf = LeafNode::default();
        assert_eq!(Node::decode_leaf(0, &leaf.encode(2048)).unwrap(), leaf);
        let internal = InternalNode {
            keys: vec![],
            children: vec![42],
        };
        assert_eq!(
            InternalView::new(0, &internal.encode(2048)).unwrap().to_owned(),
            internal
        );
    }

    #[test]
    fn capacities_scale_with_page_size() {
        assert!(InternalNode::max_children(4096) >= 250);
        assert!(LeafNode::max_entries(4096) >= 250);
        assert!(InternalNode::max_children(2048) > 100);
        assert_eq!(InternalNode::max_children(8192), InternalNode::max_children(4096) * 2);
    }

    #[test]
    fn child_for_follows_paper_convention() {
        let node = InternalNode {
            keys: vec![10, 20, 30],
            children: vec![0, 1, 2, 3],
        };
        assert_eq!(node.child_for(5), 0);
        assert_eq!(node.child_for(10), 1, "K_{{i-1}} <= s goes right");
        assert_eq!(node.child_for(15), 1);
        assert_eq!(node.child_for(20), 2);
        assert_eq!(node.child_for(29), 2);
        assert_eq!(node.child_for(30), 3);
        assert_eq!(node.child_for(1000), 3);
    }

    #[test]
    fn leaf_get_uses_binary_search() {
        let node = LeafNode {
            entries: vec![(1, 10), (5, 50), (9, 90)],
            next: INVALID_PAGE,
        };
        assert_eq!(node.get(5), Some(50));
        assert_eq!(node.get(6), None);
        assert_eq!(node.get(1), Some(10));
        assert_eq!(node.get(9), Some(90));
    }

    #[test]
    fn full_leaf_fits_in_its_page() {
        let cap = LeafNode::max_entries(2048);
        let node = LeafNode {
            entries: (0..cap as u64).map(|i| (i, i)).collect(),
            next: 3,
        };
        let buf = node.encode(2048);
        assert_eq!(Node::decode_leaf(0, &buf).unwrap().entries.len(), cap);
    }

    #[test]
    #[should_panic(expected = "leaf overflow")]
    fn oversized_leaf_is_rejected() {
        let cap = LeafNode::max_entries(2048);
        let node = LeafNode {
            entries: (0..=cap as u64).map(|i| (i, i)).collect(),
            next: 3,
        };
        let _ = node.encode(2048);
    }

    /// Rejected, not panicked on: it is the `unwrap` of the error that panics here.
    #[test]
    #[should_panic(expected = "Corruption { offset: 6144, len: 2048 }")]
    fn garbage_page_is_rejected() {
        let buf = vec![0xFFu8; 2048];
        assert!(InternalView::new(3, &buf).is_err());
        assert!(Node::decode(3, &[]).is_err(), "an image too short for a header");
        let _ = Node::decode(3, &buf).unwrap();
    }

    #[test]
    fn is_leaf_and_expect_helpers() {
        let leaf = Node::Leaf(LeafNode::default());
        assert!(leaf.is_leaf());
        let internal = Node::Internal(InternalNode {
            keys: vec![],
            children: vec![0],
        });
        assert!(!internal.is_leaf());
        // The wrong kind where the tree's shape demands the other is an error.
        assert!(Node::decode_leaf(0, &internal.encode(2048)).is_err());
        assert!(InternalView::new(0, &leaf.encode(2048)).is_err());
    }

    /// `CRASH_SEED` (or a fixed default) and a xorshift drawn from it.
    fn seeded() -> (u64, impl FnMut(u64) -> u64) {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_0DE5);
        let mut x = seed | 1;
        (seed, move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        })
    }

    /// The view searches the encoded keys exactly as the owned node searches
    /// its `Vec`: below, at and above every separator, for 0 and 1 separators
    /// and for full nodes.
    #[test]
    fn view_differential_child_for_matches_the_owned_node() {
        let (seed, mut rand) = seeded();
        for separators in [0usize, 1, 2, 7, 100, InternalNode::max_children(4096) - 1] {
            let mut keys: Vec<Key> = (0..separators).map(|_| 1 + rand(u64::MAX - 2)).collect();
            keys.sort_unstable();
            keys.dedup();
            let node = InternalNode {
                children: (0..=keys.len() as u64).map(|c| c * 3 + 1).collect(),
                keys,
            };
            let image = node.encode(4096);
            let view = InternalView::new(9, &image).unwrap();
            assert_eq!(view.key_count(), node.keys.len());
            assert_eq!(view.children().collect::<Vec<_>>(), node.children);
            let probes = node
                .keys
                .iter()
                .flat_map(|&k| [k - 1, k, k + 1])
                .chain([0, 1, u64::MAX]);
            for key in probes {
                let idx = view.child_for(key);
                assert_eq!(
                    idx,
                    node.child_for(key),
                    "CRASH_SEED={seed} separators={separators} key={key}"
                );
                assert_eq!(view.child(idx), node.children[idx]);
            }
        }
    }

    /// Fuzz: every value at every header byte, and a seeded sample of
    /// mutations elsewhere, of an encoded internal node and an encoded leaf
    /// parses to a value or to `Corruption` — and whatever parses can be
    /// searched and collected without a panic or an out-of-bounds index.
    #[test]
    fn fuzz_single_byte_mutations_yield_a_value_or_corruption() {
        let (seed, mut rand) = seeded();
        let internal = InternalNode {
            keys: (1..=120u64).map(|k| k * 10).collect(),
            children: (0..=120u64).collect(),
        }
        .encode(2048);
        let leaf = LeafNode {
            entries: (0..100u64).map(|k| (k * 7, k)).collect(),
            next: 5,
        }
        .encode(2048);
        for (image, header) in [(internal, HEADER_BYTES), (leaf, LEAF_HEADER_BYTES)] {
            let sampled: Vec<(usize, u8)> = (0..4000)
                .map(|_| (rand(image.len() as u64) as usize, rand(256) as u8))
                .collect();
            let every_header_value = (0..header).flat_map(|at| (0..=255u8).map(move |v| (at, v)));
            for (at, value) in every_header_value.chain(sampled) {
                let mut mutated = image.to_vec();
                mutated[at] = value;
                let ctx = format!("CRASH_SEED={seed} byte {at} = {value}");
                match Node::decode(4, &mutated) {
                    Ok(Node::Internal(node)) => {
                        let view = InternalView::new(4, &mutated).expect(&ctx);
                        assert_eq!(view.to_owned(), node, "{ctx}");
                        for key in [0, 555, u64::MAX] {
                            assert!(view.child_for(key) <= view.key_count(), "{ctx}");
                            let _ = view.child(view.child_for(key));
                            let _ = node.children[node.child_for(key)];
                        }
                    }
                    Ok(Node::Leaf(node)) => {
                        assert!(node.entries.len() <= LeafNode::max_entries(2048), "{ctx}");
                        let _ = node.get(70);
                        assert!(InternalView::new(4, &mutated).is_err(), "{ctx}");
                    }
                    Err(e) => assert!(matches!(e, IoError::Corruption { len: 2048, .. }), "{ctx}: {e}"),
                }
            }
        }
    }
}
