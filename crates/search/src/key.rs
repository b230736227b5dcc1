//! Vertex identities: borrowed keys, the flat key arena, and the intern
//! table every per-search and cross-search lookup goes through.
//!
//! Two vertices with equal keys have identical future costs, so only the
//! cheaper needs expanding (see [`SearchState::key`](crate::SearchState::key)
//! for why the key is what it is). The search generates about three
//! successors per expansion and most of them are duplicates or get pruned,
//! so a key must be cheap to *form* and to *look up* long before it is
//! worth storing:
//!
//! * a [`KeyRef`] borrows its parts — from a [`SearchState`](crate::SearchState),
//!   from the kernel's scratch child, or from a [`KeyArena`] — and carries
//!   its hash, computed once when the view is made and reused by every
//!   table that is probed with it (the interner, then the heuristic memo);
//! * a [`KeyArena`] stores keys back to back in a handful of flat vectors,
//!   addressed by dense `u32` ids, so interning a new vertex appends a few
//!   words instead of allocating;
//! * a [`KeyTable`] adds an open-addressing index over an arena.
//!
//! The hash is a fixed function of the key's content (no per-table seed):
//! a hash computed against one table is valid for every other. Keys are
//! search-internal, never attacker-chosen, so a fast multiplicative hash
//! replaces SipHash.

use wisedb_core::{DigestBuckets, PenaltyDigest};

/// Marks "no VM rented yet" in [`OpenVm::vm_type`] and "empty queue" in
/// [`OpenVm::last`].
const NONE: u32 = u32::MAX;

/// What a vertex's key records of the most recently rented VM: its type,
/// its queued execution time, and the last template placed on it (which
/// gates placements under the canonical-order reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct OpenVm {
    vm_type: u32,
    last: u32,
    wait: u64,
}

impl OpenVm {
    /// The start vertex's marker: nothing rented.
    pub(crate) const ABSENT: OpenVm = OpenVm {
        vm_type: NONE,
        last: NONE,
        wait: 0,
    };

    pub(crate) fn new(vm_type: u32, wait: u64, last: Option<u32>) -> Self {
        debug_assert!(vm_type != NONE && last != Some(NONE));
        OpenVm {
            vm_type,
            last: last.unwrap_or(NONE),
            wait,
        }
    }

    pub(crate) fn parts(self) -> Option<(u32, u64, Option<u32>)> {
        (self.vm_type != NONE).then_some((
            self.vm_type,
            self.wait,
            (self.last != NONE).then_some(self.last),
        ))
    }
}

/// A borrowed vertex identity plus its hash. `Copy`; equality compares
/// content only.
#[derive(Debug, Clone, Copy)]
pub struct KeyRef<'a> {
    counts: &'a [u16],
    open: OpenVm,
    digest: PenaltyDigest<'a>,
    hash: u64,
}

impl<'a> KeyRef<'a> {
    pub(crate) fn new(counts: &'a [u16], open: OpenVm, digest: PenaltyDigest<'a>) -> Self {
        KeyRef {
            counts,
            open,
            digest,
            hash: hash_parts(counts, open, digest),
        }
    }

    /// Unassigned instance count per template.
    pub fn unassigned(&self) -> &'a [u16] {
        self.counts
    }

    /// The open VM as `(type, wait in ms, last-placed template)`.
    pub fn open_vm(&self) -> Option<(u32, u64, Option<u32>)> {
        self.open.parts()
    }

    /// The penalty state future deltas depend on.
    pub fn digest(&self) -> PenaltyDigest<'a> {
        self.digest
    }

    /// Whether nothing is left to place.
    pub(crate) fn is_goal(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

impl PartialEq for KeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.open == other.open
            && self.counts == other.counts
            && self.digest == other.digest
    }
}
impl Eq for KeyRef<'_> {}

/// FxHash's multiplier.
const FX: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX)
}

fn hash_parts(counts: &[u16], open: OpenVm, digest: PenaltyDigest<'_>) -> u64 {
    let mut h = mix(
        mix(0, (open.vm_type as u64) << 32 | open.last as u64),
        open.wait,
    );
    let mut quads = counts.chunks_exact(4);
    for q in &mut quads {
        h = mix(
            h,
            q[0] as u64 | (q[1] as u64) << 16 | (q[2] as u64) << 32 | (q[3] as u64) << 48,
        );
    }
    let tail = quads
        .remainder()
        .iter()
        .fold(0u64, |w, &c| w << 16 | c as u64);
    h = mix(h, tail);
    match digest {
        PenaltyDigest::None => {}
        PenaltyDigest::Average { sum_ms, count } => {
            h = mix(mix(mix(h, sum_ms as u64), (sum_ms >> 64) as u64), count);
        }
        PenaltyDigest::Percentile(dist) => {
            for &bucket in dist.packed() {
                h = mix(h, bucket);
            }
        }
    }
    // The multiply leaves the low bits weak; the tables index by them.
    h ^ (h >> 29)
}

/// An owned vertex identity; see [`SearchState::key`](crate::SearchState::key).
/// The expansion kernel reuses one as the scratch it prices each successor
/// into, so its vectors keep their capacity from one successor to the next.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateKey {
    pub(crate) counts: Vec<u16>,
    pub(crate) open: OpenVm,
    pub(crate) digest: DigestBuf,
}

/// Owned [`PenaltyDigest`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum DigestBuf {
    None,
    Average { sum_ms: u128, count: u64 },
    Percentile { packed: Vec<u64>, total: u64 },
}

impl DigestBuf {
    pub(crate) fn as_digest(&self) -> PenaltyDigest<'_> {
        match self {
            DigestBuf::None => PenaltyDigest::None,
            DigestBuf::Average { sum_ms, count } => PenaltyDigest::Average {
                sum_ms: *sum_ms,
                count: *count,
            },
            DigestBuf::Percentile { packed, total } => {
                PenaltyDigest::Percentile(DigestBuckets::from_packed(packed, *total))
            }
        }
    }

    /// Overwrites `self` with `digest`, reusing the bucket vector.
    pub(crate) fn set(&mut self, digest: PenaltyDigest<'_>) {
        match digest {
            PenaltyDigest::None => *self = DigestBuf::None,
            PenaltyDigest::Average { sum_ms, count } => {
                *self = DigestBuf::Average { sum_ms, count }
            }
            PenaltyDigest::Percentile(dist) => {
                let packed = self.percentile_words(dist.len());
                packed.clear();
                packed.extend_from_slice(dist.packed());
            }
        }
    }

    /// Overwrites `self` with `dist` plus one completion of `ms`.
    pub(crate) fn set_pushed(&mut self, dist: DigestBuckets<'_>, ms: u64) {
        dist.push_into(ms, self.percentile_words(dist.len() + 1));
    }

    /// Turns `self` into a percentile digest of `total` completions and
    /// hands out its (stale) bucket vector to be overwritten.
    fn percentile_words(&mut self, total: u64) -> &mut Vec<u64> {
        if !matches!(self, DigestBuf::Percentile { .. }) {
            *self = DigestBuf::Percentile {
                packed: Vec::new(),
                total,
            };
        }
        match self {
            DigestBuf::Percentile { packed, total: t } => {
                *t = total;
                packed
            }
            _ => unreachable!("made a percentile digest above"),
        }
    }
}

impl StateKey {
    pub(crate) fn new(counts: &[u16], open: OpenVm, digest: PenaltyDigest<'_>) -> Self {
        let mut key = StateKey {
            counts: counts.to_vec(),
            open,
            digest: DigestBuf::None,
        };
        key.digest.set(digest);
        key
    }

    /// The borrowed form (hashes the key).
    pub fn as_ref(&self) -> KeyRef<'_> {
        KeyRef::new(&self.counts, self.open, self.digest.as_digest())
    }
}

/// How an arena lays out its keys' digests — one goal kind per arena, so
/// deadline goals pay nothing and mean goals a fixed three words.
#[derive(Debug, Clone, Default)]
enum DigestStore {
    /// No key stored yet, or keys of a deadline goal (no digest).
    #[default]
    None,
    /// `[sum_ms low, sum_ms high, count]` per key.
    Average(Vec<[u64; 3]>),
    /// Per key `[total, buckets…]` back to back in `words`; `ends[id]` is
    /// one past its last word.
    Percentile { words: Vec<u64>, ends: Vec<u32> },
}

/// Flat, append-only storage of vertex keys under dense `u32` ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyArena {
    /// Templates per key (fixed by the first key stored).
    stride: usize,
    counts: Vec<u16>,
    open: Vec<OpenVm>,
    hashes: Vec<u64>,
    digests: DigestStore,
}

impl KeyArena {
    pub(crate) fn len(&self) -> usize {
        self.open.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    pub(crate) fn get(&self, id: u32) -> KeyRef<'_> {
        let i = id as usize;
        let digest = match &self.digests {
            DigestStore::None => PenaltyDigest::None,
            DigestStore::Average(rows) => {
                let [low, high, count] = rows[i];
                PenaltyDigest::Average {
                    sum_ms: (high as u128) << 64 | low as u128,
                    count,
                }
            }
            DigestStore::Percentile { words, ends } => {
                let start = if i == 0 { 0 } else { ends[i - 1] as usize };
                let span = &words[start..ends[i] as usize];
                PenaltyDigest::Percentile(DigestBuckets::from_packed(&span[1..], span[0]))
            }
        };
        KeyRef {
            counts: &self.counts[i * self.stride..(i + 1) * self.stride],
            open: self.open[i],
            digest,
            hash: self.hashes[i],
        }
    }

    /// Appends `key` and returns its id.
    pub(crate) fn push(&mut self, key: KeyRef<'_>) -> u32 {
        if self.is_empty() {
            self.stride = key.counts.len();
            self.digests = match key.digest {
                PenaltyDigest::None => DigestStore::None,
                PenaltyDigest::Average { .. } => DigestStore::Average(Vec::new()),
                PenaltyDigest::Percentile(_) => DigestStore::Percentile {
                    words: Vec::new(),
                    ends: Vec::new(),
                },
            };
        }
        assert_eq!(key.counts.len(), self.stride, "keys of another spec");
        match (&mut self.digests, key.digest) {
            (DigestStore::None, PenaltyDigest::None) => {}
            (DigestStore::Average(rows), PenaltyDigest::Average { sum_ms, count }) => {
                rows.push([sum_ms as u64, (sum_ms >> 64) as u64, count]);
            }
            (DigestStore::Percentile { words, ends }, PenaltyDigest::Percentile(dist)) => {
                words.push(dist.len());
                words.extend_from_slice(dist.packed());
                ends.push(u32::try_from(words.len()).expect("digest words fit 32-bit offsets"));
            }
            _ => panic!("keys of another goal kind"),
        }
        let id = u32::try_from(self.len()).expect("vertex ids fit 32 bits");
        self.counts.extend_from_slice(key.counts);
        self.open.push(key.open);
        self.hashes.push(key.hash);
        id
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = KeyRef<'_>> {
        (0..self.len() as u32).map(|id| self.get(id))
    }

    /// Frees the growth slack (for arenas that outlive their search).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
        self.open.shrink_to_fit();
        self.hashes.shrink_to_fit();
        match &mut self.digests {
            DigestStore::None => {}
            DigestStore::Average(rows) => rows.shrink_to_fit(),
            DigestStore::Percentile { words, ends } => {
                words.shrink_to_fit();
                ends.shrink_to_fit();
            }
        }
    }
}

/// Marks an empty index slot.
const EMPTY: u32 = u32::MAX;

/// Index slots a table starts with on its first insertion — small, because
/// most online replans intern a few hundred vertices.
const FIRST_SLOTS: usize = 64;

/// A [`KeyArena`] with an open-addressing (linear probing, load ≤ ½) index:
/// key → dense id, one hash comparison per probed slot and a content
/// comparison only on a hash match.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyTable {
    arena: KeyArena,
    slots: Vec<u32>,
}

impl KeyTable {
    pub(crate) fn len(&self) -> usize {
        self.arena.len()
    }

    pub(crate) fn get(&self, id: u32) -> KeyRef<'_> {
        self.arena.get(id)
    }

    /// The slot holding `key`'s id, or the empty slot where it belongs.
    fn probe(&self, key: KeyRef<'_>) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = key.hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY || (self.arena.hashes[id as usize] == key.hash && self.get(id) == key) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id of `key`, if stored.
    pub(crate) fn find(&self, key: KeyRef<'_>) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let id = self.slots[self.probe(key)];
        (id != EMPTY).then_some(id)
    }

    /// The id of `key`, storing it first if it is new and `may_store`
    /// allows; new ids are dense (`len()` before the call).
    pub(crate) fn intern_if(&mut self, key: KeyRef<'_>, may_store: bool) -> Option<u32> {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let slot = self.probe(key);
        let id = self.slots[slot];
        if id != EMPTY {
            return Some(id);
        }
        if !may_store {
            return None;
        }
        let id = self.arena.push(key);
        self.slots[slot] = id;
        Some(id)
    }

    /// The id of `key`, storing it first if it is new.
    pub(crate) fn intern(&mut self, key: KeyRef<'_>) -> u32 {
        self.intern_if(key, true)
            .expect("storing was allowed, so the key has an id")
    }

    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(FIRST_SLOTS);
        self.slots.clear();
        self.slots.resize(slots, EMPTY);
        let mask = slots - 1;
        for (id, &hash) in self.arena.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::PercentileDigest;

    fn deadline_key(counts: &[u16], wait: u64) -> StateKey {
        StateKey::new(counts, OpenVm::new(0, wait, Some(1)), PenaltyDigest::None)
    }

    #[test]
    fn table_interns_densely_and_survives_growth() {
        let mut table = KeyTable::default();
        let keys: Vec<StateKey> = (0..1000u64)
            .map(|i| deadline_key(&[(i % 7) as u16, (i / 7) as u16, 3], i * 1000))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(table.find(key.as_ref()), None);
            assert_eq!(table.intern(key.as_ref()), i as u32);
            assert_eq!(table.intern(key.as_ref()), i as u32);
        }
        assert_eq!(table.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(table.find(key.as_ref()), Some(i as u32));
            assert_eq!(table.get(i as u32), key.as_ref());
            assert_eq!(table.get(i as u32).unassigned(), &key.counts[..]);
        }
        // A full table refuses new keys when asked to, and only those.
        let extra = deadline_key(&[9, 9, 9], 1);
        assert_eq!(table.intern_if(extra.as_ref(), false), None);
        assert_eq!(table.intern_if(keys[3].as_ref(), false), Some(3));
        assert_eq!(table.len(), keys.len());
    }

    #[test]
    fn start_vertex_and_empty_queue_are_distinct_keys() {
        let start = StateKey::new(&[1, 1], OpenVm::ABSENT, PenaltyDigest::None);
        let fresh = StateKey::new(&[1, 1], OpenVm::new(0, 0, None), PenaltyDigest::None);
        let placed = StateKey::new(&[1, 1], OpenVm::new(0, 0, Some(0)), PenaltyDigest::None);
        assert_eq!(start.as_ref().open_vm(), None);
        assert_eq!(fresh.as_ref().open_vm(), Some((0, 0, None)));
        assert_ne!(start.as_ref(), fresh.as_ref());
        assert_ne!(fresh.as_ref(), placed.as_ref());
    }

    #[test]
    fn arena_round_trips_every_digest_kind() {
        let mut dist = PercentileDigest::new();
        let mut percentile = KeyArena::default();
        let mut owned = Vec::new();
        for ms in [300u64, 100, 300, 200] {
            dist.push(ms);
            let key = StateKey::new(
                &[2, 0, 1],
                OpenVm::new(1, ms, None),
                PenaltyDigest::Percentile(dist.as_buckets()),
            );
            percentile.push(key.as_ref());
            owned.push(key);
        }
        for (stored, key) in percentile.iter().zip(&owned) {
            assert_eq!(stored, key.as_ref());
        }

        let mut average = KeyArena::default();
        let digest = PenaltyDigest::Average {
            sum_ms: (7u128 << 64) | 5,
            count: 3,
        };
        let key = StateKey::new(&[1], OpenVm::ABSENT, digest);
        let id = average.push(key.as_ref());
        assert_eq!(average.get(id).digest(), digest);
        assert_eq!(average.get(id), key.as_ref());
    }

    #[test]
    fn scratch_digest_reuses_its_buckets() {
        let mut dist = PercentileDigest::new();
        dist.push(50);
        dist.push(70);
        let mut scratch = DigestBuf::None;
        scratch.set_pushed(dist.as_buckets(), 60);
        dist.push(60);
        assert_eq!(
            scratch.as_digest(),
            PenaltyDigest::Percentile(dist.as_buckets())
        );
        scratch.set(PenaltyDigest::Percentile(dist.as_buckets()));
        assert_eq!(
            scratch.as_digest(),
            PenaltyDigest::Percentile(dist.as_buckets())
        );
    }
}
