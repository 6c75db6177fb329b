//! Per-sample *edge-space footprints* for exact staleness detection.
//!
//! A PRR-graph sample is generated by lazily querying edge statuses:
//! phase I reads the whole in-edge list of every node its search touches
//! (each node a settling walk visits, including nodes the backward BFS
//! never expands) and draws one status per listed edge. The sample's
//! distribution therefore depends on exactly the in-edge lists it
//! *read*: mutating edge `(u, v)` (probability update, removal, or the
//! insertion of a brand-new edge) changes the sample's law **iff** `v`'s
//! in-list was read, because that is the only point at which the
//! generator would have queried `v`'s (old or new) in-edges (see
//! [`crate::gen`]).
//!
//! The footprint of a sample is the set of nodes whose in-lists it read,
//! captured at sampling time as a sorted, deduplicated `u32` list. Unlike
//! the compressed node table — which phase-II compression prunes and which
//! empty samples do not have at all — the footprint is retained for
//! **every** sample, so the online maintainer can answer staleness
//! exactly instead of under-detecting (see `kboost-online`).
//!
//! Three retention tiers trade memory against decode cost:
//!
//! * [`Compressed`](FootprintMode::Compressed) — delta-encoded varints
//!   over the sorted ids. Footprint sizes are heavily skewed: long ones
//!   are shared across samples (big in-components), short ones are the
//!   few nodes of a sample that stops near its root. So long encoded
//!   blobs are **interned** (stored once, entries reference them by
//!   offset) and short ones are stored per entry, where an interner
//!   slot would cost more than the repeats it saves. Exact.
//! * [`Hybrid`](FootprintMode::Hybrid) — exact varint blobs up to a
//!   size threshold, a fixed [`HYBRID_BLOOM_BITS`]-bit bloom fingerprint
//!   above it (stored like every other blob). Never under-detects (a
//!   fingerprint may over-detect); bounds the memory of the heavy tail
//!   of long footprints.
//! * [`Trace`](FootprintMode::Trace) — [`Compressed`] storage plus a
//!   per-sample *trace sidecar*: the queried-edge outcomes of phase I,
//!   retained so the online maintainer can refresh an invalidated
//!   sample by redrawing only the mutated coins and replaying the rest
//!   (conditional refresh — distribution-fresh under partial churn).
//!   Traces are per-sample (not interned).
//!
//! [`Compressed`]: FootprintMode::Compressed
//!
//! Footprints are accumulated in [`FootprintColumn`]s, flat arrays that
//! live in the sampling shards and the [`PrrArena`](crate::PrrArena)
//! like every other arena column: chunk shards absorb in chunk order,
//! tombstoned entries are dropped by compaction, and the byte layout is
//! canonical (a compacted column equals one built by pushing the
//! survivors in order — blobs are appended in first-appearance order of
//! the entry sequence, so the layout is a pure function of the pushed
//! sequence), so the online `incremental == rebuild`
//! byte-equality contract extends to footprints unchanged.

use std::mem::size_of;

/// Fingerprint width of the bloom tier inside
/// [`FootprintMode::Hybrid`] (bits; 32 bytes per distinct big
/// footprint, interned like every other long blob). A power of two, so
/// bit positions reduce by mask.
pub const HYBRID_BLOOM_BITS: u32 = 256;

/// Entry tag: the referenced blob is a bloom fingerprint, not a varint
/// node list ([`FootprintMode::Hybrid`] only).
const TAG_BLOOM: u32 = 1 << 31;

/// How per-sample footprints are retained by a shard/arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FootprintMode {
    /// No footprints (the offline default — zero bytes, zero work).
    #[default]
    Off,
    /// Delta-encoded varint node lists, long ones interned — exact
    /// staleness verdicts.
    Compressed,
    /// Exact varint blob for footprints of at most `bloom_above` nodes,
    /// a [`HYBRID_BLOOM_BITS`]-bit bloom fingerprint above — the
    /// memory-bounded tier that still never under-detects (big
    /// footprints may over-refresh).
    Hybrid {
        /// Footprints with more nodes than this are stored as bloom
        /// fingerprints; smaller ones stay exact. `0` fingerprints every
        /// non-empty footprint.
        bloom_above: u32,
    },
    /// [`Compressed`](FootprintMode::Compressed) storage plus the
    /// per-sample phase-I trace sidecar consumed by conditional
    /// refresh (see `kboost-online`'s `Staleness::ExactTrace`).
    Trace,
}

impl FootprintMode {
    /// Whether this mode retains anything.
    pub fn is_on(self) -> bool {
        self != FootprintMode::Off
    }

    /// Whether this mode retains the per-sample phase-I trace sidecar.
    pub fn retains_trace(self) -> bool {
        self == FootprintMode::Trace
    }

    /// Whether stored entries decode back to the exact node list, so
    /// every staleness verdict is exact. The hybrid tier's big-footprint
    /// fingerprints are one-way.
    pub fn is_decodable(self) -> bool {
        matches!(self, FootprintMode::Compressed | FootprintMode::Trace)
    }
}

/// The two bit positions node `v` sets in a [`HYBRID_BLOOM_BITS`]-bit
/// fingerprint (SplitMix64-style mixing; the high and low halves of one
/// mix give two decorrelated hashes).
#[inline]
fn bloom_positions(v: u32) -> (u32, u32) {
    let mut z = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let mask = HYBRID_BLOOM_BITS - 1;
    (z as u32 & mask, (z >> 32) as u32 & mask)
}

#[inline]
fn set_bit_byte(bytes: &mut [u8], bit: u32) {
    bytes[(bit / 8) as usize] |= 1 << (bit % 8);
}

#[inline]
fn test_bit_byte(bytes: &[u8], bit: u32) -> bool {
    bytes[(bit / 8) as usize] >> (bit % 8) & 1 == 1
}

/// LEB128 append of `v`.
#[inline]
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// LEB128 read at `*pos`, advancing it.
#[inline]
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Delta-varint encoding of a sorted, deduplicated id list (first id
/// absolute, then successive differences). The blob's byte length is the
/// decode terminator, so no count prefix is stored.
fn encode_deltas(out: &mut Vec<u8>, nodes: &[u32]) {
    let mut prev = 0u32;
    for (k, &v) in nodes.iter().enumerate() {
        write_varint(out, if k == 0 { v } else { v - prev });
        prev = v;
    }
}

/// Calls `emit` for every id of a delta-varint blob, in sorted order.
#[inline]
fn decode_deltas(blob: &[u8], mut emit: impl FnMut(u32)) {
    let mut pos = 0;
    let mut prev = 0u32;
    let mut first = true;
    while pos < blob.len() {
        let d = read_varint(blob, &mut pos);
        prev = if first { d } else { prev + d };
        first = false;
        emit(prev);
    }
}

/// FNV-1a over a byte blob — the interner's probe hash (candidates are
/// confirmed by byte comparison, so collisions only cost a compare).
#[inline]
fn blob_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Blobs at least this long are interned (stored once, shared by every
/// entry that encodes to them); shorter ones are appended per entry. A
/// shared blob costs its interner slots (8–16 bytes at load ¼–½), which
/// one repeat of a 16-byte blob and its length byte pays back; shorter
/// blobs, the few-node footprints of samples that stop near their root,
/// do not repeat enough to pay for theirs. At `exp_online`'s default
/// scale the exact leg's compacted epoch-3 column (≈4 nodes per entry)
/// takes 481,307 bytes at this threshold, 660,621 when every blob is
/// interned and 466,971 at 32.
const INTERN_MIN_BYTES: usize = 16;

/// Free slot of the interner table.
const EMPTY_SLOT: u32 = u32::MAX;

/// Interner table length for `shared` interned blobs: the smallest power
/// of two keeping the load at most ½ (0 while nothing is interned). The
/// table grows to exactly this on insertion, so the length — and with it
/// [`FootprintColumn::memory_bytes`] — is a function of the stored
/// content alone.
fn table_len(shared: usize) -> usize {
    if shared == 0 {
        0
    } else {
        (2 * shared).next_power_of_two()
    }
}

/// A flat column of per-sample footprints.
///
/// `PartialEq` compares the raw storage (mode, entries, blobs, traces),
/// so two populated columns are equal iff they are byte-equal — the same
/// contract as [`PrrArena`](crate::PrrArena); the interner table (a
/// derived acceleration structure over the blobs) is excluded. Two
/// *empty* columns are always equal: a latent mode with zero entries
/// carries no content (shards are born modeless and stamped on first
/// push, so an all-empty chunk may leave one column's mode unset).
#[derive(Clone, Debug, Default, Eq)]
pub struct FootprintColumn {
    mode: FootprintMode,
    /// One blob reference per entry: the byte offset of its blob in
    /// `blobs`; the top bit ([`TAG_BLOOM`]) marks hybrid bloom-tier
    /// entries.
    ent: Vec<u32>,
    /// Concatenated blobs (varint node lists and/or bloom fingerprints),
    /// each a varint byte length followed by the bytes. Blobs of at least
    /// [`INTERN_MIN_BYTES`] are stored once; shorter ones once per entry.
    blobs: Vec<u8>,
    /// [`FootprintMode::Trace`]: `count + 1` byte offsets into `tdata`.
    toff: Vec<u32>,
    /// [`FootprintMode::Trace`]: concatenated per-sample trace blobs
    /// (opaque here; produced and consumed by `prr::gen`).
    tdata: Vec<u8>,
    /// Open-addressed interner over the shared blobs: their offsets in
    /// `blobs` ([`EMPTY_SLOT`] marks a free slot), probed linearly from
    /// the blob's hash; [`table_len`] of `shared` long. Derived from
    /// `blobs`; excluded from `PartialEq`.
    table: Vec<u32>,
    /// Number of interned blobs (excluded from `PartialEq`).
    shared: usize,
    /// Reusable encode scratch (excluded from `PartialEq`).
    enc: Vec<u8>,
}

impl FootprintColumn {
    /// An empty column in the given mode.
    pub fn new(mode: FootprintMode) -> Self {
        FootprintColumn {
            mode,
            ..FootprintColumn::default()
        }
    }

    /// The column's retention mode.
    pub fn mode(&self) -> FootprintMode {
        self.mode
    }

    /// Number of footprints stored.
    pub fn count(&self) -> usize {
        self.ent.len()
    }

    /// Establishes `mode` on a still-empty column; asserts agreement on a
    /// populated one. Shards are born `Default` (mode Off) with no way to
    /// know the pool's policy, so the generator stamps the mode on first
    /// push.
    pub fn ensure_mode(&mut self, mode: FootprintMode) {
        if self.mode == mode {
            return;
        }
        assert_eq!(
            self.count(),
            0,
            "footprint mode changed on a populated column"
        );
        self.mode = mode;
    }

    /// The blob stored at byte offset `off` of `blobs`.
    fn blob_at(&self, off: u32) -> &[u8] {
        let mut pos = off as usize;
        let len = read_varint(&self.blobs, &mut pos) as usize;
        &self.blobs[pos..pos + len]
    }

    /// Appends `bytes` as a new blob, returning its offset.
    fn append(&mut self, bytes: &[u8]) -> u32 {
        let off = self.blobs.len();
        assert!(
            off as u64 + 5 + bytes.len() as u64 <= TAG_BLOOM as u64,
            "footprint blobs exceed the offset cap"
        );
        write_varint(&mut self.blobs, bytes.len() as u32);
        self.blobs.extend_from_slice(bytes);
        off as u32
    }

    /// The first interner slot on `hash`'s probe path that is free or
    /// holds a blob equal to `bytes` (the table must be non-empty and,
    /// at load ≤ ½, always has a free slot).
    fn probe(&self, hash: u64, bytes: &[u8]) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        while self.table[slot] != EMPTY_SLOT && self.blob_at(self.table[slot]) != bytes {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Stores `bytes` and returns its offset: a short blob is appended;
    /// a long one is interned (the existing offset on a byte-equal hit,
    /// a fresh append otherwise). Offsets grow in first-appearance order,
    /// which is what keeps columns canonical-by-construction.
    fn store(&mut self, bytes: &[u8]) -> u32 {
        if bytes.len() < INTERN_MIN_BYTES {
            return self.append(bytes);
        }
        let hash = blob_hash(bytes);
        if !self.table.is_empty() {
            let slot = self.probe(hash, bytes);
            if self.table[slot] != EMPTY_SLOT {
                return self.table[slot];
            }
        }
        self.shared += 1;
        if table_len(self.shared) > self.table.len() {
            let old = std::mem::replace(&mut self.table, vec![EMPTY_SLOT; table_len(self.shared)]);
            for off in old.into_iter().filter(|&o| o != EMPTY_SLOT) {
                // Shared blobs are distinct, so a blob's own probe ends at
                // a free slot.
                let blob = self.blob_at(off);
                let slot = self.probe(blob_hash(blob), blob);
                self.table[slot] = off;
            }
        }
        let slot = self.probe(hash, bytes);
        let off = self.append(bytes);
        self.table[slot] = off;
        off
    }

    /// Encodes `nodes` per the mode and appends the entry. `Trace`
    /// entries get an empty trace; use
    /// [`push_with_trace`](Self::push_with_trace) to attach one.
    fn push_compressed(&mut self, nodes: &[u32]) {
        let mut blob = std::mem::take(&mut self.enc);
        blob.clear();
        let mut tag = 0u32;
        match self.mode {
            FootprintMode::Hybrid { bloom_above } if nodes.len() > bloom_above as usize => {
                blob.resize(HYBRID_BLOOM_BITS as usize / 8, 0);
                for &v in nodes {
                    let (a, b) = bloom_positions(v);
                    set_bit_byte(&mut blob, a);
                    set_bit_byte(&mut blob, b);
                }
                tag = TAG_BLOOM;
            }
            _ => encode_deltas(&mut blob, nodes),
        }
        let off = self.store(&blob);
        self.enc = blob;
        self.ent.push(off | tag);
    }

    /// Appends one footprint. `nodes` must be sorted and deduplicated
    /// (the canonical form phase-I capture produces); they are
    /// delta-encoded (or, in the hybrid tier's long tail, folded into a
    /// fingerprint) and stored, long blobs interned.
    pub fn push(&mut self, nodes: &[u32]) {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "unsorted footprint");
        match self.mode {
            FootprintMode::Off => {}
            FootprintMode::Compressed | FootprintMode::Hybrid { .. } => {
                self.push_compressed(nodes);
            }
            FootprintMode::Trace => self.push_with_trace(nodes, &[]),
        }
    }

    /// Appends one footprint with its phase-I trace sidecar
    /// ([`FootprintMode::Trace`]; other modes require an empty trace and
    /// behave like [`push`](Self::push)).
    pub fn push_with_trace(&mut self, nodes: &[u32], trace: &[u8]) {
        if self.mode != FootprintMode::Trace {
            assert!(trace.is_empty(), "trace sidecar needs FootprintMode::Trace");
            self.push(nodes);
            return;
        }
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "unsorted footprint");
        self.push_compressed(nodes);
        self.push_trace(trace);
    }

    /// Appends `trace` as the sidecar of the entry just pushed.
    fn push_trace(&mut self, trace: &[u8]) {
        if self.toff.is_empty() {
            self.toff.push(0);
        }
        assert!(
            self.tdata.len() as u64 + trace.len() as u64 <= u32::MAX as u64,
            "trace sidecar exceeds the u32 offset cap"
        );
        self.tdata.extend_from_slice(trace);
        self.toff.push(self.tdata.len() as u32);
    }

    /// Entry `i`'s blob and its bloom-tier tag.
    fn blob(&self, i: usize) -> (&[u8], bool) {
        let e = self.ent[i];
        (self.blob_at(e & !TAG_BLOOM), e & TAG_BLOOM != 0)
    }

    /// Appends entry `i` of `other` (same mode) without its trace.
    /// Stored blobs are already in canonical encoded form, so storing
    /// them directly equals re-encoding the entry's nodes.
    fn push_entry_of(&mut self, other: &FootprintColumn, i: usize) {
        let (blob, is_bloom) = other.blob(i);
        let off = self.store(blob);
        self.ent.push(off | if is_bloom { TAG_BLOOM } else { 0 });
    }

    /// Whether footprint `i` is stored as a one-way bloom fingerprint
    /// (a long footprint under [`FootprintMode::Hybrid`]); `false` in
    /// every other mode.
    pub fn is_fingerprint(&self, i: usize) -> bool {
        self.mode.is_on() && self.blob(i).1
    }

    /// Calls `emit` with every node of footprint `i` in sorted order.
    /// Supported for the decodable modes
    /// ([`FootprintMode::is_decodable`]) and the hybrid tier's short
    /// entries; panics on a bloom fingerprint.
    pub fn for_each_node(&self, i: usize, emit: impl FnMut(u32)) {
        let (blob, is_bloom) = self.blob(i);
        assert!(!is_bloom, "bloom-tier hybrid entry has no node list");
        decode_deltas(blob, emit);
    }

    /// The trace sidecar of footprint `i` (empty unless
    /// [`FootprintMode::Trace`]).
    pub fn trace(&self, i: usize) -> &[u8] {
        if self.mode != FootprintMode::Trace || self.toff.is_empty() {
            return &[];
        }
        let (lo, hi) = (self.toff[i] as usize, self.toff[i + 1] as usize);
        &self.tdata[lo..hi]
    }

    /// Appends `later`'s footprints after this column's own (chunk-order
    /// merge, like every shard column). An empty column adopts `later`'s
    /// mode; a populated one requires agreement. Blobs are re-stored into
    /// this column, so the merged layout stays canonical
    /// (first-appearance order, long blobs shared).
    pub fn absorb(&mut self, later: &FootprintColumn) {
        if later.count() == 0 {
            return;
        }
        self.ensure_mode(later.mode);
        if self.count() == 0 {
            // Wholesale adoption: `later` is itself canonical, so cloning
            // it is byte-identical to re-storing entry by entry.
            *self = later.clone();
            return;
        }
        for i in 0..later.count() {
            self.push_entry_of(later, i);
        }
        if self.mode == FootprintMode::Trace {
            if self.toff.is_empty() {
                self.toff.push(0);
            }
            assert!(
                self.tdata.len() as u64 + later.tdata.len() as u64 <= u32::MAX as u64,
                "trace sidecar exceeds the u32 offset cap"
            );
            let base = self.tdata.len() as u32;
            self.tdata.extend_from_slice(&later.tdata);
            self.toff.extend(later.toff[1..].iter().map(|&o| o + base));
        }
    }

    /// A canonical copy keeping exactly the footprints with `keep(i)` —
    /// byte-identical to pushing the survivors in order onto an empty
    /// column of the same mode (traces ride along; the blobs are
    /// re-stored over the survivors).
    pub fn compacted(&self, keep: impl Fn(usize) -> bool) -> FootprintColumn {
        let mut out = FootprintColumn::new(self.mode);
        for i in 0..self.count() {
            if keep(i) {
                out.push_entry_of(self, i);
                if self.mode == FootprintMode::Trace {
                    out.push_trace(self.trace(i));
                }
            }
        }
        out
    }

    /// Prepares a staleness query for the mutated edge heads `heads`
    /// (global node ids) over node universe `n`.
    pub fn query(&self, heads: &[u32], n: usize) -> FootprintQuery {
        FootprintQuery::new(self.mode, heads, n)
    }

    /// Whether footprint `i` matches the query — i.e. the sample whose
    /// footprint this is must be refreshed. Never under-detects; a
    /// hybrid fingerprint may over-detect.
    pub fn matches(&self, q: &FootprintQuery, i: usize) -> bool {
        let (blob, is_bloom) = self.blob(i);
        if is_bloom {
            q.probes
                .iter()
                .any(|&(a, b)| test_bit_byte(blob, a) && test_bit_byte(blob, b))
        } else {
            let mut hit = false;
            decode_deltas(blob, |v| hit |= q.touched[v as usize]);
            hit
        }
    }

    /// The staleness verdict the arena-resident column of `mode` would
    /// give a raw footprint `nodes` — the replay oracle uses this so the
    /// hybrid fingerprints' false positives reproduce bit-for-bit.
    pub fn raw_matches(mode: FootprintMode, nodes: &[u32], q: &FootprintQuery) -> bool {
        match mode {
            FootprintMode::Off => false,
            FootprintMode::Hybrid { bloom_above } if nodes.len() > bloom_above as usize => {
                // Exactly the stored-fingerprint test: a probe pair hits
                // iff both its bits are set by some inserted node.
                q.probes.iter().any(|&(a, b)| {
                    let mut hit_a = false;
                    let mut hit_b = false;
                    for &v in nodes {
                        let (x, y) = bloom_positions(v);
                        hit_a |= x == a || y == a;
                        hit_b |= x == b || y == b;
                        if hit_a && hit_b {
                            return true;
                        }
                    }
                    false
                })
            }
            FootprintMode::Compressed | FootprintMode::Hybrid { .. } | FootprintMode::Trace => {
                nodes.iter().any(|&v| q.touched[v as usize])
            }
        }
    }

    /// Heap bytes of the column: entries, blobs, trace sidecar and the
    /// interner table, counted by length (allocator slack excluded).
    pub fn memory_bytes(&self) -> usize {
        (self.ent.len() + self.toff.len() + self.table.len()) * size_of::<u32>()
            + self.blobs.len()
            + self.tdata.len()
    }

    /// Heap bytes a fresh column holding exactly the footprints with
    /// `keep(i)` would occupy — what [`memory_bytes`](Self::memory_bytes)
    /// reports right after [`compacted`](Self::compacted).
    pub fn live_memory_bytes(&self, keep: impl Fn(usize) -> bool) -> usize {
        let mut offs = Vec::new();
        let mut trace_bytes = 0usize;
        for i in 0..self.count() {
            if keep(i) {
                offs.push(self.ent[i] & !TAG_BLOOM);
                trace_bytes += self.trace(i).len();
            }
        }
        let kept = offs.len();
        if kept == 0 {
            return 0;
        }
        // Only interned blobs are referenced twice, so the distinct
        // offsets are exactly the blobs a compacted column re-stores.
        offs.sort_unstable();
        offs.dedup();
        let mut blob_bytes = 0usize;
        let mut shared = 0usize;
        for &off in &offs {
            let len = self.blob_at(off).len();
            blob_bytes += varint_len(len as u32) + len;
            shared += usize::from(len >= INTERN_MIN_BYTES);
        }
        let trace_off = if self.mode == FootprintMode::Trace {
            kept + 1
        } else {
            0
        };
        (kept + trace_off + table_len(shared)) * size_of::<u32>() + blob_bytes + trace_bytes
    }
}

/// Bytes [`write_varint`] spends on `v`.
fn varint_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

impl PartialEq for FootprintColumn {
    fn eq(&self, other: &Self) -> bool {
        if self.count() == 0 && other.count() == 0 {
            return true;
        }
        self.mode == other.mode
            && self.ent == other.ent
            && self.blobs == other.blobs
            && self.toff == other.toff
            && self.tdata == other.tdata
    }
}

/// A prepared staleness query (see [`FootprintColumn::query`]).
pub struct FootprintQuery {
    /// Touched-head flags over the node universe (exact entries).
    touched: Vec<bool>,
    /// Hybrid tier: the fingerprint bit-position pair of every touched
    /// head.
    probes: Vec<(u32, u32)>,
}

impl FootprintQuery {
    /// Prepares a query in `mode` for the mutated edge heads `heads`
    /// (global node ids) over node universe `n`.
    pub fn new(mode: FootprintMode, heads: &[u32], n: usize) -> Self {
        let mut q = FootprintQuery {
            touched: Vec::new(),
            probes: Vec::new(),
        };
        if !mode.is_on() {
            return q;
        }
        q.touched = vec![false; n];
        for &h in heads {
            q.touched[h as usize] = true;
        }
        if let FootprintMode::Hybrid { .. } = mode {
            // Hybrid entries split per sample, so the query carries both
            // forms.
            q.probes = heads.iter().map(|&h| bloom_positions(h)).collect();
            q.probes.sort_unstable();
            q.probes.dedup();
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every mode a column can be stamped with.
    fn all_on_modes() -> Vec<FootprintMode> {
        vec![
            FootprintMode::Compressed,
            FootprintMode::Hybrid { bloom_above: 2 },
            FootprintMode::Trace,
        ]
    }

    #[test]
    fn compressed_decodes_and_interns() {
        let mut col = FootprintColumn::new(FootprintMode::Compressed);
        let shared: Vec<u32> = (0..200).map(|i| i * 3 + 1).collect();
        col.push(&shared);
        col.push(&[5]);
        col.push(&shared);
        col.push(&shared);
        assert_eq!(col.count(), 4);
        // The shared big footprint is stored once.
        assert_eq!(col.shared, 1);
        assert!(col.ent[0] == col.ent[2] && col.ent[2] == col.ent[3]);
        for i in [0usize, 2, 3] {
            let mut got = Vec::new();
            col.for_each_node(i, |v| got.push(v));
            assert_eq!(got, shared);
        }
        let q = col.query(&[shared[7]], 1000);
        assert!(col.matches(&q, 0));
        assert!(!col.matches(&q, 1));
        assert_eq!(
            col.matches(&q, 0),
            FootprintColumn::raw_matches(FootprintMode::Compressed, &shared, &q)
        );
        // Interning beats four raw copies: a sorted `u32` column of the
        // same entries holds 4 × (Σ lengths + entries + 1) bytes.
        let sorted_bytes = (3 * shared.len() + 1 + 4 + 1) * size_of::<u32>();
        assert!(col.memory_bytes() < sorted_bytes);
    }

    #[test]
    fn short_footprints_cost_no_more_than_sorted() {
        // A drained, compacted pool holds mostly one- to three-node
        // footprints. Stored per entry (an offset, a length byte, at most
        // three varint bytes per node below 2^21) they never cost more
        // than a sorted `u32` column of the same entries.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut col = FootprintColumn::new(FootprintMode::Compressed);
        let mut sorted_bytes = size_of::<u32>();
        for _ in 0..2_000 {
            let mut nodes: Vec<u32> = (0..1 + next(3)).map(|_| next(20_000) as u32).collect();
            nodes.sort_unstable();
            nodes.dedup();
            col.push(&nodes);
            sorted_bytes += (1 + nodes.len()) * size_of::<u32>();
        }
        assert!(
            col.memory_bytes() <= sorted_bytes,
            "compressed ({}) exceeds sorted ({sorted_bytes})",
            col.memory_bytes()
        );
        assert_eq!(col.live_memory_bytes(|_| true), col.memory_bytes());
    }

    #[test]
    fn hybrid_splits_tiers_and_never_under_detects() {
        let mode = FootprintMode::Hybrid { bloom_above: 3 };
        let mut col = FootprintColumn::new(mode);
        let small = [2u32, 9, 17];
        let big: Vec<u32> = (0..40).map(|i| i * 7 + 3).collect();
        col.push(&small);
        col.push(&big);
        assert!(!col.is_fingerprint(0), "small footprint stays exact");
        assert!(
            col.is_fingerprint(1),
            "big footprint goes to the bloom tier"
        );
        for &m in small.iter().chain(big.iter()) {
            let q = col.query(&[m], 300);
            let in_small = small.contains(&m);
            let in_big = big.contains(&m);
            if in_small {
                assert!(col.matches(&q, 0));
            }
            if in_big {
                assert!(col.matches(&q, 1), "bloom tier missed member {m}");
            }
            assert_eq!(
                col.matches(&q, 0),
                FootprintColumn::raw_matches(mode, &small, &q)
            );
            assert_eq!(
                col.matches(&q, 1),
                FootprintColumn::raw_matches(mode, &big, &q)
            );
        }
        // Non-members: stored and raw verdicts agree bit-for-bit (false
        // positives included).
        for probe in 500..700u32 {
            let q = col.query(&[probe], 1000);
            assert_eq!(
                col.matches(&q, 0),
                FootprintColumn::raw_matches(mode, &small, &q)
            );
            assert_eq!(
                col.matches(&q, 1),
                FootprintColumn::raw_matches(mode, &big, &q)
            );
        }
    }

    #[test]
    fn trace_sidecar_round_trips() {
        let mut col = FootprintColumn::new(FootprintMode::Trace);
        col.push_with_trace(&[1, 2, 3], &[0xAB, 0xCD]);
        col.push_with_trace(&[], &[]);
        col.push_with_trace(&[7], &[1, 2, 3, 4, 5]);
        assert_eq!(col.trace(0), &[0xAB, 0xCD]);
        assert_eq!(col.trace(1), &[] as &[u8]);
        assert_eq!(col.trace(2), &[1, 2, 3, 4, 5]);
        let mut got = Vec::new();
        col.for_each_node(0, |v| got.push(v));
        assert_eq!(got, vec![1, 2, 3]);

        // Absorb and compaction carry traces along.
        let mut merged = FootprintColumn::new(FootprintMode::Off);
        merged.absorb(&col);
        let mut tail = FootprintColumn::new(FootprintMode::Trace);
        tail.push_with_trace(&[9], &[9, 9]);
        merged.absorb(&tail);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.trace(2), &[1, 2, 3, 4, 5]);
        assert_eq!(merged.trace(3), &[9, 9]);
        let compacted = merged.compacted(|i| i != 1);
        assert_eq!(compacted.count(), 3);
        assert_eq!(compacted.trace(0), &[0xAB, 0xCD]);
        assert_eq!(compacted.trace(1), &[1, 2, 3, 4, 5]);
        assert_eq!(compacted.trace(2), &[9, 9]);
        let mut fresh = FootprintColumn::new(FootprintMode::Trace);
        fresh.push_with_trace(&[1, 2, 3], &[0xAB, 0xCD]);
        fresh.push_with_trace(&[7], &[1, 2, 3, 4, 5]);
        fresh.push_with_trace(&[9], &[9, 9]);
        assert_eq!(compacted, fresh);
    }

    #[test]
    fn bloom_never_under_detects() {
        // `bloom_above: 0` fingerprints every non-empty footprint.
        let mode = FootprintMode::Hybrid { bloom_above: 0 };
        let mut col = FootprintColumn::new(mode);
        for i in 0..50u32 {
            col.push(&[i, i + 100, i + 200]);
        }
        assert_eq!(col.count(), 50);
        assert!((0..50).all(|i| col.is_fingerprint(i)));
        for i in 0..50u32 {
            for member in [i, i + 100, i + 200] {
                let q = col.query(&[member], 300);
                assert!(col.matches(&q, i as usize), "missed member {member}");
                assert_eq!(
                    col.matches(&q, i as usize),
                    FootprintColumn::raw_matches(mode, &[i, i + 100, i + 200], &q),
                    "raw and stored verdicts diverge"
                );
            }
        }
        // Non-members mostly miss (3 entries per fingerprint): the raw
        // and stored verdicts must still agree bit-for-bit.
        for probe in 500..600u32 {
            let q = col.query(&[probe], 1000);
            for i in 0..50usize {
                let nodes = [i as u32, i as u32 + 100, i as u32 + 200];
                assert_eq!(
                    col.matches(&q, i),
                    FootprintColumn::raw_matches(mode, &nodes, &q)
                );
            }
        }
    }

    #[test]
    fn absorb_and_compact_are_canonical() {
        for mode in all_on_modes() {
            let mut a = FootprintColumn::new(FootprintMode::Off);
            let mut chunk1 = FootprintColumn::new(mode);
            chunk1.push(&[1, 2]);
            let mut chunk2 = FootprintColumn::new(mode);
            chunk2.push(&[3]);
            chunk2.push(&[4, 5, 6]);
            a.absorb(&chunk1);
            a.absorb(&chunk2);
            assert_eq!(a.mode(), mode);
            assert_eq!(a.count(), 3);

            let mut sequential = FootprintColumn::new(mode);
            sequential.push(&[1, 2]);
            sequential.push(&[3]);
            sequential.push(&[4, 5, 6]);
            assert_eq!(a, sequential);

            // Dropping the middle footprint equals a fresh two-entry build.
            let compacted = a.compacted(|i| i != 1);
            let mut fresh = FootprintColumn::new(mode);
            fresh.push(&[1, 2]);
            fresh.push(&[4, 5, 6]);
            assert_eq!(compacted, fresh);
            assert!(a.memory_bytes() >= compacted.memory_bytes());
        }
    }

    #[test]
    fn compressed_dictionary_survives_compaction_dedup() {
        // Two entries share a blob; dropping one must keep the blob and
        // stay byte-identical to a fresh build of the survivors.
        for mode in [FootprintMode::Compressed, FootprintMode::Trace] {
            let mut col = FootprintColumn::new(mode);
            col.push(&[10, 20, 30]);
            col.push(&[10, 20, 30]);
            col.push(&[40]);
            let compacted = col.compacted(|i| i != 0);
            let mut fresh = FootprintColumn::new(mode);
            fresh.push(&[10, 20, 30]);
            fresh.push(&[40]);
            assert_eq!(compacted, fresh);
        }
    }

    #[test]
    fn off_mode_stores_nothing() {
        let mut col = FootprintColumn::new(FootprintMode::Off);
        col.push(&[1, 2, 3]);
        assert_eq!(col.count(), 0);
        assert_eq!(col.memory_bytes(), 0);
        assert_eq!(col, FootprintColumn::default());
    }

    #[test]
    fn column_bytes_digest_is_pinned() {
        // A fixed entry list — short and long footprints, empties,
        // repeats for the interner, per-entry traces — pushed into three
        // chunk columns, absorbed in order, then compacted. Every storage
        // field of both results folds into one FNV-1a digest per mode;
        // the constants pin the byte layout.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut entries: Vec<(Vec<u32>, Vec<u8>)> = Vec::new();
        for i in 0..60usize {
            if i % 7 == 6 {
                let again = entries[next(i as u64) as usize].clone();
                entries.push(again);
                continue;
            }
            let len = if i % 5 == 0 { 20 + next(30) } else { next(7) };
            let mut nodes: Vec<u32> = (0..len).map(|_| next(5_000) as u32).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let trace: Vec<u8> = (0..next(6)).map(|_| next(256) as u8).collect();
            entries.push((nodes, trace));
        }
        let digest = |mode: FootprintMode| {
            let mut merged = FootprintColumn::default();
            for chunk in [&entries[..17], &entries[17..40], &entries[40..]] {
                let mut col = FootprintColumn::new(mode);
                for (nodes, trace) in chunk {
                    if mode == FootprintMode::Trace {
                        col.push_with_trace(nodes, trace);
                    } else {
                        col.push(nodes);
                    }
                }
                merged.absorb(&col);
            }
            let compacted = merged.compacted(|i| i % 3 != 1);
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            let mut fold = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            };
            for col in [&merged, &compacted] {
                fold(&(col.ent.len() as u64).to_le_bytes());
                col.ent.iter().for_each(|w| fold(&w.to_le_bytes()));
                fold(&(col.blobs.len() as u64).to_le_bytes());
                fold(&col.blobs);
                fold(&(col.toff.len() as u64).to_le_bytes());
                col.toff.iter().for_each(|w| fold(&w.to_le_bytes()));
                fold(&(col.tdata.len() as u64).to_le_bytes());
                fold(&col.tdata);
            }
            h
        };
        assert_eq!(digest(FootprintMode::Compressed), 0x863b_d0cd_01b3_04de);
        assert_eq!(
            digest(FootprintMode::Hybrid { bloom_above: 4 }),
            0x7779_77de_0a82_bf67
        );
        assert_eq!(digest(FootprintMode::Trace), 0xcbf7_dcff_d9bd_1688);
    }

    #[test]
    #[should_panic(expected = "mode changed")]
    fn mode_change_on_populated_column_panics() {
        let mut col = FootprintColumn::new(FootprintMode::Compressed);
        col.push(&[1]);
        col.ensure_mode(FootprintMode::Trace);
    }

    #[test]
    fn varint_round_trip() {
        let nodes: Vec<u32> = vec![0, 1, 127, 128, 16_383, 16_384, u32::MAX - 1, u32::MAX];
        let mut blob = Vec::new();
        encode_deltas(&mut blob, &nodes);
        let mut got = Vec::new();
        decode_deltas(&blob, |v| got.push(v));
        assert_eq!(got, nodes);
    }
}
