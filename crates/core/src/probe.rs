//! Probe engines: how fresh tuples find their matches in the opposite
//! window.
//!
//! Two engines implement [`ProbeEngine`]:
//!
//! * [`ExactEngine`] — the paper's Block Nested-Loop Join (§IV-D,
//!   §VI-A). Every runtime and the baselines driver run it. Small
//!   windows are swept through their contiguous key columns (see
//!   [`crate::block`]), skipping blocks whose min/max key range cannot
//!   intersect the probing batch; windows past a size threshold answer
//!   every probe, single tuple or batch, from a per-side extendible-hash
//!   key index. Outputs, emission order and charged work are
//!   bit-identical to the scalar scan whichever path runs.
//! * [`ScalarEngine`] — the retained scalar reference kernel: the
//!   tuple-at-a-time BNLJ via [`scan_run`], exactly as the paper
//!   describes it. Slow on purpose; it anchors the equivalence
//!   property tests that keep the production kernel honest.
//!
//! Both engines rely on the window's freshness protocol for duplicate
//! elimination: probes only see **sealed** opposite tuples; the skipped
//! fresh tuples probe later and find this side's (by then sealed) tuples.
//!
//! ## Why the fast paths cannot change charged work
//!
//! The BNLJ cost the paper measures is `fresh × sealed` comparisons plus
//! one touch per opposite block; both are charged **before** any
//! physical discovery decision. The min/max prefilter and the key index
//! only change how matches are *found* — the output sequence and the
//! `WorkStats` tallies are unchanged by construction.

use crate::block::RunView;
use crate::hash::index_hash;
use crate::{Block, JoinSemantics, OutPair, Side, Tuple, WindowPartition, WorkStats};
use windjoin_exthash::{Directory, SplitError};

/// Match-finding strategy for a mini-partition-group.
///
/// `Send` is required so a slave can drain independent partition-groups
/// on a worker pool (see `SlaveCore::process_pending`).
pub trait ProbeEngine: Default + Send {
    /// A tuple has been sealed (it finished probing; it is now visible
    /// to opposite-side probes).
    fn on_seal(&mut self, tuple: &Tuple);

    /// The oldest block of `side` was dropped by expiry; its tuples
    /// leave the window.
    fn on_expire_block(&mut self, side: Side, block: &Block);

    /// Probes `fresh` (all from one side, time-ordered) against the
    /// opposite window's sealed tuples. Appends matches to `out` and
    /// charges BNLJ-equivalent work to `work`.
    fn probe(
        &mut self,
        fresh: &[Tuple],
        opposite: &WindowPartition,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    );
}

/// Nested-loop scan of `probe_tuples` against one stored run; shared by
/// the exact engine and by the expiring-block completeness join (§IV-D),
/// so both engines take the identical code path for the latter.
pub fn scan_run(
    probe_tuples: &[Tuple],
    stored_run: &[Tuple],
    sem: &JoinSemantics,
    out: &mut Vec<OutPair>,
    work: &mut WorkStats,
) {
    for stored in stored_run {
        for probe in probe_tuples {
            if probe.key == stored.key && sem.joins(probe.t, probe.side, stored.t) {
                out.push(OutPair::from_probe(probe, stored.t, stored.seq));
                work.emitted += 1;
            }
        }
    }
    work.comparisons += (probe_tuples.len() * stored_run.len()) as u64;
}

/// The retained scalar reference kernel: the paper's Block Nested-Loop
/// Join as straight-line tuple-at-a-time scans over row-form blocks.
///
/// [`ExactEngine`] is the production kernel; this engine exists so the
/// equivalence property tests can assert, forever, that the columnar
/// kernel emits byte-identical `(OutPair, WorkStats)` sequences.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarEngine;

impl ProbeEngine for ScalarEngine {
    fn on_seal(&mut self, _tuple: &Tuple) {}

    fn on_expire_block(&mut self, _side: Side, _block: &Block) {}

    fn probe(
        &mut self,
        fresh: &[Tuple],
        opposite: &WindowPartition,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        if fresh.is_empty() {
            return;
        }
        work.blocks_touched += opposite.block_count() as u64;
        opposite.for_each_sealed_run(|run| scan_run(fresh, run, sem, out, work));
    }
}

/// One sealed tuple's index record: its key plus the `(t, seq)` pair an
/// [`OutPair`] needs. 24 bytes per sealed tuple.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    key: u64,
    t: u64,
    seq: u64,
}

/// One extendible-hash bucket of the per-window key index: entries in
/// global seal order, which per side is ascending `(t, seq)` — the
/// exact order the BNLJ sweep visits stored tuples in.
#[derive(Debug, Clone, Default)]
struct IndexBucket {
    entries: Vec<IndexEntry>,
    /// `entries[head..]` are live. Only a saturated bucket keeps an
    /// expired prefix (see [`IndexBucket::pop_oldest`]); elsewhere
    /// `head` is 0.
    head: usize,
    /// Hit [`SplitError::MaxDepth`] while overflowing (a hot key whose
    /// identical hashes can never be divided) — stop trying to split.
    saturated: bool,
}

impl IndexBucket {
    fn live(&self) -> &[IndexEntry] {
        &self.entries[self.head..]
    }

    /// Drops the oldest live entry. A saturated bucket can grow without
    /// bound, so it drops its dead prefix only once that prefix is as
    /// long as the live part (O(1) amortised); other buckets hold at
    /// most `INDEX_SPLIT_MAX` entries and compact at once.
    fn pop_oldest(&mut self) -> IndexEntry {
        let entry = self.entries[self.head];
        self.head += 1;
        if !self.saturated || self.head * 2 >= self.entries.len() {
            self.entries.drain(..self.head);
            self.head = 0;
        }
        entry
    }
}

/// A bucket splits once it holds more entries than this.
const INDEX_SPLIT_MAX: usize = 64;
/// Buddies merge back when their combined size falls to half the split
/// threshold (hysteresis, mirroring the θ rule in [`crate::group`]).
const INDEX_MERGE_MAX: usize = INDEX_SPLIT_MAX / 2;
/// Directory depth cap: 2^11 entries ≈ 8 KiB of directory per side at
/// full saturation, reached only by windows past ~128k sealed tuples.
const INDEX_MAX_DEPTH: u8 = 11;
/// Sealed windows smaller than this are probed faster by the 8-wide
/// columnar sweep than through the hash indirection, and tiny windows
/// never pay to materialise an index at all.
const INDEX_MIN_SEALED: usize = 64;

/// Lazily-built extendible-hash index over one window's sealed keys
/// (`key → time-ordered (t, seq)` via [`index_hash`]).
///
/// `built` starts false and the maintenance hooks stay no-ops, so
/// windows that never reach `INDEX_MIN_SEALED` sealed tuples pay
/// nothing. The first probe of a large window builds the index from the
/// sealed runs in one pass; from then on [`ExactEngine::on_seal`] /
/// [`ExactEngine::on_expire_block`] keep it exact.
#[derive(Debug, Clone)]
struct KeyIndex {
    dir: Directory<IndexBucket>,
    built: bool,
    len: usize,
}

impl Default for KeyIndex {
    fn default() -> Self {
        KeyIndex {
            dir: Directory::new(INDEX_MAX_DEPTH, IndexBucket::default()),
            built: false,
            len: 0,
        }
    }
}

impl KeyIndex {
    /// Appends one sealed tuple. Seals arrive in `(t, seq)` order per
    /// side, so a plain push keeps every bucket time-ordered.
    fn insert(&mut self, key: u64, t: u64, seq: u64) {
        let h = index_hash(key);
        let bucket = self.dir.get_mut(h);
        bucket.entries.push(IndexEntry { key, t, seq });
        self.len += 1;
        while !self.dir.get(h).saturated && self.dir.get(h).entries.len() > INDEX_SPLIT_MAX {
            let split = self.dir.split(h, |bucket, bit| {
                // Stable partition: both halves keep their time order.
                let (keep, sibling) =
                    bucket.entries.drain(..).partition(|e| !bit.goes_to_sibling(index_hash(e.key)));
                bucket.entries = keep;
                IndexBucket { entries: sibling, ..IndexBucket::default() }
            });
            if let Err(SplitError::MaxDepth) = split {
                self.dir.get_mut(h).saturated = true;
            }
        }
    }

    /// Removes one expired tuple. Expiry is strictly oldest-first per
    /// side, so the expiring tuple is the oldest entry of its bucket.
    fn remove(&mut self, key: u64, t: u64, seq: u64) {
        let h = index_hash(key);
        let bucket = self.dir.get_mut(h);
        let entry = bucket.pop_oldest();
        debug_assert_eq!(
            (entry.key, entry.t, entry.seq),
            (key, t, seq),
            "oldest-first expiry invariant"
        );
        self.len -= 1;
        if bucket.entries.len() <= INDEX_MERGE_MAX {
            // Fold small buddies back together (and shrink the
            // directory) so a drained window's index stays compact.
            let _ = self.dir.try_merge(
                h,
                |a, b| {
                    !a.saturated
                        && !b.saturated
                        && a.entries.len() + b.entries.len() <= INDEX_MERGE_MAX
                },
                |keep, dropped| {
                    let mut a = std::mem::take(&mut keep.entries).into_iter().peekable();
                    let mut b = dropped.entries.into_iter().peekable();
                    // Interleave by (t, seq): both runs are sorted, and
                    // the merged bucket must stay in sweep order.
                    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
                        if (x.t, x.seq) <= (y.t, y.seq) {
                            let e = a.next().expect("peeked");
                            keep.entries.push(e);
                        } else {
                            let e = b.next().expect("peeked");
                            keep.entries.push(e);
                        }
                    }
                    keep.entries.extend(a);
                    keep.entries.extend(b);
                },
            );
        }
    }

    /// One-pass build from a window's sealed runs (oldest-first, so the
    /// inserts arrive time-ordered exactly like live seals would).
    fn build_from(&mut self, window: &WindowPartition) {
        debug_assert!(!self.built && self.len == 0);
        self.built = true;
        window.for_each_sealed_run_view(|run| {
            for tup in run.tuples {
                self.insert(tup.key, tup.t, tup.seq);
            }
        });
    }

    /// Visits the live entries of `key` with `lower <= t <= upper` in
    /// ascending `(t, seq)`, stopping at the first entry past `upper`.
    fn walk(&self, key: u64, lower: u64, upper: u64, mut f: impl FnMut(&IndexEntry)) {
        for e in self.dir.get(index_hash(key)).live() {
            if e.t > upper {
                break;
            }
            if e.key == key && e.t >= lower {
                f(e);
            }
        }
    }

    /// Emits every window-valid match of a probing batch in the sweep's
    /// stored-major order: ascending stored `(t, seq)`, then position in
    /// the batch.
    ///
    /// Probes sharing a key share one walk over the union of their
    /// `[t − W(opposite), t + W(probe side)]` ranges (exactly the stored
    /// times [`JoinSemantics::joins`] accepts). A lone probe's walk is
    /// already in sweep order; a batch's `(t, seq, key group)` matches
    /// are sorted to interleave the keys the way the sweep does.
    fn probe_batch(
        &self,
        fresh: &[Tuple],
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        let side = fresh[0].side;
        let range = |t_min: u64, t_max: u64| {
            (
                t_min.saturating_sub(sem.window_us(side.opposite())),
                t_max.saturating_add(sem.window_us(side)),
            )
        };
        if let [probe] = fresh {
            let (lower, upper) = range(probe.t, probe.t);
            self.walk(probe.key, lower, upper, |e| {
                out.push(OutPair::from_probe(probe, e.t, e.seq));
                work.emitted += 1;
            });
            return;
        }
        let mut by_key: Vec<usize> = (0..fresh.len()).collect();
        by_key.sort_by_key(|&i| fresh[i].key);
        let groups: Vec<&[usize]> =
            by_key.chunk_by(|&a, &b| fresh[a].key == fresh[b].key).collect();
        let mut matches = Vec::new();
        for (g, group) in groups.iter().enumerate() {
            let (t_min, t_max) = group
                .iter()
                .fold((u64::MAX, 0), |(lo, hi), &i| (lo.min(fresh[i].t), hi.max(fresh[i].t)));
            let (lower, upper) = range(t_min, t_max);
            self.walk(fresh[group[0]].key, lower, upper, |e| matches.push((e.t, e.seq, g)));
        }
        if groups.len() > 1 {
            matches.sort_unstable();
        }
        for &(t, seq, g) in &matches {
            for &i in groups[g] {
                let probe = &fresh[i];
                if sem.joins(probe.t, side, t) {
                    out.push(OutPair::from_probe(probe, t, seq));
                    work.emitted += 1;
                }
            }
        }
    }
}

/// The paper's Block Nested-Loop Join, answered from a key index once
/// the opposite window is large.
///
/// Every probe call charges the full BNLJ cost first — `fresh × sealed`
/// comparisons and one touch per opposite block — and then picks how to
/// *find* the matches:
///
/// * Opposite windows with at least `INDEX_MIN_SEALED` sealed tuples
///   are probed through a lazily-built per-side `KeyIndex`: each probe
///   touches one extendible-hash bucket rather than the whole key
///   column. A batch walks one bucket per distinct key and sorts the
///   matched entries by stored `(t, seq)`, which is exactly the sweep's
///   stored-major emission order (sealed runs are visited oldest-first,
///   each stored-major, and index buckets are kept in ascending
///   `(t, seq)`).
/// * Smaller windows are swept: the fresh batch's keys are gathered
///   once into a reused scratch column; every sealed run is scanned
///   through its contiguous key column, and runs whose
///   `[min_key, max_key]` range is disjoint from the batch's key range
///   are skipped outright. Row tuples are only touched to materialise
///   an [`OutPair`] on a key hit.
///
/// Both paths emit a byte-identical `(OutPair, WorkStats)` sequence to
/// [`ScalarEngine`]; the choice is purely a matter of speed.
#[derive(Debug, Clone, Default)]
pub struct ExactEngine {
    /// Reused key column of the probing batch.
    fresh_keys: Vec<u64>,
    /// Per-side sealed-key indexes (`[left, right]`), built on demand.
    index: [KeyIndex; 2],
}

impl ProbeEngine for ExactEngine {
    fn on_seal(&mut self, tuple: &Tuple) {
        let idx = &mut self.index[tuple.side.index()];
        if idx.built {
            idx.insert(tuple.key, tuple.t, tuple.seq);
        }
    }

    fn on_expire_block(&mut self, side: Side, block: &Block) {
        let idx = &mut self.index[side.index()];
        if idx.built {
            for tup in block.tuples() {
                idx.remove(tup.key, tup.t, tup.seq);
            }
        }
    }

    fn probe(
        &mut self,
        fresh: &[Tuple],
        opposite: &WindowPartition,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        if fresh.is_empty() {
            return;
        }
        let sealed = opposite.sealed_count();
        work.blocks_touched += opposite.block_count() as u64;
        work.comparisons += (fresh.len() * sealed) as u64;
        if sealed >= INDEX_MIN_SEALED {
            let idx = &mut self.index[opposite.side().index()];
            if !idx.built {
                idx.build_from(opposite);
            }
            debug_assert_eq!(idx.len, sealed, "index tracks the sealed set");
            idx.probe_batch(fresh, sem, out, work);
            return;
        }
        self.fresh_keys.clear();
        let (mut fresh_min, mut fresh_max) = (u64::MAX, 0u64);
        for t in fresh {
            self.fresh_keys.push(t.key);
            fresh_min = fresh_min.min(t.key);
            fresh_max = fresh_max.max(t.key);
        }
        let fresh_keys = &self.fresh_keys;
        opposite.for_each_sealed_run_view(|run| {
            if run.min_key > fresh_max || run.max_key < fresh_min {
                return; // no key of this block can equal any fresh key
            }
            if let [key] = fresh_keys[..] {
                scan_run_one_key(key, &fresh[0], &run, sem, out, work);
            } else {
                scan_run_columnar(fresh, fresh_keys, &run, sem, out, work);
            }
        });
    }
}

/// Columnar scan of one sealed run against a probing batch, preserving
/// the scalar kernel's stored-major emission order. Comparisons are
/// charged by the caller.
fn scan_run_columnar(
    fresh: &[Tuple],
    fresh_keys: &[u64],
    run: &RunView<'_>,
    sem: &JoinSemantics,
    out: &mut Vec<OutPair>,
    work: &mut WorkStats,
) {
    for (j, &stored_key) in run.keys.iter().enumerate() {
        for (i, &fresh_key) in fresh_keys.iter().enumerate() {
            if fresh_key == stored_key {
                let probe = &fresh[i];
                let stored_t = run.ts[j];
                if sem.joins(probe.t, probe.side, stored_t) {
                    out.push(OutPair::from_probe(probe, stored_t, run.tuples[j].seq));
                    work.emitted += 1;
                }
            }
        }
    }
}

/// Single-probe fast path: a branchless 8-wide any-match sweep over the
/// key column; only chunks containing the key fall back to the exact
/// scalar walk, so the common all-miss chunk costs no branches at all.
fn scan_run_one_key(
    key: u64,
    probe: &Tuple,
    run: &RunView<'_>,
    sem: &JoinSemantics,
    out: &mut Vec<OutPair>,
    work: &mut WorkStats,
) {
    let mut emit_at = |j: usize| {
        let stored_t = run.ts[j];
        if sem.joins(probe.t, probe.side, stored_t) {
            out.push(OutPair::from_probe(probe, stored_t, run.tuples[j].seq));
            work.emitted += 1;
        }
    };
    let mut chunks = run.keys.chunks_exact(8);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let mut any = false;
        for &k in chunk {
            any |= k == key;
        }
        if any {
            for (off, &k) in chunk.iter().enumerate() {
                if k == key {
                    emit_at(base + off);
                }
            }
        }
        base += 8;
    }
    for (off, &k) in chunks.remainder().iter().enumerate() {
        if k == key {
            emit_at(base + off);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEM: JoinSemantics = JoinSemantics { w_left_us: 1_000, w_right_us: 1_000 };

    fn tl(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Left, t, key, seq)
    }
    fn tr(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Right, t, key, seq)
    }

    /// Sealed-window sizes that put [`ExactEngine`] on its sweep path
    /// (`0` fillers) and on its indexed path.
    const FILLERS: [usize; 2] = [0, INDEX_MIN_SEALED];

    /// `n` right-side fillers at `t = first_t..` whose keys no probe
    /// uses.
    fn fillers(n: usize, first_t: u64) -> impl Iterator<Item = Tuple> {
        (0..n as u64)
            .map(move |i| tr(first_t + i, 1_000_000 + first_t + i, 1_000_000 + first_t + i))
    }

    /// `tuples` (all at `t >= 100`) behind `n` fillers at `t < 100`.
    fn padded(n: usize, tuples: &[Tuple]) -> Vec<Tuple> {
        fillers(n, 0).chain(tuples.iter().copied()).collect()
    }

    /// Builds a sealed right-side window from tuples and mirrors them
    /// into an engine's index.
    fn sealed_right<E: ProbeEngine>(engine: &mut E, tuples: &[Tuple]) -> WindowPartition {
        let mut w = WindowPartition::new(Side::Right, 4);
        for &t in tuples {
            w.append(t);
            w.seal();
            engine.on_seal(&t);
        }
        w
    }

    fn run_probe<E: ProbeEngine>(
        engine: &mut E,
        fresh: &[Tuple],
        opposite: &WindowPartition,
    ) -> (Vec<OutPair>, WorkStats) {
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        engine.probe(fresh, opposite, &SEM, &mut out, &mut work);
        (out, work)
    }

    /// Probes `window` with `fresh` on `engine` and asserts the result
    /// equals the scalar reference's, emission order included.
    fn probe_checked(
        engine: &mut ExactEngine,
        fresh: &[Tuple],
        window: &WindowPartition,
    ) -> (Vec<OutPair>, WorkStats) {
        let got = run_probe(engine, fresh, window);
        assert_eq!(got, run_probe(&mut ScalarEngine, fresh, window), "differs from the sweep");
        got
    }

    fn probe_sealed(stored: &[Tuple], fresh: &[Tuple]) -> (Vec<OutPair>, WorkStats) {
        let mut e = ExactEngine::default();
        let w = sealed_right(&mut e, stored);
        probe_checked(&mut e, fresh, &w)
    }

    #[test]
    fn exact_engine_finds_window_valid_matches() {
        for n in FILLERS {
            let stored = padded(n, &[tr(100, 7, 0), tr(500, 7, 1), tr(500, 9, 2), tr(2000, 7, 3)]);
            let (out, work) = probe_sealed(&stored, &[tl(1200, 7, 0)]);
            // t=100 is out of window (1200-100 > 1000); t=2000 is newer but
            // within the probe's own window; key 9 doesn't match.
            assert_eq!(out.len(), 2, "fillers={n}");
            assert!(out.iter().any(|p| p.right == (500, 1)));
            assert!(out.iter().any(|p| p.right == (2000, 3)));
            assert_eq!(work.comparisons, stored.len() as u64);
            assert_eq!(work.emitted, 2);
            assert_eq!(work.blocks_touched, stored.len().div_ceil(4) as u64);
        }
    }

    /// A batch probe emits the scalar sweep's stored-major sequence on
    /// both the swept and the indexed path.
    /// A batch probe emits the scalar sweep's stored-major sequence on
    /// both the swept and the indexed path.
    #[test]
    fn counted_engine_matches_exact_engine() {
        for n in FILLERS {
            let stored = padded(
                n,
                &[
                    tr(100, 7, 0),
                    tr(500, 7, 1),
                    tr(500, 9, 2),
                    tr(900, 7, 3),
                    tr(1500, 7, 4),
                    tr(2500, 7, 5),
                ],
            );
            let fresh = [tl(1200, 7, 0), tl(1300, 9, 1), tl(1400, 42, 2), tl(1500, 7, 3)];
            let (out, work) = probe_sealed(&stored, &fresh);
            // Stored-major: (500,1) for both key-7 probes, then (500,2)
            // for the key-9 probe, and so on.
            let order: Vec<_> = out.iter().map(|p| (p.right, p.left.1)).collect();
            assert_eq!(
                order,
                [
                    ((500, 1), 0),
                    ((500, 1), 3),
                    ((500, 2), 1),
                    ((900, 3), 0),
                    ((900, 3), 3),
                    ((1500, 4), 0),
                    ((1500, 4), 3),
                    ((2500, 5), 3),
                ],
                "fillers={n}"
            );
            assert_eq!(work.comparisons, (fresh.len() * stored.len()) as u64);
        }
    }

    #[test]
    fn probes_skip_fresh_opposite_tuples() {
        // The opposite window has sealed tuples and one fresh tuple; only
        // the sealed ones may match (§IV-D duplicate elimination).
        for n in FILLERS {
            let mut e = ExactEngine::default();
            let stored = padded(n, &[tr(100, 7, 0)]);
            let mut w = sealed_right(&mut e, &stored);
            w.append(tr(200, 7, 1)); // fresh: not sealed, not indexed
            let (out, work) = probe_checked(&mut e, &[tl(300, 7, 0), tl(310, 7, 1)], &w);
            assert_eq!(out.len(), 2, "fillers={n}");
            assert!(out.iter().all(|p| p.right == (100, 0)));
            assert_eq!(work.comparisons, 2 * stored.len() as u64, "only sealed tuples count");
        }
    }

    /// Block expiry after a batch probe built the index removes the
    /// expired tuples from it.
    /// Block expiry after a batch probe built the index removes the
    /// expired tuples from it.
    #[test]
    fn counted_engine_expiry_prunes_index() {
        let mut e = ExactEngine::default();
        let stored: Vec<Tuple> = fillers(INDEX_MIN_SEALED, 0)
            .chain([tr(100, 7, 0), tr(110, 7, 1)])
            .chain(fillers(INDEX_MIN_SEALED, 2_000))
            .chain([tr(3000, 7, 2)])
            .collect();
        let mut w = WindowPartition::new(Side::Right, 2);
        for &t in &stored {
            w.append(t);
            w.seal();
            e.on_seal(&t);
        }
        // A batch probe builds the index.
        let (out, _) = probe_checked(&mut e, &[tl(120, 7, 0), tl(130, 7, 1)], &w);
        assert_eq!(out.len(), 4);
        assert!(e.index[Side::Right.index()].built, "batch probe built the index");
        // Expire every block older than t=500: the first fillers and both
        // early key-7 tuples leave the window and the index.
        while let Some(b) = w.pop_expired_front(1_500, 1_000, 0) {
            e.on_expire_block(Side::Right, &b);
        }
        assert_eq!(w.sealed_count(), INDEX_MIN_SEALED + 1);
        assert_eq!(e.index[Side::Right.index()].len, INDEX_MIN_SEALED + 1);
        let (out, _) = probe_checked(&mut e, &[tl(3100, 7, 0), tl(3200, 7, 1)], &w);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|p| p.right == (3000, 2)));
    }

    #[test]
    fn empty_probe_is_free() {
        let mut ex = ExactEngine::default();
        let w = sealed_right(&mut ex, &[tr(1, 7, 0)]);
        let (out, work) = run_probe(&mut ex, &[], &w);
        assert!(out.is_empty());
        assert!(work.is_zero());
    }

    #[test]
    fn scan_run_counts_every_comparison() {
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        let probes = [tl(100, 1, 0), tl(100, 2, 1)];
        let stored = [tr(50, 1, 0), tr(60, 3, 1), tr(70, 2, 2)];
        scan_run(&probes, &stored, &SEM, &mut out, &mut work);
        assert_eq!(work.comparisons, 6);
        assert_eq!(out.len(), 2);
        assert_eq!(work.emitted, 2);
    }

    #[test]
    fn duplicate_keys_all_match() {
        for n in FILLERS {
            let stored = padded(n, &[tr(100, 7, 0), tr(101, 7, 1), tr(102, 7, 2)]);
            let (out, _) = probe_sealed(&stored, &[tl(500, 7, 0)]);
            assert_eq!(out.len(), 3, "fillers={n}");
        }
    }
}
