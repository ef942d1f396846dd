"""Scalar references for the array-built pipeline stages.

The k-mer-string walker (``KmerGraph``, ``_walk_right``, the seed loop) and
the per-pair merge loop, moved here verbatim from ``repro.pipeline`` when
``generate_contigs`` and ``merge_read_pairs`` were rebuilt as bulk array
passes.  They define the contract: the array stages must reproduce these
bit for bit (``cid``, ``seq``, ``repr(depth)``, order; ``bases``, ``quals``,
``offsets``, ``names``, ``paired``, ``MergeStats``).

The per-read aligner (``SeedIndex``, ``ungapped_align``, ``_recruit``,
``align_reads_scalar``) followed once no entry point reached it: the
batched ``align_reads`` must reproduce its alignments, ``n_seed_hits`` and
candidate reads in the same order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.pipeline.alignment import (
    MAX_READS_PER_END,
    AlignmentResult,
    ContigCandidates,
    ReadAlignment,
)
from repro.pipeline.contigs import Contig, ContigSet
from repro.pipeline.kmer_analysis import ClassifiedKmers, ExtVerdict
from repro.pipeline.merge_reads import MergeStats, find_overlap
from repro.sequence.dna import BASES, encode, revcomp, revcomp_codes
from repro.sequence.kmer import unpack_kmers, valid_kmer_mask
from repro.sequence.read import ReadBatch

__all__ = [
    "KmerGraph",
    "generate_contigs_reference",
    "merge_read_pairs_reference",
    "AlnScore",
    "ungapped_align",
    "SeedIndex",
    "align_reads_scalar",
]

_COMP = {"A": "T", "C": "G", "G": "C", "T": "A"}


class KmerGraph:
    """Lookup structure over classified canonical k-mers.

    Maps a k-mer string (either orientation) to its row index and
    orientation, and answers oriented extension queries.
    """

    def __init__(self, classified: ClassifiedKmers) -> None:
        self.ck = classified
        self.k = classified.k
        spec = classified.spectrum
        n = len(spec)
        k = self.k
        # Vectorised unpack of every canonical k-mer (and its revcomp) to
        # strings, then one dict keyed by string -> (row, is_rc).  Odd k
        # guarantees no k-mer equals its own revcomp, so keys are unique.
        # Each (n, k) base matrix is viewed as n fixed-width byte strings
        # and decoded in one pass — no per-row Python slicing.
        from repro.sequence.dna import CODE_TO_BASE

        codes = unpack_kmers(spec.words, k)
        rc_codes = (3 - codes[:, ::-1]).astype(np.uint8)

        def _rows_to_strs(mat: np.ndarray) -> list[str]:
            raw = np.ascontiguousarray(CODE_TO_BASE[mat]).view(f"S{k}")
            return np.char.decode(raw.ravel(), "ascii").tolist()

        fwd_strs = _rows_to_strs(codes)
        rc_strs = _rows_to_strs(rc_codes)
        index: dict[str, tuple[int, bool]] = dict(
            zip(fwd_strs, ((i, False) for i in range(n)))
        )
        index.update(zip(rc_strs, ((i, True) for i in range(n))))
        self._index = index
        #: Cached canonical strings, row-indexed — seeds of
        #: :func:`generate_contigs_reference` reuse these instead of re-unpacking
        #: through ``spec.kmer`` one Python word-loop at a time.
        self._fwd_strs = fwd_strs

    def kmer_str(self, row: int) -> str:
        """Canonical k-mer string of *row* (cached, no per-call unpack)."""
        return self._fwd_strs[row]

    def __len__(self) -> int:
        return len(self._index) // 2

    def find(self, kmer: str) -> tuple[int, bool] | None:
        """Return ``(row, is_rc)`` for *kmer*, or None if absent.

        ``is_rc`` is True when *kmer* is the reverse complement of the
        stored canonical form.
        """
        return self._index.get(kmer)

    def oriented_ext(self, row: int, is_rc: bool, side: str) -> tuple[ExtVerdict, str]:
        """Extension (verdict, base) of k-mer *row* on *side*, in the
        orientation the caller is holding the k-mer.

        For an rc-held k-mer, its right extension is the complement of the
        canonical form's left extension (and vice versa).
        """
        ck = self.ck
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        want_left = (side == "left") != is_rc  # XOR: rc swaps sides
        if want_left:
            verdict = ExtVerdict(int(ck.left_verdict[row]))
            base = BASES[int(ck.left_base[row])]
        else:
            verdict = ExtVerdict(int(ck.right_verdict[row]))
            base = BASES[int(ck.right_base[row])]
        if is_rc:
            base = _COMP[base]
        return verdict, base

    def count(self, row: int) -> int:
        return int(self.ck.spectrum.counts[row])

    def is_uu(self, row: int) -> bool:
        return (
            self.ck.left_verdict[row] == ExtVerdict.UNIQUE
            and self.ck.right_verdict[row] == ExtVerdict.UNIQUE
        )


def _walk_right(graph: KmerGraph, kmer: str, row: int, is_rc: bool, visited: np.ndarray):
    """Extend *kmer* rightward along the UU chain.

    Returns (appended string, list of rows consumed).  Stops at forks,
    dead ends, missing neighbours, inconsistent back-links, non-UU
    neighbours, or already-visited k-mers (cycle guard).
    """
    out: list[str] = []
    rows: list[int] = []
    cur, cur_row, cur_rc = kmer, row, is_rc
    while True:
        verdict, base = graph.oriented_ext(cur_row, cur_rc, "right")
        if verdict != ExtVerdict.UNIQUE:
            break
        nxt = cur[1:] + base
        found = graph.find(nxt)
        if found is None:
            break
        nrow, nrc = found
        if visited[nrow] or not graph.is_uu(nrow):
            break
        # Bidirectional consistency: the neighbour's left extension must
        # point back at the base we are leaving behind.
        back_verdict, back_base = graph.oriented_ext(nrow, nrc, "left")
        if back_verdict != ExtVerdict.UNIQUE or back_base != cur[0]:
            break
        visited[nrow] = True
        out.append(base)
        rows.append(nrow)
        cur, cur_row, cur_rc = nxt, nrow, nrc
    return "".join(out), rows


def generate_contigs_reference(
    classified: ClassifiedKmers, min_contig_len: int | None = None
) -> ContigSet:
    """Emit maximal UU-path contigs from a classified spectrum.

    Parameters
    ----------
    classified:
        Output of :func:`repro.pipeline.kmer_analysis.analyze_kmers`.
    min_contig_len:
        Contigs shorter than this are dropped (default ``k + 2`` — a bare
        k-mer with one extension carries no information the reads don't).
    """
    graph = KmerGraph(classified)
    k = classified.k
    if min_contig_len is None:
        min_contig_len = k + 2
    spec = classified.spectrum
    n = len(spec)
    visited = np.zeros(n, dtype=bool)
    contigs = ContigSet()
    cid = 0

    uu = np.nonzero(
        (classified.left_verdict == ExtVerdict.UNIQUE)
        & (classified.right_verdict == ExtVerdict.UNIQUE)
    )[0]

    for seed_row in uu:
        if visited[seed_row]:
            continue
        visited[seed_row] = True
        seed = graph.kmer_str(int(seed_row))
        right_str, right_rows = _walk_right(graph, seed, int(seed_row), False, visited)
        # Walk left = walk right from the reverse complement.
        left_str, left_rows = _walk_right(graph, revcomp(seed), int(seed_row), True, visited)
        seq = revcomp(left_str) + seed + right_str
        member_rows = left_rows[::-1] + [int(seed_row)] + right_rows
        if len(seq) < min_contig_len:
            continue
        depth = float(np.mean([graph.count(r) for r in member_rows]))
        # Canonical orientation: deterministic output regardless of seed.
        rc_seq = revcomp(seq)
        if rc_seq < seq:
            seq = rc_seq
        contigs.add(Contig(cid=cid, seq=seq, depth=depth))
        cid += 1
    return contigs


def merge_read_pairs_reference(
    batch: ReadBatch,
    min_overlap: int = 12,
    max_mismatch_frac: float = 0.1,
) -> tuple[ReadBatch, MergeStats]:
    """Merge overlapping mates of an interleaved paired batch.

    Returns a new (unpaired) batch in which each merged pair is replaced by
    one consensus read and unmerged pairs are kept as two reads, plus
    statistics.  Order is preserved (pair i's outputs precede pair i+1's),
    which keeps downstream runs deterministic.
    """
    if not batch.paired:
        raise ValueError("merge_read_pairs requires an interleaved paired batch")
    n_pairs = len(batch) // 2

    out_bases: list[np.ndarray] = []
    out_quals: list[np.ndarray] = []
    out_names: list[str] = []
    n_merged = 0
    merged_len_total = 0

    for p in range(n_pairs):
        i1, i2 = 2 * p, 2 * p + 1
        a = batch.codes(i1)
        aq = batch.qual_codes(i1)
        b = revcomp_codes(batch.codes(i2))
        bq = batch.qual_codes(i2)[::-1]

        olap = find_overlap(a, b, min_overlap, max_mismatch_frac)
        if olap == 0:
            out_bases += [a, batch.codes(i2)]
            out_quals += [aq, batch.qual_codes(i2)]
            out_names += [batch.name(i1), batch.name(i2)]
            continue

        n_merged += 1
        asz = a.size
        head = a[: asz - olap]
        head_q = aq[: asz - olap]
        tail = b[olap:]
        tail_q = bq[olap:]
        ov_a, ov_aq = a[asz - olap :], aq[asz - olap :]
        ov_b, ov_bq = b[:olap], bq[:olap]
        agree = ov_a == ov_b
        take_a = agree | (ov_aq >= ov_bq)
        ov = np.where(take_a, ov_a, ov_b)
        # Agreement boosts confidence (capped); disagreement costs the
        # loser's quality — the standard merge heuristic.
        ov_q = np.where(
            agree,
            np.minimum(ov_aq.astype(np.int64) + ov_bq.astype(np.int64), 41),
            np.abs(ov_aq.astype(np.int64) - ov_bq.astype(np.int64)),
        ).astype(np.uint8)

        merged = np.concatenate([head, ov, tail])
        merged_q = np.concatenate([head_q, ov_q, tail_q])
        merged_len_total += merged.size
        out_bases.append(merged)
        out_quals.append(merged_q)
        out_names.append(batch.name(i1).removesuffix("/1") + "/merged")

    lengths = np.fromiter((b.size for b in out_bases), dtype=np.int64, count=len(out_bases))
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    bases = np.concatenate(out_bases) if out_bases else np.empty(0, dtype=np.uint8)
    quals = np.concatenate(out_quals) if out_quals else np.empty(0, dtype=np.uint8)
    merged_batch = ReadBatch(bases, quals, offsets, out_names, paired=False)
    stats = MergeStats(
        n_pairs=n_pairs,
        n_merged=n_merged,
        mean_merged_length=merged_len_total / n_merged if n_merged else 0.0,
    )
    return merged_batch, stats


@dataclass(frozen=True)
class AlnScore:
    """Result of anchoring a read to a contig at a fixed diagonal.

    ``offset`` is the contig coordinate of (oriented) read position 0 —
    possibly negative when the read hangs off the contig's left edge.
    The aligned (overlap) region is ``[ov_start, ov_end)`` in contig
    coordinates.
    """

    offset: int
    ov_start: int
    ov_end: int
    matches: int
    mismatches: int

    @property
    def ov_len(self) -> int:
        return self.ov_end - self.ov_start

    @property
    def identity(self) -> float:
        return self.matches / self.ov_len if self.ov_len else 0.0


def ungapped_align(
    contig: np.ndarray, read: np.ndarray, contig_pos: int, read_pos: int
) -> AlnScore:
    """Score the full ungapped overlap implied by one seed match.

    The seed anchors read position *read_pos* to contig position
    *contig_pos*; every read base on that diagonal that falls inside the
    contig is compared in one vectorised pass.
    """
    offset = int(contig_pos) - int(read_pos)
    ov_start = max(offset, 0)
    ov_end = min(offset + read.size, contig.size)
    if ov_end <= ov_start:
        return AlnScore(offset, ov_start, ov_start, 0, 0)
    c = contig[ov_start:ov_end]
    r = read[ov_start - offset : ov_end - offset]
    matches = int(np.count_nonzero(c == r))
    return AlnScore(offset, ov_start, ov_end, matches, c.size - matches)


class SeedIndex:
    """Exact-position index of all seed-length k-mers of a contig set.

    The original bytes-dict form, retained for the scalar reference path
    (:func:`align_reads_scalar`); the batched aligner uses
    :class:`PackedSeedIndex`.
    """

    def __init__(self, contigs: ContigSet, seed_len: int = 17, stride: int = 1) -> None:
        if seed_len < 8:
            raise ValueError("seed_len must be >= 8")
        self.seed_len = seed_len
        self.stride = stride
        self._index: dict[bytes, list[tuple[int, int]]] = defaultdict(list)
        self.contig_codes: dict[int, np.ndarray] = {}
        for c in contigs:
            codes = encode(c.seq)
            self.contig_codes[c.cid] = codes
            valid = valid_kmer_mask(codes, seed_len)
            for pos in range(0, codes.size - seed_len + 1, stride):
                if not valid[pos]:
                    continue
                window = codes[pos : pos + seed_len]
                self._index[window.tobytes()].append((c.cid, pos))

    def hits(self, seed: np.ndarray) -> list[tuple[int, int]]:
        return self._index.get(seed.tobytes(), [])

    def __len__(self) -> int:
        return len(self._index)


def _recruit(
    cand: ContigCandidates,
    aln: AlnScore,
    contig_len: int,
    oriented_seq: np.ndarray,
    oriented_qual: np.ndarray,
    max_reads_per_end: int,
) -> None:
    """File an aligned read under the contig end(s) it hangs off."""
    projected_start = aln.offset
    projected_end = aln.offset + oriented_seq.size
    if projected_start < 0 and len(cand.left) < max_reads_per_end:
        # Left-end candidate: flip so extension walks rightward on rc(contig).
        cand.left.add(revcomp_codes(oriented_seq), oriented_qual[::-1].copy())
    if projected_end > contig_len and len(cand.right) < max_reads_per_end:
        cand.right.add(oriented_seq, oriented_qual)


def align_reads_scalar(
    contigs: ContigSet,
    reads: ReadBatch,
    seed_len: int = 17,
    read_seed_stride: int = 8,
    min_identity: float = 0.9,
    min_overlap: int = 30,
    max_reads_per_end: int = MAX_READS_PER_END,
) -> AlignmentResult:
    """Reference scalar aligner (read × strand × seed Python loops).

    Kept verbatim from the pre-batch implementation: the batched
    :func:`align_reads` must reproduce its output exactly.
    """
    index = SeedIndex(contigs, seed_len=seed_len)
    contig_len = {c.cid: len(c.seq) for c in contigs}
    candidates = {c.cid: ContigCandidates(cid=c.cid) for c in contigs}
    alignments: list[ReadAlignment] = []
    n_seed_hits = 0
    n_aligned = 0

    for ridx in range(len(reads)):
        fwd = reads.codes(ridx)
        fq = reads.qual_codes(ridx)
        if fwd.size < seed_len:
            continue
        best_per_contig: dict[int, tuple[AlnScore, bool]] = {}
        for is_rc in (False, True):
            oriented = revcomp_codes(fwd) if is_rc else fwd
            # one O(n) pass replaces a per-seed N scan
            valid_seed = valid_kmer_mask(oriented, seed_len)
            seen_diag: set[tuple[int, int]] = set()
            for rpos in range(0, oriented.size - seed_len + 1, read_seed_stride):
                if not valid_seed[rpos]:
                    continue
                seed = oriented[rpos : rpos + seed_len]
                for cid, cpos in index.hits(seed):
                    n_seed_hits += 1
                    diag = (cid, cpos - rpos)
                    if diag in seen_diag:
                        continue
                    seen_diag.add(diag)
                    aln = ungapped_align(index.contig_codes[cid], oriented, cpos, rpos)
                    if aln.ov_len < min_overlap or aln.identity < min_identity:
                        continue
                    cur = best_per_contig.get(cid)
                    if cur is None or aln.matches > cur[0].matches:
                        best_per_contig[cid] = (aln, is_rc)
        if not best_per_contig:
            continue
        n_aligned += 1
        for cid, (aln, is_rc) in best_per_contig.items():
            oriented = revcomp_codes(fwd) if is_rc else fwd
            oq = fq[::-1].copy() if is_rc else fq
            alignments.append(
                ReadAlignment(
                    read_idx=ridx,
                    cid=cid,
                    offset=aln.offset,
                    is_rc=is_rc,
                    matches=aln.matches,
                    mismatches=aln.mismatches,
                    ov_len=aln.ov_len,
                )
            )
            _recruit(
                candidates[cid], aln, contig_len[cid], oriented, oq, max_reads_per_end
            )

    return AlignmentResult(
        alignments=alignments,
        candidates=candidates,
        n_reads_aligned=n_aligned,
        n_seed_hits=n_seed_hits,
    )
