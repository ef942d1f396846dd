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

Then the per-row object path downstream of ``align_core``: one
``ReadAlignment`` per row, per-read candidate lists
(``materialise_alignment_reference``), the dict ``best_by_read``, the
per-read task builder and the per-pair insert-size and scaffold-link
loops.  The array result must reproduce each of them exactly.

Last, the k-mer counter and the spectrum merge as they were before both
moved onto ``SortedKmers`` (``count_kmers_reference``: two packing passes,
a ``lexsort`` over word columns and ``np.add.at`` tallies;
``merge_spectra_reference``: the same grouping over concatenated shards).
The spectra must be equal array for array.

And the string contigs, as they were before ``ContigSet`` became one packed
store: ``generate_contigs``' tail (decode both strands, ``min(seq,
rc_seq)`` per contig), ``tasks_from_candidates`` (join + encode the
contig strings) and ``apply_extensions`` (string concatenation into a
``{cid: seq}`` dict), verbatim.  Tasks, final sequences and depths must
be equal.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.pipeline.alignment import (
    MAX_READS_PER_END,
    AlnRows,
    BestPlacements,
    ReadAlignment,
    recruit_flags,
)
from repro.sequence.contigs import Contig, ContigSet
from repro.pipeline.insert_size import InsertSizeEstimate, median
from repro.pipeline.scaffolding import Scaffold, ScaffoldingResult
from repro.pipeline.kmer_analysis import ClassifiedKmers, ExtVerdict
from repro.pipeline.kmer_counts import NO_EXT, KmerSpectrum
from repro.pipeline.merge_reads import MergeStats, find_overlap
from repro.sequence.dna import BASES, N_CODE, decode, encode, revcomp, revcomp_codes
from repro.sequence.kmer import (
    pack_kmers,
    rows_less,
    unpack_kmers,
    valid_kmer_mask,
    words_per_kmer,
)
from repro.sequence.read import ReadBatch

__all__ = [
    "KmerGraph",
    "generate_contigs_reference",
    "merge_read_pairs_reference",
    "AlnScore",
    "ungapped_align",
    "SeedIndex",
    "align_reads_scalar",
    "CandidateReads",
    "ContigCandidates",
    "AlignmentResult",
    "materialise_alignment_reference",
    "tasks_from_candidates_reference",
    "estimate_insert_size_reference",
    "build_scaffolds_reference",
    "best_placements",
    "count_kmers_reference",
    "merge_spectra_reference",
    "canonical_contigs_reference",
    "tasks_from_contig_strings_reference",
    "apply_extensions_reference",
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
    contigs: list[Contig] = []
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
        contigs.append(Contig(cid=cid, seq=seq, depth=depth))
        cid += 1
    return ContigSet(contigs)


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


class CandidateReads:
    """Candidate reads of one contig end as per-read lists."""

    def __init__(self) -> None:
        self.seqs: list[np.ndarray] = []
        self.qual_seqs: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.seqs)

    def add(self, seq: np.ndarray, qual: np.ndarray) -> None:
        self.seqs.append(seq)
        self.qual_seqs.append(qual)

    # the packed view, to compare with the array result's ends
    @property
    def bases(self) -> np.ndarray:
        return np.concatenate(self.seqs) if self.seqs else np.empty(0, np.uint8)

    @property
    def quals(self) -> np.ndarray:
        return (
            np.concatenate(self.qual_seqs) if self.qual_seqs else np.empty(0, np.uint8)
        )

    @property
    def lengths(self) -> np.ndarray:
        return np.array([s.size for s in self.seqs], dtype=np.int64)


@dataclass
class ContigCandidates:
    cid: int
    left: CandidateReads = field(default_factory=CandidateReads)
    right: CandidateReads = field(default_factory=CandidateReads)

    @property
    def n_reads(self) -> int:
        return len(self.left) + len(self.right)


@dataclass
class AlignmentResult:
    alignments: list[ReadAlignment]
    candidates: dict[int, ContigCandidates]
    n_reads_aligned: int
    n_seed_hits: int

    def best_by_read(self) -> dict[int, ReadAlignment]:
        """Best alignment per read (highest matches)."""
        best: dict[int, ReadAlignment] = {}
        for a in self.alignments:
            cur = best.get(a.read_idx)
            if cur is None or a.matches > cur.matches:
                best[a.read_idx] = a
        return best


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


# -- the per-row object path ---------------------------------------------------


def materialise_alignment_reference(
    rows: AlnRows,
    contigs: ContigSet,
    reads: ReadBatch,
    max_reads_per_end: int = MAX_READS_PER_END,
    recruit_left: np.ndarray | None = None,
    recruit_right: np.ndarray | None = None,
) -> AlignmentResult:
    """One ``ReadAlignment`` per row and one ``add`` per recruited read;
    candidate arrays are views into the oriented layout."""
    candidates = {c.cid: ContigCandidates(cid=c.cid) for c in contigs}
    if recruit_left is None or recruit_right is None:
        recruit_left, recruit_right = recruit_flags(
            rows, reads.lengths(), contigs.lengths_by_cid(), max_reads_per_end
        )
    off = reads.offsets.astype(np.int64)
    nb = int(off[-1])
    big = np.concatenate([reads.bases, revcomp_codes(reads.bases)])
    big_quals = np.concatenate([reads.quals, reads.quals[::-1]])
    uoff = np.concatenate([off[:-1], nb + nb - off[::-1]])
    n = len(reads)
    uoff_l = uoff.tolist()
    alignments = [
        ReadAlignment(
            read_idx=ridx,
            cid=cid,
            offset=o,
            is_rc=is_rc,
            matches=mt,
            mismatches=mm,
            ov_len=ov,
        )
        for ridx, cid, o, is_rc, mt, mm, ov in zip(
            rows.read.tolist(),
            rows.cid.tolist(),
            rows.offset.tolist(),
            rows.is_rc.tolist(),
            rows.matches.tolist(),
            rows.mismatches.tolist(),
            rows.ov_len.tolist(),
        )
    ]
    for i in np.nonzero(recruit_left | recruit_right)[0].tolist():
        a = alignments[i]
        u = 2 * n - 1 - a.read_idx if a.is_rc else a.read_idx
        pu = 2 * n - 1 - u  # the unit holding revcomp(oriented read)
        if recruit_left[i]:
            candidates[a.cid].left.add(
                big[uoff_l[pu] : uoff_l[pu + 1]],
                big_quals[uoff_l[pu] : uoff_l[pu + 1]],
            )
        if recruit_right[i]:
            candidates[a.cid].right.add(
                big[uoff_l[u] : uoff_l[u + 1]],
                big_quals[uoff_l[u] : uoff_l[u + 1]],
            )
    return AlignmentResult(
        alignments=alignments,
        candidates=candidates,
        n_reads_aligned=rows.n_reads_aligned,
        n_seed_hits=rows.n_seed_hits,
    )


@dataclass(frozen=True)
class ExtensionTaskReference:
    """The per-read extension task: tuples of read arrays, validated read
    by read, packed on first use."""

    cid: int
    side: int
    contig: np.ndarray
    reads: tuple[np.ndarray, ...]
    quals: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be LEFT/RIGHT, got {self.side}")
        if len(self.reads) != len(self.quals):
            raise ValueError("reads and quals must pair up")
        for i, (read, qual) in enumerate(zip(self.reads, self.quals)):
            if read.size != qual.size:
                raise ValueError(
                    f"task (cid={self.cid}, side={self.side}): read {i} has "
                    f"{read.size} bases but {qual.size} quals"
                )

    @property
    def n_reads(self) -> int:
        return len(self.reads)

    def packed_reads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self.__dict__.get("_packed_reads")
        if cached is None:
            lengths = np.fromiter(
                (r.size for r in self.reads), np.int64, count=len(self.reads)
            )
            empty = np.empty(0, dtype=np.uint8)
            cached = (
                np.concatenate(self.reads) if self.reads else empty,
                np.concatenate(self.quals) if self.quals else empty,
                lengths,
            )
            object.__setattr__(self, "_packed_reads", cached)
        return cached


def tasks_from_candidates_reference(
    contig_seqs, candidates
) -> list[ExtensionTaskReference]:
    """Per-read task building: every candidate read passed on its own."""
    tasks: list[ExtensionTaskReference] = []
    for cand in candidates:
        codes = encode(contig_seqs[cand.cid])
        tasks.append(
            ExtensionTaskReference(
                cid=cand.cid,
                side=LEFT,
                contig=revcomp_codes(codes),
                reads=tuple(cand.left.seqs),
                quals=tuple(cand.left.qual_seqs),
            )
        )
        tasks.append(
            ExtensionTaskReference(
                cid=cand.cid,
                side=RIGHT,
                contig=codes,
                reads=tuple(cand.right.seqs),
                quals=tuple(cand.right.qual_seqs),
            )
        )
    return tasks


def estimate_insert_size_reference(
    best_alignments: dict[int, ReadAlignment],
    read_lengths: np.ndarray,
    max_insert: int = 5000,
) -> InsertSizeEstimate:
    """Per-pair insert scan over the dict of best placements."""
    n_pairs = int(read_lengths.size) // 2
    inserts: list[int] = []
    for p in range(n_pairs):
        a = best_alignments.get(2 * p)
        b = best_alignments.get(2 * p + 1)
        if a is None or b is None or a.cid != b.cid:
            continue
        if a.is_rc == b.is_rc:
            continue  # discordant orientation
        fwd, rev = (a, b) if not a.is_rc else (b, a)
        rev_read_len = int(read_lengths[rev.read_idx])
        insert = (rev.offset + rev_read_len) - fwd.offset
        if 0 < insert <= max_insert:
            inserts.append(insert)

    if not inserts:
        return InsertSizeEstimate(n_pairs_used=0, mean=0.0, sd=0.0, median=0.0)
    arr = np.asarray(inserts, dtype=np.float64)
    mid = median(arr)
    mad = median(np.abs(arr - mid))
    sd = 1.4826 * mad
    window = 3 * sd if sd > 0 else 0.5
    inliers = arr[np.abs(arr - mid) <= window]
    return InsertSizeEstimate(
        n_pairs_used=int(arr.size),
        mean=float(inliers.mean()),
        sd=sd if sd > 0 else float(inliers.std()),
        median=mid,
    )


def build_scaffolds_reference(
    contigs: ContigSet,
    best_alignments: dict[int, ReadAlignment],
    read_lengths: np.ndarray,
    insert_mean: float = 350.0,
    min_support: int = 2,
) -> ScaffoldingResult:
    """Per-pair link collection into dicts, then the same chain walk."""
    by_id = {c.cid: c for c in contigs}
    contig_len = {cid: len(c.seq) for cid, c in by_id.items()}

    def link_end(aln: ReadAlignment) -> int:
        return RIGHT if not aln.is_rc else LEFT

    def overhang(aln: ReadAlignment, clen: int, read_len: int) -> int:
        if link_end(aln) == RIGHT:
            return max(clen - aln.offset, 0)
        return max(aln.offset + read_len, 0)

    support: dict = defaultdict(list)
    n_links = 0
    n_pairs = int(read_lengths.size) // 2
    for p in range(n_pairs):
        a = best_alignments.get(2 * p)
        b = best_alignments.get(2 * p + 1)
        if a is None or b is None or a.cid == b.cid:
            continue
        n_links += 1
        end_a = (a.cid, link_end(a))
        end_b = (b.cid, link_end(b))
        key = (end_a, end_b) if end_a <= end_b else (end_b, end_a)
        gap = int(
            insert_mean
            - overhang(a, contig_len[a.cid], int(read_lengths[2 * p]))
            - overhang(b, contig_len[b.cid], int(read_lengths[2 * p + 1]))
        )
        support[key].append(gap)

    edges = {k: v for k, v in support.items() if len(v) >= min_support}
    end_degree: dict = defaultdict(int)
    for (ea, eb) in edges:
        end_degree[ea] += 1
        end_degree[eb] += 1
    ambiguous = {e for e, d in end_degree.items() if d > 1}
    kept = {
        k: int(median(v))
        for k, v in edges.items()
        if k[0] not in ambiguous and k[1] not in ambiguous
    }

    neighbor: dict = {}
    for (ea, eb), gap in kept.items():
        neighbor[ea] = (eb, gap)
        neighbor[eb] = (ea, gap)

    scaffolds: list[Scaffold] = []
    visited: set[int] = set()
    for start_cid in sorted(by_id):
        if start_cid in visited:
            continue
        cid, entry = start_cid, LEFT
        seen: set[int] = {cid}
        while (cid, entry) in neighbor:
            (ncid, nend), _ = neighbor[(cid, entry)]
            if ncid in seen:
                break
            seen.add(ncid)
            cid, entry = ncid, 1 - nend
        parts: list[str] = []
        ids: list[int] = []
        while True:
            visited.add(cid)
            seq = by_id[cid].seq
            parts.append(seq if entry == LEFT else revcomp(seq))
            ids.append(cid)
            nxt = neighbor.get((cid, 1 - entry))
            if nxt is None:
                break
            (ncid, nend), gap = nxt
            if ncid in visited:
                break
            parts.append("N" * max(gap, 1))
            cid, entry = ncid, nend
        scaffolds.append(
            Scaffold(sid=len(scaffolds), seq="".join(parts), contig_ids=tuple(ids))
        )
    return ScaffoldingResult(
        scaffolds=scaffolds,
        n_links_considered=n_links,
        n_edges_kept=len(kept),
        n_ambiguous_ends=len(ambiguous),
    )


def best_placements(best: dict[int, ReadAlignment], n_reads: int) -> BestPlacements:
    """A ``{read: ReadAlignment}`` dict as the per-read table the consumers
    take; reads at or past *n_reads* are dropped, as the pair loops did."""
    alns = [a for a in best.values() if 0 <= a.read_idx < n_reads]
    at = np.array([a.read_idx for a in alns], dtype=np.int64)
    row = np.full(n_reads, -1, dtype=np.int64)
    cid = np.full(n_reads, -1, dtype=np.int64)
    offset = np.zeros(n_reads, dtype=np.int64)
    is_rc = np.zeros(n_reads, dtype=bool)
    row[at] = np.arange(at.size)
    cid[at] = [a.cid for a in alns]
    offset[at] = [a.offset for a in alns]
    is_rc[at] = [a.is_rc for a in alns]
    return BestPlacements(row, cid, offset, is_rc)


def _read_ids(batch: ReadBatch) -> np.ndarray:
    """Read index of every base position in the concatenated array."""
    lengths = batch.lengths()
    return np.repeat(np.arange(len(batch), dtype=np.int64), lengths)


def count_kmers_reference(
    batch: ReadBatch, k: int, min_count: int = 1, min_qual: int = 0
) -> KmerSpectrum:
    """Count canonical k-mers (with extensions) across a read batch."""
    if k % 2 == 0:
        raise ValueError(f"k must be odd for canonical k-mers, got {k}")
    bases = batch.bases
    if min_qual > 0:
        bases = np.where(batch.quals < min_qual, N_CODE, bases)
    n = bases.size
    nw = words_per_kmer(k)
    if n < k:
        empty_w = np.empty((0, nw), dtype=np.uint64)
        z = np.zeros(0, dtype=np.int64)
        e = np.zeros((0, 5), dtype=np.int64)
        return KmerSpectrum(k, empty_w, z, e, e)

    fwd_words, no_n = pack_kmers(bases, k)
    rid = _read_ids(batch)
    same_read = rid[: n - k + 1] == rid[k - 1 :]
    valid = no_n & same_read
    starts = np.nonzero(valid)[0]
    if starts.size == 0:
        empty_w = np.empty((0, nw), dtype=np.uint64)
        z = np.zeros(0, dtype=np.int64)
        e = np.zeros((0, 5), dtype=np.int64)
        return KmerSpectrum(k, empty_w, z, e, e)

    fwd = fwd_words[starts]

    # Reverse complements: packing the revcomp of the whole array gives the
    # rc of window i at reversed position n-k-i.
    rc_bases = revcomp_codes(bases)
    rc_all, _ = pack_kmers(rc_bases, k)
    rc = rc_all[n - k - starts]

    # Lexicographic choice between fwd and rc (row-wise, word-major).
    use_rc = rows_less(rc, fwd)
    canon = np.where(use_rc[:, None], rc, fwd)

    # Extensions in read orientation.
    left_pos = starts - 1
    right_pos = starts + k
    has_left = np.zeros(starts.size, dtype=bool)
    np.greater_equal(left_pos, 0, out=has_left)
    has_left &= rid[np.maximum(left_pos, 0)] == rid[starts]
    has_right = right_pos < n
    has_right &= rid[np.minimum(right_pos, n - 1)] == rid[starts]
    left_base = np.where(has_left, bases[np.maximum(left_pos, 0)], N_CODE)
    right_base = np.where(has_right, bases[np.minimum(right_pos, n - 1)], N_CODE)
    left_base = np.minimum(left_base, NO_EXT).astype(np.int64)
    right_base = np.minimum(right_base, NO_EXT).astype(np.int64)

    # When the canonical form is the rc, left/right swap and complement.
    def _comp(b: np.ndarray) -> np.ndarray:
        out = 3 - b
        out[b >= NO_EXT] = NO_EXT
        return out

    canon_left = np.where(use_rc, _comp(right_base), left_base)
    canon_right = np.where(use_rc, _comp(left_base), right_base)

    # Group identical canonical k-mers.
    order = np.lexsort(tuple(canon[:, w] for w in range(nw - 1, -1, -1)))
    sorted_w = canon[order]
    new_group = np.ones(order.size, dtype=bool)
    new_group[1:] = np.any(sorted_w[1:] != sorted_w[:-1], axis=1)
    group_id = np.cumsum(new_group) - 1
    n_groups = int(group_id[-1]) + 1

    counts = np.bincount(group_id, minlength=n_groups).astype(np.int64)
    left_ext = np.zeros((n_groups, 5), dtype=np.int64)
    right_ext = np.zeros((n_groups, 5), dtype=np.int64)
    np.add.at(left_ext, (group_id, canon_left[order]), 1)
    np.add.at(right_ext, (group_id, canon_right[order]), 1)
    words = sorted_w[new_group]

    spec = KmerSpectrum(k=k, words=words, counts=counts, left_ext=left_ext, right_ext=right_ext)
    return spec.filtered(min_count) if min_count > 1 else spec


def merge_spectra_reference(shards: list[KmerSpectrum], k: int) -> KmerSpectrum:
    """Merge per-rank spectra (disjoint or overlapping) into one.

    Overlapping keys have their counts and extension tallies summed — the
    reduction MHM2's distributed hash table performs on insert.
    """
    non_empty = [s for s in shards if len(s)]
    if not non_empty:
        import numpy as _np

        from repro.sequence.kmer import words_per_kmer

        nw = words_per_kmer(k)
        e = _np.zeros((0, 5), dtype=_np.int64)
        return KmerSpectrum(
            k, _np.empty((0, nw), dtype=_np.uint64), _np.zeros(0, dtype=_np.int64), e, e
        )
    words = np.concatenate([s.words for s in non_empty])
    counts = np.concatenate([s.counts for s in non_empty])
    left = np.concatenate([s.left_ext for s in non_empty])
    right = np.concatenate([s.right_ext for s in non_empty])
    nw = words.shape[1]
    order = np.lexsort(tuple(words[:, w] for w in range(nw - 1, -1, -1)))
    words, counts, left, right = words[order], counts[order], left[order], right[order]
    new_group = np.ones(words.shape[0], dtype=bool)
    new_group[1:] = np.any(words[1:] != words[:-1], axis=1)
    gid = np.cumsum(new_group) - 1
    n_groups = int(gid[-1]) + 1
    m_counts = np.zeros(n_groups, dtype=np.int64)
    np.add.at(m_counts, gid, counts)
    m_left = np.zeros((n_groups, 5), dtype=np.int64)
    m_right = np.zeros((n_groups, 5), dtype=np.int64)
    np.add.at(m_left, gid, left)
    np.add.at(m_right, gid, right)
    return KmerSpectrum(
        k=k, words=words[new_group], counts=m_counts, left_ext=m_left, right_ext=m_right
    )


# -- contigs as strings --------------------------------------------------------


def canonical_contigs_reference(
    codes: np.ndarray, offsets: np.ndarray, depth: np.ndarray
) -> ContigSet:
    """``generate_contigs``' tail over its flat codes: two full decodes and
    one ``min(seq, rc_seq)`` per contig."""
    # Reverse complement of every contig in the same flat layout.
    mirrored = np.repeat(offsets[:-1] + offsets[1:] - 1, np.diff(offsets)) - np.arange(codes.size)
    fwd_text, rc_text = decode(codes), decode(3 - codes[mirrored])

    contigs: list[Contig] = []
    bounds = offsets.tolist()
    for cid, d in enumerate(depth.tolist()):
        a, b = bounds[cid], bounds[cid + 1]
        seq, rc_seq = fwd_text[a:b], rc_text[a:b]
        # Canonical orientation: deterministic output regardless of strand.
        contigs.append(Contig(cid=cid, seq=min(seq, rc_seq), depth=d))
    return ContigSet(contigs)


def tasks_from_contig_strings_reference(contig_seqs, candidates) -> TaskSet:
    """Tasks from a ``{cid: seq}`` dict: one join + encode of the strings."""
    cands = list(candidates)
    seqs = [contig_seqs[c.cid] for c in cands]
    # one encode and one reverse complement for the whole contig set; the
    # revcomp of the concatenation holds contig i at the mirrored offsets
    codes = encode("".join(seqs))
    rc = revcomp_codes(codes)
    codes.setflags(write=False)
    rc.setflags(write=False)
    end = np.cumsum([len(s) for s in seqs]).tolist()
    total = end[-1] if end else 0
    tasks: list[ExtensionTask] = []
    for cand, start, stop in zip(cands, [0] + end, end):
        left, right = cand.left, cand.right
        tasks.append(
            ExtensionTask(
                cand.cid, LEFT, rc[total - stop : total - start],
                left.bases, left.quals, left.lengths,
            )
        )
        tasks.append(
            ExtensionTask(
                cand.cid, RIGHT, codes[start:stop],
                right.bases, right.quals, right.lengths,
            )
        )
    return TaskSet(tasks)


def apply_extensions_reference(contig_seqs, extensions) -> dict[int, str]:
    """``revcomp(ext_left) + contig + ext_right`` per cid, as strings."""
    out: dict[int, str] = {}
    for cid, seq in contig_seqs.items():
        ext_l = extensions.get((cid, LEFT), "")
        ext_r = extensions.get((cid, RIGHT), "")
        out[cid] = revcomp(ext_l) + seq + ext_r
    return out
