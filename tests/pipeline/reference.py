"""Scalar references for the two array-built de Bruijn prefix stages.

The k-mer-string walker (``KmerGraph``, ``_walk_right``, the seed loop) and
the per-pair merge loop, moved here verbatim from ``repro.pipeline`` when
``generate_contigs`` and ``merge_read_pairs`` were rebuilt as bulk array
passes.  They define the contract: the array stages must reproduce these
bit for bit (``cid``, ``seq``, ``repr(depth)``, order; ``bases``, ``quals``,
``offsets``, ``names``, ``paired``, ``MergeStats``).
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.contigs import Contig, ContigSet
from repro.pipeline.kmer_analysis import ClassifiedKmers, ExtVerdict
from repro.pipeline.merge_reads import MergeStats, find_overlap
from repro.sequence.dna import BASES, revcomp, revcomp_codes
from repro.sequence.kmer import unpack_kmers
from repro.sequence.read import ReadBatch

__all__ = ["KmerGraph", "generate_contigs_reference", "merge_read_pairs_reference"]

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
