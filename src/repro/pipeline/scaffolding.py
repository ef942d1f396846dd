"""Scaffolding stage: stitch contigs with paired-end links.

The last stage of the pipeline (Fig 1, "contig-contig scaffolds").  Mate
pairs whose two reads place on *different* contigs witness that those
contigs are adjacent in the underlying genome; enough witnesses in a
consistent orientation justify joining the contigs across an estimated gap.

Conventions:

* A read aligned forward (``is_rc=False``) on contig *C* points toward and
  links *C*'s **right** end; a reverse-complement alignment links the
  **left** end (its mate lies beyond that end).
* An edge needs ``min_support`` independent pairs.
* Any contig end touched by two *different* edges is ambiguous and all its
  edges are dropped (MetaHipMer's scaffolder is similarly conservative —
  wrong joins are worse than missed joins).
* Gap size is the median of per-pair estimates
  ``insert - overhang_a - overhang_b``; non-positive gaps join with a
  single ``N`` (the true overlap is unknown without another alignment).

Link collection is array passes over the best-placement table's mate
columns; only the chain walk visits edges one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pipeline.alignment import BestPlacements
from repro.sequence.contigs import ContigSet
from repro.sequence.dna import revcomp

__all__ = ["Scaffold", "ScaffoldingResult", "build_scaffolds", "LEFT", "RIGHT"]

LEFT = 0
RIGHT = 1

#: (cid, end) node in the scaffold graph.
End = tuple[int, int]


@dataclass(frozen=True)
class Scaffold:
    """A chain of oriented contigs joined across gaps."""

    sid: int
    seq: str
    contig_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.seq)


@dataclass
class ScaffoldingResult:
    scaffolds: list[Scaffold]
    n_links_considered: int
    n_edges_kept: int
    n_ambiguous_ends: int

    def total_bases(self) -> int:
        return sum(len(s) for s in self.scaffolds)


def build_scaffolds(
    contigs: ContigSet,
    best_alignments: BestPlacements,
    read_lengths: np.ndarray,
    insert_mean: float = 350.0,
    min_support: int = 2,
) -> ScaffoldingResult:
    """Join contigs using mate-pair evidence.

    Parameters
    ----------
    contigs:
        Input contigs (post local assembly).
    best_alignments:
        Best placement per *original* (paired, interleaved) read index
        (:meth:`AlignmentResult.best_by_read
        <repro.pipeline.alignment.AlignmentResult.best_by_read>`).
    read_lengths:
        Lengths of the original reads (for overhang estimates).
    insert_mean:
        Library insert size used for gap estimation.
    min_support:
        Minimum independent pairs to keep an edge.
    """
    n_pairs = int(read_lengths.size) // 2
    cid_a, cid_b, off_a, off_b, rc_a, rc_b = best_alignments.mates(n_pairs)
    len_a, len_b = read_lengths[: 2 * n_pairs].reshape(n_pairs, 2).T

    # -- collect links: one per pair whose mates sit on different contigs ----
    link = (cid_a >= 0) & (cid_b >= 0) & (cid_a != cid_b)
    n_links = int(np.count_nonzero(link))
    contig_len = contigs.lengths_by_cid()

    def node_and_overhang(cid, off, rc, rlen):
        """Linked end as node ``2 * cid + end`` (a forward read links the
        right end, a reverse one the left), and the distance from the
        read's leading edge to that end."""
        cid, off, rc, rlen = cid[link], off[link], rc[link], rlen[link]
        overhang = np.where(rc, off + rlen, contig_len[cid] - off)
        return 2 * cid + np.where(rc, LEFT, RIGHT), np.maximum(overhang, 0)

    node_a, oh_a = node_and_overhang(cid_a, off_a, rc_a, len_a)
    node_b, oh_b = node_and_overhang(cid_b, off_b, rc_b, len_b)
    lo, hi = np.minimum(node_a, node_b), np.maximum(node_a, node_b)
    # int() of the float estimate truncates toward zero, as astype does
    gaps = (insert_mean - oh_a - oh_b).astype(np.int64)

    # -- edges: node pairs with min_support links; gap = median estimate ----
    order = np.lexsort((gaps, hi, lo))
    lo, hi, gaps = lo[order], hi[order], gaps[order]
    head = np.ones(lo.size, dtype=bool)
    head[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    start = np.nonzero(head)[0]
    count = np.diff(np.append(start, lo.size))
    edge = count >= min_support
    e_start, e_count = start[edge], count[edge]
    e_lo, e_hi = lo[e_start], hi[e_start]
    e_gap = (
        (gaps[e_start + (e_count - 1) // 2] + gaps[e_start + e_count // 2]) / 2
    ).astype(np.int64)

    # -- drop ambiguous ends: any end on two different edges ----------------
    ends, degree = np.unique(np.concatenate([e_lo, e_hi]), return_counts=True)
    ambiguous = ends[degree > 1]
    keep = ~(np.isin(e_lo, ambiguous) | np.isin(e_hi, ambiguous))

    # -- walk chains -------------------------------------------------------------
    neighbor: dict[End, tuple[End, int]] = {}
    for a, b, g in zip(
        e_lo[keep].tolist(), e_hi[keep].tolist(), e_gap[keep].tolist()
    ):
        ea, eb = divmod(a, 2), divmod(b, 2)
        neighbor[ea] = (eb, g)
        neighbor[eb] = (ea, g)

    scaffolds: list[Scaffold] = []
    visited: set[int] = set()
    sid = 0

    # scaffold text: slices of the buffer, decoded once
    seqs = dict(zip(contigs.cids.tolist(), contigs.sequences()))

    def oriented_seq(cid: int, entry_end: int) -> str:
        """Contig sequence as traversed entering at *entry_end*."""
        seq = seqs[cid]
        return seq if entry_end == LEFT else revcomp(seq)

    for start_cid in sorted(seqs):
        if start_cid in visited:
            continue
        # Find the chain start: walk "left" until a free end or a cycle.
        cid, entry = start_cid, LEFT
        seen: set[int] = {cid}
        while (cid, entry) in neighbor:
            (ncid, nend), _ = neighbor[(cid, entry)]
            if ncid in seen:
                break  # circular chain; start here arbitrarily
            seen.add(ncid)
            cid, entry = ncid, 1 - nend  # continue out the other end
        # Now traverse rightward from (cid, entry).
        parts: list[str] = []
        ids: list[int] = []
        while True:
            visited.add(cid)
            parts.append(oriented_seq(cid, entry))
            ids.append(cid)
            exit_end = 1 - entry
            nxt = neighbor.get((cid, exit_end))
            if nxt is None:
                break
            (ncid, nend), gap = nxt
            if ncid in visited:
                break
            parts.append("N" * max(gap, 1))
            cid, entry = ncid, nend
        scaffolds.append(Scaffold(sid=sid, seq="".join(parts), contig_ids=tuple(ids)))
        sid += 1

    return ScaffoldingResult(
        scaffolds=scaffolds,
        n_links_considered=n_links,
        n_edges_kept=int(np.count_nonzero(keep)),
        n_ambiguous_ends=int(ambiguous.size),
    )
