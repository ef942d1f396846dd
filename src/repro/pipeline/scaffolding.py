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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.pipeline.alignment import ReadAlignment
from repro.pipeline.contigs import ContigSet
from repro.pipeline.insert_size import median
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


def _link_end(aln: ReadAlignment) -> int:
    """Which end of the contig the aligned read's mate lies beyond."""
    return RIGHT if not aln.is_rc else LEFT


def _overhang(aln: ReadAlignment, contig_len: int, read_len: int) -> int:
    """Distance from the read's leading edge to the linked contig end."""
    if _link_end(aln) == RIGHT:
        return max(contig_len - aln.offset, 0)
    return max(aln.offset + read_len, 0)


def build_scaffolds(
    contigs: ContigSet,
    best_alignments: dict[int, ReadAlignment],
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
        Best placement per *original* (paired, interleaved) read index.
    read_lengths:
        Lengths of the original reads (for overhang estimates).
    insert_mean:
        Library insert size used for gap estimation.
    min_support:
        Minimum independent pairs to keep an edge.
    """
    by_id = contigs.by_id()
    contig_len = {cid: len(c.seq) for cid, c in by_id.items()}

    # -- collect edges -------------------------------------------------------
    support: dict[tuple[End, End], list[int]] = defaultdict(list)
    n_links = 0
    n_pairs = int(read_lengths.size) // 2
    for p in range(n_pairs):
        a = best_alignments.get(2 * p)
        b = best_alignments.get(2 * p + 1)
        if a is None or b is None or a.cid == b.cid:
            continue
        n_links += 1
        end_a: End = (a.cid, _link_end(a))
        end_b: End = (b.cid, _link_end(b))
        key = (end_a, end_b) if end_a <= end_b else (end_b, end_a)
        gap = int(
            insert_mean
            - _overhang(a, contig_len[a.cid], int(read_lengths[2 * p]))
            - _overhang(b, contig_len[b.cid], int(read_lengths[2 * p + 1]))
        )
        support[key].append(gap)

    edges = {k: v for k, v in support.items() if len(v) >= min_support}

    # -- drop ambiguous ends -----------------------------------------------------
    end_degree: dict[End, int] = defaultdict(int)
    for (ea, eb) in edges:
        end_degree[ea] += 1
        end_degree[eb] += 1
    ambiguous = {e for e, d in end_degree.items() if d > 1}
    kept = {
        k: int(median(v))
        for k, v in edges.items()
        if k[0] not in ambiguous and k[1] not in ambiguous
    }

    # -- walk chains -------------------------------------------------------------
    neighbor: dict[End, tuple[End, int]] = {}
    for (ea, eb), gap in kept.items():
        neighbor[ea] = (eb, gap)
        neighbor[eb] = (ea, gap)

    scaffolds: list[Scaffold] = []
    visited: set[int] = set()
    sid = 0

    def oriented_seq(cid: int, entry_end: int) -> str:
        """Contig sequence as traversed entering at *entry_end*."""
        seq = by_id[cid].seq
        return seq if entry_end == LEFT else revcomp(seq)

    for start_cid in sorted(by_id):
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
        n_edges_kept=len(kept),
        n_ambiguous_ends=len(ambiguous),
    )
