"""Contig generation: traversing unambiguous de Bruijn paths.

Given the classified k-mer spectrum, this stage emits maximal *UU paths* —
chains of k-mers whose extensions are UNIQUE on both sides and mutually
consistent — each as a contig (a unitig, in assembly terms).  Forks and
dead ends terminate paths; that is deliberate: resolving them is the job
of the *local assembly* stage downstream, which can use read-local context
unavailable to the global graph (§2.3 of the paper).

The stage never walks: it is a fixed sequence of bulk passes over the
packed spectrum (linear-chain contig generation as array operations, after
"Distributed-Memory Parallel Contig Generation", PAPERS.md).

1. **Oriented nodes.**  UU row ``i`` (in spectrum order) is two nodes,
   ``2*i`` (the canonical k-mer as stored) and ``2*i + 1`` (its reverse
   complement); ``v ^ 1`` is the mirror of ``v``.
2. **Edges.**  The right neighbour of a forward node is
   ``kmer[1:] + right_base``; the right neighbour of a mirror node is the
   reverse complement of ``left_base + kmer[:-1]``.  Both blocks are built
   in word space, canonicalised and resolved by one
   :meth:`KmerSpectrum.lookup_many`.  An edge ``v -> w`` survives only if
   it lands on a UU row, is *mutual* (``w``'s left extension points back
   at ``v``: ``next[next[v] ^ 1] ^ 1 == v``) and joins two different rows
   (homopolymer self-loops ``v -> v`` and hairpins ``v -> v ^ 1`` are
   dropped).  What is left is mirror-symmetric with in- and out-degree at
   most one: disjoint paths and cycles, every row on exactly two mirrored
   chains.
3. **Ranks.**  Pointer doubling on the predecessor array gives every node
   its chain head and its distance from it in ``~log2(longest chain)``
   passes.  Nodes that never reach a head lie on cycles; each cycle is cut
   in front of its lowest row held forward (and its mirror at the mirrored
   edge), then ranked like any other path.
4. **Emission.**  Of each mirrored pair the chain whose head id is smaller
   is kept (for a cut cycle: the one starting at its lowest row, forward).
   Components are ordered by their lowest spectrum row; sequences are one
   gather — head k-mer plus the last base of every later node — and depths
   one ``np.add.reduceat`` of counts.

5. **Orientation.**  Each contig takes the smaller of its two
   orientations, chosen in code space; the result is a packed
   :class:`~repro.sequence.contigs.ContigSet`.  Python touches no contig.

Invariants (checked by tests, against the scalar walker kept in
``tests/pipeline/reference.py``):

* every distinct k-mer is emitted in at most one contig;
* output is deterministic: contigs appear in order of their lowest
  spectrum row, ``cid`` numbered after the ``min_contig_len`` filter, each
  in its canonical-smallest orientation;
* each contig's k-mers chain with (k-1)-overlaps by construction.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.kmer_analysis import ClassifiedKmers, ExtVerdict
from repro.sequence.contigs import ContigSet
from repro.sequence.kmer import (
    base_at,
    canonical_rows,
    predecessor_kmers,
    successor_kmers,
    unpack_kmers,
)

__all__ = ["generate_contigs"]


def _mirror(ptr: np.ndarray) -> np.ndarray:
    """Pointer array of the reversed graph, by mirror symmetry: the edge
    ``v -> w`` exists iff ``w ^ 1 -> v ^ 1`` does, so
    ``pred[v] == next[v ^ 1] ^ 1`` (and vice versa); ``-1`` stays ``-1``."""
    swapped = ptr.reshape(-1, 2)[:, ::-1].ravel()
    return np.where(swapped >= 0, swapped ^ 1, -1)


def _uu_successors(classified: ClassifiedKmers, uu: np.ndarray) -> np.ndarray:
    """``next`` pointer over the ``2 * len(uu)`` oriented UU nodes.

    ``next[v]`` is the node reached by extending *v* rightward, or ``-1``
    when that k-mer is absent, not UU, not mutually linked, or the same
    row as *v*.
    """
    spec = classified.spectrum
    k = spec.k
    m = uu.size
    words = spec.words[uu]
    succ = successor_kmers(words, k, classified.right_base[uu])
    pred = predecessor_kmers(words, k, classified.left_base[uu])
    canon, is_rc = canonical_rows(np.concatenate([succ, pred]), k)
    rows = spec.lookup_many(canon)

    local = np.full(len(spec) + 1, -1, dtype=np.int64)  # slot -1: absent
    local[uu] = np.arange(m, dtype=np.int64)
    node = local[rows]
    node = np.where(node >= 0, 2 * node + is_rc, -1)

    nxt = np.empty(2 * m, dtype=np.int64)
    nxt[0::2] = node[:m]
    # right of the mirror node = mirror of the forward node's left neighbour
    nxt[1::2] = np.where(node[m:] >= 0, node[m:] ^ 1, -1)

    ids = np.arange(2 * m, dtype=np.int64)
    back = _mirror(nxt)[nxt]  # pred[next[v]]; garbage where next[v] < 0
    keep = (nxt >= 0) & (back == ids) & ((nxt >> 1) != (ids >> 1))
    return np.where(keep, nxt, -1)


def _rank_chains(prd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain head and distance from it for every node, by pointer doubling.

    Returns ``(head, rank, on_cycle)``.  After round *t* a node's pointer
    is its ``2**t``-th predecessor or its head, so every round resolves at
    least one node of any path that still has unresolved ones; a round
    that resolves nothing therefore leaves only cycle nodes, whose
    ``head``/``rank`` are meaningless.
    """
    ids = np.arange(prd.size, dtype=np.int64)
    is_head = prd < 0
    anc = np.where(is_head, ids, prd)
    rank = (~is_head).astype(np.int64)
    unresolved = int(np.count_nonzero(~is_head[anc]))
    while unresolved:
        rank = rank + rank[anc]
        anc = anc[anc]
        left = int(np.count_nonzero(~is_head[anc]))
        if left == unresolved:
            break
        unresolved = left
    return anc, rank, ~is_head[anc]


def _cut_cycles(prd: np.ndarray, on_cycle: np.ndarray) -> None:
    """Open every cycle, in place, in front of its lowest row held forward.

    The cycle's lowest row is found by min-label doubling over the cycle
    nodes only (labels stop changing once every window spans its cycle).
    Cutting the edge into node ``2 * r`` and its mirror edge (out of
    ``2 * r + 1``) turns the mirrored cycle pair into a mirrored path
    pair, the kept one starting at ``2 * r`` and running rightward.
    """
    cyc = np.nonzero(on_cycle)[0]
    pos = np.empty(prd.size, dtype=np.int64)
    pos[cyc] = np.arange(cyc.size, dtype=np.int64)
    anc = pos[prd[cyc]]
    low = cyc >> 1
    while True:
        lower = np.minimum(low, low[anc])
        if np.array_equal(lower, low):
            break
        low = lower
        anc = anc[anc]
    low.sort()  # distinct lows by run heads: a bare np.unique imports numpy.ma
    heads = 2 * low[np.concatenate(([True], low[1:] != low[:-1]))]
    tails = prd[heads]
    prd[heads] = -1
    prd[tails ^ 1] = -1


def _contig_codes(
    words: np.ndarray, strand: np.ndarray, rank: np.ndarray, n_kmers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat code array of contigs laid out node by node, and its offsets.

    *words*, *strand* and *rank* describe the oriented nodes in contig
    order, ``n_kmers[c]`` of them for contig ``c``, which occupies
    ``codes[offsets[c]:offsets[c + 1]]``.  Every node writes its last base
    (a mirror node: its first base, complemented) at
    ``offsets[c] + k - 1 + rank``; the head k-mers fill the ``k - 1``
    columns in front.
    """
    offsets = np.zeros(n_kmers.size + 1, dtype=np.int64)
    np.cumsum(n_kmers + (k - 1), out=offsets[1:])
    codes = np.empty(int(offsets[-1]), dtype=np.uint8)
    flipped = strand.astype(bool)
    codes[np.repeat(offsets[:-1] + (k - 1), n_kmers) + rank] = np.where(
        flipped, 3 - base_at(words, 0), base_at(words, k - 1)
    )
    is_head = rank == 0
    head_codes = unpack_kmers(words[is_head], k)
    head_flipped = flipped[is_head]
    head_codes[head_flipped] = 3 - head_codes[head_flipped, ::-1]
    codes[offsets[:-1, None] + np.arange(k - 1)] = head_codes[:, : k - 1]
    return codes, offsets


def generate_contigs(
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
    k = classified.k
    if min_contig_len is None:
        min_contig_len = k + 2
    spec = classified.spectrum
    uu = np.nonzero(
        (classified.left_verdict == ExtVerdict.UNIQUE)
        & (classified.right_verdict == ExtVerdict.UNIQUE)
    )[0]
    m = uu.size
    if m == 0:
        return ContigSet()

    prd = _mirror(_uu_successors(classified, uu))
    head, rank, on_cycle = _rank_chains(prd)
    if on_cycle.any():
        _cut_cycles(prd, on_cycle)
        head, rank, _ = _rank_chains(prd)

    # One chain of each mirrored pair: a chain's mirror ends at the mirror
    # of its head, so the two head ids can be compared at the heads.
    heads = np.nonzero(prd < 0)[0]
    keep_chain = np.zeros(2 * m, dtype=bool)
    keep_chain[heads] = heads < head[heads ^ 1]
    kept = np.nonzero(keep_chain[head])[0]  # one node per UU row, row order

    # Components by lowest row (the scalar walker's seed order), nodes by
    # rank inside each.
    lowest = np.full(2 * m, m, dtype=np.int64)
    np.minimum.at(lowest, head[kept], kept >> 1)
    order = np.lexsort((rank[kept], lowest[head[kept]]))
    nodes = kept[order]
    starts = np.nonzero(rank[nodes] == 0)[0]
    n_kmers = np.diff(starts, append=m)

    depth = np.add.reduceat(spec.counts[uu[nodes >> 1]], starts) / n_kmers

    long_enough = n_kmers + (k - 1) >= min_contig_len
    nodes = nodes[np.repeat(long_enough, n_kmers)]
    if nodes.size == 0:
        return ContigSet()
    n_kmers, depth = n_kmers[long_enough], depth[long_enough]

    codes, offsets = _contig_codes(
        spec.words[uu[nodes >> 1]], nodes & 1, rank[nodes], n_kmers, k
    )
    return _canonical_contigs(codes, offsets, depth)


def _canonical_contigs(
    codes: np.ndarray, offsets: np.ndarray, depth: np.ndarray
) -> ContigSet:
    """Contigs over ACGT *codes*, numbered from 0, each as
    ``min(seq, revcomp(seq))``: A<C<G<T orders codes as it orders letters,
    so the first position where the two strands differ decides."""
    lengths = np.diff(offsets)
    # Reverse complement of every contig in the same flat layout.
    mirrored = np.repeat(offsets[:-1] + offsets[1:] - 1, lengths) - np.arange(codes.size)
    rc = 3 - codes[mirrored]
    differ = np.flatnonzero(codes != rc)
    contig_of = np.searchsorted(offsets, differ, side="right") - 1
    first = np.ones(differ.size, dtype=bool)
    first[1:] = contig_of[1:] != contig_of[:-1]
    at = differ[first]
    flip = np.zeros(lengths.size, dtype=bool)
    flip[contig_of[first]] = rc[at] < codes[at]
    return ContigSet.from_arrays(
        np.where(np.repeat(flip, lengths), rc, codes),
        offsets,
        np.arange(lengths.size, dtype=np.int64),
        depth,
    )
