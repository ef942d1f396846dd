"""Reference-based assembly validation (metaQUAST-style, k-mer flavoured).

The MetaHipMer papers evaluate assembly quality against references
(genome fraction, misassemblies).  For synthetic communities we know the
references exactly, so this module provides:

* per-genome **recovery** (fraction of reference k-mers present in the
  contigs);
* per-contig **assignment** (which genome the contig's k-mers vote for)
  and **chimera detection** — a contig whose windows confidently vote for
  two *different* genomes is a misassembly (the exact failure local
  assembly could introduce if it walked across organisms; the tests show
  it does not).

K-mers shared between genomes (planted shared fragments / conserved
regions) never vote for an assignment, but do count toward each owner's
recovery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.sequence.kmer import canonical, iter_kmers

__all__ = ["ContigEvaluation", "ReferenceReport", "evaluate_against_references"]


@dataclass(frozen=True)
class ContigEvaluation:
    """Verdict for one contig."""

    cid: int
    length: int
    #: genome index the contig (predominantly) belongs to; None = unmapped
    genome: int | None
    #: fraction of the contig's k-mers found in any reference
    known_fraction: float
    #: True when confident windows vote for >= 2 different genomes
    chimeric: bool


@dataclass
class ReferenceReport:
    """Whole-assembly evaluation against the reference genomes."""

    evaluations: list[ContigEvaluation]
    genome_recovery: dict[int, float]

    @property
    def n_contigs(self) -> int:
        return len(self.evaluations)

    @property
    def n_chimeric(self) -> int:
        return sum(1 for e in self.evaluations if e.chimeric)

    @property
    def n_unmapped(self) -> int:
        return sum(1 for e in self.evaluations if e.genome is None)

    def contigs_of(self, genome: int) -> list[ContigEvaluation]:
        return [e for e in self.evaluations if e.genome == genome]

    def summary(self) -> str:
        rec = ", ".join(
            f"g{g}={100 * f:.1f}%" for g, f in sorted(self.genome_recovery.items())
        )
        return (
            f"{self.n_contigs} contigs: {self.n_chimeric} chimeric, "
            f"{self.n_unmapped} unmapped; recovery: {rec}"
        )


def _build_kmer_owners(genome_seqs: list[str], k: int) -> dict[str, tuple[int, ...]]:
    """canonical k-mer -> tuple of owning genome indices."""
    owners: dict[str, tuple[int, ...]] = {}
    for gi, seq in enumerate(genome_seqs):
        for km in iter_kmers(seq, k):
            c = canonical(km)
            cur = owners.get(c)
            if cur is None:
                owners[c] = (gi,)
            elif cur[-1] != gi:
                owners[c] = cur + (gi,)
    return owners


def evaluate_against_references(
    contigs,
    genome_seqs: list[str],
    k: int = 31,
    window: int = 200,
    min_window_votes: int = 5,
) -> ReferenceReport:
    """Evaluate a contig collection against reference genome sequences.

    Parameters
    ----------
    contigs:
        Iterable of objects with ``cid`` and ``seq`` attributes
        (:class:`repro.sequence.contigs.ContigSet` fits) or ``(cid, seq)``
        tuples.
    genome_seqs:
        The reference sequences (index = genome id in the report).
    k:
        Evaluation k-mer size.
    window:
        Contig window length (in k-mers) for chimera voting.
    min_window_votes:
        Unambiguous votes a window needs before its verdict counts.
    """
    owners = _build_kmer_owners(genome_seqs, k)
    recovered: list[set[str]] = [set() for _ in genome_seqs]
    genome_totals = [
        len({canonical(m) for m in iter_kmers(seq, k)}) for seq in genome_seqs
    ]

    evaluations: list[ContigEvaluation] = []
    for item in contigs:
        cid, seq = (item.cid, item.seq) if hasattr(item, "cid") else item
        kmers = [canonical(m) for m in iter_kmers(seq, k)]
        n_known = 0
        window_verdicts: list[int] = []
        n_windows = max(1, (len(kmers) + window - 1) // window) if kmers else 0
        for w in range(n_windows):
            votes = np.zeros(len(genome_seqs), dtype=np.int64)
            for km in kmers[w * window : (w + 1) * window]:
                own = owners.get(km)
                if own is None:
                    continue
                n_known += 1
                for gi in own:
                    recovered[gi].add(km)
                if len(own) == 1:
                    votes[own[0]] += 1
            if votes.sum() >= min_window_votes:
                window_verdicts.append(int(np.argmax(votes)))

        if not window_verdicts:
            genome, chimeric = None, False
        else:
            counts = Counter(window_verdicts)
            genome = counts.most_common(1)[0][0]
            chimeric = len(counts) >= 2
        evaluations.append(
            ContigEvaluation(
                cid=cid,
                length=len(seq),
                genome=genome,
                known_fraction=n_known / len(kmers) if kmers else 0.0,
                chimeric=chimeric,
            )
        )

    recovery = {
        gi: (len(recovered[gi]) / genome_totals[gi] if genome_totals[gi] else 0.0)
        for gi in range(len(genome_seqs))
    }
    return ReferenceReport(evaluations=evaluations, genome_recovery=recovery)
