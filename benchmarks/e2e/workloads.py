"""The benchmark's datasets and workloads.

Imported by the runner, which must never import ``repro``, and by the
children, which do — so every ``repro`` import lives inside a function.

A *dataset* is one FASTQ plus the reference FASTA of the community it was
sampled from.  The community and a pool of read pairs are pinned by
``community_seed``; ``--seed`` perturbs that sequencing run: it keeps a
random ``KEEP_FRACTION`` of the pool, in a random order.  Anything stronger
was measured and rejected (README, "What the seed changes"): assembly of
inputs this small is chaotic, so redrawing the reads moves ``cpu_user_s``
by 9-18% and ``contig_n50`` by 15-21% between seeds, and redrawing the
community by far more, which would hide any change to the program.

A *workload* is a dataset run through ``run_pipeline`` with one
``PipelineConfig``; the ``why`` is the reason it is in the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path


#: share of the pinned pool of pairs that one ``--seed`` keeps
KEEP_FRACTION = 0.98


@dataclass(frozen=True)
class Dataset:
    name: str
    kind: str  # "arctic" | "wa" | "even"
    n_genomes: int
    genome_length: int
    pairs: int
    community_seed: int

    def scaled(self, factor: float) -> "Dataset":
        """Same generator, smaller input (the ``--check`` self-test)."""
        return replace(
            self,
            # Community.generate varies lengths by 25%; GenomeSpec needs >= 1000
            genome_length=max(1500, int(self.genome_length * factor)),
            pairs=max(200, int(self.pairs * factor)),
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    #: ``PipelineConfig`` overrides (JSON-serialisable)
    config: dict = field(default_factory=dict)
    #: sanity bands for the pinned community at full size: an output
    #: outside them means the generator or the assembler is broken, not
    #: that a change made the assembly a little better or worse
    genome_fraction_band: tuple[float, float] = (0.0, 1.0)
    contig_n50_band: tuple[int, int] = (1, 10**9)
    #: another workload whose output digest must equal this one's
    same_output_as: str | None = None


DATASETS = {
    d.name: d
    for d in (
        Dataset("arctic", "arctic", n_genomes=4, genome_length=4_500,
                pairs=1_350, community_seed=2021),
        Dataset("wa_lowcov", "wa", n_genomes=24, genome_length=3_600,
                pairs=1_080, community_seed=2021),
        Dataset("even", "even", n_genomes=6, genome_length=8_000,
                pairs=2_400, community_seed=2021),
    )
}

WORKLOADS = (
    Workload(
        "arctic_cpu",
        "Fig 2a: default config, every stage matters and CPU local assembly "
        "is the largest slice; a cpu_local_assembly change shows here only",
        "arctic",
        genome_fraction_band=(0.93, 1.0),
        contig_n50_band=(240, 420),
    ),
    Workload(
        "arctic_gpu",
        "Fig 2b: same FASTQ through core/driver + gpusim, which carry most "
        "of the run; output must equal arctic_cpu (identical extensions)",
        "arctic",
        config={"local_assembly_mode": "gpu"},
        genome_fraction_band=(0.93, 1.0),
        contig_n50_band=(240, 420),
        same_output_as="arctic_cpu",
    ),
    Workload(
        "wa_lowcov_k2",
        "graph-bound: 40 skewed genomes, two k rounds; contig generation and "
        "k-mer analysis dominate and the low-abundance tail caps recovery",
        "wa_lowcov",
        config={"k_series": [21, 33]},
        genome_fraction_band=(0.33, 0.50),
        contig_n50_band=(215, 380),
    ),
    Workload(
        "even_ranks2",
        "even 15x community with kmer_ranks=2, aln_ranks=2: the "
        "read-proportional stages run through procrank's forks and exchange",
        "even",
        config={"kmer_ranks": 2, "aln_ranks": 2},
        genome_fraction_band=(0.96, 1.0),
        contig_n50_band=(640, 1130),
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}")


def build_community(ds: Dataset):
    """The dataset's pinned community (same for every ``--seed``)."""
    import numpy as np
    from repro.sequence import (
        Community,
        CommunityDesign,
        GenomeSpec,
        arcticsynth_like,
        wa_like,
    )

    rng = np.random.default_rng(ds.community_seed)
    if ds.kind == "arctic":
        return arcticsynth_like(rng, ds.n_genomes, ds.genome_length)
    if ds.kind == "wa":
        return wa_like(rng, ds.n_genomes, ds.genome_length)
    if ds.kind == "even":
        design = CommunityDesign(
            n_genomes=ds.n_genomes,
            genome_spec=GenomeSpec(
                length=ds.genome_length, repeat_fraction=0.03, shared_fraction=0.02
            ),
            abundance_sigma=0.0,
        )
        return Community.generate(design, rng)
    raise ValueError(f"unknown dataset kind {ds.kind!r}")


def generate(ds: Dataset, seed: int, out_dir: Path) -> dict:
    """Write ``reads.fastq``, ``refs.fasta`` and ``meta.json`` for *ds*."""
    import numpy as np
    from repro.sequence import sample_paired_reads, write_fasta
    from repro.sequence.fastq import save_read_batch

    community = build_community(ds)
    pool_pairs = round(ds.pairs / KEEP_FRACTION)
    pool = sample_paired_reads(
        community, pool_pairs, np.random.default_rng([ds.community_seed, 1])
    )
    kept = np.random.default_rng(seed).permutation(pool_pairs)[: ds.pairs]
    reads = pool.subset(np.stack([2 * kept, 2 * kept + 1], axis=1).ravel())
    out_dir.mkdir(parents=True, exist_ok=True)
    save_read_batch(out_dir / "reads.fastq", reads)
    write_fasta(out_dir / "refs.fasta", [(g.name, g.seq) for g in community.genomes])
    meta = {
        "dataset": ds.name,
        "seed": seed,
        "reads": len(reads),
        "bases": int(reads.offsets[-1]),
        "genomes": len(community.genomes),
        "genome_bases": community.total_genome_length,
    }
    (out_dir / "meta.json").write_text(json.dumps(meta))
    return meta
