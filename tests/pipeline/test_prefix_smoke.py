"""Tier-1 miniature of the end-to-end claim for the de Bruijn prefix.

The e2e benchmark shows the array stages' gain on whole runs; this keeps a
silent fall back to per-k-mer or per-pair work from passing CI, a fall
back to one string per contig inside ``run_pipeline``, and one to one
string per extension in local assembly.
"""

import hashlib
import sys

import numpy as np
import pytest
from reference import (
    count_kmers_reference,
    generate_contigs_reference,
    merge_read_pairs_reference,
)

import repro.core.driver  # noqa: F401  (loaded before encode/decode are wrapped)
from repro.pipeline import kmer_counts
from repro.pipeline import pipeline as pipeline_module
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.contigs import Contig


def _smoke_reads():
    rng = np.random.default_rng(2021)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=5000)
    return sample_paired_reads(community, 500, rng)


@pytest.mark.bench_smoke
def test_array_prefix_matches_references_and_is_3x_cheaper(paired_cpu_ratio):
    reads = _smoke_reads()

    want, want_stats = merge_read_pairs_reference(reads)
    merged, stats = merge_read_pairs(reads)
    assert stats == want_stats and stats.n_pairs == 500
    assert np.array_equal(merged.bases, want.bases)
    assert np.array_equal(merged.quals, want.quals)
    assert np.array_equal(merged.offsets, want.offsets)
    assert merged.names == want.names

    classified = analyze_kmers(merged, 21)
    assert 12_000 <= len(classified) <= 20_000
    contigs = generate_contigs(classified)
    assert [(c.cid, c.seq, repr(c.depth)) for c in contigs] == [
        (c.cid, c.seq, repr(c.depth)) for c in generate_contigs_reference(classified)
    ]
    assert len(contigs) > 10

    merge_ratio = paired_cpu_ratio(
        lambda: merge_read_pairs_reference(reads), lambda: merge_read_pairs(reads)
    )
    contig_ratio = paired_cpu_ratio(
        lambda: generate_contigs_reference(classified), lambda: generate_contigs(classified)
    )
    assert merge_ratio >= 3.0, f"merge_read_pairs only {merge_ratio:.1f}x its reference"
    assert contig_ratio >= 3.0, f"generate_contigs only {contig_ratio:.1f}x its reference"


@pytest.mark.bench_smoke
@pytest.mark.parametrize("k", [21, 33])
def test_count_kmers_packs_once(monkeypatch, k):
    """Counting packs the bases once and canonicalises in word space; a
    second ``pack_kmers`` over the reverse-complemented bases (the
    reference's way) fails this pin, whatever the box's timing."""
    merged, _ = merge_read_pairs(_smoke_reads())
    want = count_kmers_reference(merged, k, min_count=2)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return pack_kmers(*args, **kwargs)

    pack_kmers = kmer_counts.pack_kmers
    monkeypatch.setattr(kmer_counts, "pack_kmers", counted)
    got = kmer_counts.count_kmers(merged, k, min_count=2)
    assert calls == [k]
    for name in ("words", "counts", "left_ext", "right_ext"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


#: ``run_pipeline``'s output digest on the smoke reads (the e2e runner's
#: ``result_digest``), from the string-contig pipeline that built 62 and
#: 83 ``Contig`` objects on the way
SMOKE_DIGESTS = {
    (21,): "075dddd9144678bd09cea6c8738b56afa0e6ec049e445301a247ede5116abc7e",
    (21, 33): "88497cdd577d961a7d5029179633591400977b7bc49ba15719f320c423df177f",
}


@pytest.mark.bench_smoke
@pytest.mark.parametrize("k_series", list(SMOKE_DIGESTS))
def test_pipeline_makes_no_contig_objects(monkeypatch, k_series):
    """Contigs stay packed from the de Bruijn graph to the result; only
    output (FASTA, this digest) makes per-contig records."""
    reads = _smoke_reads()
    made = []
    init = Contig.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Contig, "__init__", counted)
    result = run_pipeline(reads, PipelineConfig(k_series=k_series))
    assert len(made) == 0
    monkeypatch.undo()
    assert _smoke_digest(result) == SMOKE_DIGESTS[k_series]


def _smoke_digest(result) -> str:
    h = hashlib.sha256()
    for c in result.contigs:
        h.update(f"C{c.cid}\t{c.seq}\t{c.depth!r}\n".encode())
    for s in result.scaffolds.scaffolds:
        h.update(f"S{s.sid}\t{s.seq}\t{s.contig_ids}\n".encode())
    return h.hexdigest()


@pytest.mark.bench_smoke
@pytest.mark.parametrize("mode", ["cpu", "gpu"])
def test_local_assembly_makes_no_strings(monkeypatch, mode):
    """Extensions stay codes from either engine to the contig gather: no
    ``encode``/``decode`` runs inside ``extend_tasks`` or
    ``apply_extensions`` (56 decodes and one encode per run when they were
    strings), and both modes still give the smoke digest."""
    from repro.sequence import dna

    calls = {"encode": 0, "decode": 0}
    inside = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def marking(fn):
        def wrapper(*args, **kwargs):
            inside.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    for name, fn in (("encode", dna.encode), ("decode", dna.decode)):
        wrapped = counting(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)
    for name in ("extend_tasks", "apply_extensions"):
        monkeypatch.setattr(pipeline_module, name, marking(getattr(pipeline_module, name)))

    result = run_pipeline(
        _smoke_reads(), PipelineConfig(k_series=(21,), local_assembly_mode=mode)
    )
    assert result.local_assembly.n_tasks == 62
    assert calls == {"encode": 0, "decode": 0}
    monkeypatch.undo()
    assert _smoke_digest(result) == SMOKE_DIGESTS[(21,)]
