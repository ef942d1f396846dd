"""The array alignment result against the per-row object path.

From the same winner rows, ``materialise_alignment``'s struct of arrays
must reproduce what the object path of ``tests/pipeline/reference.py``
builds, checked in pipeline order: the candidate reads of every contig
end, the extension tasks (``packed_reads``, ``n_reads``), every read's
best placement, the insert-size estimate and the scaffolds.  Hypothesis
drives random paired libraries over random contigs; named cases pin the
corners.  A gc count pins that no step makes an object per row.
"""

import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import (
    build_scaffolds_reference,
    estimate_insert_size_reference,
    materialise_alignment_reference,
    tasks_from_candidates_reference,
)

from repro.core.tasks import tasks_from_candidates
from repro.distributed import harness
from repro.distributed.procrank import procrank_available, ranked_align
from repro.pipeline.alignment import (
    MAX_READS_PER_END,
    PackedSeedIndex,
    align_core,
    align_reads,
    materialise_alignment,
)
from repro.pipeline.contig_generation import generate_contigs
from repro.sequence.contigs import Contig, ContigSet
from repro.pipeline.insert_size import estimate_insert_size
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.pipeline.scaffolding import build_scaffolds
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.dna import random_dna, revcomp
from repro.sequence.read import Read, ReadBatch


def _batch(seqs, rng) -> ReadBatch:
    return ReadBatch.from_reads(
        Read(f"r{i}", s, tuple(rng.integers(2, 42, len(s)).tolist()))
        for i, s in enumerate(seqs)
    )


def _rows(contigs, reads, min_overlap=30):
    return align_core(PackedSeedIndex(contigs), reads, min_overlap=min_overlap)


def assert_matches_object_path(rows, contigs, reads, cap=MAX_READS_PER_END):
    """Every downstream product of *rows*, array path == object path."""
    ref = materialise_alignment_reference(rows, contigs, reads, cap)
    got = materialise_alignment(rows, contigs, reads, cap)
    assert (got.n_reads_aligned, got.n_seed_hits) == (
        ref.n_reads_aligned,
        ref.n_seed_hits,
    )
    assert got.alignments == ref.alignments

    # candidates per end, in order
    assert list(got.candidates) == list(ref.candidates)
    for cid, want in ref.candidates.items():
        have = got.candidates[cid]
        assert have.cid == cid and have.n_reads == want.n_reads
        for side in ("left", "right"):
            w, h = getattr(want, side), getattr(have, side)
            assert len(h) == len(w), (cid, side)
            for f in ("bases", "quals", "lengths"):
                assert np.array_equal(getattr(h, f), getattr(w, f)), (cid, side, f)

    # tasks
    seqs = {c.cid: c.seq for c in contigs}
    want_tasks = tasks_from_candidates_reference(seqs, ref.candidates.values())
    tasks = tasks_from_candidates(contigs, got.candidates.values())
    assert len(tasks) == len(want_tasks)
    for t, w in zip(tasks, want_tasks):
        assert (t.cid, t.side, t.n_reads) == (w.cid, w.side, w.n_reads)
        assert np.array_equal(t.contig, w.contig)
        for a, b in zip(t.packed_reads(), w.packed_reads()):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    # best placements
    want_best = ref.best_by_read()
    best = got.best_by_read()
    assert len(best) == len(reads)
    alns = got.alignments
    assert {
        i: alns[r] for i, r in enumerate(best.row.tolist()) if r >= 0
    } == want_best
    placed = best.row >= 0
    assert np.array_equal(best.cid[placed], got.rows.cid[best.row[placed]])
    assert np.all(best.cid[~placed] == -1)

    # insert estimate and scaffolds
    lengths = reads.lengths()
    assert estimate_insert_size(best, lengths) == estimate_insert_size_reference(
        want_best, lengths
    )
    for insert_mean, support in ((350.0, 1), (300, 2)):
        assert build_scaffolds(
            contigs, best, lengths, insert_mean=insert_mean, min_support=support
        ) == build_scaffolds_reference(
            contigs, want_best, lengths, insert_mean=insert_mean, min_support=support
        )
    return got


@st.composite
def libraries(draw):
    """Random contigs (sparse cids, either strand, some duplicated) and a
    paired library over one genome: variable or equal read lengths, both
    mate orientations, reads shorter than a seed, a few mismatches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    glen = draw(st.integers(400, 900))
    genome = random_dna(glen, rng)
    contigs = []
    for i in range(draw(st.integers(0, 6))):
        a = int(rng.integers(0, glen - 60))
        seq = genome[a : a + int(rng.integers(40, 320))]
        if rng.random() < 0.5:
            seq = revcomp(seq)
        contigs.append(Contig(3 * i + 1, seq))
        if rng.random() < 0.2:  # an exact duplicate: equal matches on two contigs
            contigs.append(Contig(3 * i + 2, seq))
    equal = draw(st.booleans())
    seqs = []
    for _ in range(draw(st.integers(0, 40))):
        l1, l2 = (80, 80) if equal else rng.integers(10, 160, 2).tolist()
        insert = int(rng.integers(max(l1, l2), 400))
        x = int(rng.integers(0, max(glen - insert, 1)))
        r1, r2 = genome[x : x + l1], revcomp(genome[x + insert - l2 : x + insert])
        if rng.random() < 0.5:
            r1, r2 = r2, r1
        if len(r1) and rng.random() < 0.3:
            j = int(rng.integers(0, len(r1)))
            r1 = r1[:j] + ("A" if r1[j] != "A" else "C") + r1[j + 1 :]
        seqs += [r1, r2]
    cap = draw(st.sampled_from([0, 1, 2, 3, MAX_READS_PER_END]))
    min_overlap = draw(st.sampled_from([20, 30]))
    return ContigSet(contigs), _batch(seqs, rng), cap, min_overlap


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(libraries())
def test_random_libraries_match_object_path(case):
    contigs, reads, cap, min_overlap = case
    rows = _rows(contigs, reads, min_overlap)
    assert_matches_object_path(rows, contigs, reads, cap)


class TestNamedCases:
    @pytest.fixture
    def genome(self, rng):
        return random_dna(900, rng)

    def test_empty_rows(self, genome, rng):
        contigs = ContigSet([Contig(0, genome[200:400])])
        for reads in (_batch([], rng), _batch([random_dna(90, rng)] * 4, rng)):
            rows = _rows(contigs, reads)
            assert len(rows) == 0
            got = assert_matches_object_path(rows, contigs, reads)
            assert got.candidates[0].n_reads == 0
            assert np.all(got.best_by_read().row == -1)

    def test_every_read_reverse_complemented(self, genome, rng):
        contigs = ContigSet([Contig(0, genome[200:400]), Contig(1, genome[500:700])])
        reads = _batch(
            [revcomp(genome[s : s + 100]) for s in range(150, 700, 23)], rng
        )
        rows = _rows(contigs, reads)
        assert len(rows) and rows.is_rc.all()
        got = assert_matches_object_path(rows, contigs, reads)
        assert len(got.candidates[0].left) and len(got.candidates[1].right)

    def test_equal_matches_on_two_contigs(self, genome, rng):
        contigs = ContigSet([Contig(4, genome[200:400]), Contig(2, genome[200:400])])
        reads = _batch([genome[s : s + 100] for s in range(150, 360, 30)], rng)
        rows = _rows(contigs, reads)
        got = assert_matches_object_path(rows, contigs, reads)
        best = got.best_by_read()
        # ties go to the first row in emission order
        assert np.array_equal(best.cid, got.rows.cid[got.rows.seq_in_read == 0])

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_small_caps(self, genome, rng, cap):
        contigs = ContigSet([Contig(0, genome[200:400])])
        reads = _batch([genome[s : s + 100] for s in range(110, 380, 9)], rng)
        got = assert_matches_object_path(_rows(contigs, reads), contigs, reads, cap)
        assert len(got.candidates[0].left) == len(got.candidates[0].right) == cap

    def test_read_longer_than_contig_recruited_to_both_ends(self, genome, rng):
        contigs = ContigSet([Contig(0, genome[300:340])])
        reads = _batch([genome[280:360], revcomp(genome[285:365])], rng)
        rows = _rows(contigs, reads, min_overlap=20)
        got = assert_matches_object_path(rows, contigs, reads)
        cand = got.candidates[0]
        assert len(cand.left) == len(cand.right) == 2
        # the left end holds each read's reverse complement of the right's
        assert got.cand_read.tolist() == [1, 2, 0, 3]

    def test_contig_with_no_candidates(self, genome, rng):
        unrelated = random_dna(150, rng)
        contigs = ContigSet([Contig(0, genome[200:400]), Contig(9, unrelated)])
        reads = _batch([genome[s : s + 100] for s in range(150, 400, 25)], rng)
        got = assert_matches_object_path(_rows(contigs, reads), contigs, reads)
        assert got.candidates[9].n_reads == 0 and got.candidates[0].n_reads > 0


@pytest.fixture(scope="module")
def community_reads():
    """The tier-1 local-assembly smoke input (seed 17): contigs and reads."""
    rng = np.random.default_rng(17)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=5000)
    reads = sample_paired_reads(community, 500, rng)
    merged, _ = merge_read_pairs(reads)
    return generate_contigs(analyze_kmers(merged, 21)), reads


@pytest.mark.parametrize("transport", ["procrank", "inproc"])
@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_ranked_align_matches_object_path(
    community_reads, monkeypatch, n_ranks, transport
):
    contigs, reads = community_reads
    if transport == "inproc":
        monkeypatch.setattr(harness, "procrank_available", lambda: False)
    elif not procrank_available():
        pytest.skip("needs fork + shared memory")
    aln, _, report = ranked_align(contigs, reads, n_ranks)
    forked = transport == "procrank" and n_ranks > 1
    assert report.mode == ("procrank" if forked else "inproc")
    single = assert_matches_object_path(_rows(contigs, reads), contigs, reads)
    for f in ("cids", "end_start", "cand_read", "cand_bases", "cand_quals"):
        assert np.array_equal(getattr(aln, f), getattr(single, f)), f
    assert np.array_equal(aln.cand_lengths, single.cand_lengths)
    assert aln.alignments == single.alignments


def test_pipeline_tasks_are_read_only(community_reads):
    """Tasks are views of buffers shared with their neighbours and the
    alignment result, so a write into one must raise."""
    contigs, reads = community_reads
    aln = align_reads(contigs, reads)
    tasks = tasks_from_candidates(contigs, aln.candidates.values())
    for side in (0, 1):
        t = next(t for t in tasks if t.side == side and t.n_reads)
        for a in (t.contig, *t.packed_reads()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


def _objects_made(contigs, reads) -> int:
    """gc-tracked objects alive after ``align_reads`` + task building."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        aln = align_reads(contigs, reads)
        tasks = tasks_from_candidates(contigs, aln.candidates.values())
        made = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(tasks) == 2 * len(contigs)
    return made


def test_objects_grow_with_contigs_not_rows(community_reads):
    contigs, reads = community_reads
    doubled = ReadBatch.concat([reads, reads])
    rows = len(_rows(contigs, reads))
    assert rows > 10 * len(contigs)  # a per-row object would dominate
    made = _objects_made(contigs, reads)
    made2 = _objects_made(contigs, doubled)
    assert abs(made2 - made) <= 20, (made, made2)
    assert made <= 10 * len(contigs) + 100, (made, len(contigs), rows)


@pytest.mark.bench_smoke
def test_array_result_matches_object_path_and_is_4x_cheaper(
    community_reads, paired_cpu_ratio
):
    contigs, reads = community_reads
    rows = _rows(contigs, reads)
    got = assert_matches_object_path(rows, contigs, reads)
    assert sum(c.n_reads for c in got.candidates.values()) >= 500
    seqs = {c.cid: c.seq for c in contigs}

    def objects():
        aln = materialise_alignment_reference(rows, contigs, reads)
        for t in tasks_from_candidates_reference(seqs, aln.candidates.values()):
            t.packed_reads()
        aln.best_by_read()

    def arrays():
        aln = materialise_alignment(rows, contigs, reads)
        for t in tasks_from_candidates(contigs, aln.candidates.values()):
            t.packed_reads()
        aln.best_by_read()

    ratio = paired_cpu_ratio(objects, arrays)
    assert ratio >= 4.0, f"array alignment result only {ratio:.1f}x the object path"
