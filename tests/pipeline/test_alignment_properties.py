"""Property-based tests for the alignment stage's recruitment guarantees."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pipeline.alignment import align_reads
from repro.pipeline.contigs import Contig, ContigSet
from repro.sequence.dna import decode, random_dna, revcomp
from repro.sequence.read import ReadBatch


@st.composite
def genome_and_read(draw):
    """A genome, a contig window inside it, and a read overlapping an end."""
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    genome = random_dna(500, rng)
    c_start = draw(st.integers(100, 200))
    c_end = draw(st.integers(c_start + 120, 420))
    side = draw(st.sampled_from(["left", "right"]))
    rl = draw(st.integers(60, 100))
    overhang = draw(st.integers(10, rl - 40))
    if side == "right":
        r_start = c_end - (rl - overhang)
    else:
        r_start = c_start - overhang
    r_start = max(0, min(r_start, len(genome) - rl))
    read = genome[r_start : r_start + rl]
    flip = draw(st.booleans())
    return genome, (c_start, c_end), side, read, flip


class TestRecruitmentProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(genome_and_read())
    def test_end_reads_recruited_with_correct_orientation(self, case):
        genome, (c_start, c_end), side, read, flip = case
        contig_seq = genome[c_start:c_end]
        contigs = ContigSet([Contig(0, contig_seq)])
        query = revcomp(read) if flip else read
        res = align_reads(contigs, ReadBatch.from_strings([query]), min_overlap=30)
        cand = res.candidates[0]

        # determine the true overhang directions
        hangs_left = False
        hangs_right = False
        gpos = genome.find(read)
        if gpos < c_start:
            hangs_left = True
        if gpos + len(read) > c_end:
            hangs_right = True

        if hangs_right and not hangs_left:
            assert len(cand.right) == 1
            # stored read is oriented to the contig strand
            assert decode(cand.right.bases) == read
        if hangs_left and not hangs_right:
            assert len(cand.left) == 1
            # stored reverse-complemented for the rc(contig) walk
            assert decode(cand.left.bases) == revcomp(read)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(genome_and_read())
    def test_interior_reads_never_recruited(self, case):
        genome, (c_start, c_end), _, _, _ = case
        contig_seq = genome[c_start:c_end]
        # build a read fully inside the contig
        inner = contig_seq[20:90]
        contigs = ContigSet([Contig(0, contig_seq)])
        res = align_reads(contigs, ReadBatch.from_strings([inner]), min_overlap=30)
        assert res.candidates[0].n_reads == 0
