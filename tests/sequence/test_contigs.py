"""The packed contig store: layout, validation and the per-record view."""

import numpy as np
import pytest

from repro.sequence.contigs import Contig, ContigSet
from repro.sequence.dna import encode

CONTIGS = [Contig(7, "ACGTAC", 3.5), Contig(2, "GG", 1.0), Contig(11, "TTTAN", 0.25)]


def _arrays(**override):
    base = ContigSet(CONTIGS)
    arrays = dict(
        codes=base.codes, offsets=base.offsets, cids=base.cids, depths=base.depths
    )
    arrays.update(override)
    return arrays


class TestLayout:
    def test_packs_records(self):
        cs = ContigSet(CONTIGS)
        assert cs.codes.tolist() == encode("ACGTACGGTTTAN").tolist()
        assert cs.offsets.tolist() == [0, 6, 8, 13]
        assert cs.cids.tolist() == [7, 2, 11]
        assert cs.depths.tolist() == [3.5, 1.0, 0.25]
        assert (cs.codes.dtype, cs.offsets.dtype, cs.cids.dtype, cs.depths.dtype) == (
            np.uint8,
            np.int64,
            np.int64,
            np.float64,
        )

    def test_empty(self):
        cs = ContigSet()
        assert len(cs) == 0 and cs.total_bases() == 0
        assert list(cs) == [] and cs.sequences() == []
        assert cs.offsets.tolist() == [0]
        assert cs.lengths_by_cid().size == 0

    def test_accessors(self):
        cs = ContigSet(CONTIGS)
        assert len(cs) == 3 and cs.total_bases() == 13
        assert list(cs) == CONTIGS
        assert cs[1] == CONTIGS[1] and cs[-1] == CONTIGS[-1]
        with pytest.raises(IndexError):
            cs[3]
        assert cs.lengths().tolist() == [6, 2, 5]
        assert cs.sequences() == [c.seq for c in CONTIGS]
        assert list(cs.items()) == [(c.cid, c.seq) for c in CONTIGS]
        by_cid = cs.lengths_by_cid()
        assert by_cid.size == 12
        assert (by_cid[7], by_cid[2], by_cid[11]) == (6, 2, 5)

    def test_from_arrays_takes_arrays_as_they_are(self):
        arrays = _arrays()
        cs = ContigSet.from_arrays(**arrays)
        for name in ("codes", "offsets", "cids", "depths"):
            assert getattr(cs, name) is arrays[name]
        assert list(cs) == CONTIGS


class TestValidation:
    @pytest.mark.parametrize(
        "override, match",
        [
            ({"offsets": np.array([0, 6, 8])}, "n \\+ 1 offsets"),
            ({"offsets": np.array([1, 6, 8, 13])}, "start at 0"),
            ({"offsets": np.array([0, 6, 8, 12])}, "end at len"),
            ({"offsets": np.array([0, 9, 8, 13])}, "non-decreasing"),
            ({"depths": np.ones(2)}, "n depths"),
            ({"cids": np.array([7, 7, 11])}, "unique and non-negative"),
            ({"cids": np.array([7, -1, 11])}, "unique and non-negative"),
            ({"codes": np.array([0] * 12 + [5], dtype=np.uint8)}, "ACGTN"),
            ({"codes": np.zeros((13, 1), dtype=np.uint8)}, "1-D codes"),
        ],
    )
    def test_rejects(self, override, match):
        with pytest.raises(ValueError, match=match):
            ContigSet.from_arrays(**_arrays(**override))

    def test_records_are_validated_too(self):
        with pytest.raises(ValueError, match="unique and non-negative"):
            ContigSet([Contig(1, "A"), Contig(1, "C")])
