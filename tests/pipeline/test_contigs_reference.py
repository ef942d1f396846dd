"""The packed contig store against the string contigs it replaced.

``generate_contigs``' canonical orientation, ``tasks_from_candidates`` and
``apply_extensions`` now read and write :class:`ContigSet` arrays; the
string versions are the oracles in ``tests/pipeline/reference.py``.
Hypothesis drives random contig sets (unsorted, sparse cids; palindromes;
length-1 contigs; missing, empty and shuffled extension rows) and named
cases pin the corners.
The round trip ``list[Contig]`` ↔ ``ContigSet`` ↔ checkpoint arrays closes
the loop.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import (
    apply_extensions_reference,
    canonical_contigs_reference,
    tasks_from_contig_strings_reference,
)

from repro.core.tasks import (
    LEFT,
    RIGHT,
    ExtensionSet,
    apply_extensions,
    tasks_from_candidates,
)
from repro.pipeline.alignment import CandidateReads, ContigCandidates
from repro.pipeline.checkpoint import load_contigs_checkpoint, save_contigs_checkpoint
from repro.pipeline.contig_generation import _canonical_contigs
from repro.sequence.contigs import Contig, ContigSet
from repro.sequence.dna import encode, revcomp

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=40)


def _palindrome(half: str) -> str:
    return half + revcomp(half)


contig_seq = st.one_of(
    dna.filter(bool), st.sampled_from("ACGT"), dna.filter(bool).map(_palindrome)
)


@st.composite
def contig_sets(draw) -> list[Contig]:
    """Contigs with unique, unsorted, non-contiguous cids."""
    cids = draw(st.lists(st.integers(0, 500), unique=True, max_size=8))
    return [
        Contig(cid, draw(contig_seq), draw(st.floats(0.0, 1e3, allow_nan=False)))
        for cid in cids
    ]


def _side(rng: np.random.Generator) -> CandidateReads:
    lengths = rng.integers(1, 30, int(rng.integers(0, 4)))
    n = int(lengths.sum())
    return CandidateReads(
        rng.integers(0, 5, n).astype(np.uint8),
        rng.integers(2, 42, n).astype(np.uint8),
        lengths.astype(np.int64),
    )


def _candidates(contigs: list[Contig], seed: int) -> list[ContigCandidates]:
    """Candidates of a random subset of *contigs*, in a random order."""
    rng = np.random.default_rng(seed)
    picked = [c for c in contigs if rng.random() < 0.8]
    return [
        ContigCandidates(picked[i].cid, _side(rng), _side(rng))
        for i in rng.permutation(len(picked)).tolist()
    ]


@st.composite
def extension_sets(draw, contigs: list[Contig]) -> dict[tuple[int, int], str]:
    """Extensions for some ends, in a shuffled row order; the rest are
    missing (or empty)."""
    exts = {}
    for c in contigs:
        for side in (LEFT, RIGHT):
            if draw(st.booleans()):
                exts[(c.cid, side)] = draw(dna)
    return {key: exts[key] for key in draw(st.permutations(list(exts)))}


def _packed(exts: dict[tuple[int, int], str]) -> ExtensionSet:
    """``{(cid, side): extension}`` as an :class:`ExtensionSet`, one row
    per entry in the dict's order."""
    offsets = np.cumsum([0] + [len(e) for e in exts.values()])
    cids = [cid for cid, _ in exts]
    sides = [side for _, side in exts]
    return ExtensionSet(cids, sides, encode("".join(exts.values())), offsets)


def _as_dict(contigs: list[Contig]) -> dict[int, str]:
    return {c.cid: c.seq for c in contigs}


def assert_tasks_match(contigs: list[Contig], seed: int) -> None:
    cands = _candidates(contigs, seed)
    want = tasks_from_contig_strings_reference(_as_dict(contigs), cands)
    got = tasks_from_candidates(ContigSet(contigs), cands)
    assert len(got) == len(want) == 2 * len(cands)
    for t, w in zip(got, want):
        assert (t.cid, t.side) == (w.cid, w.side)
        assert t.contig.dtype == w.contig.dtype
        assert np.array_equal(t.contig, w.contig)
        assert not t.contig.flags.writeable
        for a, b in zip(t.packed_reads(), w.packed_reads()):
            assert a is b


def assert_extensions_match(contigs: list[Contig], exts) -> None:
    want = apply_extensions_reference(_as_dict(contigs), exts)
    got = apply_extensions(ContigSet(contigs), _packed(exts))
    assert list(got.items()) == list(want.items())
    assert got.cids.tolist() == [c.cid for c in contigs]
    assert got.depths.tolist() == [c.depth for c in contigs]


def assert_canonical_match(seqs: list[str]) -> None:
    codes = encode("".join(seqs))
    offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in seqs], out=offsets[1:])
    depth = np.arange(len(seqs), dtype=np.float64) / 3
    want = canonical_contigs_reference(codes, offsets, depth)
    got = _canonical_contigs(codes, offsets, depth)
    assert [(c.cid, c.seq, repr(c.depth)) for c in got] == [
        (c.cid, c.seq, repr(c.depth)) for c in want
    ]


# -- Hypothesis ----------------------------------------------------------------


@SETTINGS
@given(st.lists(contig_seq, max_size=10))
def test_canonical_orientation_matches_reference(seqs):
    assert_canonical_match(seqs)


@SETTINGS
@given(contig_sets(), st.integers(0, 2**32 - 1))
def test_tasks_match_reference(contigs, seed):
    assert_tasks_match(contigs, seed)


@SETTINGS
@given(st.data())
def test_extensions_match_reference(data):
    contigs = data.draw(contig_sets())
    assert_extensions_match(contigs, data.draw(extension_sets(contigs)))


@SETTINGS
@given(contig_sets())
def test_round_trip_through_arrays(contigs):
    packed = ContigSet(contigs)
    assert list(packed) == contigs
    again = ContigSet.from_arrays(
        packed.codes, packed.offsets, packed.cids, packed.depths
    )
    assert list(again) == contigs


# -- named cases -----------------------------------------------------------------

NAMED = {
    "empty": [],
    "one": [Contig(0, "ACGTTGCA", 2.0)],
    "length_1": [Contig(3, "G", 1.5), Contig(1, "T", 0.5)],
    "palindrome": [Contig(0, "ACGT"), Contig(1, "GAATTC", 4.0)],
    "unsorted_sparse_cids": [
        Contig(40, "TTTTACG", 1.0),
        Contig(2, "CCA", 2.0),
        Contig(17, "GATTACA", 3.0),
    ],
}


@pytest.mark.parametrize("name", list(NAMED))
def test_named_canonical(name):
    assert_canonical_match([c.seq for c in NAMED[name]])


@pytest.mark.parametrize("name", list(NAMED))
def test_named_tasks(name):
    for seed in range(4):
        assert_tasks_match(NAMED[name], seed)


@pytest.mark.parametrize("name", list(NAMED))
@pytest.mark.parametrize(
    "sides", [(), (LEFT,), (RIGHT,), (LEFT, RIGHT)], ids=["none", "left", "right", "both"]
)
def test_named_extensions(name, sides):
    """Every contig extended on *sides* only; the other ends are missing."""
    exts = {(c.cid, s): "ACG"[: 1 + s] for c in NAMED[name] for s in sides}
    assert_extensions_match(NAMED[name], exts)
    zero = {key: "" for key in exts}
    assert_extensions_match(NAMED[name], zero)


def test_extension_of_an_unknown_contig_is_rejected():
    """The string path's ``.get`` dropped it silently."""
    contigs = ContigSet(NAMED["unsorted_sparse_cids"])
    with pytest.raises(ValueError, match="not one of the contigs"):
        apply_extensions(contigs, _packed({(2, LEFT): "A", (3, RIGHT): "C"}))
    with pytest.raises(ValueError, match="not one of the contigs"):
        apply_extensions(ContigSet(), _packed({(0, LEFT): ""}))


@pytest.mark.parametrize("name", list(NAMED))
def test_named_checkpoint_round_trip(name, tmp_path):
    contigs = ContigSet(NAMED[name])
    save_contigs_checkpoint(tmp_path, contigs, "k", 7)
    back, n = load_contigs_checkpoint(tmp_path, "k")
    assert n == 7 and list(back) == NAMED[name]
    with np.load(tmp_path / "contigs_checkpoint.npz") as data:
        for field, have in (
            ("bases", contigs.codes),
            ("offsets", contigs.offsets),
            ("cids", contigs.cids),
            ("depths", contigs.depths),
        ):
            assert data[field].dtype == have.dtype
            assert np.array_equal(data[field], have)
