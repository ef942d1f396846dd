"""Tests for de Bruijn contig generation (unitig traversal)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import KmerGraph, generate_contigs_reference

from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import ClassifiedKmers, analyze_kmers, classify_spectrum
from repro.pipeline.kmer_counts import KmerSpectrum
from repro.sequence.dna import random_dna, revcomp
from repro.sequence.kmer import canonical, iter_kmers, pack_kmer
from repro.sequence.read import ReadBatch


def assemble(reads: list[str], k: int, min_count=2, min_depth=2, min_len=None):
    ck = analyze_kmers(ReadBatch.from_strings(reads), k, min_count=min_count, min_depth=min_depth)
    return generate_contigs(ck, min_len)


def tile(genome: str, read_len=40, stride=5) -> list[str]:
    """Error-free reads tiling a genome (both 2x coverage via stride)."""
    return [
        genome[i : i + read_len]
        for i in range(0, len(genome) - read_len + 1, stride)
    ]


class TestReconstruction:
    def test_single_contig_from_clean_genome(self, rng):
        genome = random_dna(400, rng)
        contigs = assemble(tile(genome), 21)
        assert len(contigs) == 1
        seq = contigs[0].seq
        assert seq == genome or seq == revcomp(genome) or seq in genome or revcomp(seq) in genome
        # the contig must recover almost the whole genome
        assert len(seq) >= len(genome) - 2 * 21

    def test_depth_reflects_coverage(self, rng):
        genome = random_dna(300, rng)
        contigs = assemble(tile(genome, stride=2), 21)
        assert len(contigs) == 1
        assert contigs[0].depth > 5

    def test_deterministic(self, rng):
        genome = random_dna(500, rng)
        a = assemble(tile(genome), 21)
        b = assemble(tile(genome), 21)
        assert [c.seq for c in a] == [c.seq for c in b]

    def test_repeat_splits_contigs(self, rng):
        """A repeat longer than k creates forks that split the assembly."""
        u1, u2, u3 = (random_dna(150, rng) for _ in range(3))
        rep = random_dna(60, rng)
        genome = u1 + rep + u2 + rep + u3
        contigs = assemble(tile(genome), 21)
        assert len(contigs) >= 3  # unique arms + repeat unitig

    def test_two_genomes_two_contigs(self, rng):
        g1, g2 = random_dna(300, rng), random_dna(300, rng)
        contigs = assemble(tile(g1) + tile(g2), 21)
        assert len(contigs) == 2

    def test_min_contig_len_filter(self, rng):
        genome = random_dna(200, rng)
        all_c = assemble(tile(genome), 21, min_len=0)
        filtered = assemble(tile(genome), 21, min_len=10**6)
        assert len(all_c) >= 1 and len(filtered) == 0


class TestInvariants:
    def test_kmers_emitted_once(self, rng):
        """No k-mer appears in two contigs (traversal marks visited)."""
        from repro.sequence.kmer import canonical, iter_kmers

        genome = random_dna(600, rng)
        contigs = assemble(tile(genome), 21)
        seen = set()
        for c in contigs:
            for km in iter_kmers(c.seq, 21):
                cc = canonical(km)
                assert cc not in seen
                seen.add(cc)

    def test_contig_kmers_exist_in_reads(self, rng):
        from repro.sequence.kmer import canonical, iter_kmers

        genome = random_dna(400, rng)
        reads = tile(genome)
        read_kmers = {canonical(m) for r in reads for m in iter_kmers(r, 21)}
        for c in assemble(reads, 21):
            for km in iter_kmers(c.seq, 21):
                assert canonical(km) in read_kmers

    def test_circular_genome_terminates(self, rng):
        """A circular chromosome (cycle in the graph) must not loop."""
        core = random_dna(300, rng)
        circular = core + core[:60]  # wrap-around reads
        contigs = assemble(tile(circular), 21)
        assert len(contigs) >= 1
        assert all(len(c.seq) <= len(circular) + 21 for c in contigs)


class TestKmerGraph:
    """The scalar reference's lookup structure (``tests/pipeline/reference.py``)."""

    def test_find_both_orientations(self, rng):
        genome = random_dna(200, rng)
        ck = analyze_kmers(ReadBatch.from_strings(tile(genome)), 21, 2, 2)
        graph = KmerGraph(ck)
        km = ck.spectrum.kmer(0)
        row, is_rc = graph.find(km)
        assert row == 0 and not is_rc
        row2, is_rc2 = graph.find(revcomp(km))
        assert row2 == 0 and is_rc2

    def test_find_absent(self, rng):
        genome = random_dna(200, rng)
        ck = analyze_kmers(ReadBatch.from_strings(tile(genome)), 21, 2, 2)
        graph = KmerGraph(ck)
        assert graph.find("A" * 21) is None or graph.find("A" * 21)[0] >= 0

    def test_oriented_ext_side_validation(self, rng):
        genome = random_dna(200, rng)
        ck = analyze_kmers(ReadBatch.from_strings(tile(genome)), 21, 2, 2)
        graph = KmerGraph(ck)
        with pytest.raises(ValueError):
            graph.oriented_ext(0, False, "up")


# -- the array stage against the scalar walker --------------------------------

K_VALUES = (3, 5, 7, 21, 33, 55, 77)  # 1-, 2- and 3-word k-mers


def classify(reads: list[str], k: int, min_count: int = 2, min_depth: int = 2) -> ClassifiedKmers:
    return analyze_kmers(
        ReadBatch.from_strings(reads), k, min_count=min_count, min_depth=min_depth
    )


def rows(contigs) -> list[tuple[int, str, str]]:
    return [(c.cid, c.seq, repr(c.depth)) for c in contigs]


def assert_same(ck: ClassifiedKmers, k: int) -> None:
    """Reference == array on cid, seq, repr(depth) and order, at every
    interesting ``min_contig_len`` (None is the ``k + 2`` default)."""
    for min_len in (0, k, None, 10**6):
        assert rows(generate_contigs(ck, min_len)) == rows(
            generate_contigs_reference(ck, min_len)
        ), (k, min_len)


def shaped_genome(kind: str, body: str, extra: str, k: int) -> str:
    """The graph shapes that stress traversal: *body* as is, closed into a
    circle, interrupted by a tandem repeat of *extra*, or folded back on
    itself (a hairpin: the walk meets the mirror of where it has been)."""
    if kind == "circular":
        return body + body[: k + len(extra) % k]
    if kind == "tandem":
        half = len(body) // 2
        return body[:half] + extra * 3 + body[half:]
    if kind == "hairpin":
        return body + revcomp(body[-(k + 2) :]) + extra
    return body


def tiled_reads(genome: str, read_len: int, stride: int, copies: int) -> list[str]:
    return [
        genome[i : i + read_len]
        for i in range(0, max(1, len(genome) - read_len + 1), stride)
    ] * copies


@st.composite
def graph_cases(draw):
    k = draw(st.sampled_from(K_VALUES))
    alphabet = draw(st.sampled_from(["AC", "AT", "ACG", "ACGT"]))
    kind = draw(st.sampled_from(["linear", "circular", "tandem", "hairpin"]))
    body = draw(st.text(alphabet=alphabet, min_size=k, max_size=3 * k + 40))
    extra = draw(st.text(alphabet=alphabet, min_size=1, max_size=k + 4))
    reads = tiled_reads(
        shaped_genome(kind, body, extra, k),
        read_len=k + draw(st.integers(0, 25)),
        stride=draw(st.integers(1, 3)),
        copies=draw(st.integers(1, 2)),
    )
    return k, reads, draw(st.integers(1, 2)), draw(st.integers(1, 2))


class TestMatchesReference:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph_cases())
    def test_property(self, case):
        k, reads, min_count, min_depth = case
        assert_same(classify(reads, k, min_count, min_depth), k)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_fuzz(self, seed):
        """Random genomes of every shape, with substitution errors so that
        forks, tips and non-mutual links sit next to the clean chains."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            k = int(rng.choice(K_VALUES))
            alphabet = list(rng.choice(["AC", "ACG", "ACGT"]))
            kind = str(rng.choice(["linear", "circular", "tandem", "hairpin"]))
            body = "".join(rng.choice(alphabet, int(rng.integers(k, 5 * k + 60))))
            extra = "".join(rng.choice(alphabet, int(rng.integers(1, k + 5))))
            reads = tiled_reads(
                shaped_genome(kind, body, extra, k),
                read_len=k + int(rng.integers(0, 30)),
                stride=int(rng.integers(1, 4)),
                copies=int(rng.integers(1, 4)),
            )
            for i in rng.choice(len(reads), len(reads) // 8, replace=False):
                j = int(rng.integers(len(reads[i])))
                reads[i] = reads[i][:j] + str(rng.choice(alphabet)) + reads[i][j + 1 :]
            ck = classify(reads, k, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            assert_same(ck, k)

    def test_two_genomes_multi_word_k(self, rng):
        reads = tile(random_dna(500, rng), 110) + tile(random_dna(400, rng), 110)
        for k in (33, 55, 77):
            ck = classify(reads, k)
            assert len(generate_contigs(ck)) == 2
            assert_same(ck, k)

    def test_empty_spectrum(self):
        ck = classify(["ACG"], 21)
        assert len(ck) == 0
        assert len(generate_contigs(ck)) == 0
        assert_same(ck, 21)

    def test_zero_uu_rows(self, rng):
        """No extension of a lone read is seen twice, so every k-mer is a
        dead end: a non-empty spectrum with nothing to emit."""
        ck = classify([random_dna(60, rng)], 5, min_count=1, min_depth=2)
        assert len(ck) > 0 and ck.n_uu() == 0
        assert len(generate_contigs(ck, 0)) == 0
        assert_same(ck, 5)


class TestBitIdentityContract:
    """Each rule the array stage must share with the scalar walker, pinned
    on an input small enough to state the expected output."""

    def test_components_in_lowest_row_order_cid_after_filter(self, rng):
        genomes = [random_dna(n, rng) for n in (90, 30, 200, 26, 120)]
        ck = classify([r for g in genomes for r in tile(g, 25, 1)], 21)
        spec = ck.spectrum

        def lowest_row(seq: str) -> int:
            return min(spec.lookup(pack_kmer(canonical(m))) for m in iter_kmers(seq, 21))

        everything = generate_contigs(ck, 0)
        lows = [lowest_row(c.seq) for c in everything]
        assert lows == sorted(lows) and len(lows) == 5
        # the filter drops the two short genomes; cids close up behind them
        kept = generate_contigs(ck, 40)
        assert [c.cid for c in kept] == [0, 1, 2]
        assert [c.seq for c in kept] == [c.seq for c in everything if len(c) >= 40]
        assert_same(ck, 21)

    def test_sequence_is_canonical_orientation(self, rng):
        genome = random_dna(300, rng)
        (fwd,) = generate_contigs(classify(tile(genome), 21))
        (rev,) = generate_contigs(classify(tile(revcomp(genome)), 21))
        assert fwd.seq == rev.seq == min(fwd.seq, revcomp(fwd.seq))
        assert fwd.seq in genome or fwd.seq in revcomp(genome)

    def test_cycle_cut_at_lowest_row_forward_walking_right(self, rng):
        core = random_dna(120, rng)
        k = 21
        ck = classify(tile(core + core[:60], 40, 1), k)
        assert ck.n_uu() == len(ck) == len(core)  # one cycle, every row on it
        (contig,) = generate_contigs(ck, 0)
        assert len(contig) == len(core) + k - 1
        # before canonicalisation the contig starts with row 0 as stored
        # and ends one step short of closing the circle
        walked = min((contig.seq, revcomp(contig.seq)), key=lambda s: s[:k] != ck.spectrum.kmer(0))
        assert walked[:k] == ck.spectrum.kmer(0)
        doubled = core + core
        assert walked in doubled or walked in revcomp(doubled)
        assert_same(ck, k)

    def test_same_row_edges_are_dropped(self):
        # homopolymer: AAAAA's right neighbour is itself
        ck = classify(["A" * 12] * 2, 5)
        assert ck.n_uu() == 1
        assert rows(generate_contigs(ck, 0)) == [(0, "AAAAA", repr(16.0))]
        assert_same(ck, 5)
        # hairpin: the right neighbour of AAT is ATT, its own mirror
        ck = classify(["CCAATTGG"] * 2, 3, min_count=1)
        aat = ck.spectrum.lookup(pack_kmer("AAT"))
        assert ck.left_verdict[aat] == ck.right_verdict[aat] == 1
        got = generate_contigs(ck, 0)
        assert all(len(c) < 2 * 3 for c in got)  # nothing walks through the fold
        assert_same(ck, 3)

    def test_depth_is_integer_sum_over_kmer_count(self, rng):
        genome = random_dna(260, rng)
        reads = tile(genome, 40, 3) + tile(genome[:150], 40, 7)
        ck = classify(reads, 21)
        (contig,) = generate_contigs(ck)
        counts = [
            int(ck.spectrum.counts[ck.spectrum.lookup(pack_kmer(canonical(m)))])
            for m in iter_kmers(contig.seq, 21)
        ]
        assert len(set(counts)) > 1
        assert isinstance(contig.depth, float)
        assert repr(contig.depth) == repr(float(sum(counts) / len(counts)))

    def test_edge_must_be_mutual(self):
        """AACCA's right extension points at ACCAC; the link holds only if
        ACCAC's left extension points back (counted spectra always agree,
        so the two sides are set by hand)."""

        def two_kmers(back_base: int) -> ClassifiedKmers:
            left = np.zeros((2, 5), dtype=np.int64)
            right = np.zeros((2, 5), dtype=np.int64)
            left[0, 3] = right[0, 1] = 2  # AACCA: T on the left, C on the right
            left[1, back_base] = right[1, 2] = 2
            words = np.stack([pack_kmer("AACCA"), pack_kmer("ACCAC")])
            return classify_spectrum(KmerSpectrum(5, words, np.array([2, 4]), left, right))

        linked, unlinked = two_kmers(0), two_kmers(1)
        assert rows(generate_contigs(linked, 0)) == [(0, "AACCAC", repr(3.0))]
        assert rows(generate_contigs(unlinked, 0)) == [
            (0, "AACCA", repr(2.0)),
            (1, "ACCAC", repr(4.0)),
        ]
        assert_same(linked, 5)
        assert_same(unlinked, 5)

    def test_hand_built_spectrum_without_neighbours(self):
        """Verdicts say UNIQUE but the neighbour k-mers are absent: every
        UU row is its own contig, in row order."""
        kmers = sorted(["AACCA", "ACGGA", "CATCA"])
        tallies = np.zeros((3, 5), dtype=np.int64)
        tallies[:, 1] = 3  # extension 'C' on both sides, seen 3 times
        spec = KmerSpectrum(
            5, np.stack([pack_kmer(m) for m in kmers]), np.array([3, 4, 5]), tallies, tallies
        )
        ck = classify_spectrum(spec)
        assert rows(generate_contigs(ck, 0)) == [
            (i, m, repr(float(c))) for i, (m, c) in enumerate(zip(kmers, (3, 4, 5)))
        ]
        assert_same(ck, 5)
