"""Tests for pipeline checkpointing (MHM2 --checkpoint analogue)."""

import hashlib
import json
import os

import numpy as np
import pytest

import repro.pipeline.checkpoint as checkpoint_mod
from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.pipeline.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    checkpoint_key,
    load_contigs_checkpoint,
    save_contigs_checkpoint,
)
from repro.sequence.contigs import Contig, ContigSet
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.dna import encode


@pytest.fixture(scope="module")
def reads():
    rng = np.random.default_rng(55)
    comm = arcticsynth_like(rng, n_genomes=2, genome_length=5000)
    return sample_paired_reads(comm, 600, rng)


class TestKeying:
    def test_key_deterministic(self, reads):
        cfg = PipelineConfig()
        assert checkpoint_key(reads, cfg) == checkpoint_key(reads, cfg)

    def test_key_changes_with_upstream_params(self, reads):
        a = checkpoint_key(reads, PipelineConfig(k_series=(21,)))
        b = checkpoint_key(reads, PipelineConfig(k_series=(33,)))
        c = checkpoint_key(reads, PipelineConfig(min_kmer_count=3))
        assert len({a, b, c}) == 3

    def test_key_ignores_downstream_params(self, reads):
        a = checkpoint_key(reads, PipelineConfig(local_assembly_mode="cpu"))
        b = checkpoint_key(reads, PipelineConfig(local_assembly_mode="gpu"))
        assert a == b

    def test_key_changes_with_reads(self, reads, rng):
        comm = arcticsynth_like(rng, n_genomes=2, genome_length=5000)
        other = sample_paired_reads(comm, 600, rng)
        cfg = PipelineConfig()
        assert checkpoint_key(reads, cfg) != checkpoint_key(other, cfg)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        contigs = ContigSet([Contig(0, "ACGTACGT", 3.5), Contig(7, "GGCC", 1.0)])
        save_contigs_checkpoint(tmp_path, contigs, "k1", 42)
        loaded = load_contigs_checkpoint(tmp_path, "k1")
        assert loaded is not None
        back, n = loaded
        assert n == 42
        assert [(c.cid, c.seq, c.depth) for c in back] == [
            (0, "ACGTACGT", 3.5), (7, "GGCC", 1.0),
        ]

    def test_wrong_key_rejected(self, tmp_path):
        save_contigs_checkpoint(tmp_path, ContigSet([Contig(0, "ACGT")]), "k1", 0)
        assert load_contigs_checkpoint(tmp_path, "other") is None

    def test_missing_dir(self, tmp_path):
        assert load_contigs_checkpoint(tmp_path / "nope", "k") is None

    def test_corrupt_meta(self, tmp_path):
        save_contigs_checkpoint(tmp_path, ContigSet([Contig(0, "ACGT")]), "k1", 0)
        (tmp_path / "contigs_checkpoint.json").write_text("{broken")
        assert load_contigs_checkpoint(tmp_path, "k1") is None

    def test_empty_contigs(self, tmp_path):
        save_contigs_checkpoint(tmp_path, ContigSet([]), "k1", 0)
        back, _ = load_contigs_checkpoint(tmp_path, "k1")
        assert len(back) == 0


class TestKeyDomainSeparation:
    """The digest frames every field as (tag, length, payload)."""

    def test_field_framing_is_unambiguous(self):
        a = hashlib.blake2b(digest_size=16)
        checkpoint_mod._update_field(a, b"x", b"abc")
        b = hashlib.blake2b(digest_size=16)
        checkpoint_mod._update_field(b, b"xa", b"bc")
        assert a.hexdigest() != b.hexdigest()

    def test_empty_vs_shifted_fields_differ(self):
        a = hashlib.blake2b(digest_size=16)
        checkpoint_mod._update_field(a, b"t", b"")
        checkpoint_mod._update_field(a, b"u", b"zz")
        b = hashlib.blake2b(digest_size=16)
        checkpoint_mod._update_field(b, b"t", b"zz")
        checkpoint_mod._update_field(b, b"u", b"")
        assert a.hexdigest() != b.hexdigest()

    def test_format_version_in_key(self, reads, monkeypatch):
        cfg = PipelineConfig()
        before = checkpoint_key(reads, cfg)
        monkeypatch.setattr(
            checkpoint_mod,
            "CHECKPOINT_FORMAT_VERSION",
            CHECKPOINT_FORMAT_VERSION + 1,
        )
        assert checkpoint_key(reads, cfg) != before


CONTIGS = ContigSet([Contig(0, "ACGTACGT", 3.5), Contig(7, "GGCC", 1.0)])


class TestCorruptionInjection:
    """A half-written or corrupted checkpoint must behave like a missing
    one — logged and recomputed, never raised (the job service resumes
    killed runs from whatever a dead process left behind)."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        save_contigs_checkpoint(tmp_path, CONTIGS, "kA", 11)
        assert load_contigs_checkpoint(tmp_path, "kA") is not None
        return tmp_path

    def test_truncated_npz(self, ckpt):
        data = ckpt / "contigs_checkpoint.npz"
        blob = data.read_bytes()
        data.write_bytes(blob[: len(blob) // 2])
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_zero_byte_npz(self, ckpt):
        (ckpt / "contigs_checkpoint.npz").write_bytes(b"")
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_garbage_npz(self, ckpt):
        (ckpt / "contigs_checkpoint.npz").write_bytes(b"\x00\xffnot a zip" * 64)
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_npz_missing_arrays(self, ckpt):
        np.savez(ckpt / "contigs_checkpoint.npz", cids=np.arange(2))
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_non_dict_meta(self, ckpt):
        (ckpt / "contigs_checkpoint.json").write_text("[1, 2, 3]")
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_binary_garbage_meta(self, ckpt):
        (ckpt / "contigs_checkpoint.json").write_bytes(b"\x80\x81\x82")
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_meta_version_mismatch(self, ckpt):
        meta = json.loads((ckpt / "contigs_checkpoint.json").read_text())
        meta["version"] = CHECKPOINT_FORMAT_VERSION - 1
        (ckpt / "contigs_checkpoint.json").write_text(json.dumps(meta))
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_meta_missing_version(self, ckpt):
        meta = json.loads((ckpt / "contigs_checkpoint.json").read_text())
        del meta["version"]
        (ckpt / "contigs_checkpoint.json").write_text(json.dumps(meta))
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_garbage_n_distinct(self, ckpt):
        meta = json.loads((ckpt / "contigs_checkpoint.json").read_text())
        meta["n_distinct_kmers"] = None
        (ckpt / "contigs_checkpoint.json").write_text(json.dumps(meta))
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_inconsistent_offsets(self, ckpt):
        key = np.frombuffer(b"kA", dtype=np.uint8)
        np.savez(
            ckpt / "contigs_checkpoint.npz",
            cids=np.arange(3, dtype=np.int64),
            depths=np.ones(3),
            offsets=np.array([0, 4], dtype=np.int64),  # wrong length
            bases=np.zeros(4, dtype=np.uint8),
            key=key,
        )
        assert load_contigs_checkpoint(ckpt, "kA") is None


class TestCorruptLayoutRecomputes:
    """A checkpoint whose arrays still load but describe a different
    assembly — offsets past the bases, a repeated cid, a code above N —
    is rejected by the packed constructor and recomputed."""

    SAVED = ContigSet([Contig(0, "ACGTACGTAC"), Contig(1, "GGGTTTCCCAAA")])

    def _rewrite(self, directory, **override):
        path = directory / "contigs_checkpoint.npz"
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays.update(override)
        np.savez_compressed(path, **arrays)

    @pytest.fixture
    def ckpt(self, tmp_path):
        save_contigs_checkpoint(tmp_path, self.SAVED, "kA", 3)
        assert load_contigs_checkpoint(tmp_path, "kA") is not None
        return tmp_path

    def test_offsets_past_the_bases(self, ckpt):
        self._rewrite(ckpt, offsets=np.array([0, 25, 22], dtype=np.int64))
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_duplicate_cids(self, ckpt):
        self._rewrite(ckpt, cids=np.array([0, 0], dtype=np.int64))
        assert load_contigs_checkpoint(ckpt, "kA") is None

    def test_base_code_above_n(self, ckpt):
        bases = encode("ACGTACGTACGGGTTTCCCAAA")
        bases[3] = 9
        self._rewrite(ckpt, bases=bases)
        assert load_contigs_checkpoint(ckpt, "kA") is None


class TestCrashSafety:
    """save publishes data-then-meta via os.replace; any crash point
    leaves a state load treats as consistent-or-missing."""

    def test_crash_between_files_detected(self, tmp_path, monkeypatch):
        save_contigs_checkpoint(tmp_path, CONTIGS, "kA", 1)
        real_replace = os.replace

        def crash_on_meta(src, dst):
            if str(dst).endswith(".json"):
                raise OSError("injected crash before meta publish")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_meta)
        other = ContigSet([Contig(9, "TTTT", 2.0)])
        with pytest.raises(OSError, match="injected"):
            save_contigs_checkpoint(tmp_path, other, "kB", 2)
        monkeypatch.undo()
        # new data beside old meta: neither key may resume, neither raises
        assert load_contigs_checkpoint(tmp_path, "kB") is None
        assert load_contigs_checkpoint(tmp_path, "kA") is None

    def test_crash_before_data_keeps_old_pair(self, tmp_path, monkeypatch):
        save_contigs_checkpoint(tmp_path, CONTIGS, "kA", 1)
        real_replace = os.replace

        def crash_on_data(src, dst):
            if str(dst).endswith(".npz"):
                raise OSError("injected crash before data publish")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_data)
        with pytest.raises(OSError, match="injected"):
            save_contigs_checkpoint(
                tmp_path, ContigSet([Contig(9, "TTTT", 2.0)]), "kB", 2
            )
        monkeypatch.undo()
        loaded = load_contigs_checkpoint(tmp_path, "kA")
        assert loaded is not None
        assert [c.seq for c in loaded[0]] == ["ACGTACGT", "GGCC"]

    def test_no_temp_files_left_behind(self, tmp_path):
        save_contigs_checkpoint(tmp_path, CONTIGS, "kA", 1)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_overwrite_same_dir_different_key(self, tmp_path):
        save_contigs_checkpoint(tmp_path, CONTIGS, "kA", 1)
        other = ContigSet([Contig(9, "TTTT", 2.0)])
        save_contigs_checkpoint(tmp_path, other, "kB", 2)
        assert load_contigs_checkpoint(tmp_path, "kA") is None
        loaded = load_contigs_checkpoint(tmp_path, "kB")
        assert loaded is not None and [c.seq for c in loaded[0]] == ["TTTT"]



class TestPipelineResume:
    def test_resume_gives_identical_assembly(self, reads, tmp_path):
        cfg = PipelineConfig(run_scaffolding=False)
        first = run_pipeline(reads, cfg, checkpoint_dir=str(tmp_path))
        assert (tmp_path / "contigs_checkpoint.npz").exists()
        second = run_pipeline(reads, cfg, checkpoint_dir=str(tmp_path))
        assert [c.seq for c in first.contigs] == [c.seq for c in second.contigs]
        # the resumed run skipped the de Bruijn prefix
        assert "k-mer analysis" not in second.times.seconds
        assert "contig generation" not in second.times.seconds
        assert second.n_distinct_kmers == first.n_distinct_kmers

    def test_changed_params_invalidate(self, reads, tmp_path):
        run_pipeline(reads, PipelineConfig(run_scaffolding=False),
                     checkpoint_dir=str(tmp_path))
        res = run_pipeline(
            reads,
            PipelineConfig(k_series=(33,), run_scaffolding=False),
            checkpoint_dir=str(tmp_path),
        )
        # k changed -> the prefix re-ran
        assert "k-mer analysis" in res.times.seconds
