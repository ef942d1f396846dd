"""CLI integration tests (generate -> assemble -> stats, scale)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.preset == "arcticsynth" and args.pairs == 5000

    def test_assemble_k_series(self):
        args = build_parser().parse_args(
            ["assemble", "r.fastq", "--out", "o", "--k", "21", "33"]
        )
        assert args.k == [21, 33]

    @pytest.mark.parametrize(
        "argv",
        [
            ["assemble", "r.fastq", "--out", "o", "--engine", "pool"],
            ["localassm", "d.npz", "--engine", "pool"],
            ["assemble", "r.fastq", "--out", "o", "--workers", "2"],
            ["localassm", "d.npz", "--workers", "2"],
            ["assemble", "r.fastq", "--out", "o", "--streams", "2"],
            ["localassm", "d.npz", "--streams", "2"],
        ],
    )
    def test_removed_engine_knobs_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestWorkflow:
    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("data")
        rc = main([
            "generate", "--out", str(out), "--genomes", "2",
            "--genome-length", "6000", "--pairs", "500", "--seed", "5",
        ])
        assert rc == 0
        return out

    def test_generate_outputs(self, data_dir):
        assert (data_dir / "reads.fastq").exists()
        assert (data_dir / "refs.fasta").exists()
        abund = (data_dir / "abundances.tsv").read_text().splitlines()
        assert abund[0].startswith("genome\t")
        assert len(abund) == 3

    def test_assemble_and_stats(self, data_dir, tmp_path, capsys):
        out = tmp_path / "asm"
        rc = main([
            "assemble", str(data_dir / "reads.fastq"), "--out", str(out),
            "--mode", "cpu", "--no-scaffold",
        ])
        assert rc == 0
        assert (out / "contigs.fasta").exists()
        assert not (out / "scaffolds.fasta").exists()
        report = (out / "report.txt").read_text()
        assert "file IO" in report and "local assembly" in report

        rc = main(["stats", str(out / "contigs.fasta")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "N50" in captured.out

    def test_assemble_with_scaffolds(self, data_dir, tmp_path):
        out = tmp_path / "asm2"
        rc = main([
            "assemble", str(data_dir / "reads.fastq"), "--out", str(out),
            "--max-reads-per-end", "20",
        ])
        assert rc == 0
        assert (out / "scaffolds.fasta").exists()

    def test_assemble_rejects_odd_read_count(self, tmp_path):
        from repro.sequence.fastq import write_fastq
        from repro.sequence.read import Read

        bad = tmp_path / "odd.fastq"
        write_fastq(bad, [Read("only", "ACGT" * 10)])
        rc = main(["assemble", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_scale_wa(self, capsys):
        rc = main(["scale", "--dataset", "wa"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "7.02x" in out or "speedup" in out
        assert "stage shares" in out

    def test_scale_custom_nodes(self, capsys):
        rc = main(["scale", "--dataset", "arcticsynth", "--nodes", "2", "4"])
        assert rc == 0
        assert "4.29x" in capsys.readouterr().out


class TestServiceParser:
    def test_byte_size_suffixes(self):
        from repro.cli import _byte_size

        assert _byte_size("512") == 512
        assert _byte_size("4K") == 4 << 10
        assert _byte_size("16m") == 16 << 20
        assert _byte_size("2GB") == 2 << 30
        with pytest.raises(Exception):
            _byte_size("lots")
        with pytest.raises(Exception):
            _byte_size("0")

    def test_tenant_budget_parse(self):
        from repro.cli import _tenant_budget

        assert _tenant_budget("acme=4G") == ("acme", 4 << 30)
        with pytest.raises(Exception):
            _tenant_budget("no-equals")

    def test_serve_args(self):
        args = build_parser().parse_args([
            "serve", "--dir", "svc", "--gpus", "3", "--max-queued", "9",
            "--tenant-budget", "a=1G", "--tenant-budget", "b=512M", "--once",
        ])
        assert args.gpus == 3 and args.max_queued == 9 and args.once
        assert dict(args.tenant_budget) == {"a": 1 << 30, "b": 512 << 20}

    def test_submit_args(self):
        args = build_parser().parse_args([
            "submit", "r.fastq", "--dir", "svc", "--tenant", "acme",
            "--k", "21", "33", "--mem-budget", "8G", "--no-scaffold",
        ])
        assert args.tenant == "acme" and args.k == [21, 33]
        assert args.mem_budget == 8 << 30

    def test_assemble_mem_budget(self):
        args = build_parser().parse_args(
            ["assemble", "r.fastq", "--out", "o", "--mem-budget", "1G"]
        )
        assert args.mem_budget == 1 << 30


class TestServiceWorkflow:
    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("svcdata")
        rc = main([
            "generate", "--out", str(out), "--genomes", "2",
            "--genome-length", "5000", "--pairs", "300", "--seed", "11",
        ])
        assert rc == 0
        return out

    def test_submit_serve_jobs_roundtrip(self, data_dir, tmp_path, capsys):
        svc = tmp_path / "svc"
        rc = main([
            "submit", str(data_dir / "reads.fastq"), "--dir", str(svc),
            "--tenant", "acme", "--no-scaffold",
        ])
        assert rc == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("job-")

        rc = main(["serve", "--dir", str(svc), "--gpus", "1", "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert job_id in out and "done" in out

        rc = main(["jobs", "--dir", str(svc), "--json"])
        assert rc == 0
        import json as _json

        reports = _json.loads(capsys.readouterr().out)
        assert [r["job_id"] for r in reports] == [job_id]
        assert reports[0]["state"] == "done"
        assert reports[0]["metrics"]["n_contigs"] > 0
        assert (svc / "jobs" / job_id / "contigs.fasta").exists()

    def test_cancel_unknown_job(self, tmp_path, capsys):
        rc = main(["cancel", "job-nope", "--dir", str(tmp_path / "svc")])
        assert rc == 2
        assert "no job" in capsys.readouterr().err

    def test_cancel_queued_job(self, data_dir, tmp_path, capsys):
        svc = tmp_path / "svc"
        main([
            "submit", str(data_dir / "reads.fastq"), "--dir", str(svc),
        ])
        job_id = capsys.readouterr().out.strip()
        rc = main(["cancel", job_id, "--dir", str(svc)])
        assert rc == 0
        assert "cancelled" in capsys.readouterr().out

    def test_submit_shed_when_queue_full(self, data_dir, tmp_path, capsys):
        svc = tmp_path / "svc"
        # persist a tiny queue limit, as the daemon would
        main([
            "submit", str(data_dir / "reads.fastq"), "--dir", str(svc),
        ])
        capsys.readouterr()
        from repro.service import ServiceConfig

        ServiceConfig(n_gpus=1, max_queued=1).save(svc)
        rc = main([
            "submit", str(data_dir / "reads.fastq"), "--dir", str(svc),
        ])
        assert rc == 3
        assert "rejected" in capsys.readouterr().err
