"""Process-fleet tests: real worker processes over the shared job store.

The fleet knob (``workers=process``) must change *who* runs a job, never
*what* it produces: contigs stay bit-identical to a thread fleet and to a
solo ``run_pipeline``.  The cross-process run claim must make double
execution impossible and crash recovery must respect live claimants.
"""

import json
import os

import numpy as np
import pytest

from repro.locking import ClaimFile
from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.fastq import load_read_batch, save_read_batch
from repro.service import AssemblyService, JobQueue, JobSpec, JobState, ServiceConfig
from repro.service.service import WORKER_MODES, execute_job
from repro.service.cache import ResultCache
from repro.gpusim.device import V100

GB = 1 << 30

GPU_JOB = {"local_assembly_mode": "gpu", "run_scaffolding": False}


@pytest.fixture(scope="module")
def reads_file(tmp_path_factory):
    rng = np.random.default_rng(808)
    comm = arcticsynth_like(rng, n_genomes=2, genome_length=5000)
    reads = sample_paired_reads(comm, 300, rng)
    path = tmp_path_factory.mktemp("reads") / "reads.fastq"
    save_read_batch(path, reads)
    return path


@pytest.fixture(scope="module")
def solo_contigs(reads_file):
    reads = load_read_batch(reads_file, paired=True)
    cfg = PipelineConfig(local_assembly_mode="gpu", run_scaffolding=False)
    return [c.seq for c in run_pipeline(reads, cfg).contigs]


def contig_seqs(job_dir):
    from repro.sequence.fastq import read_fasta

    return [seq for _, seq in read_fasta(job_dir / "contigs.fasta")]


def _drain(root, workers, reads_file, n_jobs=2):
    cfg = ServiceConfig(n_gpus=2, workers=workers)
    with AssemblyService(root, cfg) as svc:
        jobs = [
            svc.submit(reads_file, tenant=f"t{i}", config=GPU_JOB)
            for i in range(n_jobs)
        ]
        final = {j.job_id: j for j in svc.drain()}
        return svc, [final[j.job_id] for j in jobs]


class TestConfigKnob:
    def test_workers_roundtrip(self, tmp_path):
        cfg = ServiceConfig(workers="process")
        cfg.save(tmp_path)
        assert ServiceConfig.load(tmp_path).workers == "process"

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers="coroutine")

    def test_modes_cover_both_fleets(self):
        assert WORKER_MODES == ("thread", "process")


class TestProcessFleet:
    def test_bit_identity_and_real_processes(
        self, tmp_path, reads_file, solo_contigs
    ):
        svc, jobs = _drain(tmp_path / "proc", "process", reads_file)
        assert all(j.state is JobState.DONE for j in jobs)
        for job in jobs:
            assert contig_seqs(svc.queue.job_dir(job.job_id)) == solo_contigs
            # the job ran in a pool worker, not in this process
            assert job.metrics["worker_pid"] != os.getpid()

    def test_matches_thread_fleet(self, tmp_path, reads_file):
        svc_t, jobs_t = _drain(tmp_path / "thread", "thread", reads_file, 1)
        svc_p, jobs_p = _drain(tmp_path / "process", "process", reads_file, 1)
        assert jobs_t[0].state is jobs_p[0].state is JobState.DONE
        assert contig_seqs(svc_t.queue.job_dir(jobs_t[0].job_id)) == contig_seqs(
            svc_p.queue.job_dir(jobs_p[0].job_id)
        )
        # thread workers share the parent's pid; process workers do not
        assert jobs_t[0].metrics["worker_pid"] == os.getpid()
        assert jobs_p[0].metrics["worker_pid"] != os.getpid()

    def test_report_written(self, tmp_path, reads_file):
        svc, jobs = _drain(tmp_path / "rep", "process", reads_file, 1)
        report = json.loads(
            (svc.queue.job_dir(jobs[0].job_id) / "report.json").read_text()
        )
        assert report["state"] == "done"
        assert report["metrics"]["n_contigs"] > 0


class TestRunClaim:
    def _queued_job(self, root, reads_file):
        queue = JobQueue(root)
        job = queue.submit(JobSpec(reads=str(reads_file), config=dict(GPU_JOB)))
        return queue, job

    def test_double_claim_prevented(self, tmp_path, reads_file):
        queue, job = self._queued_job(tmp_path, reads_file)
        held = queue.claim(job.job_id)
        assert held is not None
        # a second worker cannot claim, and execute_job refuses to run
        assert queue.claim(job.job_id) is None
        cache = ResultCache(tmp_path / "cache")
        execute_job(queue, cache, V100, job.job_id, 0, GB)
        assert queue.get(job.job_id).state is JobState.QUEUED  # untouched
        held.release()
        execute_job(queue, cache, V100, job.job_id, 0, GB)
        assert queue.get(job.job_id).state is JobState.DONE

    def test_recover_respects_live_claim(self, tmp_path, reads_file):
        queue, job = self._queued_job(tmp_path, reads_file)
        job.transition(JobState.STAGING)
        job.transition(JobState.RUNNING)
        queue.save(job)
        held = queue.claim(job.job_id)  # "another live daemon" (us)
        assert queue.recover() == []
        assert queue.get(job.job_id).state is JobState.RUNNING
        held.release()

    def test_recover_breaks_dead_claim(self, tmp_path, reads_file):
        import multiprocessing as mp

        queue, job = self._queued_job(tmp_path, reads_file)
        job.transition(JobState.STAGING)
        job.transition(JobState.RUNNING)
        queue.save(job)
        # a worker that died mid-run: claim names a reaped child's pid
        p = mp.get_context("fork").Process(target=lambda: None)
        p.start()
        p.join()
        queue.claim_path(job.job_id).write_text(
            json.dumps({"pid": p.pid, "token": "dead", "time": 0})
        )
        requeued = queue.recover()
        assert [j.job_id for j in requeued] == [job.job_id]
        back = queue.get(job.job_id)
        assert back.state is JobState.QUEUED
        assert back.attempt == job.attempt + 1
        # the re-queued job is claimable again (stale claim broken)
        claim = queue.claim(job.job_id)
        assert claim is not None
        claim.release()
