"""Job-service tests: state machine, admission, scheduling, resume, cache.

The multi-tenant layer must never change results: every assertion about
outputs compares against a solo ``run_pipeline`` on the same reads and
config (bit-identity), and every failure-injection assertion checks the
service degrades (sheds, defers, recomputes) instead of crashing.
"""

import json
import threading

import numpy as np
import pytest

from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.fastq import load_read_batch, save_read_batch
from repro.service import (
    AssemblyService,
    BudgetExceededError,
    Job,
    JobQueue,
    JobSpec,
    JobState,
    QueueFullError,
    ServiceConfig,
)
from repro.service.job import PIPELINE_SPEC_KEYS

GB = 1 << 30


@pytest.fixture(scope="module")
def reads_file(tmp_path_factory):
    rng = np.random.default_rng(4242)
    comm = arcticsynth_like(rng, n_genomes=2, genome_length=5000)
    reads = sample_paired_reads(comm, 300, rng)
    path = tmp_path_factory.mktemp("reads") / "reads.fastq"
    save_read_batch(path, reads)
    return path


@pytest.fixture(scope="module")
def solo_result(reads_file):
    """Reference: the same dataset assembled without the service."""
    reads = load_read_batch(reads_file, paired=True)
    cfg = PipelineConfig(local_assembly_mode="gpu", run_scaffolding=False)
    return run_pipeline(reads, cfg)


GPU_JOB = {"local_assembly_mode": "gpu", "run_scaffolding": False}


def contig_seqs(job_dir):
    from repro.sequence.fastq import read_fasta

    return [seq for _, seq in read_fasta(job_dir / "contigs.fasta")]


class TestJobModel:
    def test_roundtrip(self):
        spec = JobSpec(reads="r.fastq", tenant="t", config={"k_series": [21]})
        job = Job(job_id="job-x", spec=spec)
        back = Job.from_dict(job.to_dict())
        assert back.spec == spec
        assert back.state is JobState.QUEUED

    def test_legal_path(self):
        job = Job(job_id="j", spec=JobSpec(reads="r"))
        for state in (JobState.STAGING, JobState.RUNNING, JobState.DONE):
            job.transition(state)
        assert job.terminal

    def test_illegal_transition(self):
        job = Job(job_id="j", spec=JobSpec(reads="r"))
        with pytest.raises(ValueError, match="illegal job transition"):
            job.transition(JobState.DONE)

    def test_terminal_is_sticky(self):
        job = Job(job_id="j", spec=JobSpec(reads="r"))
        job.transition(JobState.CANCELLED)
        with pytest.raises(ValueError):
            job.transition(JobState.STAGING)

    def test_unknown_spec_key_rejected(self):
        # the nested config is not JSON and the service owns the budget
        for key in ("no_such_knob", "local_assembly", "local_assembly_mem_budget"):
            with pytest.raises(ValueError, match="unknown pipeline config keys"):
                JobSpec(reads="r", config={key: 1})

    def test_every_spec_key_round_trips(self):
        """Each key a spec accepts survives job.json and reaches the run."""
        reference = PipelineConfig()
        config = {k: getattr(reference, k) for k in PIPELINE_SPEC_KEYS}
        spec = JobSpec(reads="r", config=config)
        back = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert set(back.config) == PIPELINE_SPEC_KEYS
        assert back.pipeline_config() == reference

    def test_streams_key_round_trips_and_accepts_only_two(self):
        # a spec key while the benchmark replay still names the field
        spec = JobSpec(reads="r", config={"local_assembly_streams": 2})
        back = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.config == {"local_assembly_streams": 2}
        assert back.pipeline_config().local_assembly_streams == 2
        spec = JobSpec(reads="r", config={"local_assembly_streams": 3})
        with pytest.raises(ValueError, match="local_assembly_streams"):
            spec.pipeline_config()

    def test_ranked_alignment_spec_accepted(self):
        spec = JobSpec(reads="r", config={"aln_ranks": 2, "kmer_sanitize": "rankcheck"})
        config = spec.pipeline_config()
        assert config.aln_ranks == 2 and config.kmer_sanitize == "rankcheck"

    def test_bad_kernel_version_fails_before_the_run(self):
        spec = JobSpec(reads="r", config={"gpu_kernel_version": "v3"})
        with pytest.raises(ValueError, match="gpu_kernel_version"):
            spec.pipeline_config()

    def test_recovery_edge(self):
        job = Job(job_id="j", spec=JobSpec(reads="r"))
        job.transition(JobState.STAGING)
        job.transition(JobState.RUNNING)
        job.transition(JobState.QUEUED)  # recovery
        assert job.state is JobState.QUEUED


class TestQueue:
    def test_submission_order(self, tmp_path):
        q = JobQueue(tmp_path)
        ids = [q.submit(JobSpec(reads=f"r{i}")).job_id for i in range(3)]
        assert [j.job_id for j in q.jobs()] == ids

    def test_torn_record_skipped(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(JobSpec(reads="r"))
        bad = q.jobs_dir / "job-torn"
        bad.mkdir()
        (bad / "job.json").write_text("{not json")
        assert len(q.jobs()) == 1

    def test_queue_full_sheds(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit(JobSpec(reads="r"), max_queued=1)
        with pytest.raises(QueueFullError):
            q.submit(JobSpec(reads="r2"), max_queued=1)

    def test_budget_rejection(self, tmp_path):
        q = JobQueue(tmp_path)
        with pytest.raises(BudgetExceededError):
            q.submit(
                JobSpec(reads="r", tenant="t", mem_budget=2 * GB),
                tenant_budget=1 * GB,
                mem_demand=2 * GB,
            )

    def test_unbuildable_config_rejected_at_admission(self, tmp_path):
        """Admitted at the parent, then failed by ``serve``; now nothing is
        written."""
        q = JobQueue(tmp_path)
        for config in ({"k_series": [20]}, {"gpu_kernel_version": "v3"}):
            with pytest.raises(ValueError):
                q.submit(JobSpec(reads="r", config=config))
        assert q.jobs() == [] and not list(q.jobs_dir.iterdir())
        # a stored spec still loads leniently, so an existing queue lists
        spec = JobSpec.from_dict({"reads": "r", "config": {"k_series": [20]}})
        assert spec.config == {"k_series": [20]}

    def test_cancel_queued(self, tmp_path):
        q = JobQueue(tmp_path)
        job = q.submit(JobSpec(reads="r"))
        assert q.cancel(job.job_id).state is JobState.CANCELLED
        # idempotent on terminal jobs
        assert q.cancel(job.job_id).state is JobState.CANCELLED

    def test_recover_requeues_midflight(self, tmp_path):
        q = JobQueue(tmp_path)
        job = q.submit(JobSpec(reads="r"))
        job.transition(JobState.STAGING)
        job.transition(JobState.RUNNING)
        q.save(job)
        requeued = q.recover()
        assert [j.job_id for j in requeued] == [job.job_id]
        back = q.get(job.job_id)
        assert back.state is JobState.QUEUED and back.attempt == 2


class TestService:
    def test_concurrent_jobs_bit_identical(
        self, tmp_path, reads_file, solo_result
    ):
        with AssemblyService(
            tmp_path / "svc", ServiceConfig(n_gpus=3)
        ) as svc:
            jobs = [
                svc.submit(reads_file, tenant=f"t{i}", config=GPU_JOB)
                for i in range(3)
            ]
            final = {j.job_id: j for j in svc.drain()}
        solo = [c.seq for c in solo_result.contigs]
        for job in jobs:
            done = final[job.job_id]
            assert done.state is JobState.DONE, done.error
            assert contig_seqs(svc.queue.job_dir(job.job_id)) == solo
            assert done.metrics["queue_wait_s"] is not None
            assert "stage_seconds" in done.metrics

    def test_report_json(self, tmp_path, reads_file):
        with AssemblyService(tmp_path / "svc", ServiceConfig(n_gpus=1)) as svc:
            job = svc.submit(reads_file, config=GPU_JOB)
            svc.drain()
            report = json.loads(
                (svc.queue.job_dir(job.job_id) / "report.json").read_text()
            )
        assert report["state"] == "done"
        assert report["metrics"]["gpu_slot"] == 0
        assert report["metrics"]["cache_hit"] is False
        assert report["metrics"]["n_contigs"] > 0
        assert "local assembly" in report["metrics"]["stage_seconds"]

    def test_cache_hit_skips_prefix_bit_identical(self, tmp_path, reads_file):
        root = tmp_path / "svc"
        with AssemblyService(root, ServiceConfig(n_gpus=1)) as svc:
            first = svc.submit(reads_file, config=GPU_JOB)
            svc.drain()
            second = svc.submit(reads_file, tenant="other", config=GPU_JOB)
            final = {j.job_id: j for j in svc.drain()}
        f, s = final[first.job_id], final[second.job_id]
        assert f.metrics["cache_hit"] is False
        assert s.metrics["cache_hit"] is True
        # the memoised run skipped the dBG prefix entirely
        assert "k-mer analysis" not in s.metrics["stage_seconds"]
        assert "contig generation" not in s.metrics["stage_seconds"]
        q = JobQueue(root)
        assert contig_seqs(q.job_dir(f.job_id)) == contig_seqs(
            q.job_dir(s.job_id)
        )

    def test_corrupt_cache_entry_recomputed(self, tmp_path, reads_file):
        root = tmp_path / "svc"
        with AssemblyService(root, ServiceConfig(n_gpus=1)) as svc:
            first = svc.submit(reads_file, config=GPU_JOB)
            svc.drain()
            key = svc.queue.get(first.job_id).metrics["checkpoint_key"]
            npz = svc.cache.dir_for(key) / "contigs_checkpoint.npz"
            npz.write_bytes(npz.read_bytes()[:100])  # truncate = corrupt
            second = svc.submit(reads_file, config=GPU_JOB)
            final = {j.job_id: j for j in svc.drain()}
        s = final[second.job_id]
        assert s.state is JobState.DONE, s.error
        assert s.metrics["cache_hit"] is False  # corrupt probes as a miss
        q = JobQueue(root)
        assert contig_seqs(q.job_dir(first.job_id)) == contig_seqs(
            q.job_dir(second.job_id)
        )

    def test_admission_queue_full(self, tmp_path, reads_file):
        with AssemblyService(
            tmp_path / "svc", ServiceConfig(n_gpus=1, max_queued=1)
        ) as svc:
            svc.submit(reads_file, config=GPU_JOB)
            with pytest.raises(QueueFullError):
                svc.submit(reads_file, config=GPU_JOB)

    def test_admission_budget_rejection(self, tmp_path, reads_file):
        cfg = ServiceConfig(n_gpus=2, tenant_budgets={"capped": 1 * GB})
        with AssemblyService(tmp_path / "svc", cfg) as svc:
            with pytest.raises(BudgetExceededError):
                svc.submit(
                    reads_file, tenant="capped", mem_budget=2 * GB,
                    config=GPU_JOB,
                )
            # within budget is admitted
            job = svc.submit(
                reads_file, tenant="capped", mem_budget=GB // 2,
                config=GPU_JOB,
            )
            final = {j.job_id: j for j in svc.drain()}
        assert final[job.job_id].state is JobState.DONE

    def test_tenant_budget_defers_but_completes(self, tmp_path, reads_file):
        # two jobs each demanding the whole tenant budget: they must run
        # one after the other, and both must finish
        cfg = ServiceConfig(n_gpus=2, tenant_budgets={"t": 1 * GB})
        with AssemblyService(tmp_path / "svc", cfg) as svc:
            jobs = [
                svc.submit(reads_file, tenant="t", mem_budget=1 * GB,
                           config=GPU_JOB)
                for _ in range(2)
            ]
            final = {j.job_id: j for j in svc.drain()}
        for job in jobs:
            assert final[job.job_id].state is JobState.DONE

    def test_cancel_before_run(self, tmp_path, reads_file):
        root = tmp_path / "svc"
        with AssemblyService(root, ServiceConfig(n_gpus=1)) as svc:
            job = svc.submit(reads_file, config=GPU_JOB)
            svc.cancel(job.job_id)
            final = {j.job_id: j for j in svc.drain()}
        assert final[job.job_id].state is JobState.CANCELLED
        assert not (JobQueue(root).job_dir(job.job_id) / "contigs.fasta").exists()

    def test_missing_reads_fails_cleanly(self, tmp_path):
        with AssemblyService(tmp_path / "svc", ServiceConfig(n_gpus=1)) as svc:
            job = svc.submit(tmp_path / "nope.fastq", config=GPU_JOB)
            final = {j.job_id: j for j in svc.drain()}
        failed = final[job.job_id]
        assert failed.state is JobState.FAILED
        assert failed.error

    def test_resume_after_restart(self, tmp_path, reads_file, solo_result):
        root = tmp_path / "svc"
        # first service instance: one job runs to DONE (checkpoint cached)
        with AssemblyService(root, ServiceConfig(n_gpus=1)) as svc1:
            done = svc1.submit(reads_file, config=GPU_JOB)
            svc1.drain()
            # second job is left mid-RUNNING, as if the process was killed
            victim = svc1.submit(reads_file, config=GPU_JOB)
            rec = svc1.queue.get(victim.job_id)
            rec.transition(JobState.STAGING)
            rec.transition(JobState.RUNNING)
            svc1.queue.save(rec)
        # a fresh instance adopts the service dir
        with AssemblyService(root) as svc2:
            requeued = svc2.recover()
            assert [j.job_id for j in requeued] == [victim.job_id]
            final = {j.job_id: j for j in svc2.drain()}
        resumed = final[victim.job_id]
        assert resumed.state is JobState.DONE, resumed.error
        assert resumed.attempt == 2
        # the resumed attempt rode the checkpoint: dBG prefix skipped
        assert resumed.metrics["cache_hit"] is True
        assert "k-mer analysis" not in resumed.metrics["stage_seconds"]
        # and the output is bit-identical to the solo reference
        solo = [c.seq for c in solo_result.contigs]
        assert contig_seqs(JobQueue(root).job_dir(victim.job_id)) == solo
        assert contig_seqs(JobQueue(root).job_dir(done.job_id)) == solo

    def test_service_config_persisted(self, tmp_path):
        cfg = ServiceConfig(n_gpus=4, max_queued=7, tenant_budgets={"a": GB})
        with AssemblyService(tmp_path / "svc", cfg):
            pass
        loaded = ServiceConfig.load(tmp_path / "svc")
        assert loaded == cfg

    def test_serve_forever_stops(self, tmp_path):
        with AssemblyService(tmp_path / "svc", ServiceConfig(n_gpus=1)) as svc:
            stop = threading.Event()
            t = threading.Thread(target=svc.serve_forever, args=(stop,))
            t.start()
            stop.set()
            t.join(timeout=10.0)
            assert not t.is_alive()
