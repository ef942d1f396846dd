"""Differential tests with ambiguous (N) bases in reads and contigs.

Synthetic communities never emit N, but real FASTQ input does; every
implementation must skip N-containing k-mers identically.
"""

import numpy as np
import pytest
from la_reference import build_kmer_table

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import KmerTables, run_local_assembly_cpu
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna


def _task_with_ns(rng, n_frac=0.02, cid=0):
    genome = random_dna(400, rng)
    reads, quals = [], []
    for i in range(0, 330, 6):
        r = list(genome[i : i + 70])
        for j in range(70):
            if rng.random() < n_frac:
                r[j] = "N"
        reads.append(encode("".join(r)))
        quals.append(np.full(70, 40, dtype=np.uint8))
    return ExtensionTask.from_reads(
        cid=cid, side=RIGHT, contig=encode(genome[:120]),
        reads=tuple(reads), quals=tuple(quals),
    )


class TestNBases:
    def test_table_skips_n_kmers(self, rng):
        task = _task_with_ns(rng, n_frac=0.05)
        table = build_kmer_table(task, 21, 20)
        for key in table:
            assert 4 not in key  # no N code in any stored k-mer
        assert KmerTables.build([task], 21, 20).sizes.tolist() == [len(table)]

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_gpu_equals_cpu_with_ns(self, rng, version):
        tasks = TaskSet([_task_with_ns(rng, cid=c) for c in range(3)])
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=120)
        cpu, _ = run_local_assembly_cpu(tasks, cfg)
        gpu = GpuLocalAssembler(cfg, kernel_version=version).run(tasks)
        assert gpu.extensions == cpu

    def test_contig_with_ns_still_extends(self, rng):
        """N in the contig body (outside the walk seed) is harmless."""
        genome = random_dna(400, rng)
        contig = list(genome[:120])
        contig[10] = "N"  # far from the extension end
        reads = tuple(encode(genome[i : i + 70]) for i in range(60, 330, 6))
        quals = tuple(np.full(70, 40, dtype=np.uint8) for _ in reads)
        task = ExtensionTask.from_reads(cid=0, side=RIGHT, contig=encode("".join(contig)),
                             reads=reads, quals=quals)
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=120)
        cpu, _ = run_local_assembly_cpu(TaskSet([task]), cfg)
        gpu = GpuLocalAssembler(cfg).run(TaskSet([task]))
        assert gpu.extensions == cpu
        assert cpu.lengths()[0] > 0

    def test_all_n_reads_no_extension(self, rng):
        task = ExtensionTask.from_reads(
            cid=0, side=RIGHT, contig=encode(random_dna(100, rng)),
            reads=(encode("N" * 60),),
            quals=(np.full(60, 40, dtype=np.uint8),),
        )
        cfg = LocalAssemblyConfig(k_init=21)
        cpu, _ = run_local_assembly_cpu(TaskSet([task]), cfg)
        gpu = GpuLocalAssembler(cfg).run(TaskSet([task]))
        assert cpu.codes.size == 0 and gpu.extensions == cpu
