"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import extend_task_cpu, run_local_assembly_cpu
from repro.core.driver import GpuLocalAssembler
from repro.core.extension import classify_extension
from repro.core.gpu_batch import ext_capacity
from repro.core.tasks import RIGHT, ExtensionTask, TaskSet, apply_extensions
from repro.sequence.dna import encode, revcomp

dna = st.text(alphabet="ACGT", min_size=0, max_size=60)


@st.composite
def extension_tasks(draw):
    """A small random extension task built from a random genome."""
    genome = draw(st.text(alphabet="ACGT", min_size=80, max_size=240))
    contig_end = draw(st.integers(30, max(31, len(genome) - 40)))
    read_len = draw(st.integers(25, 50))
    stride = draw(st.integers(2, 15))
    n_err = draw(st.integers(0, 3))
    reads = [
        genome[i : i + read_len]
        for i in range(0, len(genome) - read_len + 1, stride)
    ]
    reads = [r for r in reads if len(r) == read_len]
    quals = [np.full(read_len, 40, dtype=np.uint8) for _ in reads]
    # inject a few low-quality errors
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    for _ in range(n_err):
        if not reads:
            break
        ri = int(rng.integers(0, len(reads)))
        pos = int(rng.integers(0, read_len))
        r = list(reads[ri])
        r[pos] = "ACGT"[("ACGT".index(r[pos]) + 1) % 4]
        reads[ri] = "".join(r)
        quals[ri] = quals[ri].copy()
        quals[ri][pos] = 5
    return ExtensionTask.from_reads(
        cid=0,
        side=RIGHT,
        contig=encode(genome[:contig_end]),
        reads=tuple(encode(r) for r in reads),
        quals=tuple(quals),
    )


CFG = LocalAssemblyConfig(k_init=17, k_min=13, k_max=33, k_step=8, max_walk_len=60)


class TestGpuCpuProperty:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(extension_tasks())
    def test_gpu_always_equals_cpu(self, task):
        ts = TaskSet([task])
        cpu, _ = run_local_assembly_cpu(ts, CFG)
        gpu = GpuLocalAssembler(CFG).run(ts)
        assert gpu.extensions == cpu

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(extension_tasks())
    def test_extension_bounded_by_capacity(self, task):
        """No extension can exceed the device buffer sizing bound."""
        result = extend_task_cpu(task, CFG)
        assert len(result.extension) <= ext_capacity(CFG)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(extension_tasks())
    def test_deterministic(self, task):
        a = extend_task_cpu(task, CFG)
        b = extend_task_cpu(task, CFG)
        assert a.extension == b.extension
        assert a.rounds == b.rounds


class TestClassifyProperties:
    @given(
        st.tuples(*(st.integers(0, 30) for _ in range(4))),
        st.tuples(*(st.integers(0, 30) for _ in range(4))),
        st.permutations(range(4)),
    )
    def test_label_permutation_equivariance(self, hi, total, perm):
        """Relabelling bases permutes the chosen base, nothing else."""
        status, base = classify_extension(hi, total)
        hi_p = tuple(hi[perm.index(b)] for b in range(4))
        tot_p = tuple(total[perm.index(b)] for b in range(4))
        status_p, base_p = classify_extension(hi_p, tot_p)
        assert status == status_p
        if status is None:
            assert base_p == perm[base]

    @given(st.tuples(*(st.integers(0, 30) for _ in range(4))))
    def test_scaling_up_never_creates_deadend(self, counts):
        """Adding more support never turns an extension into a dead end."""
        from repro.core.extension import WalkStatus

        status, _ = classify_extension(counts, counts)
        bigger = tuple(c + 2 for c in counts)
        status2, _ = classify_extension(bigger, bigger)
        if status is None or status == WalkStatus.FORK:
            assert status2 != WalkStatus.RUNOUT


class TestOrientationProperties:
    @given(dna, dna, dna)
    def test_apply_extensions_roundtrip(self, left, mid, right):
        if not mid:
            mid = "A"
        out = apply_extensions({0: mid}, {(0, 0): left, (0, 1): right})
        assert out[0] == revcomp(left) + mid + right
        assert len(out[0]) == len(left) + len(mid) + len(right)

    @given(dna.filter(lambda s: len(s) >= 20))
    def test_left_right_symmetry(self, genome):
        """Extending rc(contig) rightward == extending contig leftward."""
        contig = genome[5:]
        missing = genome[:5]
        # if a walk recovered exactly `missing`, apply_extensions restores
        ext_left = revcomp(missing)
        out = apply_extensions({0: contig}, {(0, 0): ext_left})
        assert out[0] == genome
