"""Figure 2 — MetaHipMer2 run-time breakdown, CPU vs GPU local assembly.

Paper (64 Summit nodes, WA dataset): total 2128 s with CPU local assembly
(34% in local assembly) vs 1495 s with GPU local assembly (6%).

Reproduced from the calibrated Summit scale model (DESIGN.md §2), plus a
*measured* laptop-scale profile from the real pipeline as a sanity check
that local assembly is a dominant stage at small scale too.
"""

from conftest import record

from repro.analysis.reporting import format_fractions, paper_vs_measured
from repro.distributed.summit import WA_PROFILE, SummitScaleModel


def bench_fig02_profile_model(benchmark):
    model = SummitScaleModel(profile=WA_PROFILE)

    def compute():
        return (
            model.pipeline_time(64, False),
            model.pipeline_time(64, True),
            model.profile_fractions(64, False),
            model.profile_fractions(64, True),
        )

    total_cpu, total_gpu, frac_cpu, frac_gpu = benchmark(compute)

    text = "\n\n".join(
        [
            paper_vs_measured(
                "Fig 2 — MHM2 breakdown @64 Summit nodes (WA)",
                [
                    ("total time, CPU LA (s)", 2128, round(total_cpu)),
                    ("total time, GPU LA (s)", 1495, round(total_gpu)),
                    ("local assembly share, CPU LA", "34%", f"{100*frac_cpu['local assembly']:.1f}%"),
                    ("local assembly share, GPU LA", "6%", f"{100*frac_gpu['local assembly']:.1f}%"),
                ],
            ),
            format_fractions(frac_cpu, "Fig 2a (model): stage shares, CPU local assembly"),
            format_fractions(frac_gpu, "Fig 2b (model): stage shares, GPU local assembly"),
        ]
    )
    record("fig02_breakdown", text)
    assert abs(total_cpu - 2128) / 2128 < 0.02
    assert abs(frac_cpu["local assembly"] - 0.34) < 0.01


def bench_fig02_measured_laptop_profile(benchmark, workload):
    """Measured single-process stage profile on the laptop-scale dataset.

    Absolute seconds are Python-scale; the check is the *shape*: local
    assembly is one of the dominant stages, as the paper motivates.
    """
    from repro.pipeline.pipeline import PipelineConfig, run_pipeline

    result = benchmark.pedantic(
        lambda: run_pipeline(
            workload["reads"], PipelineConfig(local_assembly_mode="cpu")
        ),
        rounds=1,
        iterations=1,
    )
    fracs = result.times.fractions()
    text = format_fractions(
        fracs, "Measured laptop-scale stage shares (CPU local assembly)"
    )
    record("fig02_measured_laptop", text)
    assert fracs["local assembly"] > 0.05
