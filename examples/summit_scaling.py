"""Summit-scale projections: Figs 2, 12, 13 and 14 from the scale model.

Prints the strong-scaling tables (local assembly and whole pipeline) and
the stage-share pies for the WA and arcticsynth profiles.  See DESIGN.md
§2 for how the model is calibrated against the paper's 64-node anchors.

Run:  python examples/summit_scaling.py
"""

from repro.analysis.reporting import format_fractions, format_table
from repro.distributed.strong_scaling import (
    PAPER_NODES,
    la_scaling_table,
    pipeline_scaling_table,
)
from repro.distributed.summit import ARCTICSYNTH_PROFILE, SummitScaleModel, WA_PROFILE


def main() -> None:
    wa = SummitScaleModel(profile=WA_PROFILE)

    rows = [
        (r.nodes, f"{r.cpu_s:.0f}", f"{r.gpu_s:.1f}", f"{r.speedup:.2f}x")
        for r in la_scaling_table()
    ]
    print(format_table(
        ["nodes", "CPU LA (s)", "GPU LA (s)", "speedup"],
        rows,
        "Fig 13 — local assembly strong scaling (WA)",
    ))

    rows = [
        (r.nodes, f"{r.cpu_s:.0f}", f"{r.gpu_s:.0f}", f"{100 * (r.speedup - 1):.0f}%")
        for r in pipeline_scaling_table()
    ]
    print()
    print(format_table(
        ["nodes", "pipeline CPU-LA (s)", "pipeline GPU-LA (s)", "gain"],
        rows,
        "Fig 14 — whole-pipeline strong scaling (WA)",
    ))

    print()
    print(format_fractions(
        wa.profile_fractions(64, False), "Fig 2a — stage shares @64 nodes (CPU LA)"
    ))
    print()
    print(format_fractions(
        wa.profile_fractions(64, True), "Fig 2b — stage shares @64 nodes (GPU LA)"
    ))

    arctic = SummitScaleModel(profile=ARCTICSYNTH_PROFILE)
    print("\nFig 12 — arcticsynth on 2 Summit nodes:")
    print(f"  local assembly: {arctic.la_cpu_time(2):.0f} s -> "
          f"{arctic.la_gpu_time(2):.1f} s "
          f"({arctic.la_speedup(2):.1f}x; paper: 4.3x)")
    print(f"  whole pipeline: {arctic.pipeline_time(2, False):.0f} s -> "
          f"{arctic.pipeline_time(2, True):.0f} s "
          f"(+{100 * (arctic.pipeline_speedup(2) - 1):.0f}%; paper: ~12%)")

    print("\nDecay mechanism (per-GPU warps vs latency-hiding capacity):")
    gla = WA_PROFILE.gpu_local_assembly
    for n in PAPER_NODES:
        warps = gla.warps_per_gpu(n)
        occ = gla.device.occupancy(int(warps))
        print(f"  {n:>5} nodes: {warps:>8.0f} warps/GPU, occupancy {occ:.2f}")


if __name__ == "__main__":
    main()
