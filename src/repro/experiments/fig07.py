"""Fig. 7: retrieval time share across hardware, retrieval configuration
and sequence lengths (Case I).

(a) XPU generation A/B/C x model size 1B-405B; (b) scanned database
fraction 0.01%-1%; (c) prefix length x decode length heatmap for the 8B
model. Paper claims: better accelerators raise the retrieval share by up
to ~25 points; more scanned bytes raise it sharply; longer sequences
shrink it (86.3% at 128/128 down to 30.9% at 2048/512).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.experiments.base import ExperimentOutput, default_cluster
from repro.hardware.accelerator import XPU_GENERATIONS
from repro.hardware.cluster import ClusterSpec
from repro.pipeline.breakdown import time_breakdown
from repro.pipeline.stage_perf import RAGPerfModel
from repro.reporting.figures import format_heatmap
from repro.reporting.tables import format_table
from repro.schema.paradigms import case_i_hyperscale
from repro.schema.stages import Stage
from repro.workloads.profile import SequenceProfile


def _retrieval_share(schema, cluster) -> float:
    shares = time_breakdown(RAGPerfModel(schema, cluster))
    return shares[Stage.RETRIEVAL]


def run(fast: bool = True,
        cluster: Optional[ClusterSpec] = None) -> ExperimentOutput:
    """Regenerate the three retrieval-share sensitivity studies."""
    base_cluster = default_cluster(cluster)
    models = ("8B", "70B") if fast else ("1B", "8B", "70B", "405B")

    # (a) XPU generations.
    xpu_rows = []
    xpu_data: Dict[str, Dict[str, float]] = {}
    for xpu in XPU_GENERATIONS:
        gen_cluster = replace(base_cluster, xpu=xpu)
        row = [xpu.name]
        xpu_data[xpu.name] = {}
        for label in models:
            share = _retrieval_share(case_i_hyperscale(label), gen_cluster)
            row.append(100 * share)
            xpu_data[xpu.name][label] = share
        xpu_rows.append(tuple(row))
    text_a = format_table(("XPU",) + tuple(f"RAG {m}" for m in models),
                          xpu_rows,
                          title="Fig. 7a: % time in retrieval by XPU gen")

    # (b) Scanned-fraction sweep.
    fractions = (0.0001, 0.001, 0.01)
    scan_rows = []
    scan_data: Dict[float, Dict[str, float]] = {}
    for fraction in fractions:
        row = [f"{fraction:.2%}"]
        scan_data[fraction] = {}
        for label in models:
            share = _retrieval_share(
                case_i_hyperscale(label, scan_fraction=fraction),
                base_cluster)
            row.append(100 * share)
            scan_data[fraction][label] = share
        scan_rows.append(tuple(row))
    text_b = format_table(("scanned",) + tuple(f"RAG {m}" for m in models),
                          scan_rows,
                          title="Fig. 7b: % time in retrieval by scan "
                                "fraction")

    # (c) Sequence-length heatmap, 8B model.
    prefixes = (128, 512, 2048) if fast else (128, 256, 512, 1024, 2048)
    decodes = (128, 512) if fast else (128, 256, 512)
    cells: Dict[tuple, float] = {}
    for decode_len in decodes:
        for prefix_len in prefixes:
            profile = SequenceProfile().with_lengths(prefix_len=prefix_len,
                                                     decode_len=decode_len)
            schema = case_i_hyperscale("8B", sequences=profile)
            cells[(decode_len, prefix_len)] = 100 * _retrieval_share(
                schema, base_cluster)
    text_c = format_heatmap("Fig. 7c: % retrieval, 8B, by lengths",
                            "decode", "prefix", decodes, prefixes, cells,
                            fmt="{:.1f}")

    text = "\n\n".join((text_a, text_b, text_c))
    short = cells[(decodes[0], prefixes[0])]
    long = cells[(decodes[-1], prefixes[-1])]
    notes = (f"retrieval share falls from {short:.1f}% (short seqs) to "
             f"{long:.1f}% (long seqs); paper: 86.3% -> 30.9%")
    return ExperimentOutput(
        exp_id="fig7",
        title="Retrieval share vs XPU gen / scan fraction / lengths",
        text=text,
        data={"xpu": xpu_data, "scan": scan_data, "lengths": cells},
        notes=notes)
