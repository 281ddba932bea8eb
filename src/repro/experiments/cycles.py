"""Section IV-C2 — cycle counts, IM accesses and broadcast ablations.

Paper numbers reproduced here (all for one benchmark execution):

* cycle counts with the Huffman LUTs in the *shared* section:
  90.20 k (mc-ref) / 90.40 k (ulpmc-int) / 101.8 k (ulpmc-bank) —
  the banked organisation suffers IM conflicts once the data-dependent
  Huffman flow desynchronises the cores;
* with the LUTs moved to the *private* sections: 90.20 k / ~90.20 k /
  94.00 k (+4 %);
* IM bank accesses: 720 800 for mc-ref (one per fetch per core);
  428 740 with only the I-Xbar broadcast (−40 %); 90 220 once the DM
  organisation and data broadcast keep the cores synchronised (−87 %);
* maximum throughputs at 1.2 V: 664.5 / 662.3 / 636.9 MOps/s.

Because our kernel is a re-implementation (267 B vs the paper's 552 B),
absolute cycle counts differ; the comparisons therefore target the
*ratios*, which are what the paper's conclusions rest on.
"""

from __future__ import annotations

from repro.experiments.common import ARCHES, Comparison, ExperimentResult
from repro.power.calibration import calibrated_set, reference_results

PAPER_KCYCLES_SHARED = {"mc-ref": 90.20, "ulpmc-int": 90.40,
                        "ulpmc-bank": 101.8}
PAPER_KCYCLES_PRIVATE = {"mc-ref": 90.20, "ulpmc-int": 90.20,
                         "ulpmc-bank": 94.00}
PAPER_MAX_MOPS = {"mc-ref": 664.5, "ulpmc-int": 662.3,
                  "ulpmc-bank": 636.9}


def _runs(fast_forward: bool, **kwargs) -> dict:
    """{arch: SimulationResult} of one reference configuration."""
    return {arch: reference_results(arch, fast_forward=fast_forward,
                                    **kwargs)[1]
            for arch in ARCHES}


def run(fast_forward: bool = True) -> ExperimentResult:
    cal = calibrated_set(fast_forward=fast_forward)
    shared = _runs(fast_forward, huffman_private=False)
    private = _runs(fast_forward)
    ablation = _runs(fast_forward, huffman_private=False,
                     data_broadcast=False)

    result = ExperimentResult(
        exp_id="cycles",
        title="Cycle counts and IM accesses (Section IV-C2)",
        headers=["arch", "variant", "cycles", "vs mc-ref", "IM accesses",
                 "IM access reduction %", "sync %"],
    )

    for label, runs in (("shared-LUT", shared), ("private-LUT", private),
                        ("no-data-broadcast", ablation)):
        base = runs["mc-ref"].stats.total_cycles
        for arch in ARCHES:
            stats = runs[arch].stats
            reduction = 100 * (1 - stats.im_bank_accesses
                               / stats.im_fetches)
            result.rows.append([
                arch, label, stats.total_cycles,
                round(stats.total_cycles / base, 4),
                stats.im_bank_accesses,
                round(reduction, 1),
                round(100 * stats.sync_fraction, 1),
            ])

    # --- ratio comparisons against the paper -----------------------------------
    for paper, runs, label in (
            (PAPER_KCYCLES_SHARED, shared, "shared LUTs"),
            (PAPER_KCYCLES_PRIVATE, private, "private LUTs")):
        base = runs["mc-ref"].stats.total_cycles
        for arch in ("ulpmc-int", "ulpmc-bank"):
            result.comparisons.append(Comparison(
                metric=f"{arch} cycle overhead vs mc-ref ({label})",
                paper=paper[arch] / paper["mc-ref"],
                measured=runs[arch].stats.total_cycles / base))

    mcref = private["mc-ref"].stats
    bank = private["ulpmc-bank"].stats
    result.comparisons.append(Comparison(
        metric="IM accesses per fetch, mc-ref (one per core fetch)",
        paper=1.0,
        measured=mcref.im_bank_accesses / mcref.im_fetches))
    result.comparisons.append(Comparison(
        metric="IM access reduction with DM organisation + broadcasts",
        paper=87.0,
        measured=100 * (1 - bank.im_bank_accesses / bank.im_fetches),
        unit="%"))
    abl = ablation["ulpmc-bank"].stats
    result.comparisons.append(Comparison(
        metric="IM access reduction with I-Xbar broadcast only",
        paper=40.0,
        measured=100 * (1 - abl.im_bank_accesses / abl.im_fetches),
        unit="%",
        note="without the DM organisation the cores desynchronise and "
             "instruction broadcast loses most of its effect"))

    for arch in ARCHES:
        result.comparisons.append(Comparison(
            metric=f"{arch} maximum throughput at 1.2 V",
            paper=PAPER_MAX_MOPS[arch],
            measured=cal.max_workload(arch) / 1e6,
            unit="MOps/s"))

    spec_stats = private["mc-ref"].stats
    result.comparisons.append(Comparison(
        metric="private fraction of data accesses",
        paper=76.0,
        measured=100 * spec_stats.private_access_fraction,
        unit="%",
        note="paper Section III-D profiles 76% private / 24% shared"))
    result.notes.append(
        "absolute cycle counts differ from the paper (re-implemented "
        "267 B kernel vs the original 552 B); the conclusions rest on "
        "the ratios compared above")
    return result
