"""Pinned deviations from the paper (ROADMAP "Fidelity gaps").

Each test is named after one documented gap between the paper and this
reproduction (EXPERIMENTS.md explains each) and pins our number
exactly, so a model change that moves it is a visible decision, not
drift.  They read the reference runs that ``repro experiment cycles``
fills the shared cache with.
"""

from repro.power.calibration import reference_results


def test_broadcast_only_im_access_reduction_is_73_7_not_40_percent():
    """Instruction broadcast without the DM organisation (shared LUTs,
    no data broadcast) on ulpmc-bank: the paper reports a 40% IM-access
    reduction, ours is 73.7%."""
    __, run = reference_results("ulpmc-bank", huffman_private=False,
                                data_broadcast=False)
    stats = run.stats
    assert (stats.im_bank_accesses, stats.im_fetches) == (140494, 534153)
    assert round(100 * (1 - stats.im_bank_accesses / stats.im_fetches),
                 1) == 73.7


def test_broadcast_only_im_access_reduction_on_ulpmc_int_is_41_2():
    """The same configuration on ulpmc-int, whose arithmetic the
    paper's 40% fits (ROADMAP item 5): its interleaved IM serves
    several fetch PCs per cycle, which one ulpmc-bank bank cannot."""
    __, run = reference_results("ulpmc-int", huffman_private=False,
                                data_broadcast=False)
    stats = run.stats
    assert (stats.im_bank_accesses, stats.im_fetches) == (314061, 534153)
    assert round(100 * (1 - stats.im_bank_accesses / stats.im_fetches),
                 1) == 41.2


def test_private_data_access_fraction_is_69_43_not_76_percent():
    """Paper Section III-D profiles 76% private / 24% shared data
    accesses; our kernel (private LUTs) makes 69.43% private."""
    __, run = reference_results("mc-ref")
    stats = run.stats
    assert (stats.dm_private_accesses, stats.dm_shared_accesses) \
        == (111621, 49152)
    assert round(100 * stats.private_access_fraction, 2) == 69.43

