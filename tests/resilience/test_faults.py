"""Fault model contracts: drawing, injection, classification.

The fault plan must be a pure function of ``(campaign_seed, trial)``,
every drawn site must be in bounds for the machine, and forced-plan
trials must classify deterministically — including the dead-core
graceful-degradation path and the stuck-core watchdog hang.
"""

import random
from dataclasses import replace

import pytest

from repro.errors import ReproError, TrapError
from repro.platform import build_platform, program_artifacts
from repro.resilience import (
    FaultSession,
    FaultSpec,
    FaultTrialSpec,
    TrapInstruction,
    build_plan,
    draw_fault,
    execute_trial,
    golden_run,
    trial_seed,
)
from repro.resilience.faults import IM_BITS, IM_MASK, KINDS, PC_BITS
from repro.tamarisc.encoding import decode
from repro.tamarisc.isa import NUM_REGS, WORD_BITS

#: Small-geometry trial every classification test shares (the golden
#: run is cached per process, so only the first test pays for it).
SPEC = FaultTrialSpec(trial=0, campaign_seed=2012, arch="mc-ref",
                      n_samples=64, n_measurements=32)

MACHINE = dict(n_cores=8, dm_banks=16, dm_bank_words=2048,
               program_len=200, max_cycle=8000)


class TestTrialSeed:
    def test_pure_function_of_inputs(self):
        assert trial_seed(2012, 5) == trial_seed(2012, 5)
        assert trial_seed(2012, 5) != trial_seed(2012, 6)
        assert trial_seed(2012, 5) != trial_seed(2013, 5)

    def test_distinct_across_a_campaign(self):
        seeds = [trial_seed(2012, trial) for trial in range(256)]
        assert len(set(seeds)) == 256
        assert all(0 <= seed < 2 ** 32 for seed in seeds)


class TestDrawFault:
    def test_sites_in_bounds(self):
        for trial in range(300):
            rng = random.Random(trial_seed(99, trial))
            fault = draw_fault(rng, **MACHINE)
            assert fault.kind in KINDS
            assert 1 <= fault.cycle < MACHINE["max_cycle"]
            assert 0 <= fault.core < MACHINE["n_cores"]
            if fault.kind == "reg":
                assert 0 <= fault.index < NUM_REGS
                assert 0 < fault.mask < (1 << WORD_BITS)
            elif fault.kind == "pc":
                assert 0 < fault.mask < (1 << PC_BITS)
            elif fault.kind == "dm":
                assert 0 <= fault.bank < MACHINE["dm_banks"]
                assert 0 <= fault.index < MACHINE["dm_bank_words"]
                assert 0 < fault.mask < (1 << WORD_BITS)
            elif fault.kind == "im":
                assert 0 <= fault.index < MACHINE["program_len"]
                assert 0 < fault.mask < (1 << IM_BITS)
            else:  # stuck / dead carry no mask
                assert fault.mask == 0

    def test_every_kind_eventually_drawn(self):
        kinds = {draw_fault(random.Random(trial_seed(7, trial)),
                            **MACHINE).kind
                 for trial in range(300)}
        assert kinds == set(KINDS)

    def test_plan_is_deterministic(self):
        one = build_plan(2012, 16, **MACHINE)
        two = build_plan(2012, 16, **MACHINE)
        assert one.trials == two.trials
        other = build_plan(2013, 16, **MACHINE)
        assert one.trials != other.trials

    def test_mask_distribution_has_single_and_double_flips(self):
        weights = {bin(draw_fault(random.Random(trial_seed(3, trial)),
                                  **MACHINE).mask).count("1")
                   for trial in range(300)}
        assert {1, 2} <= weights | {0}


class TestTrapInstruction:
    def test_op_raises_trap_error(self):
        instr = TrapInstruction(word=0xFFFFFF, pc=0x40)
        with pytest.raises(TrapError, match="decode trap at PC 0x40"):
            instr.op

    def test_handler_traps_on_preview(self):
        """The cycle loop previews every instruction it starts, so the
        dispatch-table sentinel must trap there."""
        handler = TrapInstruction(word=0xFFFFFF, pc=0x40).handler()
        with pytest.raises(TrapError, match="decode trap at PC 0x40"):
            handler.preview([0] * 16)


class _FetchStallProbe(FaultSession):
    """Due every cycle, injects nothing: finds the first boundary at
    which a core still waits for its instruction fetch."""

    def __init__(self):
        super().__init__(())
        self.due = 1
        self.found = None  # (cycle, pid)

    @property
    def next_cycle(self):
        return self.due if self.found is None else None

    def apply_due(self, system, cycle):
        for pid, key in enumerate(system.ixbar.read_at):
            if key >= 0:  # its fetch is staged, waiting for a grant
                self.found = (cycle, pid)
                return
        self.due = cycle + 1


def _undecodable_im_faults(golden):
    """Deterministic (pc, mask) candidates whose patched word fails to
    decode.  Injected at cycle 1; whether the trap fires depends on the
    pc being fetched afterwards, so callers probe the candidates."""
    words = golden.built.benchmark.program.words
    for pc, word in enumerate(words):
        for bit in range(IM_BITS):
            flipped = (word ^ (1 << bit)) & IM_MASK
            try:
                decode(flipped)
            except ReproError:
                yield FaultSpec("im", 1, 0, index=pc, mask=1 << bit)
                break  # one candidate per pc is enough


class TestClassification:
    def test_no_fault_is_masked(self):
        golden = golden_run(SPEC)
        result = execute_trial(SPEC, fault_specs=())
        assert result.outcome == "masked"
        assert result.cycles == golden.cycles
        assert result.output_digest == golden.output_digest

    def test_cycle_budget_exhaustion_is_hang(self):
        spec = replace(SPEC, max_cycles=500)
        result = execute_trial(spec, fault_specs=())
        assert result.outcome == "hang"
        assert result.cycles == -1
        assert "cycle" in result.detail

    def test_stuck_core_trips_the_watchdog(self):
        result = execute_trial(
            SPEC, fault_specs=(FaultSpec("stuck", 100, 0),))
        assert result.outcome == "hang"
        assert "watchdog" in result.detail

    def test_decode_trap_is_detected(self):
        """Some reachable instruction word must trap when corrupted, with
        the same detail on both engines."""
        golden = golden_run(SPEC)
        candidates = _undecodable_im_faults(golden)
        for _ in range(20):
            fault = next(candidates, None)
            if fault is None:
                break
            result = execute_trial(SPEC, fault_specs=(fault,))
            if result.outcome == "detected":
                assert "decode trap" in result.detail
                exact = execute_trial(replace(SPEC, fast_forward=False),
                                      fault_specs=(fault,))
                assert exact.identity_row() == result.identity_row()
                assert exact.detail == result.detail
                return
        raise AssertionError(
            "no probed IM corruption raised a decode trap")

    def test_dead_core_degrades_gracefully(self):
        golden = golden_run(SPEC)
        result = execute_trial(
            SPEC, fault_specs=(FaultSpec("dead", 0, 2),))
        assert result.outcome == "sdc"  # the dead lead never computes
        report = result.degradation
        assert report is not None
        assert report["dead_core"] == 2 and report["survivor"] == 3
        assert report["remap_verified"] is True
        # The survivor runs two leads sequentially: roughly half the
        # healthy throughput, never more than one.
        assert 0.4 < report["throughput_factor"] < 0.6
        assert report["degraded_cycles"] == sum(report["pass_cycles"])
        assert report["healthy_cycles"] == golden.cycles

    def test_pc_fault_during_fetch_stall_is_detected(self):
        """ulpmc-int's shared IM stalls fetches.  A PC flip far past the
        program landing on a stalled core is detected when the core
        starts its next instruction — the stalled fetch completes from
        the PC it started with — on both engines alike."""
        spec = replace(SPEC, arch="ulpmc-int")
        probe = _FetchStallProbe()
        build_platform("ulpmc-int", fast_forward=False).run(
            golden_run(spec).built.benchmark, faults=probe)
        assert probe.found is not None, "no fetch stall on ulpmc-int"
        cycle, pid = probe.found
        fault = (FaultSpec("pc", cycle, pid, mask=1 << (PC_BITS - 1)),)
        results = [execute_trial(replace(spec, fast_forward=ff),
                                 fault_specs=fault)
                   for ff in (True, False)]
        for result in results:
            assert result.outcome == "detected"
            assert f"core {pid} ran off the program" in result.detail
        assert results[0].identity_row() == results[1].identity_row()
        assert results[0].detail == results[1].detail

    def test_trial_is_deterministic(self):
        fault = (FaultSpec("reg", 2000, 1, index=3, mask=0x10),)
        one = execute_trial(SPEC, fault_specs=fault)
        two = execute_trial(SPEC, fault_specs=fault)
        assert one.identity_row() == two.identity_row()

    def test_forced_fault_identical_across_engines(self):
        fault = (FaultSpec("reg", 2000, 1, index=3, mask=0x10),)
        ff = execute_trial(SPEC, fault_specs=fault)
        exact = execute_trial(replace(SPEC, fast_forward=False),
                              fault_specs=fault)
        assert ff.identity_row() == exact.identity_row()


class TestFaultSession:
    def test_pending_ordered_and_next_cycle(self):
        session = FaultSession([FaultSpec("reg", 500, 1, index=0, mask=1),
                                FaultSpec("dm", 100, 0, index=5, bank=2,
                                          mask=2)])
        assert session.next_cycle == 100
        assert [spec.cycle for spec in session.pending] == [100, 500]

    def test_im_patch_never_mutates_the_cached_decode(self):
        """An IM fault patches a copy of the decoded program; the
        shared process-level decode cache must stay pristine, so a
        clean trial after a patched one is still masked."""
        fault = (FaultSpec("im", 10, 0, index=0, mask=0x1),)
        golden = golden_run(SPEC)
        _, artifacts = program_artifacts(golden.built.benchmark.program)
        pristine = (list(artifacts.decoded), list(artifacts.compiled()))
        execute_trial(SPEC, fault_specs=fault)
        assert (artifacts.decoded, artifacts.compiled()) == pristine
        clean = execute_trial(SPEC, fault_specs=())
        assert clean.outcome == "masked"
