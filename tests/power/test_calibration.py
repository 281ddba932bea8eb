"""End-to-end calibration against the reference benchmark runs.

These are the integration tests of the whole power stack; they share the
cached full-geometry simulations (about 15 s once per session).
"""

import pytest

from repro.power.calibration import (
    FIG7_ANCHOR_POWER_W,
    FIG7_ANCHOR_WORKLOAD_OPS,
    calibrated_set,
)


@pytest.fixture(scope="module")
def cal():
    return calibrated_set(fast_forward=False)


class TestAnchors:
    def test_fig7_anchor_hit(self, cal):
        power = cal.workload_power("mc-ref", FIG7_ANCHOR_WORKLOAD_OPS)
        assert power == pytest.approx(FIG7_ANCHOR_POWER_W, rel=0.03)

    def test_core_energy_matches_section_iv_c1(self, cal):
        model = cal.power_model("mc-ref")
        rates = cal.results["mc-ref"].stats.activity_rates()
        per_instr = model.cycle_energy().cores / rates["core_active"]
        at_1v = per_instr * (1.0 / 1.2) ** 2
        assert at_1v * 1e12 == pytest.approx(15.6, rel=0.01)

    def test_post_layout_factor_magnitude(self, cal):
        assert 6.0 < cal.post_layout_factor < 10.0

    def test_max_workloads(self, cal):
        assert cal.max_workload("mc-ref") / 1e6 \
            == pytest.approx(664.5, rel=0.01)
        assert cal.max_workload("ulpmc-int") / 1e6 \
            == pytest.approx(662.3, rel=0.01)
        assert cal.max_workload("ulpmc-bank") / 1e6 \
            == pytest.approx(636.9, rel=0.03)


class TestPaperSavings:
    def test_table2_savings(self, cal):
        totals = {}
        for arch in ("mc-ref", "ulpmc-int", "ulpmc-bank"):
            model = cal.power_model(arch)
            f = 8e6 / cal.ops_per_cycle(arch)
            totals[arch] = model.dynamic_power(f, 1.2,
                                               post_layout=False).total
        int_saving = 1 - totals["ulpmc-int"] / totals["mc-ref"]
        bank_saving = 1 - totals["ulpmc-bank"] / totals["mc-ref"]
        assert int_saving == pytest.approx(0.297, abs=0.03)
        assert bank_saving == pytest.approx(0.406, abs=0.03)

    def test_high_workload_savings(self, cal):
        base = cal.workload_power("mc-ref", 600e6)
        bank = cal.workload_power("ulpmc-bank", 600e6)
        interleaved = cal.workload_power("ulpmc-int", 600e6)
        assert 1 - bank / base == pytest.approx(0.395, abs=0.035)
        assert 1 - interleaved / base == pytest.approx(0.296, abs=0.02)

    def test_leakage_dominated_savings(self, cal):
        base = cal.workload_power("mc-ref", 5e3)
        bank = cal.workload_power("ulpmc-bank", 5e3)
        interleaved = cal.workload_power("ulpmc-int", 5e3)
        assert 1 - bank / base == pytest.approx(0.388, abs=0.03)
        # ulpmc-int falters at low workloads (paper Fig. 7).
        assert abs(1 - interleaved / base) < 0.05

    def test_crossover_near_50kops(self, cal):
        model = cal.power_model("mc-ref")
        point = cal.dvfs().operating_point(50e3,
                                           cal.ops_per_cycle("mc-ref"))
        dynamic = model.dynamic_power(point.frequency_hz,
                                      point.voltage).total
        leak = model.total_leakage(point.voltage)
        assert dynamic == pytest.approx(leak, rel=0.05)


class TestInternalConsistency:
    def test_results_are_verified_and_cached(self, cal):
        assert set(cal.results) == {"mc-ref", "ulpmc-int", "ulpmc-bank"}
        assert calibrated_set(fast_forward=False) is cal

    def test_ops_per_cycle_ordering(self, cal):
        assert cal.ops_per_cycle("mc-ref") >= cal.ops_per_cycle("ulpmc-int")
        assert cal.ops_per_cycle("ulpmc-int") \
            >= cal.ops_per_cycle("ulpmc-bank")

    def test_benchmark_footprints(self, cal):
        meta = cal.built.benchmark.meta
        assert meta["read_only_bytes"] == 14336
        assert meta["program_bytes"] < 552


class TestReferenceCache:
    """One verified cache, keyed on (config, benchmark spec, engine)."""

    def test_per_arch_query_simulates_only_that_arch(self, monkeypatch):
        from repro.power import calibration

        simulated = []
        real = calibration.MultiCoreSystem

        def recording(config, fast_forward):
            simulated.append(config)
            return real(config, fast_forward=fast_forward)

        monkeypatch.setattr(calibration, "MultiCoreSystem", recording)
        # ulpmc-int without instruction broadcast: no experiment reads
        # it, so this query is a guaranteed miss.
        calibration.reference_results("ulpmc-int", huffman_private=False,
                                      instr_broadcast=False)
        assert [config.name for config in simulated] == ["ulpmc-int"]
        assert not simulated[0].instr_broadcast

    def test_mcref_without_instr_broadcast_is_the_shared_lut_entry(self):
        from repro.power.calibration import reference_results, \
            verified_run

        shared = reference_results("mc-ref", huffman_private=False,
                                   fast_forward=False)
        hits = verified_run.cache_info().hits
        assert reference_results("mc-ref", huffman_private=False,
                                 instr_broadcast=False,
                                 fast_forward=False) is shared
        assert verified_run.cache_info().hits == hits + 1

    def test_one_calibrated_set_per_engine(self, cal):
        assert calibrated_set(False) is cal
        assert calibrated_set() is calibrated_set(True) \
            is calibrated_set(fast_forward=True)

    def test_scaling_eight_cores_is_the_calibration_entry(self, cal):
        from repro.experiments import scaling

        assert scaling._simulate(8, fast_forward=False) \
            is cal.results["ulpmc-bank"].stats
