"""Monotonicity properties of the technology/DVFS scaling the sweep
ranks with.

If any of these break, the analytical ordering can invert between two
design points for reasons that have nothing to do with architecture —
so they are pinned as properties over the whole voltage range and the
whole node table, not just spot values:

* lower supply => lower dynamic power at a *fixed* frequency, and a
  lower (never higher) maximum speed;
* a smaller technology node never increases area or energy and never
  decreases speed;
* the model-level consequence: the same design point evaluated at a
  lower voltage draws less dynamic power, and at a smaller node
  occupies no more area.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import CalibrationError
from repro.power.calibration import calibrated_set
from repro.power.technology import TECH_NODES, make_technology, tech_node

_TECH = make_technology()
_VOLTS = st.floats(_TECH.v_min, _TECH.v_nom, allow_nan=False)
_NODES = st.sampled_from(sorted(TECH_NODES))


@settings(max_examples=80, deadline=None)
@given(_VOLTS, _VOLTS)
def test_speed_factor_monotone_in_voltage(v1, v2):
    lo, hi = sorted((v1, v2))
    assert _TECH.speed_factor(lo) <= _TECH.speed_factor(hi)


@settings(max_examples=80, deadline=None)
@given(_VOLTS, _VOLTS)
def test_dynamic_scale_monotone_in_voltage(v1, v2):
    """Lower V => lower dynamic energy per toggle (~ C V^2)."""
    lo, hi = sorted((v1, v2))
    assume(hi - lo > 1e-9)
    assert _TECH.dynamic_scale(lo) < _TECH.dynamic_scale(hi)


@settings(max_examples=40, deadline=None)
@given(_VOLTS)
def test_voltage_for_speed_round_trips(v):
    speed = _TECH.speed_factor(v)
    assume(speed >= _TECH.min_speed_factor)
    recovered = _TECH.voltage_for_speed(speed)
    assert _TECH.v_min <= recovered <= _TECH.v_nom
    assert _TECH.speed_factor(recovered) == pytest.approx(speed,
                                                          rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(_VOLTS, _VOLTS)
def test_power_model_dynamic_power_monotone_at_fixed_frequency(v1, v2):
    """The calibrated PowerModel, not just the raw scale law: at a fixed
    clock, dropping the supply strictly drops total dynamic power."""
    lo, hi = sorted((v1, v2))
    assume(hi - lo > 1e-9)
    model = calibrated_set(fast_forward=False).power_model("ulpmc-int")
    frequency_hz = 8e6
    assert model.dynamic_power(frequency_hz, lo).total \
        < model.dynamic_power(frequency_hz, hi).total


def test_node_table_monotone():
    """Smaller node: no more area/energy/leakage headroom lost, no less
    speed.  Leakage *density* may grow below 65 nm, but never area."""
    ordered = sorted(TECH_NODES)  # smallest first
    for smaller, larger in zip(ordered, ordered[1:]):
        a, b = tech_node(smaller), tech_node(larger)
        assert a.area_scale <= b.area_scale
        assert a.dynamic_scale <= b.dynamic_scale
        assert a.speed_scale >= b.speed_scale
        assert a.leakage_scale >= b.leakage_scale


def test_node_90nm_is_identity():
    base = tech_node(90)
    assert (base.area_scale, base.dynamic_scale, base.leakage_scale,
            base.speed_scale) == (1.0, 1.0, 1.0, 1.0)


def test_unknown_node_raises():
    with pytest.raises(CalibrationError):
        tech_node(28)


@settings(max_examples=25, deadline=None)
@given(_NODES, _NODES)
def test_model_area_never_grows_at_smaller_node(n1, n2):
    from repro.dse import AnalyticalModel, seed_points

    smaller, larger = sorted((n1, n2))
    model = AnalyticalModel(fast_forward=False)
    point = seed_points()[1]  # ulpmc-int, paper geometry
    at_small = model.evaluate(dataclasses.replace(point, tech_nm=smaller))
    at_large = model.evaluate(dataclasses.replace(point, tech_nm=larger))
    assert at_small["area_mm2"] <= at_large["area_mm2"]
    assert at_small["throughput_mops"] >= at_large["throughput_mops"]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((1.2, 1.0, 0.8, 0.65, 0.5)),
       st.sampled_from((1.2, 1.0, 0.8, 0.65, 0.5)))
def test_model_energy_rate_monotone_in_voltage(v1, v2):
    """Same design, lower supply: lower total power draw (the DVFS
    fast path slows the clock *and* cheapens every toggle)."""
    from repro.dse import AnalyticalModel, seed_points

    lo, hi = sorted((v1, v2))
    assume(hi - lo > 1e-9)
    model = AnalyticalModel(fast_forward=False)
    point = seed_points()[1]
    at_lo = model.evaluate(dataclasses.replace(point, voltage=lo))
    at_hi = model.evaluate(dataclasses.replace(point, voltage=hi))
    assert at_lo["total_mw"] < at_hi["total_mw"]
    assert at_lo["dynamic_mw"] < at_hi["dynamic_mw"]
