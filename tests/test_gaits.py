import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaitkit.gaits import (
    GaitName,
    GaitPattern,
    LegId,
    flight_fraction,
    leg_contact,
    stance_count,
    stance_measure,
    standard_gait,
)

CANONICAL_EXPECTED = {
    GaitName.WALK: (0.75, (0.75, 0.25, 0.0, 0.5)),
    GaitName.TROT: (0.5, (0.5, 0.0, 0.0, 0.5)),
    GaitName.BOUND: (0.5, (0.0, 0.5, 0.0, 0.5)),
    GaitName.RUN: (0.3, (0.0, 0.5, 0.0, 0.5)),
    GaitName.TROT_RUN: (0.3, (0.5, 0.0, 0.0, 0.5)),
}


@pytest.mark.parametrize("name", list(GaitName))
def test_standard_gait_parameters(name):
    beta, offsets = CANONICAL_EXPECTED[name]
    pattern = standard_gait(name, 0.4)
    assert pattern.beta == beta
    assert pattern.offsets == offsets
    assert pattern.period == 0.4


def test_standard_gait_rejects_bad_period():
    with pytest.raises(ValueError):
        standard_gait(GaitName.TROT, 0.0)
    with pytest.raises(ValueError):
        standard_gait(GaitName.TROT, -1.0)


@pytest.mark.parametrize("period", [float("nan"), float("-inf")])
def test_standard_gait_and_pattern_reject_a_nan_period(period):
    with pytest.raises(ValueError, match="stride period must be positive"):
        standard_gait(GaitName.TROT, period)
    with pytest.raises(ValueError, match="stride period must be positive"):
        GaitPattern(beta=0.5, offsets=(0, 0, 0, 0), period=period)


def test_standard_gait_is_memoized():
    # the gait machine asks for the pattern in effect on every control step
    assert standard_gait(GaitName.WALK, 0.4) is standard_gait(GaitName.WALK, 0.4)
    assert standard_gait(GaitName.WALK, 0.4) is not standard_gait(GaitName.WALK, 0.5)


def test_pattern_validation():
    with pytest.raises(ValueError):
        GaitPattern(beta=0.0, offsets=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        GaitPattern(beta=1.0, offsets=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        GaitPattern(beta=0.5, offsets=(0, 0, 0, 0), period=-0.4)


def test_offsets_stored_modulo_one():
    pattern = GaitPattern(beta=0.5, offsets=(1.25, -0.25, 0.0, 2.5))
    assert pattern.offsets == (0.25, 0.75, 0.0, 0.5)


def test_trot_contact_examples():
    trot = standard_gait(GaitName.TROT)
    assert leg_contact(trot, 0.25, LegId.LF) == pytest.approx(0.5)
    assert leg_contact(trot, 0.25, LegId.RF) is None


@pytest.mark.parametrize("name", list(GaitName))
@pytest.mark.parametrize("leg", list(LegId))
def test_liftoff_instant_is_swing(name, leg):
    pattern = standard_gait(name)
    assert leg_contact(pattern, pattern.offsets[leg], leg) == 0.0


def _per_call_contact(pattern, phase, leg):
    """leg_contact's value, computed from the definition."""
    local = (phase - pattern.offsets[leg]) % 1.0
    swing = 1.0 - pattern.beta
    if local < swing:
        return local / swing
    return None


@pytest.mark.parametrize("name", list(GaitName))
def test_leg_contact_matches_per_call_records_across_the_edges(name):
    pattern = standard_gait(name)
    phases = set(np.linspace(0.0, 1.0, 401).tolist())
    for leg in LegId:
        lift = pattern.offsets[leg]
        touchdown = (lift + 1.0 - pattern.beta) % 1.0
        for edge in (lift, touchdown):
            phases.update(
                (edge, float(np.nextafter(edge, -np.inf)), float(np.nextafter(edge, np.inf)))
            )
    stance = swing = 0
    for phase in sorted(phases):
        for leg in LegId:
            got, want = leg_contact(pattern, phase, leg), _per_call_contact(pattern, phase, leg)
            if want is None:
                assert got is None
                stance += 1
            else:
                assert type(got) is float and got == want
                swing += 1
    # the sweep meets both stance and swing legs
    assert stance and swing


def test_walk_always_three_in_stance():
    walk = standard_gait(GaitName.WALK)
    for phase in np.arange(0.0, 1.0, 0.001):
        assert stance_count(walk, float(phase)) == 3


def test_trot_bound_two_in_stance():
    for name in (GaitName.TROT, GaitName.BOUND):
        pattern = standard_gait(name)
        for phase in np.arange(0.0005, 1.0, 0.001):
            assert stance_count(pattern, float(phase)) == 2


def test_run_has_zero_stance_phase():
    run = standard_gait(GaitName.RUN)
    assert stance_count(run, 0.1) == 0
    counts = {stance_count(run, float(p)) for p in np.arange(0.0, 1.0, 0.001)}
    assert 0 in counts


def test_flight_fractions():
    assert flight_fraction(standard_gait(GaitName.TROT)) == 0.0
    assert flight_fraction(standard_gait(GaitName.BOUND)) == 0.0
    assert flight_fraction(standard_gait(GaitName.WALK)) == 0.0
    assert flight_fraction(standard_gait(GaitName.RUN)) == pytest.approx(0.4, abs=1e-9)
    assert flight_fraction(standard_gait(GaitName.TROT_RUN)) == pytest.approx(0.4, abs=1e-9)


@pytest.mark.parametrize("name", list(GaitName))
def test_stance_measure_is_four_beta_exactly(name):
    pattern = standard_gait(name)
    assert stance_measure(pattern) == 4.0 * pattern.beta


# dyadic grid keeps phase+1 and phase-offset exact in binary, so the
# periodicity comparison is about the schedule, not float aliasing
@given(
    beta=st.floats(0.05, 0.95),
    offsets=st.tuples(*[st.integers(0, 1023)] * 4),
    phase=st.integers(0, 1023),
)
def test_contact_is_periodic(beta, offsets, phase):
    pattern = GaitPattern(beta=beta, offsets=tuple(o / 1024.0 for o in offsets))
    for leg in LegId:
        a = leg_contact(pattern, phase / 1024.0, leg)
        b = leg_contact(pattern, phase / 1024.0 + 1.0, leg)
        assert (a is None) is (b is None)


@given(
    beta=st.floats(0.05, 0.95),
    offsets=st.tuples(*[st.floats(0.0, 0.999)] * 4),
)
def test_stance_measure_matches_four_beta(beta, offsets):
    pattern = GaitPattern(beta=beta, offsets=offsets)
    assert stance_measure(pattern) == pytest.approx(4.0 * pattern.beta, abs=1e-12)


def test_gait_name_parsing():
    assert GaitName.parse("trot-run") is GaitName.TROT_RUN
    assert GaitName.parse("Trot_Run") is GaitName.TROT_RUN
    assert GaitName.parse("WALK") is GaitName.WALK
    with pytest.raises(ValueError):
        GaitName.parse("gallop")
    assert [int(g) for g in GaitName] == [0, 1, 2, 3, 4]
