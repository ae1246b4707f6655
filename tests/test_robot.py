import math

import numpy as np
import pytest

from gaitkit.gaits import LegId
from gaitkit.robot import (
    OutOfWorkspaceError,
    RobotParams,
    Terrain,
    TerrainBoundsError,
    TerrainSegment,
    leg_fk,
    leg_ik,
    leg_jacobian,
    terrain_preset,
)

PARAMS = RobotParams()
DEG = math.pi / 180.0


def _random_reachable_q(rng):
    # knee-backward branch, away from the workspace boundary
    return np.array(
        [
            rng.uniform(-0.6, 0.6),
            rng.uniform(-0.9, 0.9),
            rng.uniform(-2.4, -0.25),
        ]
    )


def test_straight_leg_below_hip():
    for leg in LegId:
        foot = leg_fk(np.zeros(3), leg, PARAMS)
        hip = PARAMS.hip_position(leg)
        assert foot[0] == pytest.approx(hip[0])
        assert foot[1] == pytest.approx(hip[1])
        assert foot[2] == pytest.approx(hip[2] - PARAMS.leg_reach)


def test_symmetric_crouch_stays_below_hip():
    theta = 0.5
    foot = leg_fk(np.array([0.0, theta, -2 * theta]), LegId.RF, PARAMS)
    hip = PARAMS.hip_position(LegId.RF)
    assert foot[0] == pytest.approx(hip[0], abs=1e-12)
    assert foot[2] == pytest.approx(hip[2] - PARAMS.leg_reach * math.cos(theta))


@pytest.mark.parametrize("leg", list(LegId))
def test_fk_ik_round_trip(leg):
    rng = np.random.default_rng(int(leg) + 1)
    for _ in range(1000):
        q = _random_reachable_q(rng)
        foot = leg_fk(q, leg, PARAMS)
        q_back = leg_ik(foot, leg, PARAMS)
        foot_back = leg_fk(q_back, leg, PARAMS)
        assert np.linalg.norm(foot_back - foot) <= 1e-9


def test_ik_unreachable_carries_clamped_point():
    target = PARAMS.hip_position(LegId.LF) + np.array([0.0, 0.0, -2.0])
    with pytest.raises(OutOfWorkspaceError) as err:
        leg_ik(target, LegId.LF, PARAMS)
    clamped = err.value.clamped_point
    hip = PARAMS.hip_position(LegId.LF)
    assert np.linalg.norm(clamped - hip) <= PARAMS.leg_reach + 1e-9
    q = err.value.clamped_angles
    assert np.allclose(leg_fk(q, LegId.LF, PARAMS), clamped, atol=1e-9)


@pytest.mark.parametrize("leg", list(LegId))
def test_jacobian_matches_finite_differences(leg):
    rng = np.random.default_rng(17 + int(leg))
    h = 1e-6
    for _ in range(100):
        q = _random_reachable_q(rng)
        jac = leg_jacobian(q, leg, PARAMS)
        fd = np.zeros((3, 3))
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = h
            fd[:, j] = (leg_fk(q + dq, leg, PARAMS) - leg_fk(q - dq, leg, PARAMS)) / (
                2 * h
            )
        scale = max(1.0, np.linalg.norm(fd))
        assert np.linalg.norm(jac - fd) / scale <= 1e-6


def test_straight_leg_is_singular():
    jac = leg_jacobian(np.zeros(3), LegId.RH, PARAMS)
    assert abs(np.linalg.det(jac)) < 1e-12


def test_abduction_column_orthogonal_to_x():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = _random_reachable_q(rng)
        jac = np.asarray(leg_jacobian(q, LegId.LH, PARAMS))
        assert jac[0, 0] == 0.0


def test_robot_params_validation():
    with pytest.raises(ValueError):
        RobotParams(mass=-1.0)
    with pytest.raises(ValueError):
        RobotParams(inertia_diag=(0.0, 0.1, 0.1))


# -- terrain -----------------------------------------------------------------

def test_flat_terrain_query():
    terrain = terrain_preset("flat")
    s = terrain.query(3.0)
    assert s.height == 0.0
    assert np.allclose(s.normal, [0.0, 0.0, 1.0])
    assert s.incline == 0.0
    assert s.friction == 0.7


def test_slope_height_geometry():
    terrain = terrain_preset("flat-slope")
    join = 3.0
    s = terrain.query(join + 1.0)
    assert s.incline == pytest.approx(12 * DEG)
    assert s.height == pytest.approx(math.tan(12 * DEG) * 1.0)
    assert np.allclose(s.normal, [-math.sin(12 * DEG), 0.0, math.cos(12 * DEG)])


def test_height_continuous_at_joins():
    for name in ("flat-slope", "continuous-slope", "up-down-slope"):
        terrain = terrain_preset(name)
        for seg in terrain.segments[1:]:
            x = seg.start_x
            below = terrain.query(x - 1e-9).height
            above = terrain.query(x + 1e-9).height
            assert above == pytest.approx(below, abs=1e-6)


def test_out_of_bounds_raises():
    terrain = terrain_preset("flat")
    with pytest.raises(TerrainBoundsError):
        terrain.query(terrain.start_x - 1.0)
    with pytest.raises(TerrainBoundsError):
        terrain.query(terrain.end_x + 1.0)


@pytest.mark.parametrize(
    "name", ["flat", "slope12", "flat-slope", "continuous-slope", "up-down-slope"]
)
def test_nan_position_is_out_of_bounds(name):
    terrain = terrain_preset(name)
    with pytest.raises(TerrainBoundsError):
        terrain.query(float("nan"))
    with pytest.raises(TerrainBoundsError):
        terrain.segment_at(float("nan"))


@pytest.mark.parametrize(
    "name", ["flat", "slope12", "flat-slope", "continuous-slope", "up-down-slope"]
)
def test_query_is_its_segment_and_the_height_formula(name):
    terrain = terrain_preset(name)
    rng = np.random.default_rng(17)
    # the whole extent, and the course where the joins are
    xs = rng.uniform(terrain.start_x, terrain.end_x, 200).tolist()
    xs += rng.uniform(-1.0, (terrain.course_end or 0.0) + 1.0, 300).tolist()
    xs += [terrain.start_x, terrain.end_x]
    for seg in terrain.segments[1:]:
        xs += [seg.start_x, float(np.nextafter(seg.start_x, -np.inf)),
               float(np.nextafter(seg.start_x, np.inf))]
    for x in xs:
        # the segment that starts last at or before x, found by a scan
        want = max(i for i, seg in enumerate(terrain.segments) if seg.start_x <= x)
        assert terrain.segment_index(x) == want
        seg = terrain.segments[want]
        assert terrain.segment_at(x) is seg
        got = terrain.query(x)
        assert got.segment == want
        assert got.height == terrain._heights[want] + math.tan(seg.incline) * (x - seg.start_x)
        assert got.normal is terrain._normals[want]
        assert (got.incline, got.friction, got.kind) == (seg.incline, seg.friction, seg.kind)
    outside = (
        float(np.nextafter(terrain.start_x, -np.inf)),
        float(np.nextafter(terrain.end_x, np.inf)),
        -math.inf, math.inf, math.nan,
    )
    for x in outside:
        for lookup in (terrain.query, terrain.segment_index, terrain.segment_at):
            with pytest.raises(TerrainBoundsError, match="outside terrain extent"):
                lookup(x)


def test_terrain_validation():
    with pytest.raises(ValueError):
        Terrain("bad", ())
    with pytest.raises(ValueError):
        Terrain(
            "bad",
            (TerrainSegment(1.0, 0.0), TerrainSegment(0.0, 0.0)),
        )
    with pytest.raises(ValueError):
        Terrain("bad", (TerrainSegment(0.0, 0.0, friction=0.0),))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mass": math.nan},
        {"inertia_diag": (0.05, math.nan, 0.18)},
        {"link_thigh": math.nan},
        {"link_hip": math.nan},
    ],
)
def test_robot_params_reject_nan(kwargs):
    with pytest.raises(ValueError):
        RobotParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize(
    "name", ["gravity", "hip_length", "hip_width", "mass", "link_thigh", "link_shank"]
)
def test_robot_params_reject_non_positive_or_non_finite_geometry(name, value):
    with pytest.raises(ValueError, match=name):
        RobotParams(**{name: value})


@pytest.mark.parametrize(
    "inertia",
    [(0.05, 0.15), (0.05, 0.15, 0.18, 0.1), (0.05, math.inf, 0.18), (0.0, 0.15, 0.18)],
    ids=["two", "four", "inf", "zero"],
)
def test_robot_params_reject_an_inertia_that_is_not_three_finite_positive_numbers(inertia):
    with pytest.raises(ValueError, match="inertia_diag"):
        RobotParams(inertia_diag=inertia)


@pytest.mark.parametrize("value", [math.nan, -0.01, math.inf])
@pytest.mark.parametrize("name", ["foot_mass", "link_hip"])
def test_robot_params_reject_negative_or_non_finite_offsets(name, value):
    with pytest.raises(ValueError):
        RobotParams(**{name: value})
    RobotParams(**{name: 0.0})


@pytest.mark.parametrize(
    "segment",
    [
        TerrainSegment(0.0, 0.0, friction=math.nan),
        TerrainSegment(0.0, math.nan),
        TerrainSegment(0.0, math.inf),
    ],
    ids=["nan-friction", "nan-incline", "inf-incline"],
)
def test_terrain_rejects_nan_friction_and_non_finite_incline(segment):
    with pytest.raises(ValueError):
        Terrain("bad", (segment,))


@pytest.mark.parametrize(
    "segments, kwargs, key",
    [
        ((TerrainSegment(math.nan),), {}, "start_x"),
        ((TerrainSegment(-1.0), TerrainSegment(math.inf)), {}, "start_x"),
        ((TerrainSegment(-1.0),), {"end_x": math.nan}, "end_x"),
        ((TerrainSegment(-1.0),), {"end_x": math.inf}, "end_x"),
        ((TerrainSegment(-1.0),), {"base_height": math.nan}, "base_height"),
        ((TerrainSegment(-1.0),), {"base_height": -math.inf}, "base_height"),
        ((TerrainSegment(-1.0), TerrainSegment(5.0)), {"end_x": 5.0}, "end_x"),
        ((TerrainSegment(-1.0),), {"end_x": -2.0}, "end_x"),
        ((TerrainSegment(-1.0),), {"course_end": math.nan}, "course_end"),
        ((TerrainSegment(-1.0),), {"course_end": math.inf}, "course_end"),
        ((TerrainSegment(-1.0),), {"course_end": -1.0}, "course_end"),
        ((TerrainSegment(-1.0),), {"course_end": 1000.5}, "course_end"),
    ],
    ids=["nan-start", "inf-start", "nan-end", "inf-end", "nan-base", "inf-base",
         "end-on-last-start", "end-behind-start", "nan-course-end", "inf-course-end",
         "course-end-on-first-start", "course-end-past-end"],
)
def test_terrain_rejects_an_extent_it_cannot_sample(segments, kwargs, key):
    with pytest.raises(ValueError, match=key):
        Terrain("bad", segments, **kwargs)


def test_terrain_accepts_a_course_end_on_its_end():
    terrain = Terrain("edge", (TerrainSegment(-1.0),), end_x=5.0, course_end=5.0)
    assert terrain.query(terrain.course_end).height == 0.0


def test_preset_kinds():
    assert terrain_preset("flat").kinds == ("flat",)
    assert terrain_preset("slope12").kinds == ("slope12",)
    assert set(terrain_preset("continuous-slope").kinds) == {
        "flat", "slope8", "slope12", "slope18",
    }
    with pytest.raises(ValueError):
        terrain_preset("mountains")
