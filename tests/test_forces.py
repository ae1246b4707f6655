"""Force-distribution solver against an independent randomized-search oracle.

The oracle parametrizes the solution set of the wrench equalities directly
(particular solution + nullspace basis via SVD), then runs a shrinking
uniform random search over the nullspace coordinates, keeping cone-feasible
samples; it shares no code with the active-set path it checks.

Every QP of the random instances and of whole trials is also checked for the
optimality conditions, with multipliers and a working-set minimizer that the
tests compute by their own linear algebra.
"""

import importlib.util
import math
import sys
import threading
import types

import numpy as np
import pytest

import gaitkit.simulation as simulation
from gaitkit import forces
from gaitkit.forces import distribute_forces
from gaitkit.gaits import GaitName, standard_gait
from gaitkit.robot import Terrain, TerrainSegment, terrain_preset
from gaitkit.simulation import SimConfig, run_trial

MG = 12.0 * 9.81
# flat-slope's flat -> 12 deg join 0.6 m ahead of x = 0, where a trial starts
KINK_AHEAD = Terrain("flat-slope", (TerrainSegment(-100.0, 0.0, 0.7, "flat"),
                                    TerrainSegment(0.6, math.radians(12.0), 0.7, "slope12")))


def _skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


def _wrench_matrix(feet, stance, com):
    idx = np.flatnonzero(stance)
    A = np.zeros((6, 3 * len(idx)))
    for j, leg in enumerate(idx):
        A[0:3, 3 * j : 3 * j + 3] = np.eye(3)
        A[3:6, 3 * j : 3 * j + 3] = _skew(feet[leg] - com)
    return A, idx


def _cone_ok(x, k, mu, f_max, tol=1e-9):
    f = x.reshape(k, 3)
    fn = f[:, 2]
    if np.any(fn < -tol) or np.any(fn > f_max + tol):
        return False
    lim = mu * fn + tol
    return bool(np.all(np.abs(f[:, 0]) <= lim) and np.all(np.abs(f[:, 1]) <= lim))


def oracle_min_norm(wrench, feet, stance, com, mu, f_max, seed=0):
    """Randomized shrinking search for min sum|f|^2 under the same constraints.

    Returns None when no cone-feasible point of the equality manifold was
    found (treated as infeasible by the caller).
    """
    A, idx = _wrench_matrix(feet, stance, com)
    k = len(idx)
    x_p, *_ = np.linalg.lstsq(A, wrench, rcond=None)
    if np.linalg.norm(A @ x_p - wrench) > 1e-6 * max(1.0, np.linalg.norm(wrench)):
        return None
    u, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    null = vt[rank:].T  # (3k, nullity)

    rng = np.random.default_rng(seed)
    best_x, best_val = None, np.inf
    if _cone_ok(x_p, k, mu, f_max):
        best_x, best_val = x_p, float(x_p @ x_p)
    center = np.zeros(null.shape[1])
    radius = 2.0 * MG
    for _ in range(60):
        z = center + rng.uniform(-radius, radius, size=(4000, null.shape[1]))
        xs = x_p[None, :] + z @ null.T
        f = xs.reshape(-1, k, 3)
        fn = f[:, :, 2]
        lim = mu * fn + 1e-9
        ok = (
            (fn >= -1e-9).all(axis=1)
            & (fn <= f_max + 1e-9).all(axis=1)
            & (np.abs(f[:, :, 0]) <= lim).all(axis=1)
            & (np.abs(f[:, :, 1]) <= lim).all(axis=1)
        )
        if ok.any():
            vals = np.einsum("ij,ij->i", xs[ok], xs[ok])
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_x = xs[ok][i]
                center = z[ok][i]
        radius *= 0.7
    return None if best_x is None else (best_x, best_val)


def _standing_feet():
    return np.array(
        [
            [0.19, -0.15, 0.0],
            [-0.19, -0.15, 0.0],
            [0.19, 0.15, 0.0],
            [-0.19, 0.15, 0.0],
        ]
    )


COM = np.array([0.0, 0.0, 0.32])


def test_four_foot_symmetric_standing():
    wrench = np.array([0.0, 0.0, MG, 0.0, 0.0, 0.0])
    d = distribute_forces(wrench, _standing_feet(), [True] * 4, COM, 0.7, 2 * MG)
    assert d.feasible
    for leg in range(4):
        assert np.allclose(d.forces[leg], [0.0, 0.0, MG / 4], atol=1e-6)


def test_zero_stance_zero_wrench():
    d = distribute_forces(np.zeros(6), _standing_feet(), [False] * 4, COM, 0.7, 2 * MG)
    assert d.feasible
    assert np.all(d.forces == 0.0)


def test_flight_with_weight_is_infeasible():
    wrench = np.array([0.0, 0.0, MG, 0.0, 0.0, 0.0])
    d = distribute_forces(wrench, _standing_feet(), [False] * 4, COM, 0.7, 2 * MG)
    assert not d.feasible
    assert d.residual == pytest.approx(MG)
    assert np.all(d.forces == 0.0)


def test_swing_legs_zero_force():
    wrench = np.array([5.0, -3.0, MG, 1.0, -1.0, 0.5])
    stance = [True, False, False, True]
    d = distribute_forces(wrench, _standing_feet(), stance, COM, 0.7, 2 * MG)
    assert np.all(d.forces[1] == 0.0)
    assert np.all(d.forces[2] == 0.0)


def test_diagonal_trot_standing_matches_oracle():
    wrench = np.array([0.0, 0.0, MG, 0.0, 0.0, 0.0])
    stance = np.array([True, False, False, True])
    d = distribute_forces(wrench, _standing_feet(), stance, COM, 0.7, 2 * MG)
    assert d.feasible
    got = float(np.sum(d.forces**2))
    best = oracle_min_norm(wrench, _standing_feet(), stance, COM, 0.7, 2 * MG, seed=3)
    assert best is not None
    assert got <= best[1] * 1.01
    assert got >= best[1] * 0.99


@pytest.mark.parametrize("mu", [0.0, -0.5, math.nan])
def test_non_positive_or_nan_friction_is_rejected(mu):
    wrench = np.array([0.0, 0.0, MG, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        distribute_forces(wrench, _standing_feet(), [True] * 4, COM, mu, 2 * MG)


@pytest.mark.parametrize("f_max", [-10.0, 0.0, math.nan])
def test_non_positive_or_nan_f_max_is_rejected(f_max):
    # a negative bound leaves x = 0 infeasible and the feet pulling on the
    # ground; NaN compares false against every force, so it bounds nothing
    wrench = np.array([0.0, 0.0, MG, 0.0, 0.0, 0.0])
    for stance in ([True] * 4, [False] * 4):
        with pytest.raises(ValueError, match="f_max"):
            distribute_forces(wrench, _standing_feet(), stance, COM, 0.7, f_max)


def _random_instance(rng):
    k = int(rng.integers(1, 5))
    legs = rng.choice(4, size=k, replace=False)
    stance = np.zeros(4, dtype=bool)
    stance[legs] = True
    feet = _standing_feet() + rng.uniform(-0.06, 0.06, size=(4, 3))
    feet[:, 2] = rng.uniform(-0.02, 0.02, size=4)
    com = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), 0.32])
    # wrench biased toward weight support to keep a good share feasible
    wrench = np.concatenate(
        [
            [rng.uniform(-30, 30), rng.uniform(-30, 30), MG + rng.uniform(-40, 40)],
            rng.uniform(-8, 8, size=3),
        ]
    )
    return wrench, feet, stance, com


def test_500_random_instances_constraints_hold():
    rng = np.random.default_rng(2024)
    mu, f_max = 0.7, 2 * MG
    feasible_count = 0
    for _ in range(500):
        wrench, feet, stance, com = _random_instance(rng)
        d = distribute_forces(wrench, feet, stance, com, mu, f_max)
        k = int(stance.sum())
        # swing rows exactly zero
        assert np.all(d.forces[~stance] == 0.0)
        # friction pyramid and normal bounds within 1e-9
        fn = d.forces[stance][:, 2]
        assert np.all(fn >= -1e-9)
        assert np.all(fn <= f_max + 1e-9)
        assert np.all(np.abs(d.forces[stance][:, 0]) <= mu * fn + 1e-9)
        assert np.all(np.abs(d.forces[stance][:, 1]) <= mu * fn + 1e-9)
        if d.feasible:
            feasible_count += 1
            A, idx = _wrench_matrix(feet, stance, com)
            x = d.forces[idx].reshape(-1)
            resid = np.linalg.norm(A @ x - wrench)
            assert resid <= 1e-6 * max(1.0, np.linalg.norm(wrench))
    assert feasible_count >= 150  # the generator hits plenty of solvable cases


def test_objective_within_one_percent_of_oracle():
    rng = np.random.default_rng(77)
    mu, f_max = 0.7, 2 * MG
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 400:
        attempts += 1
        wrench, feet, stance, com = _random_instance(rng)
        d = distribute_forces(wrench, feet, stance, com, mu, f_max)
        if not d.feasible:
            continue
        best = oracle_min_norm(wrench, feet, stance, com, mu, f_max, seed=attempts)
        if best is None:
            continue
        got = float(np.sum(d.forces**2))
        assert got <= best[1] * 1.01 + 1e-9
        checked += 1
    assert checked == 50


def _aligned_pair_instance(rng):
    """Two feet with one equal ground coordinate, pushed past their cone.

    The pair shares y (a side pair) or x (a front or hind pair), and the
    wrench is that of foot forces beyond the friction pyramid along the
    shared axis, so the binding faces are orthogonal to the squeeze
    direction d = [r; -r], r = p1 - p2, which the wrench map cannot see.
    """
    pair = [[0, 1], [2, 3], [0, 2], [1, 3]][int(rng.integers(4))]
    stance = np.zeros(4, dtype=bool)
    stance[pair] = True
    feet = _standing_feet() + rng.uniform(-0.03, 0.03, size=(4, 3))
    axis = 1 if pair in ([0, 1], [2, 3]) else 0
    feet[pair, axis] = feet[pair[0], axis]
    feet[:, 2] = 0.0
    fz = 0.5 * MG * rng.uniform(0.8, 1.2, size=2)
    f = np.zeros((2, 3))
    f[:, 2] = fz
    f[:, axis] = rng.choice([-1.0, 1.0]) * rng.uniform(0.72, 0.9) * fz
    A, _ = _wrench_matrix(feet, stance, COM)
    return A @ f.reshape(-1), feet, stance, COM


def _record_qps(monkeypatch):
    """Wrap forces.solve_qp; return the list of its calls and results.

    M and b are recorded as copies: distribute_forces passes views of its
    reused workspace, which later calls overwrite.
    """
    calls = []
    solve = forces.solve_qp

    def recorded(M, b, G, h, working_set=()):
        x, iterations, active = solve(M, b, G, h, working_set=working_set)
        calls.append((M.copy(), b.copy(), G, h, tuple(working_set), x, iterations,
                      list(active)))
        return x, iterations, active

    monkeypatch.setattr(forces, "solve_qp", recorded)
    return calls


def _check_minimizer(M, b, G, h, x, active):
    """x minimizes 0.5|Mx - b|^2 subject to Gx <= h, with working set ``active``.

    Checks the cone within 1e-9 and the optimality conditions on the working
    set, with multipliers from lstsq, not from the solver, to the round-off
    of the gradient. That round-off hides force errors along the directions
    that keep the wrench and the working set, where only the ridge acts, so
    x must also be orthogonal to those directions (an SVD basis) within
    1e-6 N. The achieved wrench is checked against the working-set minimizer
    found by the null-space method.
    """
    assert np.all(G @ x <= h + 1e-9)
    n_m = np.linalg.norm(M, 2)
    tol = 1e-12 * n_m * (n_m * np.linalg.norm(x) + np.linalg.norm(b))
    grad = M.T @ (M @ x - b)
    if active:
        C = G[active]
        assert np.all(np.abs(C @ x - h[active]) <= 1e-9)
        lam = np.linalg.lstsq(C.T, -grad, rcond=None)[0]
        assert lam.min() >= -tol
        grad = grad + C.T @ lam
        x0 = np.linalg.lstsq(C, h[active], rcond=None)[0]
        Z = np.linalg.svd(C)[2][len(active):].T
    else:
        x0, Z = np.zeros_like(x), np.eye(x.size)
    assert np.linalg.norm(grad) <= tol
    wrench_rows = M[:6]
    _, s, vt = np.linalg.svd(np.concatenate([wrench_rows, G[active]]))
    assert np.all(np.abs(vt[int(np.sum(s > 1e-9 * s[0])):] @ x) <= 1e-6)
    x_ref = x0 + Z @ np.linalg.lstsq(M @ Z, b - M @ x0, rcond=None)[0] if Z.size else x0
    gap = np.linalg.norm(wrench_rows @ (x - x_ref))
    assert gap <= 1e-10 * max(1.0, np.linalg.norm(b[:6]))


def test_qp_is_the_minimizer_on_random_instances(monkeypatch):
    # the instances of test_500_random_instances_constraints_hold, then
    # aligned pairs pushed past their cone
    calls = _record_qps(monkeypatch)
    rng = np.random.default_rng(2024)
    mu, f_max = 0.7, 2 * MG
    instances = [_random_instance(rng) for _ in range(500)]
    instances += [_aligned_pair_instance(rng) for _ in range(50)]
    oracle_checked = 0
    for n, (wrench, feet, stance, com) in enumerate(instances):
        d = distribute_forces(wrench, feet, stance, com, mu, f_max)
        M, b, G, h, _, x, iterations, active = calls[-1]
        _check_minimizer(M, b, G, h, x, active)
        # a cold start ends at once on a feasible unconstrained optimum
        if (G @ np.linalg.lstsq(M, b, rcond=None)[0] <= h).all():
            assert iterations == 1
        if not d.feasible:
            continue
        A, idx = _wrench_matrix(feet, stance, com)
        assert np.linalg.norm(A @ x - wrench) <= 1e-6 * max(1.0, np.linalg.norm(wrench))
        best = oracle_min_norm(wrench, feet, stance, com, mu, f_max, seed=n)
        if best is not None:
            # the oracle's cone-feasible point is never smaller
            assert float(x @ x) <= best[1] * (1.0 + 1e-9)
            oracle_checked += 1
    assert len(calls) == 550
    assert oracle_checked >= 150
    assert any(c[6] == 1 for c in calls)
    assert any(c[6] > 1 for c in calls)


def test_qp_is_the_minimizer_on_every_trial_step(monkeypatch):
    # a steady flat trot, and trials that press feet against their cone faces
    calls = _record_qps(monkeypatch)
    result = run_trial(
        standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 1.2, SimConfig(seed=3)
    )
    assert not result.failed
    assert len(calls) == round(1.2 / SimConfig().dt)
    for gait, v_cmd, terrain in [
        (GaitName.BOUND, 1.7, terrain_preset("flat")),
        (GaitName.RUN, 0.7, KINK_AHEAD),
        (GaitName.BOUND, 0.7, terrain_preset("slope12")),
    ]:
        run_trial(standard_gait(gait), v_cmd, terrain, 1.5, SimConfig(seed=3))
    binding = 0
    for M, b, G, h, _, x, _, active in calls:
        _check_minimizer(M, b, G, h, x, active)
        binding += bool(active)
    assert binding > 100


def _reference_least_squares(wrench, feet, stance, com):
    """The QP's M = [W A; sqrt(eps) I] and b = [W w; 0], built with numpy."""
    A, idx = _wrench_matrix(
        np.asarray(feet, dtype=float), np.asarray(stance, dtype=bool),
        np.asarray(com, dtype=float),
    )
    weights = np.array(forces._ROW_WEIGHTS)
    M = np.zeros((6 + 3 * len(idx), 3 * len(idx)))
    M[:6] = A * weights[:, None]
    np.fill_diagonal(M[6:], math.sqrt(forces._RIDGE))
    b = np.zeros(6 + 3 * len(idx))
    b[:6] = np.asarray(wrench, dtype=float) * weights
    return M, b


def _assert_bit_equal_least_squares(inputs, calls):
    """Each QP's M and b against the numpy build from its distribute_forces
    inputs; stance sets without feet make no QP."""
    with_feet = [args for args in inputs if np.any(args[2])]
    assert len(with_feet) == len(calls) > 0
    for (wrench, feet, stance, com), (M, b, *_) in zip(with_feet, calls):
        want_M, want_b = _reference_least_squares(wrench, feet, stance, com)
        assert M.dtype == want_M.dtype and M.shape == want_M.shape
        assert M.tobytes() == want_M.tobytes()
        assert b.dtype == want_b.dtype and b.shape == want_b.shape
        assert b.tobytes() == want_b.tobytes()


def test_least_squares_factor_is_the_numpy_build_on_random_instances(monkeypatch):
    # the instances of test_500_random_instances_constraints_hold
    calls = _record_qps(monkeypatch)
    rng = np.random.default_rng(2024)
    instances = [_random_instance(rng) for _ in range(500)]
    for wrench, feet, stance, com in instances:
        distribute_forces(wrench, feet, stance, com, 0.7, 2 * MG)
    _assert_bit_equal_least_squares(instances, calls)


def test_least_squares_factor_is_the_numpy_build_on_a_trot(monkeypatch):
    calls = _record_qps(monkeypatch)
    inputs = []
    distribute = simulation.distribute_forces

    def recorded(wrench, feet, stance, com, *args, **kwargs):
        inputs.append(tuple(np.array(a) for a in (wrench, feet, stance, com)))
        return distribute(wrench, feet, stance, com, *args, **kwargs)

    monkeypatch.setattr(simulation, "distribute_forces", recorded)
    result = run_trial(
        standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 1.2, SimConfig(seed=3)
    )
    assert not result.failed and len(inputs) == round(1.2 / SimConfig().dt)
    _assert_bit_equal_least_squares(inputs, calls)


def _objective(forces_out, wrench, feet, stance, com):
    """The QP objective of a force split, up to its constant term."""
    A, idx = _wrench_matrix(feet, stance, com)
    x = forces_out[idx].reshape(-1)
    r = np.array(forces._ROW_WEIGHTS) * (A @ x - wrench)
    return 0.5 * float(r @ r) + 0.5 * forces._RIDGE * float(x @ x)


def test_hot_start_reaches_the_cold_minimizer_on_random_instances():
    # the instances of test_500_random_instances_constraints_hold, each
    # hot-started from its own cold working set and from a random subset of
    # all 24 leg-face rows in random order (swing and f_max rows included)
    rng = np.random.default_rng(2024)
    seed_rng = np.random.default_rng(5)
    mu, f_max = 0.7, 2 * MG
    hot_starts = 0
    for _ in range(500):
        wrench, feet, stance, com = _random_instance(rng)
        cold = distribute_forces(wrench, feet, stance, com, mu, f_max)
        cold_obj = _objective(cold.forces, wrench, feet, stance, com)
        rows = seed_rng.permutation(24)[: int(seed_rng.integers(1, 13))]
        for seed in (cold.working_set, tuple(int(i) for i in rows)):
            hot = distribute_forces(wrench, feet, stance, com, mu, f_max, working_set=seed)
            hot_starts += bool(seed)
            assert np.all(hot.forces[~stance] == 0.0)
            fn = hot.forces[stance][:, 2]
            assert np.all(fn >= -1e-9)
            assert np.all(fn <= f_max + 1e-9)
            assert np.all(np.abs(hot.forces[stance][:, :2]) <= mu * fn[:, None] + 1e-9)
            assert hot.feasible == cold.feasible
            hot_obj = _objective(hot.forces, wrench, feet, stance, com)
            assert abs(hot_obj - cold_obj) <= 1e-8 * (1.0 + cold_obj)
            assert np.abs(hot.forces - cold.forces).max() <= 1e-6
            assert all(stance[i // 6] for i in hot.working_set)
    assert hot_starts > 600


def test_seed_drops_swing_rows_and_f_max_rows(monkeypatch):
    # legs 0 and 3 stand; rows of legs 1 and 2 and the f_n <= f_max rows
    # (face 5) are no valid seed, so the solve is the cold start bit for bit
    wrench = np.array([4.0, -2.0, MG, 0.5, -0.5, 0.2])
    stance = np.array([True, False, False, True])
    cold = distribute_forces(wrench, _standing_feet(), stance, COM, 0.7, 2 * MG)
    seeds = []
    solve = forces.solve_qp

    def recorded(H, g, G, h, working_set=()):
        seeds.append(list(working_set))
        return solve(H, g, G, h, working_set=working_set)

    monkeypatch.setattr(forces, "solve_qp", recorded)
    invalid = (6 + 0, 12 + 4, 5, 18 + 5, 6 + 5)
    hot = distribute_forces(
        wrench, _standing_feet(), stance, COM, 0.7, 2 * MG, working_set=invalid
    )
    # swing rows never reach the QP; leg 3 is the QP's second foot
    assert seeds == [[5, 6 + 5]]
    assert hot.forces.tobytes() == cold.forces.tobytes()
    assert hot.iterations == cold.iterations
    assert hot.working_set == cold.working_set

    # a face through the origin of a stance foot is kept, in QP numbering
    seeds.clear()
    distribute_forces(
        wrench, _standing_feet(), stance, COM, 0.7, 2 * MG, working_set=(18 + 4, 6 + 1)
    )
    assert seeds == [[6 + 4]]


def _as_sequences(wrench, feet, stance, com):
    """run_trial's form of the inputs: a 6-tuple, four 3-tuples, a list of
    flags and a 3-tuple of Python floats."""
    return (
        tuple(np.asarray(wrench, dtype=float).tolist()),
        [tuple(row) for row in np.asarray(feet, dtype=float).tolist()],
        [bool(on) for on in stance],
        tuple(np.asarray(com, dtype=float).tolist()),
    )


def _assert_same_distribution(got, want):
    assert got.forces.dtype == want.forces.dtype and got.forces.shape == (4, 3)
    assert got.forces.tobytes() == want.forces.tobytes()
    assert got.working_set == want.working_set
    assert got.iterations == want.iterations
    assert got.stance.dtype == bool and got.stance.tobytes() == want.stance.tobytes()


def test_sequence_inputs_give_the_array_bits_on_random_instances():
    # the instances of test_500_random_instances_constraints_hold, cold and
    # hot-started from their own working set
    rng = np.random.default_rng(2024)
    mu, f_max = 0.7, 2 * MG
    for _ in range(500):
        wrench, feet, stance, com = _random_instance(rng)
        cold = distribute_forces(wrench, feet, stance, com, mu, f_max)
        w, p, s, c = _as_sequences(wrench, feet, stance, com)
        _assert_same_distribution(distribute_forces(w, p, s, c, mu, f_max), cold)
        hot = distribute_forces(wrench, feet, stance, com, mu, f_max,
                                working_set=cold.working_set)
        _assert_same_distribution(
            distribute_forces(w, p, s, c, mu, f_max, working_set=cold.working_set), hot
        )


@pytest.mark.parametrize(
    "gait, v_cmd, falls",
    [(GaitName.TROT, 1.2, False), (GaitName.BOUND, 1.7, True)],
    ids=["trot", "falling-bound"],
)
def test_trial_sequence_inputs_give_the_array_bits(monkeypatch, gait, v_cmd, falls):
    # every QP of a trial, from run_trial's float sequences and from arrays
    # of the same values
    calls = []
    distribute = simulation.distribute_forces

    def recorded(wrench, feet, stance, com, mu, f_max, normals, working_set=()):
        dist = distribute(wrench, feet, stance, com, mu, f_max, normals,
                          working_set=working_set)
        calls.append((tuple(wrench), list(feet), list(stance), tuple(com), mu, f_max,
                      np.array(normals), working_set, dist))
        return dist

    monkeypatch.setattr(simulation, "distribute_forces", recorded)
    result = run_trial(standard_gait(gait), v_cmd, terrain_preset("flat"), 1.2,
                       SimConfig(seed=3))
    assert result.failed == falls and len(calls) > 100
    assert all(type(c[0]) is tuple and type(c[1][0]) is tuple for c in calls)
    for wrench, feet, stance, com, mu, f_max, normals, seed, dist in calls:
        arrays = (np.array(wrench), np.array(feet), np.array(stance), np.array(com))
        _assert_same_distribution(
            distribute_forces(*arrays, mu, f_max, normals, working_set=seed), dist
        )


_BAD_STANCES = [
    [True, True, False],
    [True, False, True, False, True],
    np.array([True, True, False]),
    np.array([[True, False], [False, True]]),
    np.array([[True], [False], [False], [True]]),
    [[True, False], [False, True], [True, True], [False, False]],
]
_BAD_FEET = [
    _standing_feet()[:3],
    _standing_feet()[:, :2],
    _standing_feet().reshape(12),
    _standing_feet().reshape(2, 6),
    [tuple(row) for row in _standing_feet().tolist()[:3]],
    [tuple(row[:2]) for row in _standing_feet().tolist()],
    [*_standing_feet().tolist(), [0.0, 0.0, 0.0]],
]


@pytest.mark.parametrize("stance", _BAD_STANCES)
def test_stance_that_is_not_four_flags_is_rejected(stance):
    wrench = np.array([0.0, 0.0, MG, 0.0, 0.0, 0.0])
    w, feet, _, com = _as_sequences(wrench, _standing_feet(), [True] * 4, COM)
    for args in ((wrench, _standing_feet(), stance, COM), (w, feet, stance, com)):
        with pytest.raises(ValueError):
            distribute_forces(*args, 0.7, 2 * MG)


@pytest.mark.parametrize("feet", _BAD_FEET)
def test_feet_that_are_not_four_by_three_are_rejected(feet):
    wrench = np.array([0.0, 0.0, MG, 0.0, 0.0, 0.0])
    for stance in ([True] * 4, np.ones(4, dtype=bool), [True, False, False, False]):
        with pytest.raises(ValueError):
            distribute_forces(wrench, feet, stance, COM, 0.7, 2 * MG)
        with pytest.raises(ValueError):
            distribute_forces(tuple(wrench.tolist()), feet, stance, (0.0, 0.0, 0.32),
                              0.7, 2 * MG)


def _record_direct_solves(monkeypatch):
    """Wrap the LAPACK gufunc solve_qp calls; each call's result is kept with
    np.linalg.solve's on the same system, taken before the loop rewrites it."""
    solves = []
    direct = forces._lapack_solve

    def recorded(kkt, rhs):
        sol = direct(kkt, rhs)
        solves.append((sol.tobytes(), np.linalg.solve(kkt, rhs).tobytes()))
        return sol

    monkeypatch.setattr(forces, "_lapack_solve", recorded)
    return solves


def test_direct_solve_gives_the_numpy_solve_bits_on_random_instances(monkeypatch):
    # the instances of test_500_random_instances_constraints_hold, cold and
    # hot-started from the previous instance's working set
    solves = _record_direct_solves(monkeypatch)
    rng = np.random.default_rng(2024)
    working_set = ()
    for _ in range(500):
        wrench, feet, stance, com = _random_instance(rng)
        distribute_forces(wrench, feet, stance, com, 0.7, 2 * MG)
        d = distribute_forces(wrench, feet, stance, com, 0.7, 2 * MG, working_set=working_set)
        working_set = d.working_set
    assert len(solves) >= 1000
    assert all(got == want for got, want in solves)


def test_singular_kkt_raises_linalgerror():
    # M = 0 leaves the augmented system's lower-right block zero; the gufunc
    # returns NaN with its invalid-value warning, and the np.linalg.solve
    # fallback raises
    G, h = forces._constraints((forces._UP_BYTES,) * 2, 0.7, 2 * MG)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(np.linalg.LinAlgError):
            forces.solve_qp(np.zeros((12, 6)), np.ones(12), G, h)


def test_nan_wrench_gives_the_numpy_solve_bits(monkeypatch):
    # a NaN-bearing system is not singular: the fallback returns NaN as
    # np.linalg.solve does, and the QP returns instead of raising
    solves = _record_direct_solves(monkeypatch)
    wrench = np.array([0.0, 0.0, MG, math.nan, 0.0, 0.0])
    d = distribute_forces(wrench, _standing_feet(), [True, False, False, True], COM,
                          0.7, 2 * MG)
    assert not d.feasible
    assert solves and all(got == want for got, want in solves)
    assert any(np.isnan(np.frombuffer(got)).any() for got, _ in solves)


# contact normals of flat ground and of 8 and 12 degree slopes
_NORMALS = np.array(
    [[-math.sin(a), 0.0, math.cos(a)] for a in np.radians([0.0, 8.0, 12.0])]
)


def _instance_on_slopes(rng):
    """A random instance with each foot on one of three ground slopes."""
    return (*_random_instance(rng), _NORMALS[rng.integers(3, size=4)])


def _instances_by_stance_count(rng):
    """One random instance of each stance count 1 to 4, in random order."""
    by_count = {}
    while len(by_count) < 4:
        instance = _instance_on_slopes(rng)
        by_count.setdefault(int(instance[2].sum()), instance)
    return [by_count[k] for k in rng.permutation([1, 2, 3, 4])]


def _memory_ranges(arrays):
    return sorted(
        (a.__array_interface__["data"][0], a.__array_interface__["data"][0] + a.nbytes)
        for a in arrays
    )


def test_results_do_not_depend_on_workspace_state():
    # 500 random instances with feet on three slopes, so that consecutive
    # solves of one stance count meet other constraint sets, cold and
    # hot-started from their cold working set: each solved alone after every
    # cache of the forces module (workspaces included) is cleared, then all
    # again in shuffled order, each after one instance of every stance count
    rng = np.random.default_rng(2024)
    mu, f_max = 0.7, 2 * MG
    instances = [_instance_on_slopes(rng) for _ in range(500)]
    caches = [fn for fn in vars(forces).values() if hasattr(fn, "cache_clear")]
    assert forces._workspace in caches

    def solve(instance, seed):
        wrench, feet, stance, com, normals = instance
        return distribute_forces(wrench, feet, stance, com, mu, f_max, normals,
                                 working_set=seed)

    alone = []
    for instance in instances:
        for cache in caches:
            cache.cache_clear()
        cold = solve(instance, ())
        for cache in caches:
            cache.cache_clear()
        alone.append((cold, solve(instance, cold.working_set)))

    mix_rng = np.random.default_rng(11)
    returned = []
    hot_starts = 0
    for n in mix_rng.permutation(len(instances)):
        cold, hot = alone[n]
        for seed, want in (((), cold), (cold.working_set, hot)):
            for other in _instances_by_stance_count(mix_rng):
                other_seed = tuple(int(i) for i in mix_rng.permutation(24)[:4])
                returned.append(solve(other, other_seed))
            got = solve(instances[n], seed)
            returned.append(got)
            _assert_same_distribution(got, want)
            assert got.residual == want.residual
            assert got.relative_residual == want.relative_residual
            assert got.feasible == want.feasible
            hot_starts += bool(seed)
    assert hot_starts > 100

    # every returned array owns memory of its own, apart from the others and
    # from the workspaces
    ranges = _memory_ranges([a for d in returned for a in (d.forces, d.stance)])
    assert all(end <= start for (_, end), (start, _) in zip(ranges, ranges[1:]))
    for k in range(1, 5):
        ws = forces._workspace(k, threading.get_ident())
        for buffer in (ws.aug, ws.b, ws.rhs):
            assert not any(np.shares_memory(d.forces, buffer) for d in returned)


def test_a_numpy_without_the_gufunc_name_solves_with_the_wrapper_bit_for_bit(monkeypatch):
    # the gufunc's name is private to numpy: a copy of the forces module
    # loaded where numpy lacks it solves with np.linalg.solve, and gives the
    # forces of the direct call for 2, 3 and 4 stance feet, cold and hot-started.
    # np.linalg keeps its own handle on the gufunc module, so only the import
    # is left without the name.
    import numpy.linalg._umath_linalg as gufuncs

    without = types.ModuleType(gufuncs.__name__)
    without.__dict__.update({k: v for k, v in vars(gufuncs).items() if k != "solve1"})
    monkeypatch.setitem(sys.modules, gufuncs.__name__, without)
    name = "gaitkit.forces_without_solve1"
    spec = importlib.util.spec_from_file_location(name, forces.__file__)
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, fallback)
    spec.loader.exec_module(fallback)
    assert fallback._lapack_solve is np.linalg.solve
    assert forces._lapack_solve is gufuncs.solve1

    rng = np.random.default_rng(24)
    counts = []
    for _ in range(30):
        for wrench, feet, stance, com, normals in _instances_by_stance_count(rng):
            if stance.sum() < 2:
                continue
            counts.append(int(stance.sum()))
            args = (wrench, feet, stance, com, 0.7, 2 * MG, normals)
            cold = distribute_forces(*args)
            _assert_same_distribution(fallback.distribute_forces(*args), cold)
            hot = distribute_forces(*args, working_set=cold.working_set)
            _assert_same_distribution(
                fallback.distribute_forces(*args, working_set=cold.working_set), hot)
    assert sorted(set(counts)) == [2, 3, 4]
