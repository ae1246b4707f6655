"""Force-distribution solver against an independent randomized-search oracle.

The oracle parametrizes the solution set of the wrench equalities directly
(particular solution + nullspace basis via SVD), then runs a shrinking
uniform random search over the nullspace coordinates, keeping cone-feasible
samples; it shares no code with the active-set path it checks.

The active-set loop itself is also checked against a reference copy of the
loop that confirmed every full step with one more KKT solve.
"""

import math

import numpy as np
import pytest

from gaitkit import forces, simulation
from gaitkit.forces import distribute_forces
from gaitkit.gaits import GaitName, standard_gait
from gaitkit.robot import terrain_preset
from gaitkit.simulation import SimConfig, run_trial

MG = 12.0 * 9.81


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


def _drop_choice(lam):
    """Index of the working-set constraint to drop, or -1 to stop."""
    return int(np.argmin(lam)) if lam.size and lam.min() < -1e-9 else -1


def _reference_solve_qp(H, g, G, h, max_iter=80, working_set=()):
    """The active-set loop with a confirming KKT solve after each full step.

    It starts from the working set that solve_qp seeds from ``working_set``.

    After every full, unblocked step this loop solves once more to find
    p ~ 0 and decides on that solve's multipliers. Returns (x, iterations,
    confirmations, departed): the confirmations that found p ~ 0, and
    whether a confirmation did something the step's own multipliers would
    not: take a roundoff refinement step, or (on a degenerate working set,
    whose multipliers are not unique) drop another constraint.
    """
    n = H.shape[0]
    x = np.zeros(n)
    active = []
    for i in working_set:
        if h[i] == 0.0 and forces._independent(G, i, active, 6):
            active.append(i)
    last_it = 0
    step_lam = None  # multipliers of a full, unblocked step, until confirmed
    confirmations = 0
    departed = False
    for it in range(max_iter):
        last_it = it + 1
        if active:
            C = G[active]
            m = len(active)
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = H
            kkt[:n, n:] = C.T
            kkt[n:, :n] = C
            rhs = np.concatenate([-(H @ x + g), np.zeros(m)])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            p, lam = sol[:n], sol[n:]
        else:
            p = np.linalg.solve(H, -(H @ x + g))
            lam = np.array([])

        step_gain = float(p @ (H @ p))
        if step_gain <= 1e-18 * max(1.0, float(x @ (H @ x))) or math.sqrt(p.dot(p)) < 1e-11:
            if step_lam is not None:
                confirmations += 1
                departed |= _drop_choice(lam) != _drop_choice(step_lam)
                step_lam = None
            if lam.size and lam.min() < -1e-9:
                active.pop(int(np.argmin(lam)))
                continue
            return x, last_it, confirmations, departed
        departed |= step_lam is not None
        step_lam = None

        Gp = (G @ p).tolist()
        slack = (h - G @ x).tolist()
        alpha = 1.0
        blocking = -1
        for i in range(len(Gp)):
            if i in active or Gp[i] <= 1e-12:
                continue
            step = slack[i] / Gp[i]
            if step < alpha:
                alpha = step
                blocking = i
        x = x + alpha * p
        if blocking >= 0:
            active.append(blocking)
        else:
            step_lam = lam
    return x, last_it, confirmations, departed


class _QpLog:
    """Replaces forces.solve_qp and records each call with the reference."""

    def __init__(self, monkeypatch):
        self.calls = []
        solve = forces.solve_qp

        def recorded(H, g, G, h, working_set=()):
            x, iterations, active = solve(H, g, G, h, working_set=working_set)
            reference = _reference_solve_qp(H, g, G, h, working_set=working_set)
            self.calls.append(((H, g, G, h, tuple(working_set)), x, iterations, reference))
            return x, iterations, active

        monkeypatch.setattr(forces, "solve_qp", recorded)

    def check(self):
        """Compare every call with the reference; return the departed count."""
        departed = 0
        for (H, g, G, h, seed), x, iterations, (x_ref, it_ref, confirms, dep) in self.calls:
            if dep:
                departed += 1
                assert np.all(np.abs(x - x_ref) <= 1e-9 * (1.0 + np.abs(x_ref)))
            else:
                assert x.tobytes() == x_ref.tobytes()
                assert iterations == it_ref - confirms
            # a cold start ends at once on a feasible unconstrained optimum
            if not seed and (G @ np.linalg.solve(H, -g) <= h).all():
                assert iterations == 1
        return departed


def test_qp_matches_confirming_reference_on_random_instances(monkeypatch):
    # the instances of test_500_random_instances_constraints_hold
    log = _QpLog(monkeypatch)
    rng = np.random.default_rng(2024)
    for _ in range(500):
        wrench, feet, stance, com = _random_instance(rng)
        distribute_forces(wrench, feet, stance, com, 0.7, 2 * MG)
    assert len(log.calls) == 500
    # a departure needs a degenerate working set; one instance here has one
    assert log.check() <= 5
    assert any(it == 1 for _, _, it, _ in log.calls)
    assert any(it > 1 for _, _, it, _ in log.calls)


def test_qp_matches_confirming_reference_on_a_flat_trot(monkeypatch):
    log = _QpLog(monkeypatch)
    result = run_trial(
        standard_gait(GaitName.TROT), 1.2, terrain_preset("flat"), 1.2, SimConfig(seed=3)
    )
    assert not result.failed
    assert len(log.calls) == round(1.2 / SimConfig().dt)
    assert log.check() == 0


def _objective(forces_out, wrench, feet, stance, com):
    """The QP objective of a force split, up to its constant term."""
    A, idx = _wrench_matrix(feet, stance, com)
    x = forces_out[idx].reshape(-1)
    r = forces._ROW_WEIGHTS_ARRAY * (A @ x - wrench)
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


def _aligned_pair_instance(rng):
    """Two feet with one equal ground coordinate, pushed past their cone.

    The pair shares y (a side pair) or x (a front or hind pair), and the
    wrench is that of foot forces beyond the friction pyramid along the
    shared axis, so the binding faces are orthogonal to the squeeze
    direction d and the polish projects d out.
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


def test_two_foot_binding_polish_matches_lstsq(monkeypatch):
    """The closed-form 2-foot polish against lstsq on [A; binding rows].

    Instances: the 2-foot random instances, aligned pairs pushed past their
    cone, and the 2-foot steps of trials that press feet against their cone
    faces.
    """
    lstsq = np.linalg.lstsq
    qp_x = []
    solve = forces.solve_qp

    def recorded(H, g, G, h, working_set=()):
        out = solve(H, g, G, h, working_set=working_set)
        qp_x.append((G, h, out[0].copy()))
        return out

    lstsq_calls = []

    def counted(*args, **kwargs):
        lstsq_calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(forces, "solve_qp", recorded)
    monkeypatch.setattr(np.linalg, "lstsq", counted)

    instances = []
    distribute = simulation.distribute_forces

    def logged(wrench, feet, stance, com, mu, f_max, normals, working_set=()):
        dist = distribute(wrench, feet, stance, com, mu, f_max, normals,
                          working_set=working_set)
        if dist.stance.sum() == 2:
            instances.append((np.array(feet), dist.stance, np.array(com), qp_x[-1], dist))
        return dist

    monkeypatch.setattr(simulation, "distribute_forces", logged)
    rng = np.random.default_rng(2024)
    for _ in range(500):
        wrench, feet, stance, com = _random_instance(rng)
        if stance.sum() == 2:
            dist = distribute_forces(wrench, feet, stance, com, 0.7, 2 * MG)
            instances.append((feet, stance, com, qp_x[-1], dist))
    for _ in range(50):
        wrench, feet, stance, com = _aligned_pair_instance(rng)
        dist = distribute_forces(wrench, feet, stance, com, 0.7, 2 * MG)
        instances.append((feet, stance, com, qp_x[-1], dist))
    for gait, v_cmd, name, start_x in [
        (GaitName.BOUND, 1.7, "flat", 0.0),
        (GaitName.RUN, 0.7, "flat-slope", 2.4),
        (GaitName.BOUND, 0.7, "slope12", 0.0),
    ]:
        run_trial(standard_gait(gait), v_cmd, terrain_preset(name), 1.5,
                  SimConfig(seed=3), start_x=start_x)
    assert lstsq_calls == []

    checked = {"projected": 0, "kept": 0}
    for feet, stance, com, (G, h, x), dist in instances:
        binding = np.abs(G @ x - h) <= 1e-7 * (1.0 + np.abs(h))
        if not binding.any():
            continue
        A, idx = _wrench_matrix(feet, stance, com)
        C = np.concatenate([A, G[binding]])
        want = lstsq(C, C @ x, rcond=None)[0]
        if not ((G @ want <= h + 1e-9).all() and want @ want <= x @ x + 1e-9):
            want = x
        got = dist.forces[idx].reshape(-1)
        assert np.linalg.norm(got - want) <= 1e-9 * max(np.linalg.norm(want), 1.0)
        checked["projected" if np.linalg.matrix_rank(C) < 6 else "kept"] += 1
    # both closed forms run: the squeeze direction projected out, and kept
    assert checked["projected"] > 10
    assert checked["kept"] > 10
