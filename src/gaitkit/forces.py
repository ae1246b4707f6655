"""Contact-force distribution under linearized friction-cone constraints.

Given a desired body wrench, solves for stance-foot ground reaction forces
minimizing the total squared force subject to

* net force and net moment matching the wrench,
* a four-face friction pyramid |f_t| <= mu * f_n per stance foot,
* 0 <= f_n <= f_max on the contact normal,
* exactly zero force on swing legs.

The wrench equalities are enforced through a stiff quadratic penalty so the
problem stays well posed even when they are unattainable (flight phase, or a
two-foot stance that cannot realize the full moment); the achieved residual
and a feasibility verdict are reported alongside the forces. With the row
weights W and a ridge eps, the objective is the least-squares form
0.5 |M x - b|^2 with M = [W A; sqrt(eps) I] and b = [W w; 0]: the penalty on
the wrench w plus eps/2 |x|^2, which picks the smallest forces among those
that realize the same wrench. M has full column rank, and its condition
number (about 7e5 for four feet) is the square root of that of the normal
matrix M'M, so the normal equations are never formed.

The cone faces are handled by a primal active-set loop on this small dense
problem (Nocedal & Wright, Numerical Optimization, §16.5). Each working-set
subproblem, min 0.5 |M p - r|^2 subject to C p = 0 with r = b - M x, is one
solve of the augmented system (Björck, Numerical Methods for Least Squares
Problems, §2.5)

    [ -a I   M    0  ] [ y  ]   [ r ]
    [  M'    0    C' ] [ p  ] = [ 0 ]
    [  0     C    0  ] [ mu ]   [ 0 ]

where y = (M p - r) / a is the scaled residual and a * mu are the
multipliers of the working-set rows. The scale a = sqrt(eps) is about the
smallest singular value of M, which balances the system; it is nonsingular
because M has full column rank and C full row rank. The loop ends on the
multipliers of the step that reached the working-set minimizer: after a
full, unblocked step, or a step below 1e-9 of max(1, |x|), it returns if
every multiplier is at least -1e-12 and otherwise drops the most negative
one, without a further solve to confirm a zero step (Alg. 16.3).

The working set stays linearly independent, so C keeps full row rank: a
cone face may block a step only if its row is independent of the working-set
rows of the same foot. At x = 0 all five faces through the origin have
zero slack, and {face+t1, face-t1, +-n}, {face+t2, face-t2, +-n}, {n, -n}
and any four rows of one foot are dependent; a dependent face has G_i p = 0 on
every step of the working set, so skipping it is exact. The rows of a foot act
on its three columns only, so the test is a cross or triple product of at most
three 3-vectors.

Consecutive control steps solve nearly the same QP, so the solver is hot-
started (Nocedal & Wright, §16.5): ``solve_qp`` takes an initial working set
and ``distribute_forces`` takes and returns it in leg-face numbering,
``6 * leg + face``. The seed keeps, in the given order, the rows of stance
feet that are active at x = 0 (h_i == 0, so never an f_max row) and
independent of the rows kept before them; the loop then runs as from a cold
start. Any such seed reaches the minimizer, since x = 0 is feasible and on
every seeded face, and the ridge makes that minimizer unique, so hot and
cold starts end on the same forces to round-off. The empty seed is the cold
start.

Contact normals are constant per terrain segment, so the six friction-pyramid
rows of a stance foot are built once per (normal, friction) pair and kept in a
bounded cache as a read-only 6x3 block, and the constraint matrix and bounds
of a stance set are built from those blocks once per (normals, friction,
f_max) and cached read-only as well. The caches are keyed on the exact bytes
of the normals as given, so a block is bit for bit the one a fresh build
would give.

The control loop calls ``distribute_forces`` every step with Python floats:
the wrench as a 6-tuple, the feet as four 3-tuples, the stance as four flags
and the centre of mass as a 3-tuple; arrays are taken too, and give the same
bits. Anything but four stance flags or four rows of three foot coordinates
is a ValueError, and so is a friction coefficient or a normal-force bound
that is not positive. Each stance count has one workspace per thread, kept
between calls: one buffer for the augmented system below, built once with
``-sqrt(eps) I`` and the constant rows of M and M' (the weighted force
identities, one ``W_f I`` per foot, and the ridge), and one for b, whose
ridge rows stay zero. A call writes only the three weighted moment rows of
M and M', products of Python floats with the bits ``np.multiply`` gives,
and ``W w`` into b; nothing is copied. The achieved wrench, and with it the
residual and the feasibility verdict, is summed in Python floats from the
solution, and the forces array is filled in one write.

In ``solve_qp`` the iterate is exactly 0 until the first step is taken, so
the first right-hand side is b itself and the first slack is h; nothing of
the form ``b - M @ 0`` is computed. When M is the workspace's own (the
``distribute_forces`` path) the solve works in that workspace as it stands;
any other M gets a new workspace with M and M' written in. The workspace
has room for every working-set row, and the KKT matrix of each iteration is
its leading block, the augmented system itself for an empty working set.
The working-set rows border it, written only when the constraints or the
leading rows of the working set differ from what the border already holds.
The workspace also keeps G and h as Python floats, converted when it first
meets a constraint set, for the seed, ratio and independence tests, and
the multiplier test reads the solution as Python floats. numpy still forms
``G p``, ``b - M x`` and every dot product whose bits decide a step. No
cache is keyed on the working set.

Each KKT system is solved by the LAPACK gesv gufunc that ``np.linalg.solve``
calls for a vector right-hand side (``numpy.linalg._umath_linalg.solve1``),
called directly: the same LAPACK call and the same bits, without the
wrapper's array conversion, type resolution and ``errstate`` context. Only
the wrapper turns a singular system into ``LinAlgError``; the gufunc returns
NaN for it (with numpy's invalid-value warning). So a solution that is not
finite is solved again by ``np.linalg.solve``: a singular system still
raises ``LinAlgError``, and a system with NaN entries, which is not singular
to LAPACK, still gives NaN. The gufunc's name is private to numpy; where a
numpy release lacks it, ``np.linalg.solve`` is called instead, with the same
bits.

Euclidean norms of iterates and steps are taken as ``math.sqrt(v.dot(v))``,
the same dot product and correctly rounded square root that
``np.linalg.norm`` uses for them, without its dispatch overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from threading import get_ident

import numpy as np

# Weight of the norm-minimization term relative to the wrench penalty. Small
# enough that the wrench residual stays far below the 1e-6 feasibility
# threshold, large enough to keep the condition number of the least-squares
# factor [W A; sqrt(eps) I] near 1e6 (its smallest singular value is sqrt(eps)).
_RIDGE = 1e-9
_FEASIBLE_RTOL = 1e-6
# sine of the angle below which a cone row counts as lying in the span of
# the working-set rows of its foot; dependent rows give round-off (~1e-16)
_DEPENDENT_RTOL = 1e-9
# When the wrench is unattainable (rank-deficient or cone-limited stance),
# the residual lands on the rows with the least weight. Moment errors act on
# the small trunk inertia and destabilize far faster than force errors act on
# the mass, and losing vertical support means falling, so those rows are
# penalized harder; horizontal force errors only cause a fore-aft surge
# (which pair gaits need anyway to stay pitch-neutral).
_ROW_WEIGHTS = (0.3, 0.3, 8.0, 30.0, 30.0, 30.0)
# raw bytes of the default contact normal, world z (a cone-cache key)
_UP_BYTES = np.array([0.0, 0.0, 1.0]).tobytes()
_SQRT_RIDGE = math.sqrt(_RIDGE)
# the multiplier below which a working-set row is dropped, in the units of
# the objective (multipliers of feasible splits are eps * |f|, about 1e-7)
_LAMBDA_TOL = -1e-12
# the LAPACK gesv gufunc that np.linalg.solve calls for a vector right-hand
# side, without the wrapper's array conversion, type resolution and errstate;
# the name is private to numpy, so where it is missing, the wrapper itself,
# which gives the same bits
try:
    from numpy.linalg._umath_linalg import solve1 as _lapack_solve
except ImportError:
    _lapack_solve = np.linalg.solve


@dataclass
class ForceDistribution:
    """Solved contact forces plus solver diagnostics."""

    forces: np.ndarray  # (4, 3) world frame; swing rows are exactly zero
    stance: np.ndarray  # (4,) bool
    residual: float  # |achieved wrench - desired wrench|
    relative_residual: float
    feasible: bool
    iterations: int
    # final QP working set in leg-face numbering 6 * leg + face; the seed of
    # the next control step
    working_set: tuple[int, ...] = ()


def _tangent_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = normal / np.linalg.norm(normal)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(n @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    t1 = np.cross(n, helper)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


@lru_cache(maxsize=256)
def _cone_block(normal_bytes: bytes, friction: float) -> np.ndarray:
    """Read-only 6x3 constraint block of one stance foot in ``G x <= h``.

    Rows: the four pyramid faces (+-t1, +-t2 against mu*n), then -n (f_n >= 0)
    and n (f_n <= f_max). ``normal_bytes`` holds the raw float64 normal; it is
    normalized here and again inside :func:`_tangent_basis`. The key is bytes,
    not floats, because 0.0 == -0.0: the flat-terrain normal (-0.0, 0, 1) and
    the default (0, 0, 1) give blocks whose zero entries differ in sign.
    """
    raw = np.frombuffer(normal_bytes, dtype=float)
    n = raw / np.linalg.norm(raw)
    t1, t2 = _tangent_basis(n)
    block = np.array(
        [
            t1 - friction * n,
            -t1 - friction * n,
            t2 - friction * n,
            -t2 - friction * n,
            -n,
            n,
        ]
    )
    block.flags.writeable = False
    return block


class _Workspace:
    """The augmented system of one least-squares factor, kept between solves.

    ``aug`` is ``(rows + 2n)``-square: ``-sqrt(eps) I`` on its first ``rows``
    diagonal entries, the factor ``M`` (the view ``self.M``) to the right of
    that block and ``M'`` (``self.MT``) below it, zeros elsewhere, and room
    for up to ``n`` working-set rows of ``G`` bordering ``M'`` below and to
    the right. The KKT matrix with ``m`` working-set rows is the leading
    ``(rows + n + m)``-square block, and ``rhs`` is zero beyond ``rows``, so
    its leading entries are the right-hand side; ``kkt[m]`` holds both views.
    ``held`` lists the rows of ``G`` in the border, in order; ``G_rows`` and
    ``h_list`` are ``G`` and ``h`` as Python floats.
    """

    __slots__ = (
        "aug", "M", "MT", "moments", "b", "rhs", "kkt", "G", "h", "G_rows", "h_list", "held"
    )

    def __init__(self, rows: int, n: int) -> None:
        size = rows + n
        self.aug = np.zeros((size + n, size + n))
        np.fill_diagonal(self.aug[:rows, :rows], -_SQRT_RIDGE)
        self.M = self.aug[:rows, rows:size]
        self.MT = self.aug[rows:size, :rows]
        self.moments = None
        self.b = np.zeros(rows)
        self.rhs = np.zeros(size + n)
        self.kkt = [
            (self.aug[: size + m, : size + m], self.rhs[: size + m]) for m in range(n + 1)
        ]
        self.G = self.h = self.G_rows = self.h_list = None
        self.held: list[int] = []


@lru_cache(maxsize=16)
def _workspace(k: int, thread: int) -> _Workspace:
    """The workspace that ``distribute_forces`` reuses for ``k`` stance feet
    in one thread (``threading.get_ident()``), so that concurrent calls
    never write into the same one.

    ``M`` and ``M'`` are built with their constant entries, the weighted
    force identities ``W_f I`` of every foot (``w * 1.0`` and ``w * 0.0``
    are ``w`` and ``0.0`` exactly, the entries ``np.multiply`` gives) and the
    ridge ``sqrt(eps) I`` below them; each call writes the three weighted
    moment rows, in ``M`` and ``M'``, and the wrench rows of ``b``, whose
    ridge rows stay zero. ``moments`` holds the flat positions in ``aug`` of
    the moment rows of M, row by row, then of the same entries in ``M'``.
    """
    n = 3 * k
    rows = 6 + n
    ws = _Workspace(rows, n)
    for row, weight in enumerate(_ROW_WEIGHTS[:3]):
        ws.M[row, row::3] = weight
    np.fill_diagonal(ws.M[6:], _SQRT_RIDGE)
    ws.MT[...] = ws.M.T
    at = np.arange(ws.aug.size).reshape(ws.aug.shape)
    ws.moments = np.array(
        [at[3:6, rows : rows + n].ravel(), at[rows : rows + n, 3:6].T.ravel()]
    )
    return ws


@lru_cache(maxsize=256)
def _constraints(
    normal_bytes: tuple[bytes, ...], friction: float, f_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``G`` and ``h`` of ``G x <= h`` for one stance set.

    ``normal_bytes`` holds the raw normal of each stance foot in leg order;
    G is block-diagonal in their :func:`_cone_block` blocks and h is zero but
    for ``f_max`` on each foot's f_n <= f_max row.
    """
    k = len(normal_bytes)
    G = np.zeros((6 * k, 3 * k))
    for j, normal in enumerate(normal_bytes):
        G[6 * j : 6 * j + 6, 3 * j : 3 * j + 3] = _cone_block(normal, friction)
    h = np.zeros(6 * k)
    h[5::6] = f_max
    G.flags.writeable = False
    h.flags.writeable = False
    return G, h


def _independent(rows: list, i: int, active: list[int], group_rows: int) -> bool:
    """Whether row ``i`` of G is independent of the active rows of its group.

    ``rows`` holds the rows of G as lists of Python floats (``G.tolist()``).
    The active rows of a group are independent themselves (only independent
    rows are added), so three of them span the group's three columns.
    """
    b = i // group_rows
    basis = [j for j in active if j // group_rows == b]
    if not basis:
        return True
    if len(basis) == 3:
        return False
    c = 3 * b
    r0, r1, r2 = rows[i][c : c + 3]
    a0, a1, a2 = rows[basis[0]][c : c + 3]
    if len(basis) == 2:
        # independent unless the row lies in the plane of the two: the
        # triple product against their normal vanishes
        b0, b1, b2 = rows[basis[1]][c : c + 3]
        n0, n1, n2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        dot = n0 * r0 + n1 * r1 + n2 * r2
        scale = (n0 * n0 + n1 * n1 + n2 * n2) * (r0 * r0 + r1 * r1 + r2 * r2)
        return dot * dot > _DEPENDENT_RTOL**2 * scale
    # independent of one row unless parallel to it
    c0, c1, c2 = a1 * r2 - a2 * r1, a2 * r0 - a0 * r2, a0 * r1 - a1 * r0
    scale = (a0 * a0 + a1 * a1 + a2 * a2) * (r0 * r0 + r1 * r1 + r2 * r2)
    return c0 * c0 + c1 * c1 + c2 * c2 > _DEPENDENT_RTOL**2 * scale


def solve_qp(
    M: np.ndarray,
    b: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    max_iter: int = 80,
    working_set=(),
) -> tuple[np.ndarray, int, list[int]]:
    """Minimize 0.5 |Mx - b|^2 subject to Gx <= h with h >= 0.

    Primal active-set method started from the feasible point x = 0. M must
    have full column rank with its smallest singular value near
    ``sqrt(_RIDGE)``, the scale of the augmented system (the module
    docstring). Sized for a handful of variables and constraints. G is
    block-diagonal by foot: its rows come in ``n // 3`` equal groups, group b
    acting on columns 3b to 3b + 2 only.

    The initial working set is hot-started from ``working_set``: in the given
    order, each row active at x = 0 (``h[i] == 0``, so never an f_max row) and
    independent of the rows kept before it joins (a repeated row is
    dependent). x = 0 lies on every such row, so the loop below reaches the
    minimizer from any seed; the empty seed is the cold start.

    Each iteration solves the augmented system of the working-set subproblem
    for a step ``p`` and multipliers ``lam``. A blocked step adds the
    blocking constraint. A full step lands on the subproblem's minimizer,
    whose multipliers are ``lam``: the loop returns if ``lam >= -1e-12`` (at
    once with an empty working set) and otherwise drops the constraint with
    the most negative multiplier. A step with ``|p| <= 1e-9 * max(1, |x|)``
    is not taken and goes to the same multiplier test. A constraint may
    block only if its row is linearly independent of the working-set rows of
    its group (a dependent row has G_i p = 0 exactly, so skipping it is
    exact); each group then holds at most three active rows and the
    augmented system stays nonsingular. Returns the iterate, the number of
    solves that ran (at most ``max_iter``) and the final working set.

    The augmented systems are assembled in a workspace (the module
    docstring): the one ``distribute_forces`` fills for this stance count
    when ``M`` is its view ``M``, whose ``M'`` and border rows are then
    trusted as they stand, and a new one around ``M`` otherwise. A
    workspace knows ``G`` and ``h`` by identity, so a ``G`` or ``h`` changed
    in place between two calls that pass its ``M`` goes unseen;
    ``distribute_forces`` passes read-only cached ones.

    Each solve calls LAPACK's gesv gufunc directly, with the bits
    ``np.linalg.solve`` gives; a result that is not finite is solved again
    by ``np.linalg.solve``, so a singular system raises ``LinAlgError``
    (after the gufunc's invalid-value warning) and NaN inputs give NaN.
    """
    rows, n = M.shape
    group_rows = 3 * G.shape[0] // n
    size = rows + n
    ws = _workspace(n // 3, get_ident())
    if M is not ws.M:
        # a factor of the caller's own: a new workspace around it
        ws = _Workspace(rows, n)
        ws.M[...] = M
        ws.MT[...] = M.T
    if G is not ws.G or h is not ws.h:
        # other constraints: their float forms, and no border rows yet
        ws.G, ws.h, ws.G_rows, ws.h_list, ws.held = G, h, G.tolist(), h.tolist(), []
    aug, rhs, G_rows, h_list = ws.aug, ws.rhs, ws.G_rows, ws.h_list
    active: list[int] = []
    for i in working_set:
        if h_list[i] == 0.0 and _independent(G_rows, i, active, group_rows):
            active.append(i)
    # x is exactly 0 until the first step is taken (None here): b - M x is
    # then b and h - G x is h, so neither is formed
    x = None
    last_it = 0
    for it in range(max_iter):
        last_it = it + 1
        m = len(active)
        if ws.held[:m] != active:
            C = G[active]
            aug[size : size + m, rows:size] = C
            aug[rows:size, size : size + m] = C.T
            ws.held = active.copy()
        rhs[:rows] = b if x is None else b - M @ x
        kkt, kkt_rhs = ws.kkt[m]
        sol = _lapack_solve(kkt, kkt_rhs)
        finite = math.isfinite(sol.dot(sol))
        if not finite:
            # a singular system (NaN, with the gufunc's invalid-value
            # warning) raises LinAlgError here; NaN-bearing inputs give NaN
            sol = np.linalg.solve(kkt, kkt_rhs)
        p = sol[rows:size]

        scale = 1.0 if x is None else max(1.0, math.sqrt(x.dot(x)))
        if math.sqrt(p.dot(p)) > 1e-9 * scale:
            Gp = (G @ p).tolist()
            slack = h_list if x is None else (h - G @ x).tolist()
            ratios = []
            for i, g in enumerate(Gp):
                if g > 1e-12 and i not in active:
                    step = slack[i] / g
                    if step < 1.0:
                        ratios.append((step, i))
            # the nearest independent row blocks (lowest index on ties)
            alpha = 1.0
            blocking = -1
            for step, i in sorted(ratios):
                if _independent(G_rows, i, active, group_rows):
                    alpha = step
                    blocking = i
                    break
            # 1.0 * p is p; the zero iterate adds 0.0, so -0.0 becomes +0.0
            x = (0.0 if x is None else x) + (p if alpha == 1.0 else alpha * p)
            if blocking >= 0:
                active.append(blocking)
                continue

        # x minimizes the working-set subproblem (a full step reached it, or
        # the step was negligible) and lam are its multipliers
        if m:
            lam = [_SQRT_RIDGE * v for v in sol[size:].tolist()]
            low = min(lam)
            # a NaN multiplier returns, as numpy's NaN minimum would
            if low < _LAMBDA_TOL and (finite or not any(v != v for v in lam)):
                active.pop(lam.index(low))
                continue
        break
    return (np.zeros(n) if x is None else x), last_it, active


def _layout(flags: tuple[bool, ...]):
    """The QP layout of one stance pattern: the stance legs in leg order,
    the flags as a read-only bool array, the entries of the flattened 4x3
    force array that the QP's unknowns fill, the QP row of each stance
    foot's leg-face row ``6 * leg + face``, and the leg-face row of each QP
    row."""
    legs = tuple(leg for leg, on in enumerate(flags) if on)
    pattern = np.array(flags, dtype=bool)
    pattern.flags.writeable = False
    columns = np.array([3 * leg + c for leg in legs for c in range(3)], dtype=np.intp)
    columns.flags.writeable = False
    leg_face = tuple(6 * leg + face for leg in legs for face in range(6))
    qp_row = {row: i for i, row in enumerate(leg_face)}
    return legs, pattern, columns, qp_row, leg_face


_LAYOUTS = {flags: _layout(flags) for flags in product((False, True), repeat=4)}


def _leg_rows(value, what: str):
    """Four rows of three numbers, one per leg in leg order.

    An array comes back as nested lists of Python floats; any other sequence
    comes back as it is. Anything but four rows of three is a ValueError.
    """
    if isinstance(value, np.ndarray):
        value = np.asarray(value, dtype=float)
        if value.shape != (4, 3):
            raise ValueError(f"{what} must be 4x3, got shape {value.shape}")
        return value.tolist()
    if len(value) == 4:
        r0, r1, r2, r3 = value
        if len(r0) == len(r1) == len(r2) == len(r3) == 3:
            return value
    raise ValueError(f"{what} must be four rows of three numbers, got {value!r}")


def _four_bools(stance) -> bool:
    """Whether ``stance`` is a list of four Python bools, the form
    ``run_trial`` passes, which is read as it is."""
    if type(stance) is not list or len(stance) != 4:
        return False
    s0, s1, s2, s3 = stance
    return type(s0) is type(s1) is type(s2) is type(s3) is bool


def _four_flags(stance) -> np.ndarray:
    """The stance flags, one per leg in leg order, as a new bool array;
    anything but four flags is a ValueError."""
    flags = np.array(stance, dtype=bool)
    if flags.shape != (4,):
        raise ValueError(f"stance must be four flags, got shape {flags.shape}")
    return flags


def _floats(value, size: int):
    """An array's ``size`` entries as a list of Python floats; any other
    sequence as it is (unpacking it checks its length)."""
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float).reshape(size).tolist()
    return value


def distribute_forces(
    wrench,
    foot_positions,
    stance,
    com,
    friction: float,
    f_max: float,
    normals=None,
    working_set=(),
) -> ForceDistribution:
    """Distribute a desired (force, moment) wrench over the stance feet.

    ``wrench`` is a 6-vector (N, N*m) about the center of mass ``com``;
    ``foot_positions`` is four world-frame rows of three; ``stance`` is a
    4-flag mask. Each may be an array or a sequence of Python floats (flags);
    a stance that is not four flags or feet that are not 4x3 raise
    ValueError, as do a ``friction`` or an ``f_max`` (the bound on each
    normal force) that is not positive, NaN included. ``normals``
    optionally gives a contact normal per foot (world z default).
    ``working_set`` seeds the QP's working set in leg-face numbering
    ``6 * leg + face`` (the previous step's ``ForceDistribution.working_set``);
    rows of swing feet are dropped, and the empty default is a cold start.
    """
    w0, w1, w2, w3, w4, w5 = _floats(wrench, 6)
    feet = _leg_rows(foot_positions, "foot positions")
    flags = stance if _four_bools(stance) else _four_flags(stance).tolist()
    cx, cy, cz = _floats(com, 3)
    if not friction > 0.0:  # also rejects NaN
        raise ValueError("friction coefficient must be positive")
    if not f_max > 0.0:  # also rejects NaN
        raise ValueError("normal force bound f_max must be positive")

    legs, pattern, columns, qp_row, leg_face = _LAYOUTS[tuple(flags)]
    stance = pattern.copy()
    k = len(legs)
    forces = np.zeros((4, 3))
    norm_b = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3 + w4 * w4 + w5 * w5)
    if k == 0:
        rel = norm_b / max(1.0, norm_b)
        return ForceDistribution(
            forces=forces,
            stance=stance,
            residual=norm_b,
            relative_residual=rel if norm_b > 0 else 0.0,
            feasible=norm_b <= _FEASIBLE_RTOL,
            iterations=0,
        )

    if normals is None:
        keys = (_UP_BYTES,) * k
    else:
        raw = np.asarray(normals, dtype=float).reshape(4, 3).tobytes()
        keys = tuple([raw[24 * leg : 24 * leg + 24] for leg in legs])
    G, h = _constraints(keys, friction, f_max)
    # least-squares factor [W A; sqrt(eps) I] and target [W w; 0]. A is a 3x3
    # identity (force) over skew(p - com) (moment) per foot; the weighted
    # identities and the ridge are in the stance count's workspace already,
    # so only the weighted moment rows are written, in M and M' (a Python
    # product has the bits of np.multiply's)
    W0, W1, W2, W3, W4, W5 = _ROW_WEIGHTS
    offsets = []
    mx, my, mz = [], [], []
    for leg in legs:
        fx, fy, fz = feet[leg]
        x, y, z = fx - cx, fy - cy, fz - cz
        offsets.append((x, y, z))
        mx += (0.0, -z * W3, y * W3)
        my += (z * W4, 0.0, -x * W4)
        mz += (-y * W5, x * W5, 0.0)
    ws = _workspace(k, get_ident())
    M, b = ws.M, ws.b
    # put repeats the 3k moment entries over their M and M' positions
    ws.aug.put(ws.moments, mx + my + mz)
    b[:6] = (w0 * W0, w1 * W1, w2 * W2, w3 * W3, w4 * W4, w5 * W5)
    seed = [qp_row[i] for i in working_set if i in qp_row]
    x, iterations, active = solve_qp(M, b, G, h, working_set=seed)

    forces.ravel()[columns] = x
    # the achieved wrench: the force total and the moment of each foot force
    # about the centre of mass
    ax = ay = az = ux = uy = uz = 0.0
    f = x.tolist()
    for j, (ox, oy, oz) in enumerate(offsets):
        fx, fy, fz = f[3 * j : 3 * j + 3]
        ax, ay, az = ax + fx, ay + fy, az + fz
        ux += oy * fz - oz * fy
        uy += oz * fx - ox * fz
        uz += ox * fy - oy * fx
    r0, r1, r2, r3, r4, r5 = ax - w0, ay - w1, az - w2, ux - w3, uy - w4, uz - w5
    residual = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4 + r5 * r5)
    rel = residual / max(1.0, norm_b)
    return ForceDistribution(
        forces=forces,
        stance=stance,
        residual=residual,
        relative_residual=rel,
        feasible=rel <= _FEASIBLE_RTOL,
        iterations=iterations,
        working_set=tuple([leg_face[i] for i in active]),
    )
