"""Cauchy solver for the graph p-Laplacian flow by truncated balls.

The flow ``du/dt = Delta_p u`` is solved as a finite ODE system on a ball
``B_n`` with ``u = 0`` outside (method of lines), using an explicit
embedded Dormand-Prince 4(5) pair with PI step-size control and dense
output at the configured instants.  There is one solve mode:
:func:`solve_truncated`, under :func:`solve_cauchy`, runs one integration
whose ball grows in place before the solution could reach its ring.

Each step runs on the active ball ``B_r(center)`` only, ``r = s + 4``
for the support radius ``s``, under two rules.  No step starts with a
nonzero on the active ball's last two rings, so its first stage is 0 on
ring ``r``; and an attempt whose later stages are nonzero on ring ``r``
is voided and redone on ``B_{r+4}``.  So every stage input of a step
that counts is exactly 0 on ring ``r`` and beyond, and the cut edges are
exact zero-exterior stubs.  Every solve voids its first attempt:
``_initial_step`` sizes a step whose later stages reach ring ``s + 4``,
so it is redone (``redone`` 1 in ``history``).  Exact nonzeros spread
far less than the 7 layers a step could reach, so later voided attempts
are rare.  The boundary ring of ``B_R`` keeps the a priori rule: no
step starts with a nonzero within 7 layers of it (six stage inputs plus
the FSAL evaluation).
Before a step that rule forbids, the first one included, the ball
becomes ``B_ceil(1.5 R)`` (``RADIUS_GROWTH``).  A ball lists its
vertices ring by ring, so the active ball and every smaller ball are
prefixes of it: the state and the stored rows are padded with zero
columns and stepping goes on with the same integrator state.  No flux
crosses the truncation, so the ball solve is a solve of the Cauchy
problem, tagged with the radius of its last ball (the certified radius);
only integration error remains.
Partner data (``solve_cauchy(..., partners=...)``, the comparison check)
are integrated in the same call, in lockstep, each with its own steps.
Error norms sum over the whole ball and divide by the size of the first
ball ``B_n0`` for the whole run, so the step sequence depends neither on
``r`` nor on the balls a solve grows through.

The right-hand side is locally Lipschitz on bounded sets and degenerate
(not stiff) near flat states, so an explicit pair with adaptive steps is
appropriate; rejected steps fall back to halve-and-retry with an explicit
underflow floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .fields import Field
from .graphs import OrbitQuotient, ball, distances_within, region_edges, require_exponent


class SolverError(RuntimeError):
    """The solver could not produce a trajectory (CLI exit code 3)."""


class StepSizeUnderflowError(SolverError):
    """Step size fell below the underflow floor; carries the offending time."""

    def __init__(self, t, h):
        super().__init__(f"step size underflow at t={t!r} (h={h!r})")
        self.t = t
        self.h = h


class NonFiniteStateError(SolverError):
    """The state or its derivative became NaN or infinite at time ``t``."""

    def __init__(self, t):
        super().__init__(f"non-finite state at t={t!r}")
        self.t = t


class NonFiniteInitialStepError(SolverError):
    """The starting step size is not a positive finite number (overflowing data)."""


class TruncationConvergenceError(SolverError):
    """Radius schedule exhausted: the solution reached the boundary ring of every ball."""


class TruncationDeficitError(SolverError):
    """Requested mass fraction is not contained in the truncated ball."""


def log_instants(t_min, t_max, count):
    """Logarithmically spaced output instants (decay fits need log-log regularity)."""
    if not (0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    if count < 2:
        raise ValueError("need at least 2 instants")
    return np.geomspace(t_min, t_max, int(count))


# factor between the radii of consecutive balls of a growing solve (rounded up)
RADIUS_GROWTH = 1.5
# attempts a solve may make before it fails
MAX_STEPS = 1_000_000


@dataclass
class SolverConfig:
    """Configuration of the truncated-ball solver."""

    p: float
    instants: np.ndarray
    rtol: float = 1e-8
    atol: float = 1e-12
    n0: int | None = None
    max_expansions: int = 13

    def __post_init__(self):
        self.p = require_exponent(self.p)
        self.instants = np.asarray(self.instants, dtype=float)
        if self.instants.ndim != 1 or len(self.instants) == 0:
            raise ValueError("instants must be a nonempty 1-d array")
        if not np.isfinite(self.instants).all():
            raise ValueError("output instants must be finite")
        if self.instants[0] <= 0:
            raise ValueError("first output instant must be > 0")
        if (np.diff(self.instants) <= 0).any():
            raise ValueError("output instants must be strictly increasing")
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):   # NaN too
            raise ValueError("tolerances must be positive and finite")
        # a bool would pass the integer tests below as 0 or 1
        if self.n0 is not None and (isinstance(self.n0, bool) or self.n0 < 1
                                    or int(self.n0) != self.n0):
            raise ValueError("n0 must be a positive integer")
        if (isinstance(self.max_expansions, bool) or self.max_expansions < 1
                or int(self.max_expansions) != self.max_expansions):
            raise ValueError("max_expansions must be a positive integer")


# ----------------------------------------------------------------------
# Dormand-Prince 4(5) with PI control and quartic dense output

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# the fifth-order weights over the error weights (fifth minus fourth order)
_DP_BE = np.array([
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])
# quartic interpolant coefficients for the pair (Shampine's free interpolant)
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _times(w, k, m):
    """``product(K, out=...)``: the weights ``w`` times the stages ``K`` of ``k`` rows of ``m``.

    ``w.dot`` for one row of ``m > 1``: the BLAS call of ``np.matmul``
    without its ufunc dispatch, the same bits.  (At ``m = 1`` ``dot``
    multiplies a one-entry product as scalars, keeping the sign of a zero
    that ``matmul``'s sum drops.)  ``np.matmul`` broadcasts over ``k > 1``
    rows, each a contiguous ``(7, m)`` block that rounds as one row alone.
    """
    return w.dot if k == 1 < m else partial(np.matmul, w)


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_ALPHA = 0.17          # err ** -alpha
_PI_BETA = 0.04           # err_prev ** beta


def _initial_step(rhs, y0, f0, t_end, rtol, atol, rms, per_row):
    # one starting step per row; rms gives one norm per row and per_row
    # broadcasts one value per row over the rows' blocks
    scale = atol + rtol * np.abs(y0)
    with np.errstate(over="ignore"):   # an overflow is typed just below
        d0s, d1s = rms(y0 / scale), rms(f0 / scale)
    h0s = []
    for d0, d1 in zip(d0s, d1s):
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, 0.1 * t_end)
        if not 0.0 < h0 < math.inf:   # scaled norms overflowed
            raise NonFiniteInitialStepError(
                f"initial step {h0!r} from scaled norms {d0!r}, {d1!r}")
        h0s.append(h0)
    y1 = y0 + per_row(h0s) * f0
    f1 = rhs(h0s[0], y1)
    hs = []
    for h0, d1, d in zip(h0s, d1s, rms((f1 - f0) / scale)):
        d2 = d / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        hs.append(min(100 * h0, h1, t_end))
    return hs


# One step spreads exact nonzeros by at most _STEP_REACH layers: six stage
# inputs, each one layer past the last, plus the FSAL evaluation.
_STEP_REACH = 7
# layers from the support to the active ball's edge, and the layers a voided
# attempt adds to it (at least 2: the edge's last two rings must be 0)
_ACTIVE_MARGIN = 4
# solve data constant on the orbits of the signed coordinate permutations
# about a Z^N center with one unknown per orbit (see solve_truncated)
_ORBIT_QUOTIENT = True


def _support_radius(y, dist):
    """``dist`` at the last nonzero of ``y``, its support radius (0 if none).

    A 2-d ``y`` holds one state per row: the radius of their union.
    """
    nz = np.flatnonzero(np.atleast_2d(y).any(axis=0))
    return int(dist[nz[-1]]) if len(nz) else 0


# the solver diagnostics of one stored row
ROW_DIAGNOSTICS = np.dtype([("accepted", np.int64), ("rejected", np.int64),
                            ("max_scaled_error", float), ("clamped", float)])


class _Row:
    """The integrator state of one row of a lockstep run."""

    __slots__ = ("k", "t", "h", "err", "err_prev", "accepted", "rejected", "k_out",
                 "max_err", "clamp", "t_in", "balls")

    def __init__(self, k, clamp):
        self.k = k            # the row's index in y0
        self.t = self.err = self.max_err = self.t_in = 0.0
        self.h = None
        self.err_prev = 1e-4
        self.accepted = self.rejected = self.k_out = 0
        self.clamp = clamp
        self.balls = []       # a record per ball left


def _integrate(rhs_on, dist, y0, t_end, t_eval, rtol, atol, max_steps, grow=None,
               norm_size=None, orbits=None):
    """Integrate y' = rhs(t, y) on [0, t_end], dense output at t_eval.

    ``dist[i]`` is the center distance of vertex ``i``, nondecreasing (a
    ball in ring order), and ``rhs_on(m)`` builds the right-hand side on
    the first ``m`` vertices with a zero exterior.  Steps run on the active
    ball ``dist <= r``, a prefix, only.  Two rules make that exact.  At the
    top of the step loop, no step starts with a nonzero in the rim, rings
    ``r - 1`` and ``r``, so the first stage ``K[0]`` is 0 on ring ``r``; a
    nonzero there moves the run onto the active ball ``r = s + 4`` (at
    most the outer ring) for the support radius ``s``.  After the six
    stages of an attempt on a ball short of the outer ring, one check: if
    ``K[1:6]`` is nonzero on ring ``r``, the attempt is voided and redone
    on ``r + 4`` with the same step size and controller state.  Otherwise
    every stage input, ``y_new`` included, is exactly 0 from ring ``r``
    on, and the cut edges are exact Dirichlet stubs.  The right-hand side
    and the stage buffers are built right before the first attempt on an
    active ball.  The stages are evaluated as ``rhs(t, u, out=K[i])``: a
    right-hand side with an ``input`` buffer (see :func:`_make_rhs`) has
    each stage input written into that buffer and its stage written into
    the stage row, with no copy.  A plain ``rhs(t, u)`` (a test's ODE, a
    wrapper) is adapted once per build: it gets a stage input of its own,
    and its value is copied into the row; called without ``out``, either
    returns a fresh array.  Error norms are RMS values: sums of squares
    over all entries of the ball the step runs on (zero past the active ball),
    divided by ``norm_size`` (default ``len(y0)``, the first ball's size)
    for the whole run.  So the step sequence depends
    neither on the active ball nor on the balls a growing run moves onto,
    up to the rounding of sums over arrays of different length.  With
    ``orbits``, the ball's :class:`graphs.OrbitQuotient` (see
    :func:`solve_truncated`), the entries are orbits, and the norms sum
    over the ball's vertices in their order, the squared entries gathered
    through ``orbits.lift``, as a solve on the vertices does; the lift is
    read only as far as the active ball reaches.

    A 2-d ``y0`` holds ``K`` independent states, one per row, integrated
    in lockstep: one loop iteration is one attempt for every row that has
    not reached ``t_end``, and the right-hand side is called on the rows'
    active blocks stacked into one state of length ``K m``; for ``K > 1``
    rows ``rhs_on(m, K)`` builds it on ``K`` disjoint copies of the first
    ``m`` vertices (see :meth:`graphs.NeighbourTable.stacked`).  Each
    row has its own ``t``, step size, controller state, error norm,
    counters and dense output, and accepts or rejects on its own error.
    But one call hands the right-hand side one time for all rows (the
    last live row's stage times, and the first row's starting step), so
    a ``K``-row call needs an autonomous right-hand side, as every one
    :func:`solve_truncated` builds is.  The active ball and the growth
    follow the union of the rows' supports, and a voided attempt is
    redone for every row.  A row's stages are one contiguous ``(7, m)``
    block, and its products with the tableau (a broadcast ``np.matmul``)
    make the BLAS call of a one-row run's ``ndarray.dot`` (see
    :func:`_times`), so they round as in a run of that row alone; a row
    leaves the stack once it reaches ``t_end``.  With one row the arrays
    are those of a 1-d run.

    With ``grow``, the outer ring ``dist.max()`` keeps the a priori rule:
    the rim also holds its last 7 layers (one step spreads exact nonzeros
    by at most 7), and when ``s`` lies in them the run first moves onto a
    larger ball, the current one its prefix.  ``grow(t)`` returns its
    ``dist`` and ``rhs_on``, whether it has a ring to reach (a ball
    that covers a finite graph has none) and, with ``orbits``, its
    orbits.  The state, the FSAL value and
    the stored rows are padded with zero columns, and stepping goes on
    with the same step size, controller state and counters: a growth
    redoes nothing.  Without ``grow`` the ball is fixed (one without a
    ring, in :func:`solve_truncated`), and the solution may reach its ring.

    Returns ``(Y, diag)`` where ``Y[0]`` is ``y0`` (padded to the last
    ball) and ``Y[k + 1]`` the solution at ``t_eval[k]``, all rows in one
    buffer; for a 2-d ``y0``, a list with one such pair per row.  Each row
    is final when written: for nonnegative ``y0`` it is
    clamped at 0.  ``diag`` holds one entry per stored row, t = 0 first
    (all 0 there): the cumulative ``accepted`` and ``rejected`` step
    counts, the largest scaled local error seen since the previous row
    (``max_scaled_error``) and the undershoot the clamp removed
    (``clamped``).  ``diag["balls"]`` has one record per ball the run was
    on: the time ``t`` it moved onto it (0.0 for the first), the
    ``rhs_evals`` made on it (six per attempt, voided ones included, and
    two more that size the first step; each call evaluates every row in
    the stack), the cumulative ``accepted``,
    ``rejected`` and ``redone`` (voided) attempt counts when it was left,
    and the largest active ball, in entries (``unknowns``) and in
    vertices (``active_vertices``, the entries without ``orbits``).  The
    ``max_steps`` budget counts every attempt.
    """
    states = np.atleast_2d(y0)
    n = states.shape[1]
    r_max = int(dist.max())
    n_out = len(t_eval)
    t_out = [*np.asarray(t_eval, dtype=float).tolist(), math.inf]   # then a sentinel

    def activate(r):
        # the active ball B_r: its radius, its size, its rim's start (None
        # when its edge is the ring of a ball that is never left) and ring
        # r's start
        m = int(np.searchsorted(dist, r, side="right"))
        if r == r_max and grow is None:
            return r, m, None, m
        edge = r - 2 if grow is None else min(r - 2, r_max - _STEP_REACH)
        return (r, m, int(np.searchsorted(dist, edge, side="right")),
                int(np.searchsorted(dist, r)))

    def widen(v, m):   # each row's block padded with zeros to length m
        wide = np.zeros((*v.shape[:-1], m))
        wide[..., :v.shape[-1]] = v
        return wide

    def per_row(values):   # one value per live row, broadcast over its block
        return values[0] if len(values) == 1 else np.array(values)[:, None]

    r, m, rim, ring = activate(min(_support_radius(states, dist) + _ACTIVE_MARGIN, r_max))
    rows = [_Row(k, bool((v >= 0.0).all())) for k, v in enumerate(states)]
    live = list(rows)   # the rows short of t_end; a 1-row state is 1-d
    y = states[:, :m].astype(float)
    y = y[0] if len(live) == 1 else y
    rhs = None   # built, with the buffers, right before the first attempt on an active ball
    size = n if norm_size is None else norm_size

    def rms(v):   # one per live row, summed over all n entries of its row (a
        if orbits is None:         # sum over the prefix rounds differently)
            np.square(v, out=sq_m)
        else:   # the orbits squared, gathered onto the active vertices, a prefix of the ball's
            np.square(v, out=sq_o)
            sq_o.take(lift, axis=-1, out=sq_m, mode="clip")
        sums = np.add.reduce(sq, axis=-1, keepdims=sq.ndim == 1)
        return [math.sqrt(x / size) for x in sums.tolist()]

    def active_vertices():   # the vertices of the active ball
        return m if orbits is None else int(orbits.ends[m - 1])

    def build(k):
        # for k rows: the right-hand side on the active ball, on k stacked
        # copies of it; the squared entries for the RMS (zero outside the
        # active ball), their active part, the squared orbits and the
        # active vertices' orbits; the stages, row by row in
        # contiguous (7, m) blocks; the assignable stage rows; the stage
        # input, by row; the step and error rows and the product
        # that writes them; each stage's product with A_i (see _times), c_i,
        # the stages K[:i] its input combines and its row K[i]; the stages
        # past K[0] on ring r
        size_sq = n if orbits is None else int(orbits.ends[-1])
        sq = np.zeros(size_sq if k == 1 else (k, size_sq))
        sq_o = lift = None
        if orbits is not None:
            sq_o, lift = np.empty(m if k == 1 else (k, m)), orbits.lift(active_vertices())
        S = np.empty((k, 7, m))
        step = np.empty((2, m) if k == 1 else (2, k, m))
        if k == 1:
            rhs = rhs_on(m)
            stage, product = S[0], (S[0], step)
        else:
            stacked = rhs_on(m, k)

            def rhs(t, u):   # one block per row
                return stacked(t, u.reshape(-1)).reshape(k, m)
            stage, product = S.transpose(1, 0, 2), (S, step.transpose(1, 0, 2))
        yi = getattr(rhs, "input", None)   # the stage input, read where it is written
        if yi is None:   # a plain rhs(t, u): an input of its own, its value copied to out
            plain, yi = rhs, np.empty(stage.shape[1:])

            def rhs(t, u, out=None):
                value = plain(t, u)
                if out is None:
                    return value
                out[...] = value
                return out
        stages = [(_times(_DP_A[i], k, m), _DP_C[i], product[0][..., :i, :], stage[i])
                  for i in range(1, 7)]
        return (rhs, sq, sq[..., :active_vertices()], sq_o, lift, S, stage, yi, step,
                (_times(_DP_BE, k, m), *product), stages, S[:, 1:6, ring:])

    out = np.zeros((len(rows), n_out + 1, n))
    out[:, 0] = states
    table = np.zeros((len(rows), n_out + 1), dtype=ROW_DIAGNOSTICS)   # per row of out
    floor = 1e-14 * t_end
    f = None   # the FSAL value once the first step is sized, K[0] while it has buffers
    attempts = redone = 0
    ball_evals = 0   # the work on this ball

    def record(row):
        return {"t": row.t_in, "rhs_evals": ball_evals, "accepted": row.accepted,
                "rejected": row.rejected, "redone": redone, "unknowns": m,
                "active_vertices": active_vertices()}

    while live:
        if rim is not None and np.count_nonzero(y[..., rim:]):   # K[0] could reach the edge
            s = _support_radius(y, dist)
            if grow is not None and s > r_max - _STEP_REACH:   # ... of the whole ball
                for row in rows:
                    row.balls.append(record(row))
                    row.t_in = row.t
                dist, rhs_on, ringed, *new = grow(live[0].t)
                if orbits is not None:
                    [orbits] = new
                if not ringed:   # a ball without a ring is never left
                    grow = None
                wider = np.zeros((len(rows), n_out + 1, len(dist)))
                for row in rows:
                    wider[row.k, :row.k_out + 1, :n] = out[row.k, :row.k_out + 1]
                n, r_max = len(dist), int(dist.max())
                out, ball_evals = wider, 0
            # never smaller: a voided attempt may have moved r past s + 4
            r, m, rim, ring = activate(max(r, min(s + _ACTIVE_MARGIN, r_max)))
            y, rhs = widen(y, m), None
            if f is not None:
                f = widen(f, m)
            continue
        if rhs is None:
            (rhs, sq, sq_m, sq_o, lift, S, stage, yi, step, (weigh, ks, into), stages,
             at_ring) = build(len(live))
            if f is not None:
                stage[0] = f
                f = stage[0]
        if f is None:   # size the first steps on the ball they run on
            f = rhs(live[0].t, y, out=stage[0])
            if not np.isfinite(f).all():
                raise NonFiniteStateError(live[0].t)
            for row, h in zip(live, _initial_step(rhs, y, f, t_end, rtol, atol, rms,
                                                  per_row)):
                row.h = max(h, floor)
            ball_evals += 2
        for row in live:
            if row.h < floor:
                if not math.isfinite(row.err):
                    raise NonFiniteStateError(row.t)
                raise StepSizeUnderflowError(row.t, row.h)
            row.h = min(row.h, t_end - row.t)
        if attempts >= max_steps:
            raise SolverError(f"step budget {max_steps} exhausted at t={row.t}")
        t, h = row.t, row.h   # the stage times handed to the right-hand side
        hv = h if len(live) == 1 else per_row([row.h for row in live])
        for a_times, c, heads, k_i in stages:   # y + h (A_i K[:i]); h A_i would round apart
            a_times(heads, out=yi)
            yi *= hv
            yi += y
            rhs(t + c * h, yi, out=k_i)
        ball_evals += 6
        attempts += 1
        if m < n and np.count_nonzero(at_ring):   # a stage reached ring r: void, redo
            redone += 1
            r, m, rim, ring = activate(min(r + _ACTIVE_MARGIN, r_max))
            y, f, rhs = widen(y, m), widen(f, m), None
            continue
        weigh(ks, out=into)   # the step and the error, one product with _DP_BE
        step *= hv
        y_new = y + step[0]
        scale = np.maximum(np.abs(y), np.abs(y_new))
        scale *= rtol
        scale += atol
        np.divide(step[1], scale, out=scale)   # the scaled error
        stayed, finished = [], False   # the rows that rejected; a row reached t_end
        for j, (row, err) in enumerate(zip(live, rms(scale))):
            row.err = err
            if not err <= 1.0:   # a NaN estimate is a rejection too
                row.rejected += 1
                row.h *= 0.5      # halve-and-retry fallback
                stayed.append(j)
                continue
            row.max_err = max(row.max_err, err)
            t, h = row.t, row.h
            t_new = t + h
            # dense output inside (t, t_new]
            while t_out[row.k_out] <= t_new * (1 + 1e-15):
                theta = min((t_out[row.k_out] - t) / h, 1.0)
                powers = theta ** np.arange(1, 5)
                value = y.reshape(len(live), m)[j] + h * (S[j].T @ (_DP_P @ powers))
                undershoot = 0.0
                if row.clamp:   # the zeros outside the active ball need no clamp
                    undershoot = max(0.0, -value.min())
                    np.maximum(value, 0.0, out=value)
                row.k_out += 1
                out[row.k, row.k_out, :m] = value
                table[row.k, row.k_out] = (row.accepted + 1, row.rejected, row.max_err,
                                           undershoot)
                row.max_err = 0.0
            row.accepted += 1
            row.t = t_new
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * row.err_prev ** _PI_BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            row.err_prev = max(err, 1e-10)
            row.h *= factor
            finished = finished or t_new >= t_end
        if len(stayed) < len(live):   # FSAL: the last stage is f(t_new, y_new)
            for j in stayed:   # only with several rows
                y_new[j], stage[6][j] = y[j], f[j]
            stage[0] = stage[6]
            y = y_new
        if finished:   # finished rows leave the stack
            keep = [j for j, row in enumerate(live) if row.t < t_end]
            live = [live[j] for j in keep]
            if live:
                y, f = (v.reshape(-1, m)[keep] for v in (y, f))
                if len(live) == 1:
                    y, f = y[0], f[0]
                rhs = None
    results = []
    for row in rows:
        if row.k_out < n_out:
            raise SolverError(f"integration ended at t={row.t} before the last output "
                              f"instant {t_eval[-1]}")
        diag = {name: table[row.k][name] for name in ROW_DIAGNOSTICS.names}
        diag["balls"] = [*row.balls, record(row)]
        results.append((out[row.k], diag))
    return results if np.ndim(y0) > 1 else results[0]


# ----------------------------------------------------------------------
# trajectories


class Trajectory:
    """Time-indexed solution snapshots on a certified ball.

    The solution of the Cauchy problem, exactly 0 outside ``region``: no
    flux crossed its ring (see :func:`solve_truncated`), so ``certified``
    is always true and the certified radius is the region's.
    ``times[0] = 0`` holds the initial data; the remaining entries match
    the configured output instants.  Values are clamped to be nonnegative
    when the data is.  ``diagnostics`` maps each name of
    :data:`ROW_DIAGNOSTICS` to one entry per stored time, t = 0 first (all
    0 there): cumulative ``accepted`` and ``rejected`` steps, the largest
    ``max_scaled_error`` since the previous time and the ``clamped``
    undershoot.
    ``history`` has one record per ball the solve that produced the
    trajectory was on (see :func:`solve_truncated`).  ``partners`` holds
    the trajectories of the partner data solved in the same call, on the
    same ball.
    The generator and the exponent are read from the region and the config.

    ``rows`` holds the stored rows as they were solved, one per time.
    ``orbits`` is the region's :class:`graphs.OrbitQuotient` when the rows
    are constant on its orbits: then ``rows`` has one column per orbit,
    and ``values``, every row on every vertex, lifts them through
    ``orbits.lift()`` on each read (it is not cached); :meth:`row` lifts
    one row.  Without orbits ``values`` is ``rows``.  The weighted sums
    read the orbit rows (see :meth:`summands`).  ``edges``, the region's
    neighbour table (:func:`graphs.region_edges`), whose edge arrays give
    the power sums, is built on first use.
    """

    certified = True

    def __init__(self, config, region, times, rows, diagnostics, orbits=None):
        self.config = config
        self.region = region
        self.times = times
        # orbit rows are kept Fortran-ordered, the layout of the orbit
        # columns of a lifted matrix: a matrix product rounds by layout
        self.rows = rows if orbits is None else np.asfortranarray(rows)
        self.diagnostics = diagnostics
        self.history = []
        self.partners = []
        self.orbits = orbits

    @property
    def values(self):
        """Every stored row on every vertex, ``(times, vertices)``; on orbits, lifted per read."""
        return self.rows if self.orbits is None else self.rows[:, self.orbits.lift()]

    def row(self, k):
        """Stored row ``k`` on the vertices."""
        return self.rows[k] if self.orbits is None else self.rows[k, self.orbits.lift()]

    @cached_property
    def edges(self):
        return region_edges(self.generator, self.region)

    @property
    def generator(self):
        return self.region.generator

    @property
    def p(self):
        return self.config.p

    @property
    def certified_radius(self):
        return self.region.radius

    @property
    def instants(self):
        return self.times[1:]

    def locate(self, t):
        """Index of instant ``t`` on the stored grid (error if absent)."""
        k = int(np.searchsorted(self.times, t))
        for j in (k - 1, k, k + 1):
            if 0 <= j < len(self.times) and math.isclose(self.times[j], t,
                                                         rel_tol=1e-12, abs_tol=1e-300):
                return j
        raise ValueError(f"t={t} is not an output instant")

    def distances(self, x0=None):
        """Graph distances from ``x0`` (default: the ball center) to the region's vertices."""
        return distances_within(self.generator, self.region,
                                self.region.center if x0 is None else x0)

    def field_at(self, t):
        row = self.row(self.locate(t)).tolist()
        return Field(self.generator, dict(zip(self.region.vertices, row)))

    def summands(self, x0=None):
        """The rows a weighted sum over the vertices reads, their weights and distances from ``x0``.

        With orbits about ``x0`` (the center), the orbit rows, read
        unlifted, at weight ``|O| d_w(O)``; else ``values`` at ``d_w``.
        """
        if self.orbits is None or x0 not in (None, self.region.center):
            return self.values, self.region.degrees, self.distances(x0)
        return self.rows, self.orbits.sizes * self.orbits.degree, self.orbits.dist

    # whole-trajectory functionals: one entry per stored time, t = 0 first.
    # Cached on first use (the stored values are final once built), so the
    # arrays are shared between callers and must not be written to.

    @cached_property
    def masses(self):
        """Weighted l1 norms ``sum |u| d_w``."""
        rows, weights, _ = self.summands()
        return np.abs(rows) @ weights

    @cached_property
    def sup_norms(self):
        return np.abs(self.summands()[0]).max(axis=1)

    def lq_norms(self, q):
        """Weighted lq norms ``(sum |u|^q d_w)^(1/q)``."""
        if q < 1:
            raise ValueError("q must be >= 1")
        rows, weights, _ = self.summands()
        a = np.abs(rows)
        np.power(a, q, out=a, where=a > 0)   # most entries are exact zeros
        return (a @ weights) ** (1.0 / q)

    @cached_property
    def flux_integrals(self):
        """Time integral of the total (p-1)-power edge flux up to each time.

        Trapezoidal quadrature over the stored times of
        ``sum_{x,y} |u(y)-u(x)|^(p-1) w(x,y)`` (ordered pairs).  Requires a
        reasonably dense output grid.
        """
        if len(self.instants) < 50:
            raise ValueError("need at least 50 output instants for the quadrature")
        integrand = 2.0 * self.edges.power_sum(self.values, self.p - 1.0)
        steps = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(self.times)
        return np.concatenate([[0.0], np.cumsum(steps)])


def _rows(region, data):
    """``(rows, orbits)``: the data on ``region``'s orbits if constant on them, else its vertices.

    On a keyed ball whose every datum has offsets from the center, the
    :class:`graphs.OrbitQuotient` places them by ``orbit_of``; its rows are
    kept when each orbit a datum meets is met at all ``|O|`` of its
    vertices, with one value.  Else ``orbits`` is None and the rows lie on
    the vertices.  Support outside the ball is a ``ValueError`` either way.
    """
    offsets = [u.offsets(region.center) if region.keyed else None for u in data]
    for u, rel in zip(data, offsets):
        inside = (np.abs(rel).sum(axis=1) <= region.radius if rel is not None
                  else [v in region for v in u.values])
        if not np.all(inside):
            v = min((v for v, ok in zip(u.values, inside) if not ok),
                    key=region.generator.sort_key)
            raise ValueError(f"data support at {v!r} lies outside "
                             f"B_{region.radius}({region.center!r})")
    values = [np.fromiter(u.values.values(), float, len(u)) for u in data]
    if _ORBIT_QUOTIENT and all(rel is not None for rel in offsets):
        orbits = OrbitQuotient(region)
        rows = np.zeros((len(data), len(orbits.sizes)))
        for row, rel, x in zip(rows, offsets, values):
            at = orbits.orbit_of(rel.T)
            row[at] = x
            if not (np.array_equal(np.bincount(at, minlength=len(row))[at], orbits.sizes[at])
                    and np.array_equal(row[at], x)):
                break
        else:
            return rows, orbits
    rows = np.zeros((len(data), len(region)))
    for row, u, x in zip(rows, data, values):
        row[[region.index[v] for v in u.values]] = x
    return rows, None


def _make_rhs(table, degrees, p):
    """``rhs(t, u, out=None)``: the table's kernel divided by ``degrees``.

    It writes into ``out``, or returns a fresh array without it.  Its
    ``input`` is the kernel's state buffer, read in place (see
    :meth:`graphs.NeighbourTable.divergence`).
    """
    div = table.divergence(p, degrees)

    def rhs(t, u, out=None):
        return div(u, out)
    rhs.input = div.input
    return rhs


def solve_truncated(g, u0: Field, cfg: SolverConfig, n, center=None, partners=()):
    """Solve the Cauchy problem on a ball that grows in place from ``B_n``.

    ``n`` is ``None`` for ``B_n0``, ``n0 = first_radius(u0, cfg, center,
    partners)``, which is computed once per solve either way.  The initial
    data must be supported inside ``B_n``.  Before each step,
    the first one included, whose stage inputs could be nonzero on the
    ring of the ball ``B_R`` it is on, the solve moves onto the ball of
    radius ``ceil(RADIUS_GROWTH * R)`` and goes on there, its prefix
    ``B_R``, with the same integrator state.  So no flux ever crosses the
    truncation: the solution is exactly 0 outside the returned ball, and
    the trajectories are certified at its radius.  A ball without stubs
    (one that covers a finite graph) has no ring to reach and is never
    left.  Raises :class:`TruncationConvergenceError` when the solution
    would have to leave the ``max_expansions``-th ball.  Output instants
    follow the config; the row at t = 0 holds the data itself.  Each row
    and its diagnostics are final when :func:`_integrate` writes them
    (clamped at 0 for nonnegative data), one diagnostics entry per row,
    t = 0 first.  Each step integrates only the active ball around the
    center that the solution can reach (see :func:`_integrate`), a prefix
    of the ball; the stored rows are full-length and equal to a whole-ball
    solve up to rounding (bit for bit on the vertex path).  Every error
    norm divides by ``|B_n0|``, counted in ``B_n`` (all of ``B_n`` when it
    is the smaller ball), so the steps do not depend on ``n`` or on the
    balls the solve moves onto.

    ``partners`` are further data solved in the same :func:`_integrate`
    call, in lockstep with ``u0``: each keeps its own steps, and the
    balls follow the union of the supports.  Their trajectories, on the
    same ball, are the returned trajectory's ``partners``.

    When every datum is constant on the orbits of the signed coordinate
    permutations about a ``Z^N`` center (a centred delta, radial data),
    the solve has one unknown per orbit (:class:`graphs.OrbitQuotient`)
    and the trajectories keep their orbit rows and the last ball's orbits,
    whose lift to its vertices is a solve on the vertices up to rounding,
    with the same steps.  One function tests and places the data
    (:func:`_rows`): each datum's support offsets from the center are
    looked up in the first ball's quotient, which the solve then runs on.
    Each later ball's orbits are built from their keys, and no per-vertex
    array of a ball is read; the error norms read the lift only
    as far as the active ball reaches.  Each ball's
    :class:`graphs.NeighbourTable` is built once; an active ball's
    right-hand side slices it (``table.restrict(m).stacked(k)``).

    The returned ``history`` has one record per ball the solve was on: the
    radius ``n``, its ``vertices`` and ``edges`` (internal edges plus
    stubs, read from its table, see :meth:`graphs.NeighbourTable.edge_count`),
    the time ``t`` the solve moved onto it (0.0 for the first),
    ``rhs_evals`` (the evaluations made on it), the cumulative
    ``accepted`` and ``rejected`` step counts and ``redone`` attempts (the
    voided ones, see :func:`_integrate`) when it was left, and the
    largest active ball the steps ran on, in ``active_vertices`` and in
    ``unknowns`` (its orbits on the quotient, else its vertices).
    """
    if center is None:   # the first vertex of largest |u0|
        if not u0.values:
            raise ValueError("zero data needs an explicit ball center")
        center = min(u0.values, key=lambda v: (-abs(u0.values[v]), g.sort_key(v)))
    data = [u0, *partners]
    n0 = first_radius(u0, cfg, center, partners)
    region = ball(g, center, n0 if n is None else n)
    y0, orbits = _rows(region, data)
    balls = []   # each ball the solve was on, its vertex edge count and its orbits

    def on(region, orbits):
        # the ball's unknowns: their distances, rhs_on, whether the ball has
        # a ring to reach and their orbits (None on the vertices)
        if orbits is not None:
            table, sizes, dist = orbits.table, orbits.sizes, orbits.dist
            degrees = np.full(len(dist), orbits.degree)
        else:
            table, sizes = region_edges(g, region), 1
            dist, degrees = region.distances, region.degrees
        balls.append((region, table.edge_count(sizes), orbits))

        def rhs_on(m, k=1):   # looks up the module's _make_rhs for every sub-ball
            return _make_rhs(table.restrict(m).stacked(k), np.tile(degrees[:m], k), cfg.p)
        return dist, rhs_on, bool((table.nbr == table.n).any()), orbits

    def grow_ball(t):
        smaller = balls[-1][0]
        if len(balls) >= cfg.max_expansions:
            raise TruncationConvergenceError(
                f"the solution reached the boundary ring of each of {len(balls)} balls "
                f"(last radius {smaller.radius}, at t={t!r})")
        bigger = ball(g, smaller.center, math.ceil(RADIUS_GROWTH * smaller.radius))
        return on(bigger, None if balls[-1][2] is None else OrbitQuotient(bigger))

    dist, rhs_on, ringed, orbits = on(region, orbits)
    norm_size = int(np.sum((dist <= n0) * (1 if orbits is None else orbits.sizes)))
    solved = _integrate(rhs_on, dist, y0, float(cfg.instants[-1]), cfg.instants, cfg.rtol,
                        cfg.atol, MAX_STEPS, grow=grow_ball if ringed else None,
                        norm_size=norm_size, orbits=orbits)
    region, _, orbits = balls[-1]
    times = np.concatenate([[0.0], cfg.instants])
    trajs = []
    for Y, diag in solved:
        diagnostics = {name: diag[name] for name in ROW_DIAGNOSTICS.names}
        traj = Trajectory(cfg, region, times, Y, diagnostics, orbits=orbits)
        traj.history = [{"n": reg.radius, "vertices": len(reg), "edges": count, **counts}
                        for (reg, count, *_), counts in zip(balls, diag["balls"])]
        trajs.append(traj)
    trajs[0].partners = trajs[1:]
    return trajs[0]


def solve_cauchy(g, u0: Field, cfg: SolverConfig, center=None, partners=()):
    """Solve the Cauchy problem on a ball that grows in place.

    One :func:`solve_truncated` solve from ``B_n0``, ``n0`` the
    :func:`first_radius` (default: the largest support radius of the data
    and its ``partners``, plus 8).  Each growth moves from ``B_R`` to
    ``B_ceil(1.5 R)``, and every error norm divides by ``|B_n0|``.  Every
    stage input of every step is exactly 0 on the ring of the ball the
    step ran on, so no flux crossed the truncation: the trajectory is
    certified, at the radius of the last ball, and is that of the Cauchy
    problem up to integration error.  ``history`` holds one record per
    ball.  The ``partners`` are solved in the same call, in lockstep, and
    their trajectories (``traj.partners``) are certified on the same ball.
    """
    return solve_truncated(g, u0, cfg, None, center=center, partners=partners)


def first_radius(u0: Field, cfg: SolverConfig, center, partners=()):
    """Radius of the first ball of :func:`solve_cauchy`, which every later ball contains.

    ``cfg.n0`` when set, else the largest support radius of ``u0`` and its
    ``partners`` around ``center``, plus 8.
    """
    if cfg.n0 is not None:
        return int(cfg.n0)
    return max(u.support_radius(center) for u in (u0, *partners)) + 8


# ----------------------------------------------------------------------
# comparison runs and distance functionals


def comparison_check(g, u01: Field, u02: Field, cfg: SolverConfig, center=None):
    """Worst signed gap ``min (u1 - u2)`` for ordered data ``u01 >= u02``.

    One :func:`solve_cauchy` call solves ``u01`` with ``u02`` as its
    partner: both rows step in lockstep on one growing ball that follows
    their union, with the same error norm, and both are certified.  Order
    preservation means the result is bounded below by solver noise.
    """
    if not u01.dominates(u02):
        raise ValueError("precondition u01 >= u02 violated")
    traj1 = solve_cauchy(g, u01, cfg, center=center, partners=(u02,))
    [traj2] = traj1.partners
    # one solve: both on the vertices or both on the same orbits, where a
    # min over the orbit rows is the min over their lift
    return float((traj1.rows - traj2.rows).min())


def mass_radius(traj: Trajectory, eps, x0=None):
    """Minimal radii around ``x0`` holding a ``(1-eps)`` fraction of the initial mass.

    One integer per stored time, t = 0 first.  Raises
    :class:`TruncationDeficitError` when the ball does not even hold that
    fraction at some stored time.  No mass leaves a certified ball through
    its ring, so for a solve only integrator rounding can cause that, and
    a larger ball would not help.
    ``eps`` must exceed ``len(region) * 2**-53``, the rounding of a mass
    sum over the region relative to the mass: a target any closer to the
    initial mass would be met or missed by round-off alone.
    """
    floor = len(traj.region) * 2.0 ** -53
    if not (floor < eps < 1.0):
        raise ValueError(f"eps must lie in ({floor!r}, 1), above the rounding of a "
                         f"mass sum over {len(traj.region)} vertices, got {eps!r}")
    rows, weights, dists = traj.summands(x0)
    target = (1.0 - eps) * traj.masses[0]
    # one bincount over all stored times, keyed by time and distance: each
    # bin sums in the order of a bincount over its time's row alone
    bins, times = int(dists.max()) + 1, len(traj.times)
    keys = (np.arange(times)[:, None] * bins + dists).ravel()
    cum = np.cumsum(np.bincount(keys, (np.abs(rows) * weights).ravel(),
                                times * bins).reshape(times, bins), axis=1)
    short = np.nonzero(cum[:, -1] < target)[0]
    if len(short):
        held = cum[short[0], -1]
        raise TruncationDeficitError(
            f"ball of radius {traj.region.radius} holds {held:.17g} < {target:.17g} "
            f"of the initial mass at t={traj.times[short[0]]} "
            f"(short by {target - held:.17g})")
    return np.argmax(cum >= target, axis=1)


def moment(traj: Trajectory, alpha, x0=None):
    """Spread functionals ``sum d(x, x0)^alpha u(x, t) d_w(x)``, one per stored time.

    Summed over the vertices even on orbits, whose sum rounds apart.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    dists = traj.distances(x0)
    return traj.values @ (dists.astype(float) ** alpha * traj.region.degrees)
