"""Independent verification engines: Monte Carlo, quadrature, grid search.

Every closed form in this package is checked against the machinery here,
which recomputes everything from the payoff *table*
(``payoffs.payoff_table``), the ground truth it shares with the closed
forms; it never calls a closed form in ``cooperative``, ``bayesian`` or
``full_info`` (only their plain data containers).  The routes:

* interim activity gains against a cutoff opponent are integrated
  numerically, not taken from the best-response algebra, and a grid best
  response reads them in rows of at most 31 own types;
* cutoff-pair welfare is rebuilt as each server's idle payoff plus its
  interim gains integrated over its active types, both servers in one call;
* expected welfare of any strategy map is estimated by seeded Monte Carlo
  from both servers' payoff-table entries for the profile played, in
  blocks of 2**14 states drawn into one workspace per call.  Strategies
  at several costs share each block's draws, and those at one cost its
  table sums, which pairs their estimates state by state: a pair's
  difference is one more row, reduced as a welfare row is.  Any range of
  blocks can be run alone and its sums added later in block order, with
  the same bits.  A law other than the default is given by its
  ``Distribution.uniform_map``, and every block it maps is checked;
* a cutoff pair's deviation check reads each server's interim gain at its
  last idle type and at its cutoff: the gain does not decrease in own
  type, so no other type gains more by switching.

Every integral, ``quadrature``'s too, sums one Simpson panel per row as
h/3*(v0 + 4*v1 + v2), so a row's bits depend neither on the rows beside it
nor on the BLAS build; rows cut at the integrands' kinks make the oracles
exact up to rounding for these polynomials of degree <= 2.  Monte Carlo
uses ``numpy.random.default_rng`` (PCG64); estimates carry the seed and
algorithm name and are bitwise reproducible for a given (seed, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayesian import Distribution, ThresholdWelfare
from .payoffs import (
    State,
    _check_unit_array,
    _count,
    check_cost,
    check_sigma,
    check_states,
    payoff_table,
)

__all__ = [
    "DeviationReport",
    "Estimate",
    "epsilon_nash_check",
    "grid_best_response",
    "interim_activity_gain",
    "mc_welfare",
    "pointwise_strategy",
    "quadrature",
    "threshold_activity",
    "threshold_welfare_by_quadrature",
]

RNG_ALGORITHM = "numpy-pcg64"

# States per block in mc_welfare, and draws per block in the sampled check;
# each call writes its blocks into one workspace, so the heap is not refaulted.
_BLOCK = 1 << 14


# --------------------------------------------------------------------------
# quadrature


def _simpson(f, lo, hi):
    """Simpson's rule with one panel on every row [lo, hi].

    ``lo`` and ``hi`` broadcast to the rows' shape; ``f`` maps the nodes,
    that shape plus a last axis of 3, to values.  lo == hi gives 0.  The
    nodes lo, lo + h and hi are the bits of ``np.linspace(lo, hi, 3,
    axis=-1)``, and the sum h/3*(v0 + 4*v1 + v2) has bits that IEEE fixes
    whatever the other rows or the BLAS build.
    """
    h = (hi - lo) / 2
    nodes = np.empty(np.shape(h) + (3,))
    # linspace's lo + 0.0*h and lo + 1.0*h: lo + 0.0 makes -0.0 0.0, as it does
    nodes[..., 0], nodes[..., 1], nodes[..., 2] = lo + 0.0, lo + h, hi
    v = f(nodes)
    return h / 3.0 * (v[..., 0] + 4.0 * v[..., 1] + v[..., 2])


def _split(lo, hi, at):
    """Rows [lo, k] and [k, hi] on a new last axis, k = ``at`` clipped to [lo, hi]."""
    k = np.minimum(np.maximum(at, lo), hi)
    edges = np.empty(np.shape(k) + (3,))
    edges[..., 0], edges[..., 1], edges[..., 2] = lo, k, hi
    return edges[..., :2], edges[..., 1:]


def quadrature(f, a: float, b: float, panels: int = 64) -> float:
    """Composite Simpson rule: ``panels`` one-panel rows over the edges
    ``np.linspace(a, b, panels + 1)``, summed by ``np.sum``.

    Exact (to rounding) for polynomials of degree <= 3 on each panel.  The
    integrand is evaluated on the flat array of all 3*panels nodes at once;
    one that does not return a value per node is looped over node by node.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    if b < a:
        raise ValueError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    panels = _count(panels, "panels", 1)
    if a == b:
        return 0.0

    def values(nodes):
        flat = nodes.ravel()
        v = np.asarray(f(flat), dtype=float)
        v = v if v.shape == flat.shape else np.array([float(f(x)) for x in flat])
        return v.reshape(nodes.shape)

    edges = np.linspace(a, b, panels + 1)
    return float(np.sum(_simpson(values, edges[:-1], edges[1:])))


# --------------------------------------------------------------------------
# interim gains and best responses against a cutoff opponent


def interim_activity_gain(p: float, t_opp: float, c: float, regulated: bool = False) -> float:
    """Expected payoff gain of being active rather than inactive at own type ``p``,
    against a uniform opponent playing the cutoff ``t_opp``.

    Integrates the pointwise active-minus-inactive payoff difference over the
    opponent's type by Simpson quadrature (kinks at ``t_opp`` and at ``p``,
    where the better-server max switches); ``regulated`` takes the c/2 subsidy.
    """
    c = check_cost(c)
    t_opp = check_sigma(t_opp, "t_opp")
    p = check_sigma(p, "p")
    return float(_interim_gains(np.array([p]), t_opp, c, regulated)[0])


def _interim_gains(p, t_opp, c: float, regulated: bool):
    """``interim_activity_gain`` at every own type in the array ``p``: the
    gain is constant on [0, t_opp), where it jumps, and is integrated on
    [t_opp, 1] in two rows per type, cut at its kink q = p.  ``t_opp``, a
    float or an array that broadcasts against ``p``, may give each row of
    own types a cutoff of its own."""
    own, table = p[..., np.newaxis, np.newaxis], "case2_reg" if regulated else "unregulated"

    def if_active(q):  # AA - IA against an active opponent of type q
        aa, _, ia, _ = payoff_table(own, q, c, table)
        return aa - ia

    opp_active = _simpson(if_active, *_split(t_opp, 1.0, p)).sum(axis=-1)
    _, ai, _, ii = payoff_table(p, t_opp, c, table)  # AI - II against an idle one
    return (ai - ii) * t_opp + opp_active


def grid_best_response(
    opp_threshold: float,
    c: float,
    regulated: bool = False,
    step: float = 1e-3,
) -> float:
    """Smallest grid point of own type where being active weakly dominates.

    The gain is nondecreasing in own type (single crossing), so a 32-way
    search returns the leftmost grid point k/n, n = round(1/step), whose
    gain is >= -2**-52, as a linear scan finds it; 1.0, never probed, if
    no point below dominates.  The slack, rounding only, moves the answer
    left by slack / slope: under a step of 1e-9 for costs down to 1e-12,
    whose crossings have slopes >= sqrt(c/2).  The index stays in [lo, hi],
    hi = n standing for no such point; each ``_interim_gains`` call reads 31
    probes that cut the bracket into 32 parts, or all of [lo, hi) once that
    is shorter than 32: 2 calls at step 1e-3, 6 at 1e-9.
    """
    if not (0.0 < step <= 0.01 and math.isfinite(1.0 / step)):
        raise ValueError(f"step must lie in (0, 0.01] with 1/step finite, got {step!r}")
    c = check_cost(c)
    t_opp = check_sigma(opp_threshold, "t_opp")
    n = int(round(1.0 / step))
    spacing = 1.0 / n
    lo, hi = 0, n
    while lo < hi:
        w = hi - lo
        probes = range(lo, hi) if w < 32 else [lo + w * j // 32 for j in range(1, 32)]
        # weak dominance up to quadrature rounding, one ulp of 1.0, so a crossing
        # that lands exactly on a grid point is not pushed one step right by dust
        gains = _interim_gains(np.array(probes) * spacing, t_opp, c, regulated)
        first = ((gains >= -(2.0**-52)).tolist() + [True]).index(True)  # len(probes) if none
        if first:
            lo = probes[first - 1] + 1
        if first < len(probes):
            hi = probes[first]
    return lo * spacing if lo < n else 1.0


# --------------------------------------------------------------------------
# cutoff-pair welfare from the interim gains


def threshold_welfare_by_quadrature(t1: float, t2: float, c: float) -> ThresholdWelfare:
    """Quadrature counterpart of ``bayesian.welfare_thresholds``, by nested Simpson.

    A server's share is what it would earn if it were always idle, plus its
    interim activity gain (``_interim_gains``) integrated over its active
    types [t_own, 1], cut at the opponent's cutoff, where the gain has its
    kink.  Both servers are one row call for each term.
    """
    c = check_cost(c)
    t1, t2 = check_sigma(t1, "t1"), check_sigma(t2, "t2")
    own, opp = np.array([t1, t2]), np.array([t2, t1])
    # idle, a server earns IA where the opponent serves alone, whatever its own type
    idle = _simpson(lambda q: payoff_table(own[:, None], q, c)[2], opp, 1.0)
    gains = _simpson(lambda p: _interim_gains(p, opp[:, None, None], c, False), *_split(own, 1.0, opp))
    s1, s2 = (idle + gains.sum(axis=-1)).tolist()
    return ThresholdWelfare(s1, s2, s1 + s2)


# --------------------------------------------------------------------------
# Monte Carlo welfare


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    n: int
    seed: int
    algorithm: str = RNG_ALGORITHM


def _cutoff_pair(strategy):
    """None for a strategy map (a callable), the checked cutoffs (t1, t2) for
    a tuple or list of two, and a TypeError for anything else."""
    if callable(strategy):
        return None
    if isinstance(strategy, (tuple, list)) and len(strategy) == 2:
        return check_sigma(strategy[0], "cutoff t1"), check_sigma(strategy[1], "cutoff t2")
    raise TypeError(
        "strategy must be an array callable (p1, p2, c) -> (sigma1, sigma2), "
        "a (t1, t2) cutoff pair, or a scalar map wrapped by pointwise_strategy"
    )


def threshold_activity(pair):
    """Array strategy 'active iff own p >= cutoff' for a (t1, t2) pair: boolean masks."""
    cutoffs = _cutoff_pair(pair)
    if cutoffs is None:
        raise TypeError("threshold_activity takes a (t1, t2) cutoff pair, not a strategy map")
    t1, t2 = cutoffs

    def activity(p1, p2, c):
        return p1 >= t1, p2 >= t2

    return activity


def pointwise_strategy(fn):
    """Lift a scalar ``State -> Profile`` map to the array strategy contract.

    Evaluates the map state by state; meant for modest sample sizes and for
    checking vectorised strategies against their scalar definitions.
    """

    def activity(p1, p2, c):
        states = zip(np.ravel(p1).tolist(), np.ravel(p2).tolist(), strict=True)
        profiles = (fn(State(q1, q2), c) for q1, q2 in states)
        sigma = np.array([(p.sigma1, p.sigma2) for p in profiles], dtype=float).reshape(-1, 2)
        return sigma[:, 0], sigma[:, 1]

    return activity


def _resolve_strategy(strategy):
    return strategy if callable(strategy) else threshold_activity(strategy)


def _checked_activity(sigma, shape):
    """``sigma`` as an array of ``shape``, checked to lie in [0, 1] unless boolean."""
    sigma = np.asarray(sigma)
    if sigma.shape != shape:
        sigma = np.broadcast_to(sigma, shape)
    return sigma if sigma.dtype == bool else _check_unit_array(sigma, "strategy activity sigma")


def _checked_draws(dist, u, name: str):
    """Uniforms ``u`` through ``dist``'s map: a float array of their shape in
    [0, 1], else a ValueError naming ``name``.  The default law's are ``u``."""
    if dist is None:
        return u
    draws = np.asarray(dist.uniform_map(u), dtype=float)
    if draws.shape != u.shape:
        raise ValueError(f"sampled {name} has shape {draws.shape}, expected {u.shape}")
    try:
        return _check_unit_array(draws, name)
    except ValueError as err:
        raise ValueError(f"sampled state not finite or outside [0, 1]: {err}") from None


def _block_tables(p1, p2, c, rows):
    """Both servers' payoff-table sums on one block of draws, in the four
    ``rows``: the both-active sum AA + AA2, the lone-server sums AI + IA2
    and IA + AI2, and a spare row (server 2's AA, once added)."""
    both, alone1, ia, _ = payoff_table(p1, p2, c, out=rows[:2])
    aa2, alone2, ia2, _ = payoff_table(p2, p1, c, out=rows[2:])
    # server 2's row lists its own action first: its IA is server 1's AI
    alone1 += ia2
    alone2 += ia
    both += aa2
    return both, alone1, alone2, aa2


def _block_welfare(activity, p1, p2, c, tables, out, mask):
    """Per-state welfare of ``activity`` on one block of draws, written to
    ``out``: the sum of both servers' payoff-table entries for the profile
    played, from ``_block_tables``' rows.  It may overwrite the spare row
    and ``mask``, a boolean row; the three sums stay as they are.

    With boolean activities the row is the bilinear mix's products with 0/1
    weights, masks cast to 0.0/1.0 in ``out`` and the spare row: the
    servers' own two, or, if both serve somewhere, three disjoint ones made
    in ``mask``.  The bits are the mix's, which numeric activities take.
    """
    both, alone1, alone2, spare = tables
    sigma1, sigma2 = (_checked_activity(sigma, p1.shape) for sigma in activity(p1, p2, c))
    if sigma1.dtype != bool or sigma2.dtype != bool:
        out[...] = (
            sigma1 * sigma2 * both
            + sigma1 * (1.0 - sigma2) * alone1
            + (1.0 - sigma1) * sigma2 * alone2
        )
        return out
    # each mask is cast into its product's row and multiplied in place: 33-44
    # us a 2**14-state row (three products 50-59) against 49-71 as float x
    # bool, or 43-136 with np.putmask for the both-active sum (2-vCPU Xeon)
    if np.logical_and(sigma1, sigma2, out=mask).any():
        np.copyto(out, mask)
        out *= both
        for lone, alone in ((np.greater, alone1), (np.less, alone2)):
            np.copyto(spare, lone(sigma1, sigma2, out=mask))
            out += np.multiply(spare, alone, out=spare)
        return out
    np.copyto(out, sigma1)
    out *= alone1
    np.copyto(spare, sigma2)
    out += np.multiply(spare, alone2, out=spare)
    return out


def _draws(dist1, dist2, n: int, seed: int, u1, u2, start: int, stop: int):
    """Yield mc_welfare's (p1, p2) for its states [start, stop) of n, ``u1.size`` at a time."""
    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    rng1 = np.random.Generator(np.random.PCG64(seq).advance(start))
    rng2 = np.random.Generator(np.random.PCG64(seq).advance(n + start))
    for lo in range(start, stop, u1.size):
        yield (
            _checked_draws(dist1, rng1.random(out=u1[: stop - lo]), "p1"),
            _checked_draws(dist2, rng2.random(out=u2[: stop - lo]), "p2"),
        )


def _mc_block_sums(jobs, n, seed, start, stop, dist1=None, dist2=None):
    """Per block, the sum and sum of squares of every row of ``jobs`` over
    mc_welfare's states [start, stop) of n: an array (blocks, rows, 2).

    ``jobs`` lists ``(c, strategies, pairs)``, whose rows are the strategies'
    welfare, then each pair (i, j)'s welfare i minus welfare j, state by
    state.  A block is drawn once; at each cost its table sums are built
    once, its rows written to one stack in the workspace and reduced by one
    ``np.add.reduce`` along its rows, then squared in place and reduced
    again: the bits of each row's own ``np.sum``.  ``start`` is a _BLOCK multiple.
    """
    jobs = [(c, [_resolve_strategy(s) for s in strategies], pairs) for c, strategies, pairs in jobs]
    heights = [len(activities) + len(pairs) for _, activities, pairs in jobs]
    # the two draw rows, _block_tables' four rows, then the stack
    work = np.empty((6 + max(heights), min(n, _BLOCK)))
    mask = np.empty(work.shape[1], dtype=bool)
    sums = np.empty((-(-(stop - start) // _BLOCK), sum(heights), 2))
    for block, (p1, p2) in zip(sums, _draws(dist1, dist2, n, seed, work[0], work[1], start, stop)):
        row, m = 0, p1.size
        for (c, activities, pairs), height in zip(jobs, heights):
            k, stack = len(activities), work[6 : 6 + height, :m]
            tables = _block_tables(p1, p2, c, work[2:6, :m])
            for activity, out in zip(activities, stack):
                _block_welfare(activity, p1, p2, c, tables, out, mask[:m])
            for out, (i, j) in zip(stack[k:], pairs):
                np.subtract(stack[i], stack[j], out=out)
            np.add.reduce(stack, axis=1, out=block[row : row + height, 0])
            # squared in place and summed pairwise: a BLAS dot (w @ w) may
            # split the sum across threads, so its bits depend on their count
            np.add.reduce(np.square(stack, out=stack), axis=1, out=block[row : row + height, 1])
            row += height
    return sums


def _estimates(sums, n: int, seed: int) -> list[Estimate]:
    """Each row's mean and standard error (sample std / sqrt(n)) from
    ``_mc_block_sums``' blocks, whose sums are added by float ``+=`` from
    0.0 in block order, however the blocks were split into ranges."""
    totals = np.add.reduce(sums.reshape(len(sums), -1), axis=0, initial=0.0).tolist()
    estimates = []
    for total, total_sq in zip(totals[::2], totals[1::2]):
        mean = total / n
        variance = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
        estimates.append(Estimate(mean=mean, stderr=float(np.sqrt(variance / n)), n=n, seed=seed))
    return estimates


def mc_welfare(
    strategy,
    c: float,
    n: int = 1_000_000,
    seed: int = 0,
    dist1: Distribution | None = None,
    dist2: Distribution | None = None,
) -> Estimate:
    """Monte Carlo estimate of expected welfare under a strategy map.

    States are drawn i.i.d. (uniform unless per-server distributions are
    given); welfare per state is the sum of both servers' entries of the
    payoff table for the selected (possibly mixed) profile, and
    regulations never change it, so the unregulated table is used.
    stderr is sample std / sqrt(n).  ``n`` >= 1 and ``seed`` >= 0 are
    integers, numpy integers included.

    The states are those of one generator on ``SeedSequence(seed).spawn(1)[0]``
    drawing all ``p1``, then all ``p2``; ``p2`` comes from a second on the
    same seed advanced by n, a block at a time into reused rows.  A given
    distribution's map must keep each block's shape and [0, 1] (ValueError
    naming ``p1`` or ``p2``).
    Each block of 2**14 states is drawn, handed to an array strategy once,
    turned into welfare and reduced before the next is drawn, so the
    strategy must act state by state, with activities in [0, 1]; the
    blocks fix the bits.  The draws and payoff entries of a block live in
    one workspace of seven rows made once per call, and boolean activities
    weight its sums by their masks cast in it (see ``_block_welfare``), so
    no block allocates in the kernel and the heap is not trimmed and
    refaulted block by block.
    """
    c, n, seed = check_cost(c), _count(n, "n", 1), _count(seed, "seed", 0)
    return _estimates(_mc_block_sums([(c, [strategy], ())], n, seed, 0, n, dist1, dist2), n, seed)[0]


# --------------------------------------------------------------------------
# deviation checking


@dataclass(frozen=True)
class DeviationReport:
    """Largest unilateral improvement found when probing a strategy."""

    max_gain: float
    witness: tuple | None
    passed: bool
    eps: float


def _pure_deviation_gain(row, sigma_own, sigma_other):
    """Best pure deviation's gain over a server's mixed play, given its own
    payoff-table row (own action first), and whether active is that best."""
    active = sigma_other * row[0] + (1.0 - sigma_other) * row[1]
    idle = sigma_other * row[2] + (1.0 - sigma_other) * row[3]
    have = sigma_own * active + (1.0 - sigma_own) * idle
    return np.maximum(active, idle) - have, active >= idle


def _check_state_map(activity, c, p1, p2, eps, variant):
    p1, p2 = check_states(p1, p2)
    sigma1, sigma2 = (_checked_activity(sigma, p1.shape) for sigma in activity(p1, p2, c))
    gain1, better1 = _pure_deviation_gain(payoff_table(p1, p2, c, variant), sigma1, sigma2)
    gain2, better2 = _pure_deviation_gain(payoff_table(p2, p1, c, variant), sigma2, sigma1)
    gains, better = np.stack([gain1, gain2]), np.stack([better1, better2])
    k, j = divmod(int(np.argmax(gains)), p1.size)  # server 1's row first: it wins ties
    max_gain = float(gains[k, j])
    action = "active" if better[k, j] else "inactive"
    witness = (State(p1[j], p2[j]), k + 1, action) if max_gain > 0.0 else None
    return DeviationReport(max_gain, witness, max_gain <= eps, eps)


def _sampled_gains(p, opp_draws, t_opp, c, regulated, work):
    """Mean and standard error (``std(ddof=1) / sqrt(n)``) of the gains at
    each own type in ``p`` against the opponent draws, an idle opponent's
    (AI - II) below t_opp and an active one's (AA - IA) at or above it.
    The rows are written ``_BLOCK`` draws at a time into ``work``, (p.size,
    min(n, _BLOCK)) floats, each shifted by its gain at the first draw, so
    a row of equal gains has no spread."""
    own, n, table = p[:, np.newaxis], opp_draws.size, "case2_reg" if regulated else "unregulated"
    ai = np.empty((p.size, 1))

    def gains(q):  # AA - IA in the workspace, then AI - II put where q is idle
        aa, _, ia, ii = payoff_table(own, q, c, table, out=(work[:, : q.size], ai))
        aa -= ia
        idle = q < t_opp
        for row, gain in zip(aa, (ai - ii)[:, 0].tolist()):
            np.putmask(row, idle, gain)
        return aa

    shift, sums = gains(opp_draws[:1]).copy(), np.empty((-(-n // _BLOCK), p.size, 2))
    for block, lo in zip(sums, range(0, n, _BLOCK)):
        rows = gains(opp_draws[lo : lo + _BLOCK])
        rows -= shift
        np.add.reduce(rows, axis=1, out=block[:, 0])
        np.add.reduce(np.square(rows, out=rows), axis=1, out=block[:, 1])
    shifted = _estimates(sums, n, 0)
    return shift[:, 0] + [e.mean for e in shifted], np.array([e.stderr for e in shifted])


def _check_threshold_pair(t, c, mode, eps, seed, regulated, dist, samples):
    # row k is server k + 1 at its last idle type and at its cutoff, against
    # the other's cutoff; positive = profitable switch
    cutoffs = np.array([[t[0]], [t[1]]])
    probes = np.concatenate((np.nextafter(cutoffs, 0.0), cutoffs), axis=1)
    if mode == "analytic_quadrature":
        means, ses = _interim_gains(probes, cutoffs[::-1], c, regulated), np.zeros((2, 2))
    else:
        # each server's opponent draws, server 1's first, from one generator
        # on seed into one buffer, which holds the gain rows too: glibc trims
        # and refaults two such allocations call by call, but not one
        rng, work = np.random.default_rng(seed), np.empty(samples + 2 * min(samples, _BLOCK))
        u, rows = work[:samples], work[samples:].reshape(2, -1)
        opp = lambda k: _checked_draws(dist, rng.random(out=u), f"p{2 - k}")
        moments = [_sampled_gains(probes[k], opp(k), t[1 - k], c, regulated, rows) for k in range(2)]
        means, ses = np.stack(moments, axis=1)
    gains = np.where(probes >= cutoffs, -means, means)
    k, j = divmod(int(np.argmax(gains)), 2)  # server 1's row first: it wins ties
    max_gain = max(0.0, float(gains[k, j]))
    witness = (k + 1, float(probes[k, j]), max_gain) if max_gain > 0.0 else None
    if eps is None:
        se = ses[k, j] if witness else ses.max()  # at the witness, else the worst probe
        eps = 1e-6 if mode == "analytic_quadrature" else 3.0 * float(se)
    return DeviationReport(max_gain, witness, max_gain <= eps, eps)


def epsilon_nash_check(
    strategy,
    c: float,
    mode: str = "analytic_quadrature",
    eps: float | None = None,
    seed: int = 0,
    regulated: bool = False,
    dist: Distribution | None = None,
    variant: str = "unregulated",
    samples: int = 20_000,
    states=None,
) -> DeviationReport:
    """Probe a strategy for profitable unilateral deviations.

    Cutoff pairs: each server's interim activity gain against the
    opponent's cutoff is read at its last idle type ``nextafter(t, 0)`` and
    at its cutoff ``t`` -- by quadrature (``analytic_quadrature``, default
    eps 1e-6) or as the mean over opponent draws from ``dist``
    (``sampled``, default eps = three standard errors at the witness, else
    at the worst probe).  The gain does not decrease in own type, so the
    report carries the largest gain available from switching away from
    the prescribed action at any type.

    Strategy maps (array callables or ``pointwise_strategy`` wrappers) are
    checked pointwise for pure deviations at ``states`` (``(p1, p2)`` pairs,
    shape ``(n, 2)``), at a state grid (analytic mode), or at sampled states;
    those gains are exact, so eps defaults to 1e-6.  The state grid is
    fixed: the 51 x 51 states of step 0.02.  A cutoff pair is a tuple or
    list of two, and any other one a TypeError.
    Cutoffs, states, sampled opponent types and the map's activities must
    lie in [0, 1] (ValueError otherwise, NaN included); ``sampled`` mode
    needs ``samples`` >= 2 for a cutoff pair.  ``samples`` and ``seed`` are
    integers >= 0 and a given ``eps`` is finite and >= 0.  A cutoff pair's
    table is set by ``regulated``, a map's by ``variant``.  An argument the
    strategy's check does not read is a ValueError, not ignored: ``variant``,
    ``states``, and ``dist`` outside ``sampled`` mode on a cutoff pair;
    ``regulated`` and ``dist`` on a map.
    """
    c = check_cost(c)
    if mode not in ("analytic_quadrature", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    # NaN fails both comparisons
    if eps is not None and not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")

    seed = _count(seed, "seed", 0)
    pair = _cutoff_pair(strategy)
    # a cutoff pair's standard errors need two draws, a map one sampled state
    sampled = mode == "sampled" and (pair is not None or states is None)
    samples = _count(samples, "samples", (1 if pair is None else 2) if sampled else 0)
    if pair is not None:
        if variant != "unregulated":
            raise ValueError(f"a cutoff pair takes regulated=True, not variant={variant!r}")
        if dist is not None and mode != "sampled":
            raise ValueError("dist= needs mode='sampled': the analytic gains assume a uniform opponent")
        if states is not None:
            raise ValueError("states= applies to a strategy map, not a cutoff pair")
        return _check_threshold_pair(pair, c, mode, eps, seed, regulated, dist, samples)
    if regulated:
        raise ValueError("a strategy map takes its payoff table as variant=, not regulated=True")
    if dist is not None:
        raise ValueError("dist= applies to a cutoff pair: a strategy map is probed at uniform states")

    if states is not None:
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] != 2 or len(states) == 0:
            raise ValueError(
                f"states must be (p1, p2) pairs of shape (n, 2), n >= 1, got {states.shape}"
            )
    elif mode == "analytic_quadrature":
        side = np.linspace(0.0, 1.0, 51)  # step 0.02
        states = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        states = np.random.default_rng(seed).random((samples, 2))
    eps = 1e-6 if eps is None else eps
    return _check_state_map(strategy, c, states[:, 0], states[:, 1], eps, variant)
