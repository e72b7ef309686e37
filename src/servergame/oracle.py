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
* the sampled deviation check scores idle opponents as active ones of type 0
  and sorts each server's opponent draws once: every own type's gains are
  two groups of them, split at its type, whose moments come from sums
  between neighbouring grid types.

Every integral, ``quadrature``'s too, sums one Simpson panel per row as
h/3*(v0 + 4*v1 + v2), so a row's bits depend neither on the rows beside it
nor on the BLAS build; rows cut at the integrands' kinks make the oracles
exact up to rounding for these polynomials of degree <= 2.  Monte Carlo
uses ``numpy.random.default_rng`` (PCG64); estimates carry the seed and
algorithm name and are bitwise reproducible for a given (seed, n).
"""

from __future__ import annotations

import functools
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

# States per block in mc_welfare, and draws per block in the sampled check,
# whose rows stay below glibc's trim threshold (the heap is reused, not refaulted).
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
    nodes = np.multiply.outer(h, np.arange(3.0)) + np.asarray(lo)[..., np.newaxis]
    nodes[..., -1] = hi
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
    own = p[..., np.newaxis, np.newaxis]
    if_active = lambda q: _activity_gains(own, q, c, regulated)[0]
    opp_active = _simpson(if_active, *_split(t_opp, 1.0, p)).sum(axis=-1)
    return _activity_gains(p, t_opp, c, regulated)[1] * t_opp + opp_active


def _activity_gains(p, q, c, regulated: bool):
    """Gain of being active rather than idle at own type ``p`` against an
    active and an idle opponent of type ``q``, from server 1's row of the
    payoff table (the c/2-subsidy table if ``regulated``)."""
    aa, ai, ia, ii = payoff_table(p, q, c, "case2_reg" if regulated else "unregulated")
    return aa - ia, ai - ii


def grid_best_response(
    opp_threshold: float,
    c: float,
    regulated: bool = False,
    step: float = 1e-3,
) -> float:
    """Smallest grid point of own type where being active weakly dominates.

    The gain is nondecreasing in own type (single crossing), so bisection
    finds the leftmost nonnegative point of the grid k/n, n = round(1/step),
    as a linear scan would; 1.0, never probed, if no point below dominates.
    Each ``_interim_gains`` call takes the (at most 31) midpoints of the
    bisection's next five steps: 2 calls at step 1e-3, about 6 at 1e-9.
    """
    if not (0.0 < step <= 0.01 and math.isfinite(1.0 / step)):
        raise ValueError(f"step must lie in (0, 0.01] with 1/step finite, got {step!r}")
    c = check_cost(c)
    t_opp = check_sigma(opp_threshold, "t_opp")
    n = int(round(1.0 / step))
    spacing = 1.0 / n
    lo, hi = 0, n
    while lo < hi:
        probes = _bisection_probes(lo, hi, 5)
        # weak dominance up to quadrature rounding, so a crossing that lands
        # exactly on a grid point is not pushed one step right by -1e-17 dust
        gains = _interim_gains(np.array(probes) * spacing, t_opp, c, regulated)
        dominates = dict(zip(probes, (gains >= -1e-12).tolist()))
        while lo < hi and (mid := (lo + hi) // 2) in dominates:
            lo, hi = (lo, mid) if dominates[mid] else (mid + 1, hi)
    return lo * spacing if lo < n else 1.0


@functools.lru_cache(maxsize=1024)
def _bisection_probes(lo: int, hi: int, levels: int) -> tuple:
    """The indices, at most 2**levels - 1, that a bisection for the leftmost
    True on [lo, hi) may read in its next ``levels`` steps (memoised: a grid
    search at a given step meets the same intervals again and again)."""
    if lo >= hi:
        return ()
    mid = (lo + hi) // 2
    if levels == 1:
        return (mid,)
    return (mid, *_bisection_probes(lo, mid, levels - 1), *_bisection_probes(mid + 1, hi, levels - 1))


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
        p1 = np.atleast_1d(np.asarray(p1, dtype=float))
        p2 = np.atleast_1d(np.asarray(p2, dtype=float))
        sigma1 = np.empty_like(p1)
        sigma2 = np.empty_like(p2)
        for i in range(p1.size):
            prof = fn(State(float(p1[i]), float(p2[i])), c)
            sigma1[i] = prof.sigma1
            sigma2[i] = prof.sigma2
        return sigma1, sigma2

    return activity


def _resolve_strategy(strategy):
    pair = _cutoff_pair(strategy)
    return strategy if pair is None else threshold_activity(pair)


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


def _block_welfare(activity, p1, p2, c, tables, out, both_active):
    """Per-state welfare of ``activity`` on one block of draws, written to
    ``out``: the sum of both servers' payoff-table entries for the profile
    played, from ``_block_tables``' rows.  It may overwrite the spare row;
    the three sums stay as they are unless ``out`` is one of them.

    With boolean activities each lone-server sum is scaled by its server's
    mask cast to 0.0 or 1.0 in the spare row, and the both-active sum written
    where ``both_active``, a boolean row, holds (if anywhere): bit-identical
    to the bilinear mix of the same entries, which numeric activities take.
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
    np.copyto(spare, sigma1)
    np.multiply(alone1, spare, out=out)  # out may be alone1: the mask goes to the spare row
    np.copyto(spare, sigma2)
    out += np.multiply(alone2, spare, out=spare)
    if np.logical_and(sigma1, sigma2, out=both_active).any():
        np.putmask(out, both_active, both)
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
    once, its rows written to one stack in the workspace (the last
    strategy's over server 1's lone-server sum) and reduced by one
    ``np.add.reduce`` along its rows, then squared in place and reduced
    again: the bits of each row's own ``np.sum``.  ``start`` is a _BLOCK multiple.
    """
    jobs = [(c, [_resolve_strategy(s) for s in strategies], pairs) for c, strategies, pairs in jobs]
    heights = [len(activities) + len(pairs) for _, activities, pairs in jobs]
    # the draws, the both-active sum, the spare table row, server 2's lone-server sum, the stack
    work = np.empty((5 + max(heights), min(n, _BLOCK)))
    both_active = np.empty(work.shape[1], dtype=bool)
    sums = np.empty((-(-(stop - start) // _BLOCK), sum(heights), 2))
    for block, (p1, p2) in zip(sums, _draws(dist1, dist2, n, seed, work[0], work[1], start, stop)):
        row, m = 0, p1.size
        for (c, activities, pairs), height in zip(jobs, heights):
            k, stack = len(activities), work[5 : 5 + height, :m]
            tables = _block_tables(p1, p2, c, [work[2, :m], stack[k - 1], work[3, :m], work[4, :m]])
            for activity, out in zip(activities, stack):
                _block_welfare(activity, p1, p2, c, tables, out, both_active[:m])
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
    totals = [0.0] * (2 * sums.shape[1])
    for block in sums.reshape(len(sums), -1).tolist():
        totals = [total + x for total, x in zip(totals, block)]
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
    one workspace of six rows made once per call: with boolean activities
    no block allocates in the kernel, so the heap is not trimmed and
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
    gains = np.concatenate([gain1, gain2])
    idx = int(np.argmax(gains))
    max_gain = float(gains[idx])
    witness = None
    if max_gain > 0.0:
        server = 1 if idx < p1.size else 2
        j = idx % p1.size
        better = (better1 if server == 1 else better2)[j]
        witness = (
            State(float(p1[j]), float(p2[j])),
            server,
            "active" if bool(better) else "inactive",
        )
    return DeviationReport(max_gain, witness, max_gain <= eps, eps)


def _sampled_gain_moments(p_grid, opp_draws, t_opp, c, regulated):
    """Mean and standard error (``std(ddof=1) / sqrt(n)``) of each own type's
    gains against the opponent draws, which are sorted and set to 0 below
    t_opp, both in place: an idle opponent scores as an active one of type 0
    (AA - IA at type 0 is AI - II in both tables: x - 0.0 is x, x - (0.0 -
    c/2) is x + c/2).  Against a draw q < p the better server is p, so the
    gain is AA(p, 0) - IA(q); against q >= p it is G(q) = AA(q, q) - IA(q).
    Each own type's row is thus two groups of the sorted draws, split where
    ``searchsorted`` puts p.  One pass, ``_BLOCK`` draws at a time, sums IA
    and G, and their squares, between neighbouring grid types, shifted by IA
    of the first draw and G of the last: a member of every nonempty group,
    so a constant group has no spread.  Prefix and suffix sums give each
    group's mean and squared deviations, and the groups combine with their
    between-group term."""
    opp_draws.sort()
    opp_draws[: np.searchsorted(opp_draws, t_opp)] = 0.0
    n, variant = opp_draws.size, "case2_reg" if regulated else "unregulated"
    below = np.searchsorted(opp_draws, p_grid)  # the draws below each own type
    bounds = np.concatenate(([0], below, [n]))
    ends = opp_draws[[0, -1]]
    aa, _, ia, _ = payoff_table(ends, ends, c, variant)
    ref_ia, ref_g = ia[0], aa[1] - ia[1]
    # rows IA - ref_ia, its square, G - ref_g and its square, summed over each
    # run of draws between neighbouring grid types: bounds[j], bounds[j + 1]
    work, sums = np.empty((4, min(n, _BLOCK))), np.zeros((4, bounds.size - 1))
    for lo in range(0, n, _BLOCK):
        q = opp_draws[lo : lo + _BLOCK]
        rows = work[:, : q.size]
        aa, _, ia, _ = payoff_table(q, q, c, variant, out=(rows[2], rows[0]))
        np.subtract(ia, ref_ia, out=rows[0])
        np.subtract(np.subtract(aa, ia, out=rows[2]), ref_g, out=rows[2])
        np.square(rows[::2], out=rows[1::2])
        edges = np.minimum(np.maximum(bounds, lo), lo + q.size) - lo
        held = edges[1:] > edges[:-1]
        sums[:, held] += np.add.reduceat(rows, edges[:-1][held], axis=1)
    # own type j: IA over runs 0..j, the draws below it, and G over the rest;
    # an empty group's sums are 0, and so are its mean and spread
    ia_sum, ia_sq = np.cumsum(sums[:2], axis=1)[:, :-1]
    g_sum, g_sq = np.cumsum(sums[2:, ::-1], axis=1)[:, -2::-1]
    ia_shift, g_shift = ia_sum / np.maximum(below, 1), g_sum / np.maximum(n - below, 1)
    spread = np.maximum(ia_sq - ia_sum * ia_shift, 0.0) + np.maximum(g_sq - g_sum * g_shift, 0.0)
    gain_below = payoff_table(p_grid, 0.0, c)[0] - (ref_ia + ia_shift)
    gain_above = ref_g + g_shift
    means = (below * gain_below + (n - below) * gain_above) / n
    spread += below * (n - below) / n * np.square(gain_below - gain_above)
    return means, np.sqrt(spread / (n - 1)) / np.sqrt(n)


def _sampled_gains(p_grid, t, c, seed, regulated, dist, samples):
    """Both servers' sampled gain moments, server 1's first: each server's
    ``samples`` opponent draws come from one generator on ``seed``, server
    1's first, and mapped by ``dist`` here.  The servers run one after the
    other, so that one server's draws are held at a time."""
    rng = np.random.default_rng(seed)

    def moments(k):
        # the moments zero and sort draws in u, never in the map's array: it may be the caller's
        u = rng.random(samples)
        np.copyto(u, _checked_draws(dist, u, f"p{2 - k}"))
        return _sampled_gain_moments(p_grid, u, t[1 - k], c, regulated)

    return [moments(0), moments(1)]


def _check_threshold_pair(t, c, mode, eps, seed, regulated, dist, samples):
    p_grid = np.linspace(0.0, 1.0, int(round(1.0 / _P_STEP)) + 1)
    # row k is server k + 1, against the other's cutoff; positive = profitable switch
    cutoffs = np.array([[t[0]], [t[1]]])
    if mode == "analytic_quadrature":
        both = np.broadcast_to(p_grid, (2, p_grid.size))
        means = _interim_gains(both, cutoffs[::-1], c, regulated)
        ses = np.zeros((2, p_grid.size))
    else:
        means, ses = np.stack(_sampled_gains(p_grid, t, c, seed, regulated, dist, samples), axis=1)
    gains = np.where(p_grid >= cutoffs, -means, means)
    k, j = divmod(int(np.argmax(gains)), p_grid.size)  # server 1's row first: it wins ties
    max_gain = max(0.0, float(gains[k, j]))
    witness = (k + 1, float(p_grid[j]), max_gain) if max_gain > 0.0 else None
    if eps is None:
        se = ses[k, j] if witness else ses.max()  # at the witness, else the worst point
        eps = 1e-6 if mode == "analytic_quadrature" else 3.0 * float(se)
    return DeviationReport(max_gain, witness, max_gain <= eps, eps)


# the deviation grids' steps: 201 own types for a pair, 51 x 51 states for a map
_P_STEP = 0.005
_STATE_STEP = 0.02


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

    Cutoff pairs: each server's interim activity gain is evaluated over an
    own-type grid against the opponent's cutoff -- by quadrature
    (``analytic_quadrature``, default eps 1e-6) or against opponent draws
    from ``dist`` (``sampled``, default eps = three standard errors at the
    worst point).  The report carries the largest gain available from
    switching away from the prescribed action.

    Strategy maps (array callables or ``pointwise_strategy`` wrappers) are
    checked pointwise for pure deviations at ``states`` (``(p1, p2)`` pairs,
    shape ``(n, 2)``), at a state grid (analytic mode), or at sampled states;
    those gains are exact, so eps defaults to 1e-6.  The grids are fixed:
    own types 0, 0.005, ..., 1, and the 51 x 51 states of step 0.02.  A
    cutoff pair is a tuple or list of two, and any other one a TypeError.
    A sampled cutoff-pair check sorts each server's opponent draws and
    takes every own type's moments from sums between grid types, in
    O(n log n) per server on the calling thread.
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
        side = np.linspace(0.0, 1.0, int(round(1.0 / _STATE_STEP)) + 1)
        states = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        states = np.random.default_rng(seed).random((samples, 2))
    eps = 1e-6 if eps is None else eps
    return _check_state_map(strategy, c, states[:, 0], states[:, 1], eps, variant)
