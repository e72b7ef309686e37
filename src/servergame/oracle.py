"""Independent verification engines: Monte Carlo, quadrature, grid search.

Every closed-form result in this package is cross-checked against the
machinery here, so this module deliberately recomputes everything from the
payoff *table* (``payoffs.payoff_table``), the ground truth it shares with
the closed forms -- it never calls a closed form in ``cooperative``,
``bayesian`` or ``full_info`` (only their plain data containers).  The
routes kept independent:

* interim activity gains against a cutoff opponent are integrated
  numerically, not taken from the best-response algebra;
* cutoff-pair welfare is rebuilt by nested quadrature of the payoff table
  over the activity regions of the state square;
* expected welfare of any strategy map is estimated by seeded Monte Carlo,
  each state's welfare being the sum of both servers' payoff-table
  entries for the profile played; a block of 2**14 states at a time is
  drawn, played and reduced, its draws and table entries written into one
  workspace made per call.

Every integral goes through one Simpson routine over rows of intervals cut
at the integrands' kinks: all own types of a grid are one call, and inner
integrals are rows over the outer nodes.  The integrands are polynomials
of degree <= 2 on every row, so one Simpson panel per row is exact up to
rounding.

Monte Carlo uses ``numpy.random.default_rng`` (PCG64); estimates carry the
seed and algorithm name and are bitwise reproducible for a given (seed, n).
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bayesian import Distribution, ThresholdWelfare, uniform_distribution
from .payoffs import State, _check_unit_array, check_cost, check_sigma, check_states, payoff_table

__all__ = [
    "DeviationReport",
    "Estimate",
    "epsilon_nash_check",
    "grid_best_response",
    "interim_activity_gain",
    "mc_welfare",
    "pointwise_strategy",
    "quadrature",
    "quadrature_piecewise",
    "threshold_activity",
    "threshold_welfare_by_quadrature",
]

RNG_ALGORITHM = "numpy-pcg64"

# States per block in mc_welfare, and draws per slice of a sampled gain row,
# whose 64 KiB temporaries stay below glibc's trim threshold, so the heap is
# reused, not refaulted.
_BLOCK = 1 << 14
_ROW_SLICE = 1 << 13


# --------------------------------------------------------------------------
# quadrature


def _simpson(f, lo, hi, panels: int = 1):
    """Composite Simpson rule with ``panels`` panels on every row [lo, hi].

    ``lo`` and ``hi`` broadcast to the rows' shape; ``f`` maps the nodes,
    that shape plus a last axis of 2*panels+1, to values.  lo == hi gives 0.
    """
    nodes = np.linspace(lo, hi, 2 * panels + 1, axis=-1)
    weights = np.ones(2 * panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (hi - lo) / (2 * panels)
    return h / 3.0 * (f(nodes) @ weights)


def _split(lo, hi, at):
    """Rows [lo, k] and [k, hi] on a new last axis, k = ``at`` clipped to [lo, hi]."""
    k = np.clip(at, lo, hi)
    edges = np.empty(np.shape(k) + (3,))
    edges[..., 0], edges[..., 1], edges[..., 2] = lo, k, hi
    return edges[..., :2], edges[..., 1:]


def quadrature(f, a: float, b: float, panels: int = 64) -> float:
    """Composite Simpson rule with ``panels`` panels (2*panels+1 nodes).

    Exact (to rounding) for polynomials of degree <= 3 on each panel.  The
    integrand is evaluated on the whole node array at once; scalar-only
    callables are looped over as a fallback.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    if b < a:
        raise ValueError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    if a == b:
        return 0.0

    def values(nodes):
        v = np.asarray(f(nodes), dtype=float)
        return v if v.shape == nodes.shape else np.array([float(f(x)) for x in nodes])

    return float(_simpson(values, a, b, panels))


def quadrature_piecewise(f, a: float, b: float, breakpoints=(), panels: int = 64) -> float:
    """Simpson quadrature with panel edges aligned to known kinks of ``f``."""
    cuts = [a]
    for x in sorted(float(x) for x in breakpoints):
        if cuts[-1] + 1e-15 < x < b - 1e-15:
            cuts.append(x)
    cuts.append(b)
    return sum(quadrature(f, lo, hi, panels) for lo, hi in zip(cuts[:-1], cuts[1:]))


# --------------------------------------------------------------------------
# interim gains and best responses against a cutoff opponent


def interim_activity_gain(p: float, t_opp: float, c: float, regulated: bool = False) -> float:
    """Expected payoff gain of being active rather than inactive at own type ``p``,
    against a uniform opponent playing the cutoff ``t_opp``.

    Integrates the pointwise active-minus-inactive payoff difference over
    the opponent's type by Simpson quadrature (kinks at ``t_opp`` and at
    ``p`` where the better-server max switches).  ``regulated`` switches to
    the c/2-subsidy payoffs.
    """
    c = check_cost(c)
    t_opp = check_sigma(t_opp, "t_opp")
    p = check_sigma(p, "p")
    return float(_interim_gains(np.array([p]), t_opp, c, regulated)[0])


def _interim_gains(p, t_opp: float, c: float, regulated: bool):
    """``interim_activity_gain`` at every own type in the array ``p``: the
    gain is constant on [0, t_opp), where it jumps, and is integrated on
    [t_opp, 1] in two rows per type, cut at its kink q = p."""
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

    The activity gain is nondecreasing in own type (single crossing), so
    the leftmost nonnegative grid point is found by bisection over the
    grid; a linear scan returns the same point.  Returns 1.0, the last
    grid point, when no point below it dominates; 1.0 is never probed.
    """
    if not (0.0 < step <= 0.01 and math.isfinite(1.0 / step)):
        raise ValueError(f"step must lie in (0, 0.01] with 1/step finite, got {step!r}")
    c = check_cost(c)
    n = int(round(1.0 / step))
    spacing = 1.0 / n

    def point(idx: int) -> float:
        # np.linspace(0, 1, n + 1)[idx], computed on demand
        return idx * spacing if idx < n else 1.0

    def dominates(idx: int) -> bool:
        # weak dominance up to quadrature rounding, so a crossing that lands
        # exactly on a grid point is not pushed one step right by -1e-17 dust
        return interim_activity_gain(point(idx), opp_threshold, c, regulated) >= -1e-12

    return point(bisect.bisect_left(range(n), True, key=dominates))


# --------------------------------------------------------------------------
# cutoff-pair welfare by region quadrature


def _server1_share_by_regions(t1: float, t2: float, c: float) -> float:
    """Server 1's expected payoff under cutoffs (t1, t2), by nested Simpson.

    Each region of who is active (nobody pays 0) integrates server 1's
    payoff-table entry.  Integrals over p1 are cut at the kink p1 = p2 of
    max(p1, p2), and those over p2 at t1, where the inner integral kinks.
    """
    def region(entry: int, p2_range, p1_range) -> float:
        def over_p1(p2):
            q = p2[..., np.newaxis, np.newaxis]
            own = lambda p1: payoff_table(p1, np.broadcast_to(q, p1.shape), c)[entry]
            return _simpson(own, *_split(*p1_range, p2)).sum(axis=-1)

        return float(_simpson(over_p1, *_split(*p2_range, t1)).sum())

    self_alone = region(1, (0.0, t2), (t1, 1.0))
    opp_alone = region(2, (t2, 1.0), (0.0, t1))
    both_active = region(0, (t2, 1.0), (t1, 1.0))
    return self_alone + opp_alone + both_active


def threshold_welfare_by_quadrature(t1: float, t2: float, c: float) -> ThresholdWelfare:
    """Quadrature counterpart of ``bayesian.welfare_thresholds``.

    Server 2's share is server 1's share with the roles swapped (the game
    is symmetric).
    """
    c = check_cost(c)
    t1, t2 = check_sigma(t1, "t1"), check_sigma(t2, "t2")
    s1 = _server1_share_by_regions(t1, t2, c)
    s2 = _server1_share_by_regions(t2, t1, c)
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


def threshold_activity(pair):
    """Array strategy 'active iff own p >= cutoff' for a (t1, t2) pair: boolean masks."""
    t1 = check_sigma(pair[0], "cutoff t1")
    t2 = check_sigma(pair[1], "cutoff t2")

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
    if callable(strategy):
        return strategy
    if isinstance(strategy, (tuple, list)) and len(strategy) == 2:
        return threshold_activity(strategy)
    raise TypeError(
        "strategy must be an array callable (p1, p2, c) -> (sigma1, sigma2), "
        "a (t1, t2) cutoff pair, or a scalar map wrapped by pointwise_strategy"
    )


def _checked_activity(sigma, shape):
    """``sigma`` as an array of ``shape`` and its mask of ones: itself if boolean,
    as the pure maps return, else None after a ValueError check of [0, 1]."""
    sigma = np.asarray(sigma)
    if sigma.shape != shape:
        sigma = np.broadcast_to(sigma, shape)
    if sigma.dtype == bool:
        return sigma, sigma
    return _check_unit_array(sigma, "strategy activity sigma"), None


def _checked_draws(draws, name: str):
    """Sampled types as a float array; ValueError if any is NaN or outside [0, 1]."""
    try:
        return _check_unit_array(np.asarray(draws, dtype=float), name)
    except ValueError as err:
        raise ValueError(f"sampled state not finite or outside [0, 1]: {err}") from None


def _block_welfare(activity, p1, p2, c, work, both_active):
    """Per-state welfare of ``activity`` on one block of draws: the sum of
    both servers' payoff-table entries for the profile played.

    Both servers' AA and AI entries are computed into the four rows of
    ``work``, and the lone-server and both-active sums formed in place;
    the welfare is returned in the row of server 1's AI.  With boolean
    activities each lone-server sum is scaled by its server's 0 or 1, and
    the both-active sum written where ``both_active``, a boolean row, holds:
    bit-identical to the bilinear mix of the same entries, which numeric
    activities take.
    """
    sigma1, sigma2 = activity(p1, p2, c)
    sigma1, ones1 = _checked_activity(sigma1, p1.shape)
    sigma2, ones2 = _checked_activity(sigma2, p2.shape)
    both, alone1, ia, _ = payoff_table(p1, p2, c, out=work[:2])
    aa2, alone2, ia2, _ = payoff_table(p2, p1, c, out=work[2:])
    # server 2's row lists its own action first: its IA is server 1's AI
    alone1 += ia2
    alone2 += ia
    both += aa2
    if ones1 is None or ones2 is None:
        alone1[...] = (
            sigma1 * sigma2 * both
            + sigma1 * (1.0 - sigma2) * alone1
            + (1.0 - sigma1) * sigma2 * alone2
        )
        return alone1
    alone1 *= sigma1
    alone2 *= sigma2
    alone1 += alone2
    np.logical_and(ones1, ones2, out=both_active)
    np.putmask(alone1, both_active, both)
    return alone1


def _draws(dist1, dist2, n: int, seed: int, u1, u2):
    """Yield mc_welfare's (p1, p2) in consecutive blocks of ``u1.size`` states.

    Uniform maps read the uniforms into ``u1`` and ``u2``; other samplers
    draw the whole run, checked a block at a time.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    rng = np.random.default_rng(seq)
    block = u1.size
    if dist1.uniform_map and dist2.uniform_map:
        rng2 = np.random.Generator(np.random.PCG64(seq).advance(n))
        for lo in range(0, n, block):
            m = min(block, n - lo)
            yield (
                dist1.uniform_map(rng.random(out=u1[:m])),
                dist2.uniform_map(rng2.random(out=u2[:m])),
            )
        return
    p1 = np.asarray(dist1.sample(rng, n), dtype=float)
    p2 = np.asarray(dist2.sample(rng, n), dtype=float)
    for lo in range(0, n, block):
        yield _checked_draws(p1[lo : lo + block], "p1"), _checked_draws(p2[lo : lo + block], "p2")


def _count(value, name: str, least: int) -> int:
    """``value`` as a Python int >= ``least``: a numpy integer is one, a bool
    or float is a TypeError and a smaller value a ValueError, naming ``name``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


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
    drawing all ``p1``, then all ``p2``.  If both distributions have a
    ``uniform_map``, ``p1`` comes from that generator and ``p2`` from a
    second on the same seed advanced by n, a block at a time into reused
    rows.  Other samplers draw the whole run, checked to lie in [0, 1].
    Each block of 2**14 states is drawn, handed to an array strategy once,
    turned into welfare and reduced before the next is drawn, so the
    strategy must act state by state, with activities in [0, 1]; the
    blocks fix the bits.  The draws and payoff entries of a block live in
    one workspace of six rows made once per call: with boolean activities
    no block allocates in the kernel, so the heap is not trimmed and
    refaulted block by block.
    """
    c = check_cost(c)
    n = _count(n, "n", 1)
    seed = _count(seed, "seed", 0)
    activity = _resolve_strategy(strategy)
    dist1 = dist1 or uniform_distribution()
    dist2 = dist2 or uniform_distribution()

    work = np.empty((6, min(n, _BLOCK)))
    both_active = np.empty(work.shape[1], dtype=bool)
    total = total_sq = 0.0
    for p1, p2 in _draws(dist1, dist2, n, seed, work[0], work[1]):
        m = p1.size
        w = _block_welfare(activity, p1, p2, c, work[2:, :m], both_active[:m])
        total += float(np.sum(w))
        # squared in place and summed pairwise: a BLAS dot (w @ w) may
        # split the sum across threads, so its bits depend on their count
        total_sq += float(np.sum(np.square(w, out=w)))
    mean = total / n
    if n > 1:
        variance = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        stderr = float(np.sqrt(variance / n))
    else:
        stderr = 0.0
    return Estimate(mean=mean, stderr=stderr, n=n, seed=seed)


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


def _check_state_map(strategy, c, p1, p2, eps, variant):
    p1, p2 = check_states(p1, p2)
    activity = _resolve_strategy(strategy)
    sigma1, sigma2 = (_checked_activity(sigma, p1.shape)[0] for sigma in activity(p1, p2, c))
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
    """Mean and standard error (numpy's ``mean`` and ``std(ddof=1)``, step by
    step) of each own type's whole row of gains against the opponent draws,
    the row filled a slice of draws at a time into a reused buffer."""
    opp_active = opp_draws >= t_opp
    means, ses = np.empty((2, p_grid.size))
    row, dev = np.empty((2, opp_draws.size))
    for k, p in enumerate(p_grid):
        for lo in range(0, row.size, _ROW_SLICE):
            part = slice(lo, lo + _ROW_SLICE)
            if_active, if_idle = _activity_gains(p, opp_draws[part], c, regulated)
            row[part] = np.where(opp_active[part], if_active, if_idle)
        means[k] = np.add.reduce(row) / row.size
        np.subtract(row, means[k], out=dev)
        np.multiply(dev, dev, out=dev)
        ses[k] = np.sqrt(np.add.reduce(dev) / (row.size - 1)) / np.sqrt(row.size)
    return means, ses


def _check_threshold_pair(pair, c, mode, eps, seed, regulated, dist, samples, p_step):
    t = (check_sigma(pair[0], "cutoff t1"), check_sigma(pair[1], "cutoff t2"))
    p_grid = np.linspace(0.0, 1.0, int(round(1.0 / p_step)) + 1)

    rng = np.random.default_rng(seed)
    dist = dist or uniform_distribution()
    gains = np.empty((2, p_grid.size))  # row k is server k + 1; positive = profitable switch
    ses = np.zeros((2, p_grid.size))
    for k in range(2):
        t_own, t_opp = t[k], t[1 - k]
        if mode == "analytic_quadrature":
            means = _interim_gains(p_grid, t_opp, c, regulated)
        else:
            draws = _checked_draws(dist.sample(rng, samples), f"p{2 - k}")
            means, ses[k] = _sampled_gain_moments(p_grid, draws, t_opp, c, regulated)
        gains[k] = np.where(p_grid >= t_own, -means, means)
    k, j = divmod(int(np.argmax(gains)), p_grid.size)  # server 1's row first: it wins ties
    max_gain = max(0.0, float(gains[k, j]))
    witness = (k + 1, float(p_grid[j]), max_gain) if max_gain > 0.0 else None
    if eps is None:
        se = ses[k, j] if witness else ses.max()  # at the witness, else the worst point
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
    p_step: float = 0.005,
    state_step: float = 0.02,
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
    those gains are exact, so eps defaults to 1e-6.  Cutoffs, states, sampled
    opponent types and the map's activities must lie in [0, 1] (ValueError
    otherwise, NaN included).  The own-type grid step ``p_step`` and the state
    grid step ``state_step`` must lie in (0, 0.5], and there must be a state
    to probe: ``sampled`` mode needs ``samples`` >= 2 for a cutoff pair.
    A given ``eps`` must be finite and >= 0.
    """
    c = check_cost(c)
    if mode not in ("analytic_quadrature", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    # NaN fails both comparisons
    if eps is not None and not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    # at most 0.5 so that every probed grid has at least three points
    for name, step in (("p_step", p_step), ("state_step", state_step)):
        if not 0.0 < step <= 0.5:
            raise ValueError(f"{name} must lie in (0, 0.5], got {step!r}")

    pair = isinstance(strategy, (tuple, list)) and not callable(strategy)
    # a cutoff pair's standard errors need two draws, a map one sampled state
    least = 2 if pair else 1
    if mode == "sampled" and (pair or states is None) and samples < least:
        raise ValueError(f"samples must be >= {least} for this sampled check, got {samples!r}")
    if pair:
        return _check_threshold_pair(strategy, c, mode, eps, seed, regulated, dist, samples, p_step)

    if states is not None:
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] != 2 or len(states) == 0:
            raise ValueError(
                f"states must be (p1, p2) pairs of shape (n, 2), n >= 1, got {states.shape}"
            )
    elif mode == "analytic_quadrature":
        side = np.linspace(0.0, 1.0, int(round(1.0 / state_step)) + 1)
        states = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        states = np.random.default_rng(seed).random((samples, 2))
    eps = 1e-6 if eps is None else eps
    return _check_state_map(strategy, c, states[:, 0], states[:, 1], eps, variant)
