"""The four benchmark workloads: input generators, one operation each, output checks.

Each workload hands out batches of operations (``next_batch``), runs one
operation against servergame's public API (``run``) and checks a batch of
outputs (``check``), returning how many of them failed.  An operation that
raised arrives at ``check`` as the exception and counts as failed.  Checks
are never skipped or retried.  All inputs come from the workload seed; the
program only ever sees the generated values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np

from servergame import bayesian, cli, cooperative, full_info, oracle
from servergame.payoffs import State

# ``verify`` runs the CLI's Monte Carlo battery at the README's seed.  The
# battery holds twenty checks at three standard errors each, so about one
# seed in thirteen fails one of them by chance (9 of seeds 0-119 when this
# benchmark was defined).  A seed-derived S would make pass/fail a property
# of the seed rather than of the program; the cost of an op does not
# depend on S.
VERIFY_ARGV = ("verify", "--samples", "1000000", "--seed", "42")

SWEEP_ARGV = ("sweep", "--c-step", "0.0001")
# SHA-256 of `servergame sweep --c-step 0.0001 --format <fmt>` (10,001 rows)
# recorded when the benchmark was defined; sweep output is closed-form and
# must stay byte-identical.
SWEEP_SHA256 = {
    "csv": "6595830e2d2ec89533ffa8e47f0b995f019429711d6fee320ceb6773c83e89d0",
    "json": "9131729a7602b242f17d8900d3a3cdb5d5ce7812c34aefb26b84af3fbb9f468f",
}

STATE_BATCH = 256  # states drawn per cost c, and checked together
BOUNDARY_SHARE = 0.25  # share of each batch placed within a few ulp of a boundary
BOUNDARY_KINDS = ("abs_diff_eq_c", "max_eq_c", "max_eq_half_c", "p1_eq_p2")
MAX_ULPS = 4

SAMPLED_EVERY = 32  # one oracle_probe op in 32 runs the sampled deviation check
# The sampled deviation check is a three-standard-error test at the worst of
# 402 grid points, so at a true equilibrium it alarms by chance in about one
# case in 300 (2 of 600 random cases; e.g. c = 0.8382621425488382,
# unregulated, seed 213415625 reports a gain of 1.004 eps).  Like ``verify``,
# the sampled ops therefore take their (c, seed) in turn from the cases the
# test suite pins as passing; the cost of the check does not depend on them.
SAMPLED_CASES = ((0.25, 5), (0.49, 3))

WELFARE_TOL = 1e-12
BEST_RESPONSE_TOL = 1e-3
QUADRATURE_TOL = 1e-10


def _capture_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class Verify:
    """`servergame verify --samples 1000000`: Monte Carlo dominates."""

    name = "verify"

    def __init__(self, seed: int):
        self.reference = None

    def properties(self) -> dict:
        return {"argv": list(VERIFY_ARGV)}

    def next_batch(self) -> list:
        return [VERIFY_ARGV]

    def run(self, argv):
        return _capture_cli(argv)

    def check(self, batch, outputs) -> int:
        failed = 0
        for out in outputs:
            if isinstance(out, BaseException):
                failed += 1
                continue
            code, text = out
            if self.reference is None:
                self.reference = text
            failed += not (code == 0 and text == self.reference)
        return failed


class Sweep:
    """`servergame sweep --c-step 0.0001`: per-row closed forms and rendering."""

    name = "sweep"

    def __init__(self, seed: int):
        pass

    def properties(self) -> dict:
        return {"argv": list(SWEEP_ARGV), "formats": ["csv", "json"]}

    def next_batch(self) -> list:
        # both formats in every batch, so a run holds as many ops of each and
        # its median does not flip between the two with the op count's parity
        return ["csv", "json"]

    def run(self, fmt):
        return fmt, _capture_cli(SWEEP_ARGV + ("--format", fmt))

    def check(self, batch, outputs) -> int:
        failed = 0
        for out in outputs:
            if isinstance(out, BaseException):
                failed += 1
                continue
            fmt, (code, text) = out
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            failed += not (code == 0 and digest == SWEEP_SHA256[fmt])
        return failed


def boundary_states(rng: np.random.Generator, size: int, share: float):
    """One cost and ``size`` states, ``round(size * share)`` of them on a boundary.

    Boundary states sit within ``MAX_ULPS`` ulp of ``|p1 - p2| = c``,
    ``max = c``, ``max = c/2`` or ``p1 = p2``, in equal numbers; the rest are
    uniform on the unit square.  Returns ``(c, p1, p2, kind)`` where ``kind``
    is 0 for interior states and ``1 + BOUNDARY_KINDS.index(...)`` otherwise.
    """
    c = float(rng.uniform(0.02, 0.98))
    p1 = rng.random(size)
    p2 = rng.random(size)
    kind = np.zeros(size, dtype=np.int64)
    n_boundary = round(size * share)
    kind[rng.choice(size, n_boundary, replace=False)] = 1 + np.arange(n_boundary) % 4

    on = kind == 1  # |p1 - p2| = c
    p2[on] *= 1.0 - c
    p1[on] = p2[on] + c
    on = kind == 2  # max = c
    p1[on] = c
    p2[on] *= c
    on = kind == 3  # max = c/2
    p1[on] = c / 2.0
    p2[on] *= c / 2.0
    on = kind == 4  # p1 = p2
    p2[on] = p1[on]

    swap = (kind > 0) & (rng.random(size) < 0.5)
    p1[swap], p2[swap] = p2[swap], p1[swap]
    for p in (p1, p2):
        ulps = np.where(kind > 0, rng.integers(-MAX_ULPS, MAX_ULPS + 1, size), 0)
        p += ulps * np.spacing(p)
        np.clip(p, 0.0, 1.0, out=p)
    return c, p1, p2, kind


def _table_welfare(p1, p2, s1, s2, c):
    """Total payoff of a (mixed) profile, straight from the payoff table."""
    best = np.maximum(p1, p2)
    return (
        s1 * s2 * (2.0 * best - 2.0 * c)
        + s1 * (1.0 - s2) * (2.0 * p1 - c)
        + (1.0 - s1) * s2 * (2.0 * p2 - c)
    )


def _fixed_profiles(sigma1, sigma2):
    """Array strategy that returns recorded profiles for the checked states."""

    def activity(p1, p2, c):
        if np.shape(p1) != np.shape(sigma1):
            raise ValueError("profile lookup called with other states than recorded")
        return sigma1, sigma2

    return activity


class StateQueries:
    """The scalar API one state at a time, a quarter of states on a boundary."""

    name = "state_queries"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.kind_counts = [0] * (1 + len(BOUNDARY_KINDS))

    def properties(self) -> dict:
        total = sum(self.kind_counts)
        boundary = total - self.kind_counts[0]
        return {
            "batch": STATE_BATCH,
            "boundary_share_target": BOUNDARY_SHARE,
            "boundary_share": boundary / total if total else 0.0,
            "boundary_states": dict(zip(BOUNDARY_KINDS, self.kind_counts[1:])),
            "interior_states": self.kind_counts[0],
        }

    def next_batch(self) -> list:
        c, p1, p2, kind = boundary_states(self.rng, STATE_BATCH, BOUNDARY_SHARE)
        for k in kind.tolist():
            self.kind_counts[k] += 1
        return [(a, b, c) for a, b in zip(p1.tolist(), p2.tolist())]

    def run(self, op):
        p1, p2, c = op
        s = State(p1, p2)
        eq_set = full_info.classify_state(s, c)
        best = full_info.select_equilibrium(s, c, "max_welfare")
        worst = full_info.select_equilibrium(s, c, "min_welfare")
        regulated = full_info.regulated_equilibrium(s, c)
        optimal = cooperative.optimal_profile(s, c)
        welfare = cooperative.pointwise_welfare(s, best, c)
        regulated_welfare = cooperative.pointwise_welfare(
            s, regulated, c, variant="case3_reg"
        )
        return eq_set, best, worst, regulated, optimal, welfare, regulated_welfare

    def check(self, batch, outputs) -> int:
        good = [i for i, out in enumerate(outputs) if not isinstance(out, BaseException)]
        if not good:
            return len(batch)
        c = batch[0][2]
        p1 = np.array([batch[i][0] for i in good])
        p2 = np.array([batch[i][1] for i in good])
        rows = [outputs[i] for i in good]
        prof = {
            name: (
                np.array([float(r[k].sigma1) for r in rows]),
                np.array([float(r[k].sigma2) for r in rows]),
            )
            for k, name in ((1, "best"), (2, "worst"), (3, "regulated"), (4, "optimal"))
        }
        welfare = np.array([r[5] for r in rows], dtype=float)
        regulated_welfare = np.array([r[6] for r in rows], dtype=float)

        def w(name):
            return _table_welfare(p1, p2, *prof[name], c)

        pure_best = np.maximum.reduce(
            [2.0 * np.maximum(p1, p2) - 2.0 * c, 2.0 * p1 - c, 2.0 * p2 - c, np.zeros_like(p1)]
        )
        passed = (
            (np.abs(welfare - w("best")) <= WELFARE_TOL)
            & (np.abs(regulated_welfare - w("regulated")) <= WELFARE_TOL)
            # the side payment restores the cooperative optimum
            & (np.abs(regulated_welfare - w("optimal")) <= WELFARE_TOL)
            & (w("optimal") >= pure_best - WELFARE_TOL)
        )
        # selected equilibria must be members of the classified set
        for j, r in enumerate(rows):
            pure = {(a1.sigma, a2.sigma) for a1, a2 in r[0].pure_equilibria}
            if (r[1].sigma1, r[1].sigma2) not in pure or (r[2].sigma1, r[2].sigma2) not in pure:
                passed[j] = False

        # no profitable unilateral deviation, per the oracle's exact pointwise gains
        mixed = [j for j, r in enumerate(rows) if r[0].mixed is not None]
        probes = [
            (np.arange(len(rows)), prof["best"], "unregulated"),
            (np.arange(len(rows)), prof["worst"], "unregulated"),
            (np.arange(len(rows)), prof["regulated"], "case3_reg"),
        ]
        if mixed:
            sig = np.array([rows[j][0].mixed for j in mixed], dtype=float)
            probes.append((np.array(mixed), (sig[:, 0], sig[:, 1]), "unregulated"))
        for idx, (s1, s2), variant in probes:
            passed[idx] &= self._deviation_free(p1[idx], p2[idx], s1, s2, c, variant)
        return len(batch) - int(np.sum(passed))

    @staticmethod
    def _deviation_free(p1, p2, s1, s2, c, variant):
        """Per-state pass flags; one oracle call per batch, per state only on failure."""

        def probe(a, b, x, y):
            states = np.column_stack([a, b])
            report = oracle.epsilon_nash_check(
                _fixed_profiles(x, y), c, states=states, variant=variant
            )
            return report.passed

        if probe(p1, p2, s1, s2):
            return np.ones(p1.size, dtype=bool)
        return np.array(
            [probe(p1[i : i + 1], p2[i : i + 1], s1[i : i + 1], s2[i : i + 1]) for i in range(p1.size)]
        )


class OracleProbe:
    """Quadrature, grid search and deviation probing on seeded cutoff cases."""

    name = "oracle_probe"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.count = 0
        self.sampled = 0

    def properties(self) -> dict:
        return {
            "sampled_every": SAMPLED_EVERY,
            "sampled_ops": self.sampled,
            "sampled_share": self.sampled / self.count if self.count else 0.0,
        }

    def next_batch(self) -> list:
        # a round of SAMPLED_EVERY cases whose last runs the sampled check, so
        # every batch costs about the same and a batch mean is a steady figure
        batch = []
        for _ in range(SAMPLED_EVERY - 1):
            t_opp, c = self.rng.random(), self.rng.uniform(0.01, 0.99)
            regulated = bool(self.rng.random() < 0.5)
            seed = int(self.rng.integers(2**31))
            batch.append((float(t_opp), float(c), regulated, "analytic_quadrature", seed))
        c, seed = SAMPLED_CASES[self.sampled % len(SAMPLED_CASES)]
        batch.append((float(self.rng.random()), c, False, "sampled", seed))
        self.count += SAMPLED_EVERY
        self.sampled += 1
        return batch

    def run(self, op):
        t_opp, c, regulated, mode, seed = op
        grid = oracle.grid_best_response(t_opp, c, regulated=regulated)
        best_response = bayesian.best_response_threshold(t_opp, c, regulated=regulated)
        by_quadrature = oracle.threshold_welfare_by_quadrature(t_opp, best_response, c)
        closed_form = bayesian.welfare_thresholds(t_opp, best_response, c)
        report = oracle.epsilon_nash_check(
            bayesian.nash_threshold(c, regulated=regulated),
            c,
            mode=mode,
            seed=seed,
            regulated=regulated,
        )
        return grid, best_response, by_quadrature, closed_form, report

    def check(self, batch, outputs) -> int:
        failed = 0
        for out in outputs:
            if isinstance(out, BaseException):
                failed += 1
                continue
            grid, best_response, by_quadrature, closed_form, report = out
            passed = (
                abs(grid - best_response) <= BEST_RESPONSE_TOL
                and all(
                    abs(q - w) <= QUADRATURE_TOL for q, w in zip(by_quadrature, closed_form)
                )
                and report.passed
            )
            failed += not passed
        return failed


WORKLOADS = {w.name: w for w in (Verify, Sweep, StateQueries, OracleProbe)}
