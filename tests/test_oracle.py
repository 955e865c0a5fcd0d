"""The dense kernels against SciPy, an independent oracle.

Pairs are random (a, b) with n = 2..10 and p = 1..3 that pass the Kalman
rank test, with no conditioning filter; (a.T, b.T) is then an observable pair
for the observer gain. Every solution a kernel returns must agree with SciPy:
within 1e-9 relative for the Riccati-based kernels, whose conditioning
varies, and within 1e-14 times the condition number of the linear operator
for the linear and Lyapunov solves.

SciPy is only a test-time oracle; the package does not depend on it.
"""

import numpy as np
import pytest

from contain.matlib import (
    NoConvergence,
    Singular,
    care_solve,
    is_controllable,
    lyap_solve,
    solve_linear,
)
from contain.synthesis import solve_observer_L, solve_P

linalg = pytest.importorskip("scipy.linalg")


def random_pairs(seed, count=40):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(2, 11))
        p = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, p))
        if is_controllable(a, b):
            pairs.append((a, b))
    return pairs


PAIRS = random_pairs(2024)


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def scipy_care(a, b):
    return linalg.solve_continuous_are(a, b, np.eye(a.shape[0]), np.eye(b.shape[1]))


RICCATI_KERNELS = {
    "care_solve": (lambda a, b: care_solve(a, b, np.eye(a.shape[0])), scipy_care),
    "solve_P": (solve_P, lambda a, b: np.linalg.inv(scipy_care(a, b))),
    # the dual design: observing (a.T, c = b.T) solves the Riccati equation of (a, b)
    "solve_observer_L": (lambda a, b: solve_observer_L(a.T, b.T),
                         lambda a, b: -scipy_care(a, b) @ b),
}


@pytest.mark.parametrize("name", RICCATI_KERNELS)
def test_riccati_kernels_match_scipy(name):
    kernel, oracle = RICCATI_KERNELS[name]
    returned = 0
    for a, b in PAIRS:
        try:
            got = kernel(a, b)
        except (Singular, NoConvergence):
            continue  # a loud failure, counted by the xfail below
        returned += 1
        assert relative_error(got, oracle(a, b)) <= 1e-9, (a, b)
    assert returned >= 38


@pytest.mark.xfail(strict=True, raises=NoConvergence, reason=(
    "care_solve raises NoConvergence on 2 of these 40 pairs, which SciPy solves: "
    "on PAIRS[1] (n = 10) and PAIRS[14] (n = 7) the Riccati residual stalls at "
    "1.25e-8 and 7.3e-9, above stopping bounds near 4e-9 and 3e-9"
))
def test_care_solve_solves_every_pair_scipy_solves():
    for a, b in PAIRS:
        care_solve(a, b, np.eye(a.shape[0]))


def test_lyap_solve_matches_scipy():
    for a, b in PAIRS:
        n = a.shape[0]
        q = b @ b.T + np.eye(n)
        operator = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
        want = linalg.solve_continuous_lyapunov(a, -q)
        assert relative_error(lyap_solve(a, q), want) <= 1e-14 * np.linalg.cond(operator)


def test_solve_linear_matches_scipy():
    for a, b in PAIRS:
        want = linalg.solve(a, b)
        assert relative_error(solve_linear(a, b), want) <= 1e-14 * np.linalg.cond(a)
