"""Shared random generators and counters for the test suite.

All randomness flows through an explicit random.Random instance so
every test run sees the same cases.
"""

from __future__ import annotations

import random

from qcluster import (
    CommLaurent,
    ExchangeMatrix,
    QLaurent,
    QuantumSeed,
    SkewMatrix,
    TorusElement,
    principal_extension,
    principal_lambda,
)


def random_qlaurent(rng: random.Random, terms: int = 3, vexp: int = 4, coeff: int = 9):
    data = {}
    for _ in range(rng.randint(1, terms)):
        data[rng.randint(-vexp, vexp)] = rng.randint(-coeff, coeff)
    return QLaurent(data)


def random_nonzero_qlaurent(rng: random.Random, **kw) -> QLaurent:
    while True:
        f = random_qlaurent(rng, **kw)
        if f:
            return f


def random_skew(rng: random.Random, n: int, bound: int = 3) -> SkewMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-bound, bound)
            rows[i][j] = x
            rows[j][i] = -x
    return SkewMatrix(rows)


def random_vector(rng: random.Random, m: int, bound: int = 4) -> tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(m))


def random_torus_element(
    rng: random.Random,
    lam: SkewMatrix,
    terms: int = 3,
    exp_bound: int = 3,
    vexp: int = 2,
) -> TorusElement:
    data = []
    for _ in range(rng.randint(1, terms)):
        exp = random_vector(rng, lam.m, exp_bound)
        data.append((exp, random_qlaurent(rng, terms=2, vexp=vexp, coeff=5)))
    return TorusElement(lam, data)


def random_nonzero_torus_element(rng: random.Random, lam, **kw) -> TorusElement:
    while True:
        f = random_torus_element(rng, lam, **kw)
        if f:
            return f


def random_skew_symmetrizable(
    rng: random.Random, n: int, bound: int = 2
) -> list[list[int]]:
    """A random n x n matrix admitting a positive skew-symmetrizer.

    Entries stay within [-bound, bound]; the symmetrizer weights are
    drawn from {1, 2, 3}, so non-skew-symmetric outputs are common.
    """
    d = [rng.randint(1, 3) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # candidate (p, q) with d[i] p = -d[j] q and both within bound
            pairs = [(0, 0)]
            for p in range(1, bound + 1):
                q, r = divmod(d[i] * p, d[j])
                if r == 0 and q <= bound:
                    pairs.append((p, -q))
                    pairs.append((-p, q))
            p, q = pairs[rng.randrange(len(pairs))]
            rows[i][j] = p
            rows[j][i] = q
    return rows


def random_exchange_matrix(
    rng: random.Random, m: int, n: int, bound: int = 2
) -> ExchangeMatrix:
    """Random m x n exchange matrix with valid principal part."""
    principal = random_skew_symmetrizable(rng, n, bound)
    ex = sorted(rng.sample(range(m), n))
    pos = {k: j for j, k in enumerate(ex)}
    rows = []
    for i in range(m):
        if i in pos:
            rows.append(principal[pos[i]])
        else:
            rows.append([rng.randint(-bound, bound) for _ in range(n)])
    return ExchangeMatrix(rows, ex)


def random_principal_quantum_seed(
    rng: random.Random, n: int, bound: int = 2
) -> QuantumSeed:
    """Quantum seed with principal coefficients over a random B."""
    bmat = random_skew_symmetrizable(rng, n, bound)
    lam0 = random_skew(rng, n, bound)
    lam = principal_lambda(bmat, lam0)
    return QuantumSeed.initial(principal_extension(bmat), lam)


A2_ROWS = [[0, 1], [-1, 0]]
A3_ROWS = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]


def count_divisions(monkeypatch) -> list:
    """The divisors of every exchange-step division from here on.

    Wraps CommLaurent.exact_div and TorusElement.exact_div_right, the two
    divisions the exchange step calls; monkeypatch undoes it.
    """
    divisors: list = []
    for cls, attr in ((CommLaurent, "exact_div"), (TorusElement, "exact_div_right")):
        divide = cls.__dict__[attr]

        def counting(self, g, divide=divide):
            divisors.append(g)
            return divide(self, g)

        monkeypatch.setattr(cls, attr, counting)
    return divisors


def captured_tables(monkeypatch) -> list:
    """Every table of met variables and proved exchanges that explore and
    laurent_report start from here on, in call order; monkeypatch undoes it."""
    import qcluster.explorer

    tables: list = []
    exchanges = qcluster.explorer._Exchanges

    def capturing(vars):
        tables.append(exchanges(vars))
        return tables[-1]

    monkeypatch.setattr(qcluster.explorer, "_Exchanges", capturing)
    return tables


def proved(table) -> list:
    """The proved exchanges filed in a table: (quotient, the objects keyed) pairs."""
    return list(table.proved.values())


def count_numerators(monkeypatch) -> list:
    """The variables of every exchange numerator built from here on, one entry per numerator.

    Each numerator is the sum of two ordered products (mutation._ordered_product).
    """
    import qcluster.mutation

    products: list = []
    product = qcluster.mutation._ordered_product

    def counting(vars, g):
        products.append(vars)
        return product(vars, g)

    monkeypatch.setattr(qcluster.mutation, "_ordered_product", counting)
    return products
