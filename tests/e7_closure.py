"""Classical E7 closure check, too slow for the tier-1 suite (a few seconds).

Explores the bipartite E7 seed with no caps and exits non-zero unless the
exchange graph is Closed with 4,160 seeds and the denominator vectors of
its cluster variables are the 63 positive and the 7 negative simple roots
(Fomin-Zelevinsky, Invent. Math. 154, 2003, Thm 1.9).  Prints its wall
time.  The file name keeps pytest from collecting it; run it from the
repository root:

    PYTHONPATH=src python tests/e7_closure.py
"""

import sys
import time

from qcluster import ClassicalSeed, ExchangeMatrix, GraphStatus, explore

from oracles import positive_roots

N = 7
# the chain 0 - 1 - ... - 5 with node 6 joined to node 2
BONDS = [(i, i + 1) for i in range(5)] + [(2, 6)]
CARTAN = [[2 if i == j else 0 for j in range(N)] for i in range(N)]
for i, j in BONDS:
    CARTAN[i][j] = CARTAN[j][i] = -1
# the tree is bipartite: nodes 0, 2 and 4 are sources, the rest sinks
SIGN = [1, -1, 1, -1, 1, -1, -1]
ROWS = [[0 if i == j else -SIGN[i] * CARTAN[i][j] for j in range(N)] for i in range(N)]


def main() -> int:
    start = time.perf_counter()
    graph = explore(ClassicalSeed.initial(ExchangeMatrix(ROWS)), max_seeds=None, max_depth=None)
    seconds = time.perf_counter() - start
    d_vectors = {
        tuple(-x for x in seed.vars[k].min_exponents())
        for seed in graph.nodes.values()
        for k in seed.ex
    }
    roots = positive_roots(CARTAN)
    negative_simple = {tuple(-int(i == j) for j in range(N)) for i in range(N)}
    print(f"E7: {graph.status.value}, {graph.node_count} seeds, {len(d_vectors)} d-vectors "
          f"({len(roots)} positive roots) in {seconds:.2f} s")
    ok = (
        graph.status is GraphStatus.CLOSED
        and graph.node_count == 4160
        and len(roots) == 63
        and d_vectors == roots | negative_simple
    )
    if not ok:
        print("E7 closure check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
