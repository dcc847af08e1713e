"""Independent correctness oracle: networkx's maximal-clique finder.

The program's answer for ``(graph, k_min)`` is every maximal clique of
size at least ``k_min``; networkx's ``find_cliques`` (a separate
Bron–Kerbosch implementation) filtered by size gives the same set.
Run it only outside timed regions: it costs tenths of a second per
graph.
"""

from __future__ import annotations

from common import cliques_digest


class Oracle:
    """Digests of the reference answer, memoised per graph object."""

    def __init__(self) -> None:
        self._cliques: dict[int, tuple[object, list[tuple[int, ...]]]] = {}
        self._digests: dict[tuple[int, int], str] = {}

    def _all_cliques(self, g) -> list[tuple[int, ...]]:
        entry = self._cliques.get(id(g))
        if entry is None or entry[0] is not g:
            import networkx as nx

            ng = nx.Graph()
            ng.add_nodes_from(range(g.n))
            ng.add_edges_from(g.edges())
            cliques = [tuple(sorted(c)) for c in nx.find_cliques(ng)]
            entry = (g, cliques)
            self._cliques[id(g)] = entry
        return entry[1]

    def digest(self, g, k_min: int) -> str:
        cliques = self._all_cliques(g)  # pins g, so id(g) stays unique
        key = (id(g), k_min)
        if key not in self._digests:
            self._digests[key] = cliques_digest(
                c for c in cliques if len(c) >= k_min
            )
        return self._digests[key]

    def check(self, g, k_min: int, cliques) -> bool:
        """True when ``cliques`` is exactly the reference answer."""
        return cliques_digest(cliques) == self.digest(g, k_min)
