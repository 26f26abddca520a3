"""Regenerate cubic10.json: the 17 connected non-bipartite cubic graphs on
10 vertices, one per isomorphism class.

There are 19 connected cubic graphs on 10 vertices (OEIS A002851), two of
them bipartite.  Random cubic graphs are drawn until every class has been
seen; classes are told apart with networkx.is_isomorphic.  The drawing
order is fixed, so the file is reproducible:

    python3 perfbench/make_cubic10.py
"""

import json
import random
from pathlib import Path

import networkx as nx

CONNECTED_CLASSES = 19


def main() -> None:
    rng = random.Random(0)
    classes: list[nx.Graph] = []
    while len(classes) < CONNECTED_CLASSES:
        g = nx.random_regular_graph(3, 10, seed=rng.randrange(1 << 30))
        if nx.is_connected(g) and not any(nx.is_isomorphic(g, h) for h in classes):
            classes.append(g)
    graphs = [sorted(tuple(sorted(e)) for e in g.edges()) for g in classes if not nx.is_bipartite(g)]
    text = "[\n" + ",\n".join(json.dumps(edges) for edges in graphs) + "\n]\n"
    (Path(__file__).parent / "cubic10.json").write_text(text)


if __name__ == "__main__":
    main()
