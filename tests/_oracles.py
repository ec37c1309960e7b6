"""Independent oracles shared by the test modules."""


def bfs_oracle(graph, src, dst, cap):
    """Plain one-directional BFS, no pruning: the independent distance
    oracle for small instances."""
    if src == dst:
        return 0
    dist = {src: 0}
    frontier = [src]
    for r in range(cap):
        nxt = []
        for v in frontier:
            for w in graph.neighbors(v):
                if w == dst:
                    return r + 1
                if w not in dist:
                    dist[w] = r + 1
                    nxt.append(w)
        frontier = nxt
    return None
