"""Independent referee for bipartite instances, in plain Python.

Maximum-weight l-matchings for every l at once by successive shortest
augmenting paths: costs are negated weights, and augmenting one unit at a
time along a cheapest path (Bellman-Ford, since costs are negative)
yields a minimum-cost flow of every value l in turn.  It shares no code
with the package, and unlike the package's brute-force oracle it is not
capped at side 8.
"""

from collections import deque


def max_weight_matchings(n, edges, weights):
    """(Delta_0, ..., Delta_n) with None for sizes no matching reaches."""
    # nodes: 0 source, 1..n rows, n+1..2n columns, 2n+1 sink
    source, sink = 0, 2 * n + 1
    head, cap, cost, adj = [], [], [], [[] for _ in range(2 * n + 2)]

    def arc(u, v, c):
        for a, b, w in ((u, v, c), (v, u, -c)):
            adj[a].append(len(head))
            head.append(b)
            cap.append(1 if a == u else 0)
            cost.append(w)

    for i in range(n):
        arc(source, 1 + i, 0)
        arc(n + 1 + i, sink, 0)
    for (i, j), w in zip(edges, weights):
        arc(1 + i, n + 1 + j, -w)

    values = [0]
    total = 0
    nodes = 2 * n + 2
    for _ in range(n):
        # queue-based Bellman-Ford; the residual graph of a minimum-cost
        # flow has no negative cycle, so this terminates
        dist = [None] * nodes
        via = [-1] * nodes
        queued = [False] * nodes
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            queued[u] = False
            du = dist[u]
            for a in adj[u]:
                v = head[a]
                if cap[a] and (dist[v] is None or du + cost[a] < dist[v]):
                    dist[v] = du + cost[a]
                    via[v] = a
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
        if dist[sink] is None:
            break
        v = sink
        while v != source:
            a = via[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = head[a ^ 1]
        total += dist[sink]
        values.append(-total)
    return tuple(values + [None] * (n + 1 - len(values)))
