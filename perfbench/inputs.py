"""Seeded input generation, written without the package under test.

A corona tree is a random labeled tree (decoded from a random sequence) with
one pendant leaf added to every vertex.  Every support then has exactly one
leaf, so a corona tree is always prime.
"""

from __future__ import annotations

import hashlib
import heapq
import random


def sequence_tree(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on 0..n-1 with the given sequence (length n-2)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return edges


def corona(k: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A random tree on k >= 2 vertices plus one pendant leaf per vertex (2k vertices).

    Vertex k + v is the pendant leaf of base vertex v.
    """
    base = sequence_tree([rng.randrange(k) for _ in range(k - 2)], k)
    return 2 * k, base + [(v, k + v) for v in range(k)]


def relabel(
    n: int, edges: list[tuple[int, int]], rng: random.Random
) -> tuple[list[tuple[int, int]], list[int]]:
    """The same tree under a random permutation of ids; perm[old] = new."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges], perm


def edge_list_text(n: int, edges, labels: dict[str, int] | None = None) -> str:
    """The package's edge-list text format: annotations, n, one edge per line."""
    lines = []
    if labels:
        lines.append("# labels: " + " ".join(f"{name}={v}" for name, v in labels.items()))
    lines.append(str(n))
    lines.extend(f"{min(u, v)} {max(u, v)}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def digest(*parts) -> str:
    """Short stable fingerprint of input data, to show what a seed changes."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]
