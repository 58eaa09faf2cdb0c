import random

import pytest

from commoncover import families
from commoncover.graphs import Graph


@pytest.fixture
def c3():
    return families.cycle(3)


@pytest.fixture
def c4():
    return families.cycle(4)


@pytest.fixture
def k4():
    return families.complete(4)


@pytest.fixture
def theta3():
    return families.theta(3)


def lollipop() -> Graph:
    """One loop plus one pendant edge (degrees 3 and 1)."""
    return Graph(
        ["v00", "v01"],
        ["l.a", "l.b", "p.a", "p.b"],
        {"l.a": "v00", "l.b": "v00", "p.a": "v00", "p.b": "v01"},
        {"l.a": "l.b", "l.b": "l.a", "p.a": "p.b", "p.b": "p.a"},
    )


def bfs_atoms(sys, dart) -> set:
    """Serials of the atoms reached from the identity atom at the dart by
    breadth-first search under the arrow action.

    This computes the orbit without the one-step rule of
    ``LocalSystem.atoms_by_anchor`` and serves as its reference.
    """
    start = sys.identity_atom(dart)
    seen = {sys.atom_serial(start)}
    frontier = [start]
    while frontier:
        atom = frontier.pop()
        for arrow in sys.groupoid.by_source.get(sys.eps(atom), ()):
            nxt = sys.act(arrow, atom)
            key = sys.atom_serial(nxt)
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
    return seen


def random_base_graph(rng: random.Random, max_vertices: int = 8,
                      max_degree: int = 4) -> Graph:
    """Connected multigraph with bounded degree (loops and parallels allowed)."""
    n = rng.randint(2, max_vertices)
    vertices = ["v%02d" % i for i in range(n)]
    edges = []
    degree = {v: 0 for v in vertices}
    for i in range(1, n):
        mate = rng.randrange(i)
        edges.append((vertices[i], vertices[mate]))
        degree[vertices[i]] += 1
        degree[vertices[mate]] += 1
    extra = rng.randint(0, n)
    for _ in range(extra):
        pool = [v for v in vertices if degree[v] <= max_degree - 1]
        if not pool:
            break
        u = rng.choice(pool)
        if degree[u] <= max_degree - 2 and rng.random() < 0.2:
            edges.append((u, u))
            degree[u] += 2
            continue
        pool2 = [v for v in pool if v != u]
        if not pool2:
            continue
        w = rng.choice(pool2)
        edges.append((u, w))
        degree[u] += 1
        degree[w] += 1
    darts, origin, reverse = [], {}, {}
    for k, (u, w) in enumerate(edges):
        a, b = "e%02d.a" % k, "e%02d.b" % k
        darts += [a, b]
        origin[a], origin[b] = u, w
        reverse[a], reverse[b] = b, a
    return Graph(vertices, darts, origin, reverse)
