"""Integer difference logic (IDL) theory solver.

Every theory atom Canary produces — strict order atoms ``O_a < O_b``
(paper Eq. 2/4), and branch comparisons against constants — normalizes to a
difference bound ``x - y <= c`` (a distinguished *zero* variable stands in
for the constant side).  A conjunction of difference bounds is satisfiable
iff the corresponding weighted constraint graph has no negative cycle, so
consistency checking is a shortest-path computation and an unsatisfiable
core is exactly the set of bounds on one negative cycle.  This is the
textbook reduction used inside real SMT solvers (and by extension, inside
the Z3 backend the paper uses for its order constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from .terms import (
    Add,
    BoolTerm,
    Eq,
    IntConst,
    IntTerm,
    IntVar,
    Le,
    Lt,
    Not,
    Sub,
)

__all__ = [
    "DifferenceBound",
    "normalize_atom",
    "negate_bound",
    "DifferenceLogicSolver",
    "IncrementalBoundStore",
    "ZERO_NAME",
]

#: Name of the implicit variable fixed at 0 used to express unary bounds.
ZERO_NAME = "$zero"


@dataclass(frozen=True)
class DifferenceBound:
    """The constraint ``x - y <= c`` over integer variables ``x`` and ``y``."""

    x: str
    y: str
    c: int

    def pretty(self) -> str:
        return f"{self.x} - {self.y} <= {self.c}"


def _linearize(t: IntTerm) -> Tuple[Dict[str, int], int]:
    """Decompose an integer term into variable coefficients and a constant."""
    coeffs: Dict[str, int] = {}
    const = 0
    stack: List[Tuple[IntTerm, int]] = [(t, 1)]
    while stack:
        term, sign = stack.pop()
        if isinstance(term, IntConst):
            const += sign * term.value
        elif isinstance(term, IntVar):
            coeffs[term.name] = coeffs.get(term.name, 0) + sign
        elif isinstance(term, Add):
            stack.append((term.lhs, sign))
            stack.append((term.rhs, sign))
        elif isinstance(term, Sub):
            stack.append((term.lhs, sign))
            stack.append((term.rhs, -sign))
        else:  # pragma: no cover - defensive
            raise ValueError(f"non-linear integer term: {term!r}")
    return {v: k for v, k in coeffs.items() if k != 0}, const


#: per interned atom: its bounds, None (not a comparison) or _OUTSIDE
_bounds_cache: Dict[BoolTerm, object] = {}
_OUTSIDE = object()
_MISSING = object()


def normalize_atom(atom: BoolTerm) -> Optional[Tuple[DifferenceBound, ...]]:
    """Normalize a comparison atom to difference bounds (conjunction).

    Returns ``None`` when the atom is not a difference-logic comparison
    (e.g. an opaque boolean variable).  ``Eq`` produces two bounds; ``Le``
    and ``Lt`` produce one.  Raises :class:`ValueError` for comparisons
    that fall outside the difference fragment (more than two variables or
    non-unit coefficients), which Canary never generates.

    Terms are interned, so the answer is memoized per atom: the same
    order atoms recur in every theory round of every sibling query.
    """
    cached = _bounds_cache.get(atom, _MISSING)
    if cached is _MISSING:
        try:
            cached = _normalize(atom)
        except ValueError:
            cached = _OUTSIDE
        _bounds_cache[atom] = cached
    if cached is _OUTSIDE:
        raise ValueError(f"comparison outside difference logic: {atom!r}")
    return cached  # type: ignore[return-value]


def _normalize(atom: BoolTerm) -> Optional[Tuple[DifferenceBound, ...]]:
    if isinstance(atom, Not):
        raise ValueError("normalize_atom expects a positive atom")
    if isinstance(atom, Le):
        return (_bound_from(atom.lhs, atom.rhs, slack=0),)
    if isinstance(atom, Lt):
        return (_bound_from(atom.lhs, atom.rhs, slack=-1),)
    if isinstance(atom, Eq):
        return (
            _bound_from(atom.lhs, atom.rhs, slack=0),
            _bound_from(atom.rhs, atom.lhs, slack=0),
        )
    return None


def _bound_from(lhs: IntTerm, rhs: IntTerm, slack: int) -> DifferenceBound:
    """``lhs <= rhs + slack`` as a difference bound."""
    coeffs, const = _linearize(lhs)
    rcoeffs, rconst = _linearize(rhs)
    for v, k in rcoeffs.items():
        coeffs[v] = coeffs.get(v, 0) - k
    coeffs = {v: k for v, k in coeffs.items() if k != 0}
    c = rconst - const + slack
    pos = [v for v, k in coeffs.items() if k == 1]
    neg = [v for v, k in coeffs.items() if k == -1]
    if any(abs(k) > 1 for k in coeffs.values()) or len(pos) > 1 or len(neg) > 1:
        raise ValueError(f"comparison outside difference logic: {coeffs} <= {c}")
    x = pos[0] if pos else ZERO_NAME
    y = neg[0] if neg else ZERO_NAME
    return DifferenceBound(x, y, c)


def negate_bound(b: DifferenceBound) -> DifferenceBound:
    """``not (x - y <= c)``  is  ``y - x <= -c - 1`` over the integers."""
    return DifferenceBound(b.y, b.x, -b.c - 1)


class IncrementalBoundStore:
    """Push/pop store of difference bounds with *incremental* consistency.

    The non-incremental check (:func:`repro.smt.simplify.quick_unsat`)
    re-runs Bellman-Ford over the whole conjunction for every candidate
    path, which is O(V·E) per query.  This store instead maintains a
    feasible potential function ``dist`` across assertions: adding the
    bound ``x - y <= c`` only triggers label-correcting relaxation from
    ``x`` when the new edge is violated, so the common case (the new
    guard is compatible) costs O(out-edges of the touched region) — the
    per-edge cost the mid-DFS pruner needs.

    Infeasibility is detected the standard incremental way: the store is
    consistent before each assertion, so a negative cycle must pass
    through the new edge, and during relaxation some node then relaxes
    more than |V| times.  Frames snapshot the touched potentials, so
    ``pop`` restores the exact pre-push state in time proportional to
    the work the push did.
    """

    def __init__(self) -> None:
        # adjacency: y -> [(x, c)] for each bound  x - y <= c
        self._edges: Dict[str, List[Tuple[str, int]]] = {}
        self._dist: Dict[str, int] = {}
        #: frames: (edge-sources added, first-touch dist snapshot, new nodes)
        self._frames: List[Tuple[List[str], Dict[str, int], List[str]]] = []
        self._unsat_depth: Optional[int] = None

    @property
    def unsat(self) -> bool:
        return self._unsat_depth is not None

    def push(self) -> None:
        self._frames.append(([], {}, []))

    def _ensure_node(self, name: str) -> None:
        if name not in self._dist:
            self._dist[name] = 0
            self._edges.setdefault(name, [])
            if self._frames:
                self._frames[-1][2].append(name)

    def assert_bound(self, bound: DifferenceBound) -> bool:
        """Add ``x - y <= c``; returns True iff the store is now unsat."""
        if self.unsat:
            return True
        if not self._frames:
            self.push()
        added, touched, _new_nodes = self._frames[-1]
        self._ensure_node(bound.x)
        self._ensure_node(bound.y)
        self._edges[bound.y].append((bound.x, bound.c))
        added.append(bound.y)
        dist = self._dist
        if dist[bound.y] + bound.c >= dist[bound.x]:
            return False
        # The new edge is violated: relax forward from x.  A feasible
        # potential exists for the old system, so any node relaxing more
        # than |V| times lies on a negative cycle through the new edge.
        limit = len(dist)
        counts: Dict[str, int] = {}
        if bound.x not in touched:
            touched[bound.x] = dist[bound.x]
        dist[bound.x] = dist[bound.y] + bound.c
        queue = [bound.x]
        while queue:
            u = queue.pop()
            du = dist[u]
            for v, w in self._edges[u]:
                if du + w < dist[v]:
                    if v not in touched:
                        touched[v] = dist[v]
                    dist[v] = du + w
                    counts[v] = counts.get(v, 0) + 1
                    if counts[v] > limit:
                        self._unsat_depth = len(self._frames) - 1
                        return True
                    queue.append(v)
        return False

    def pop(self) -> None:
        added, touched, new_nodes = self._frames.pop()
        for y in reversed(added):
            self._edges[y].pop()
        for node, old in touched.items():
            self._dist[node] = old
        for node in new_nodes:
            del self._dist[node]
            del self._edges[node]
        if self._unsat_depth is not None and self._unsat_depth >= len(self._frames):
            self._unsat_depth = None


class DifferenceLogicSolver:
    """Incremental conjunction-of-difference-bounds consistency checker.

    Bounds are asserted with an opaque *tag* (for Canary: the SAT literal
    that enabled them); when the constraint graph acquires a negative
    cycle, :meth:`check` returns the tags along one such cycle, which is a
    minimal-ish unsatisfiable core usable directly as a blocking clause.
    """

    def __init__(self) -> None:
        # adjacency: u -> list of (v, weight, tag) meaning  v - u <= weight
        self._edges: Dict[str, List[Tuple[str, int, Hashable]]] = {}
        self._nodes: List[str] = []
        self._trail: List[Tuple[str, str]] = []

    def _node(self, name: str) -> None:
        if name not in self._edges:
            self._edges[name] = []
            self._nodes.append(name)

    def assert_bound(self, bound: DifferenceBound, tag: Hashable) -> None:
        """Assert ``x - y <= c``: graph edge ``y -> x`` with weight ``c``."""
        self._node(bound.x)
        self._node(bound.y)
        self._edges[bound.y].append((bound.x, bound.c, tag))
        self._trail.append((bound.y, bound.x))

    def push(self) -> int:
        return len(self._trail)

    def pop(self, mark: int) -> None:
        while len(self._trail) > mark:
            src, _dst = self._trail.pop()
            self._edges[src].pop()

    def check(self) -> Optional[List[Hashable]]:
        """Return ``None`` if consistent, else the tags of a negative cycle.

        Uses Bellman-Ford with a parent pointer per node; on relaxation
        round ``|V|`` a node still relaxing lies on (or is reachable from)
        a negative cycle, which we extract by walking parents.
        """
        nodes = self._nodes
        if not nodes:
            return None
        dist: Dict[str, int] = {v: 0 for v in nodes}
        parent: Dict[str, Optional[Tuple[str, Hashable]]] = {v: None for v in nodes}
        last_updated = None
        for _ in range(len(nodes)):
            last_updated = None
            for u in nodes:
                du = dist[u]
                for v, w, tag in self._edges[u]:
                    if du + w < dist[v]:
                        dist[v] = du + w
                        parent[v] = (u, tag)
                        last_updated = v
            if last_updated is None:
                return None
        # Walk back |V| steps to land inside the cycle, then collect it.
        node = last_updated
        for _ in range(len(nodes)):
            node = parent[node][0]
        cycle_tags: List[Hashable] = []
        cur = node
        while True:
            prev, tag = parent[cur]
            cycle_tags.append(tag)
            cur = prev
            if cur == node:
                break
        return cycle_tags

    def model(self) -> Dict[str, int]:
        """A satisfying assignment (shortest-path potentials), assuming
        :meth:`check` returned ``None``.  The zero variable maps to 0."""
        nodes = self._nodes
        dist: Dict[str, int] = {v: 0 for v in nodes}
        for _ in range(len(nodes)):
            changed = False
            for u in nodes:
                du = dist[u]
                for v, w, _tag in self._edges[u]:
                    if du + w < dist[v]:
                        dist[v] = du + w
                        changed = True
            if not changed:
                break
        shift = dist.get(ZERO_NAME, 0)
        return {v: d - shift for v, d in dist.items()}
