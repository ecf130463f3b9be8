"""Undirected weighted graphs in compressed adjacency (CSR) form.

Vertices are dense ids 0..n-1.  Weights are positive integers, so path
lengths are exact and every distance comparison is integer arithmetic.
Parallel edges collapse to the minimum weight and self-loops are dropped:
a Graph is always simple and symmetric.  Per-vertex adjacency is sorted
ascending by (weight, neighbor id), which the ball-building code relies on
to scan only the lightest edges of each vertex.  Both that order and the
writer's row order come from unstable argsorts of packed int64 keys, so n
is bounded: n*max(n, 2*edges) < 2**63.

Edge-list text is read by np.loadtxt, numpy's C text reader, wherever its
columns must equal the line-by-line reader's: every data line holds 2
fields or every one holds 3, weights lie in [1, 2**62), '#' starts only
comment lines, and loadtxt neither warns nor fails.  Any other text goes
to the line reader, which decides it and names the line of every error.
Ids are any int64, as labels are everywhere, so every edge list the
writer makes reads back; it formats each row through one %-template.
Every Graph keeps its labels as a read-only int64 array (0..n-1 if none
given).

Every integer sequence the package takes (edge columns and triples,
labels, radii, ball sources) is taken exactly by _int64_array, or refused.
"""
from __future__ import annotations

import io
import itertools
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Sentinel for "no path" in distance units.  from_edges keeps every weight
# and every distance below it, so distance + weight and distance + radius
# (radii are at most UNREACHED) never overflow int64.
UNREACHED = 2**62
_INT64_MAX = 2**63 - 1


class GraphError(ValueError):
    """Domain error on graph input: bad weight, empty input, bad ids."""


@dataclass(frozen=True)
class DistanceVector:
    """Per-vertex distances from a source; UNREACHED marks no path."""

    source: int
    dist: np.ndarray

    def __getitem__(self, v: int) -> int:
        return int(self.dist[v])

    def reached_count(self) -> int:
        return int((self.dist < UNREACHED).sum())

    def same_as(self, other: "DistanceVector") -> bool:
        return self.source == other.source and np.array_equal(self.dist, other.dist)


def _is_int(x: object) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_count(name: str, value: object) -> None:
    """rho, k and delta are integers >= 1; anything else raises GraphError."""
    if not _is_int(value):
        raise GraphError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise GraphError(f"{name} must be >= 1, got {value}")


def _check_seed(seed: object) -> None:
    """A seed is an integer: random.Random would take True as 1 and 2.5 as a float seed."""
    if not _is_int(seed):
        raise GraphError(f"seed must be an integer, got {seed!r}")


def _check_vertex(g: Graph, v: object, what: str = "source") -> None:
    """A source (or a ball's center) is an integer id of g, not a bool."""
    if not _is_int(v):
        raise GraphError(f"{what} must be an integer vertex id, got {v!r}")
    if not 0 <= v < g.n:
        raise GraphError(f"{what} {v} out of range for n={g.n}")


def _check_graph_size(n: int, edges: int) -> None:
    """The bound of from_edges' packed sort keys: n*max(n, 2*edges) < 2**63."""
    if n * max(n, 2 * edges) > _INT64_MAX:
        raise GraphError(f"graph too large: n*max(n, 2*edges) = {n}*{max(n, 2 * edges)} must stay below 2**63")


class EdgeListParseError(GraphError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph with integer weights >= 1.

    n: vertex count; m: undirected edge count; max_weight: heaviest stored
    weight (1 for edgeless graphs).  indptr/nbr/wt form the CSR arrays over
    directed half-edges (each undirected edge appears in both directions).
    labels is a read-only int64 array of n distinct ids, labels[v] for
    dense id v: the ids seen in the input for parse_edge_list, the ones
    from_edges is given, or 0..n-1 when it is given none.
    """

    n: int
    m: int
    max_weight: int
    indptr: np.ndarray
    nbr: np.ndarray
    wt: np.ndarray
    labels: np.ndarray

    def __eq__(self, other: object) -> bool:
        # Structural value only; the label map is provenance metadata.
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self.max_weight == other.max_weight
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.nbr, other.nbr)
            and np.array_equal(self.wt, other.wt)
        )

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, weights) of u, sorted by (weight, id)."""
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        return self.nbr[lo:hi], self.wt[lo:hi]

    @property
    def is_unit_weight(self) -> bool:
        return self.max_weight == 1


def from_edges(
    n: int,
    edges: Iterable[tuple[int, int, int]] | tuple[np.ndarray, np.ndarray, np.ndarray],
    labels: Sequence[int] | np.ndarray | None = None,
) -> Graph:
    """Build a Graph from (u, v, w) triples or from three columns (u, v, w).

    Symmetrizes, drops self-loops, collapses parallel edges to the minimum
    weight.  Input is taken only where it is exact: each column, the values
    of the triples and the labels are integer sequences by _int64_array's
    rule; columns must have equal lengths and triples three values each;
    and n must be a nonnegative int with n*max(n, 2*len(edges)) < 2**63,
    the bound on the packed sort keys.  Weights must be >= 1, and shortest
    paths must stay below UNREACHED (see _check_distance_bound).  Labels,
    if given, must be n distinct ids, which the edge-list and radii writers
    rely on; the graph keeps a read-only copy (the caller may own them),
    or 0..n-1 if none are given.  All this is checked before anything of
    size n is allocated.

    Both sorts are unstable argsorts of packed int64 keys, each below
    n*max(n, 2*len(edges)): one groups parallel edges, two give the CSR
    order (src, weight, dst).
    """
    n, us, vs, ws = _edge_columns(n, edges)
    if len(us) and ((us < 0).any() or (vs < 0).any() or (us >= n).any() or (vs >= n).any()):
        raise GraphError("vertex id out of range")
    if len(ws) and ws.min() < 1:
        raise GraphError("edge weight must be a positive integer")
    if labels is not None:
        labels = _check_labels(labels, n)

    # Parallel edges share the key min(u,v)*n + max(u,v); the minimum over a
    # run of equal keys does not depend on the order within it.
    keep = us != vs
    us, vs, ws = us[keep], vs[keep], ws[keep]
    key = np.minimum(us, vs)
    key *= n
    key += np.maximum(us, vs)
    del us, vs
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    ws = np.minimum.reduceat(ws[order], first)
    a, b = np.divmod(key[first], n)
    del key, order, first
    m = len(a)
    _check_distance_bound(n, a, b, ws)

    # Half-edge i < m runs a[i] -> b[i], and m + i runs back.  Sort them by
    # (weight rank, dst), then by (src, position in that order).  Within one
    # src the pairs (weight, dst) are distinct, so the first sort's ties fall
    # only between rows; the second sort's keys are distinct and separate
    # them, so its unstable order is the one (src, weight, dst) order.
    key = np.concatenate((np.unique(ws, return_inverse=True)[1],) * 2)
    key *= n
    key[:m] += b
    key[m:] += a
    order = np.argsort(key)
    key[order] = np.arange(2 * m)
    key[:m] += a * (2 * m)
    key[m:] += b * (2 * m)
    order = np.argsort(key)
    del key
    dst = np.concatenate((b, a))[order]
    w2 = np.concatenate((ws, ws))[order]
    del order
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n) + np.bincount(b, minlength=n), out=indptr[1:])
    max_weight = int(ws.max()) if m else 1
    labels = np.arange(n, dtype=np.int64) if labels is None else labels.copy()
    for arr in (indptr, dst, w2, labels):
        arr.flags.writeable = False
    return Graph(n=n, m=m, max_weight=max_weight, indptr=indptr, nbr=dst, wt=w2, labels=labels)


def _edge_columns(n: object, edges: object) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """from_edges' n and int64 (u, v, w) columns, or GraphError for input
    that cannot be taken exactly; nothing of size n is allocated here."""
    if not _is_int(n):
        raise GraphError(f"vertex count must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    if isinstance(edges, tuple) and len(edges) == 3 and isinstance(edges[0], np.ndarray):
        us, vs, ws = (_int64_array("edge values", col) for col in edges)
        if not len(us) == len(vs) == len(ws):
            raise GraphError("edge columns must be 1-D arrays of equal length")
    else:
        try:
            triples = list(edges)
            sizes = set(map(len, triples))
        except TypeError:
            sizes = {None}
        if sizes - {3}:
            raise GraphError("each edge must be a (u, v, w) triple")
        us, vs, ws = _int64_array("edge values", list(itertools.chain.from_iterable(triples))).reshape(-1, 3).T
    _check_graph_size(n, len(us))
    return n, us, vs, ws


def _int64_array(what: str, values: object) -> np.ndarray:
    """values as a 1-D int64 array, or GraphError: the one rule for an
    integer sequence.  An ndarray is judged by its dtype (1-D, an integer
    dtype unless it is empty, unsigned values within int64) and is not
    copied when it is int64 already.  A list, tuple or range is judged item
    by item: each an int or np.integer, never bool or np.bool_, within
    int64.  Anything else is not a 1-D sequence."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise GraphError(f"{what} must be a 1-D sequence, got shape {values.shape}")
        if len(values) and values.dtype.kind not in "iu":
            raise GraphError(f"{what} must be integers, got {values.dtype}")
        if len(values) and values.dtype.kind == "u" and values.max() > _INT64_MAX:
            raise GraphError(f"{what} must fit int64")
        return values.astype(np.int64, copy=False)
    if not isinstance(values, (list, tuple, range)):
        raise GraphError(f"{what} must be a 1-D sequence, got {type(values).__name__}")
    odd = [t for t in set(map(type, values)) if not issubclass(t, (int, np.integer)) or issubclass(t, bool)]
    if odd:
        raise GraphError(f"{what} must be integers, got {', '.join(sorted(t.__name__ for t in odd))}")
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        raise GraphError(f"{what} must fit int64") from None


def _check_labels(labels: object, n: int) -> np.ndarray:
    """Vertex labels, in their order, as int64: n distinct integers (not
    bool) that fit int64; anything else raises GraphError."""
    label = _int64_array("vertex labels", labels)
    ordered = np.sort(label)
    if len(label) != n or (ordered[1:] == ordered[:-1]).any():
        raise GraphError(f"vertex labels must be {n} distinct ids")
    return label


def _check_distance_bound(n: int, a: np.ndarray, b: np.ndarray, ws: np.ndarray) -> None:
    """Reject weights whose shortest paths could reach UNREACHED.

    A shortest path is no longer than the path joining its ends in a
    minimum spanning forest: at most n-1 edges, none heavier than the
    forest's heaviest edge B <= L.  So (n-1)*B < UNREACHED keeps every
    distance exact, and the cheap (n-1)*L < UNREACHED settles almost every
    graph without building the forest.  Bounding by B rather than L keeps
    augmented graphs acceptable: a shortcut weighs the distance between its
    ends, which adding it does not change, so it never raises B.
    """
    if not len(ws):
        return
    L = int(ws.max())
    if L >= UNREACHED:
        raise GraphError(f"edge weight {L} is not below 2**62")
    if (n - 1) * L < UNREACHED:
        return
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    us, vs, wl = a.tolist(), b.tolist(), ws.tolist()
    heaviest = 0
    for i in np.argsort(ws, kind="stable").tolist():
        ru, rv = find(us[i]), find(vs[i])
        if ru != rv:
            root[ru] = rv
            heaviest = wl[i]
    if (n - 1) * heaviest >= UNREACHED:
        raise GraphError(
            f"distances could reach 2**62: (n-1)*B = {n - 1}*{heaviest}, where B is "
            "the heaviest edge of a minimum spanning forest, must stay below 2**62"
        )


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" or "u v w" lines into a Graph.

    '#' starts a comment line; blank lines are skipped; missing weights
    default to 1.  A line "u" alone names a vertex, which keeps a vertex
    with no edge (as write_edge_list writes one) in the graph.  Vertex ids
    are any int64; they are compacted to 0..n-1 in first-appearance order,
    with the original ids kept as the graph's labels.

    Text goes first to np.loadtxt, which is several times faster than
    reading line by line in Python.  Its columns are kept only where they
    must equal the line reader's: all data lines hold 2 fields or all
    hold 3, every weight lies in [1, 2**62), no '#' follows a field, and
    loadtxt neither raises nor warns.  Any other text (a lone "u" line,
    mixed field counts, a token loadtxt cannot read as int64, anything
    rejected) goes whole to the line-by-line reader, which decides it and
    reports every parse error with its line number.
    Both give the same columns, which go to from_edges.
    """
    cols = _loadtxt_columns(text)
    n, us, vs, ws, labels = cols if cols is not None else _line_columns(text)
    return from_edges(n, (us, vs, ws), labels=labels)


_Columns = tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _line_columns(text: str) -> _Columns:
    """parse_edge_list's (n, u, v, w, labels) one line at a time: the reader
    that decides every input."""
    id_map: dict[int, int] = {}
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []

    def compact(raw: int) -> int:
        idx = id_map.get(raw)
        if idx is None:
            idx = len(id_map)
            id_map[raw] = idx
        return idx

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) > 3:
            raise EdgeListParseError(lineno, f"expected 1, 2 or 3 fields, got {len(parts)}")
        try:
            u = int(parts[0])
            v = int(parts[1]) if len(parts) > 1 else u
            w = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise EdgeListParseError(lineno, f"malformed token in {line!r}") from None
        if not (-(2**63) <= u < 2**63 and -(2**63) <= v < 2**63):
            raise EdgeListParseError(lineno, "vertex ids must be below 2**63 and at least -2**63")
        if len(parts) == 1:
            compact(u)
            continue
        if w <= 0:
            raise EdgeListParseError(lineno, f"weight must be >= 1, got {w}")
        if w >= UNREACHED:
            raise EdgeListParseError(lineno, f"weight must be below 2**62, got {w}")
        us.append(compact(u))
        vs.append(compact(v))
        ws.append(w)

    if not id_map:
        raise GraphError("empty edge list")
    cols = [np.asarray(col, dtype=np.int64) for col in (us, vs, ws)]
    return (len(id_map), *cols, np.fromiter(id_map, dtype=np.int64, count=len(id_map)))


def _loadtxt_columns(text: str) -> _Columns | None:
    """_line_columns by np.loadtxt, or None wherever the two could differ,
    leaving the text to _line_columns."""
    if "#" in text and text.count("#") != len(re.findall(r"(?m)^\s*#", text)):
        return None  # loadtxt drops a '#' after a field and the rest of its line
    # A StringIO, not text.splitlines(): splitlines also breaks lines at
    # \x0b, \x0c, \x1c-\x1e, \x85 and \u2028, which the line reader takes for spaces.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" declines, as any warning does
            rows = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
    except (ValueError, Warning):
        return None
    if rows.shape[1] not in (2, 3):
        return None
    ids = rows[:, :2].ravel()
    w = rows[:, 2] if rows.shape[1] == 3 else np.ones(len(rows), dtype=np.int64)
    if (w < 1).any() or (w >= UNREACHED).any():
        return None
    raw, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    dense = np.empty(len(order), dtype=np.int64)
    dense[order] = np.arange(len(order))
    dense = dense[inverse]
    return len(raw), dense[0::2], dense[1::2], w, raw[order]


def _half_edges(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each undirected edge once as columns (u, v, w), u < v, sorted by u."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    mask = src < g.nbr
    return src[mask], g.nbr[mask], g.wt[mask]


def _edge_slots(g: Graph, act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR slots of every edge out of `act`, row by row, and the row lengths."""
    starts = g.indptr[act]
    counts = g.indptr[1:][act] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total), counts


def _render(rows: np.ndarray, brief: np.ndarray, full: str, short: str) -> str:
    """Integer rows through one %-template: `full` for each row, `short` where
    brief.  Both take every column; "%.0s" takes one and prints nothing."""
    return "".join(map((full, short).__getitem__, brief.tolist())) % tuple(rows.ravel().tolist())


def _render_labeled(label: np.ndarray, value: np.ndarray) -> str:
    """One "label value\\n" line per entry, with "inf" for UNREACHED or more."""
    return _render(np.column_stack((label, value)), value >= UNREACHED, "%d %d\n", "%d inf%.0s\n")


def _read_text(path: str, encoding: str = "ascii") -> str:
    """A file's text with newlines translated as open() does (no ASCII or
    UTF-8 character but CR and LF holds their bytes), or GraphError naming
    the file and the line of the first byte that does not decode."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not {encoding}") from None


def write_edge_list(g: Graph) -> str:
    """Render each undirected edge once as "u v w\\n" with u < v, sorted by (u, v).

    A vertex with no edge gets a line "u\\n" of its own, in label order
    among the edge lines.  Ids are the graph's labels (its read-only int64
    array of distinct ids), so the text is a pure function of the labeled
    value: parsing it back and re-writing reproduces the same bytes, which
    makes parse/write idempotent after the first parse.
    """
    rows = _edge_rows(g)
    return _render(rows, rows[:, 2] == 0, "%d %d %d\n", "%d%.0s%.0s\n")


def _edge_rows(g: Graph) -> np.ndarray:
    """write_edge_list's rows (lesser label, greater label, weight) in
    order, with (label, any, 0) for a vertex with no edge.  A function of
    its own, so its scratch arrays are freed before the text is built."""
    u, v, w = _half_edges(g)
    lone = np.flatnonzero(np.diff(g.indptr) == 0)
    by_rank = np.argsort(g.labels)
    rank = np.empty(g.n, dtype=np.int64)
    rank[by_rank] = np.arange(g.n)
    label = g.labels[by_rank]
    # Labels are distinct, so ordering by label rank is ordering by label.
    # Rows sort by (lesser rank, greater rank) packed as lo*n + hi, and a
    # vertex with no edge as rank*n, which no edge row shares: the graph is
    # simple, so the keys are distinct and the unstable sort is exact.
    u, v = rank[u], rank[v]
    key = np.concatenate((np.minimum(u, v), rank[lone]))
    key *= g.n
    key[: len(u)] += np.maximum(u, v)
    order = np.argsort(key)
    rows = np.zeros((len(key), 3), dtype=np.int64)
    lo, hi = np.divmod(key[order], g.n)
    rows[:, 0], rows[:, 1] = label[lo], label[hi]
    rows[:, 2] = np.concatenate((w, np.zeros(len(lone), dtype=np.int64)))[order]
    return rows

