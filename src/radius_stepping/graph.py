"""Undirected weighted graphs in compressed adjacency (CSR) form.

Vertices are dense ids 0..n-1.  Weights are positive integers, so path
lengths are exact and every distance comparison is integer arithmetic.
Parallel edges collapse to the minimum weight and self-loops are dropped:
a Graph is always simple and symmetric.  Per-vertex adjacency is sorted
ascending by (weight, neighbor id), which the ball-building code relies on
to scan only the lightest edges of each vertex.  Both that order and the
writer's row order come from unstable argsorts of packed int64 keys, so n
is bounded: n*max(n, 2*edges) < 2**63.

Edge-list text is read by numpy: each block of about 64 KB of whole lines
becomes a uint8 array, whitespace and token starts give every line's
fields, and the digits are summed into int64 values; ids are compacted
with np.unique.  Text the tokenizer cannot read exactly (non-ASCII bytes,
signs other than a leading '+', tokens over 18 digits, more than 3
fields, any line that would be rejected) goes to the line-by-line reader,
which decides it.  Ids must be below 2**63, so labels fit int64, and the
writer formats every row through one %-template.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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
    labels maps dense ids back to the ids seen in the input, when the graph
    was read from an edge list with non-contiguous ids.
    """

    n: int
    m: int
    max_weight: int
    indptr: np.ndarray
    nbr: np.ndarray
    wt: np.ndarray
    labels: tuple[int, ...] | None = None

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

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, weights) of u, sorted by (weight, id)."""
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        return self.nbr[lo:hi], self.wt[lo:hi]

    @property
    def is_unit_weight(self) -> bool:
        return self.max_weight == 1 or self.m == 0

    def label_of(self, v: int) -> int:
        return self.labels[v] if self.labels is not None else v

    def iter_undirected_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each undirected edge once as (u, v, w), u < v, sorted by (u, v)."""
        for u in range(self.n):
            lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
            out = [
                (int(v), int(w))
                for v, w in zip(self.nbr[lo:hi], self.wt[lo:hi])
                if v > u
            ]
            out.sort()
            for v, w in out:
                yield u, v, w

    def validate(self) -> None:
        """Assert every structural invariant; raises GraphError on violation."""
        if self.n < 0 or self.m < 0:
            raise GraphError("negative counts")
        if len(self.indptr) != self.n + 1 or self.indptr[0] != 0:
            raise GraphError("bad indptr")
        if len(self.nbr) != 2 * self.m or len(self.wt) != 2 * self.m:
            raise GraphError("CSR length mismatch with edge count")
        if self.m:
            if self.wt.min() < 1:
                raise GraphError("weight below 1")
            if int(self.wt.max()) != self.max_weight:
                raise GraphError("max_weight does not match stored weights")
        elif self.max_weight != 1:
            raise GraphError("edgeless graph must have max_weight == 1")
        seen = {}
        for u in range(self.n):
            ns, ws = self.neighbors(u)
            if len(ns) and ((ns < 0).any() or (ns >= self.n).any()):
                raise GraphError("neighbor id out of range")
            if (ns == u).any():
                raise GraphError(f"self-loop at {u}")
            if len(set(ns.tolist())) != len(ns):
                raise GraphError(f"parallel edges at {u}")
            keys = list(zip(ws.tolist(), ns.tolist()))
            if keys != sorted(keys):
                raise GraphError(f"adjacency of {u} not sorted by (weight, id)")
            for v, w in zip(ns.tolist(), ws.tolist()):
                seen[(u, v)] = w
        for (u, v), w in seen.items():
            if seen.get((v, u)) != w:
                raise GraphError(f"asymmetric edge ({u},{v})")


def from_edges(
    n: int,
    edges: Iterable[tuple[int, int, int]] | tuple[np.ndarray, np.ndarray, np.ndarray],
    labels: tuple[int, ...] | None = None,
) -> Graph:
    """Build a Graph from (u, v, w) triples or from three columns (u, v, w).

    Symmetrizes, drops self-loops, collapses parallel edges to the minimum
    weight.  Input is taken only where it is exact: columns must be 1-D
    integer arrays (not bool) of equal length, triples must hold three
    integers (not bool), every value must fit int64, and n must be a
    nonnegative int with n*max(n, 2*len(edges)) < 2**63, the bound on the
    packed sort keys.  Weights must be >= 1, and shortest paths must stay
    below UNREACHED (see _check_distance_bound).  Labels, if given, must be
    n distinct integers (not bool) that fit int64, which the edge-list and
    radii writers rely on; the graph keeps them as a tuple.  All of this is
    checked before anything of size n is allocated.

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
        labels = tuple(labels)
        label = np.sort(_int64s("vertex labels", lambda: iter(labels), len(labels)))
        if len(label) != n or (label[1:] == label[:-1]).any():
            raise GraphError(f"vertex labels must be {n} distinct ids")

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
    for arr in (indptr, dst, w2):
        arr.flags.writeable = False
    return Graph(n=n, m=m, max_weight=max_weight, indptr=indptr, nbr=dst, wt=w2, labels=labels)


def _edge_columns(n: object, edges: object) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """from_edges' n and int64 (u, v, w) columns, or GraphError for input
    that cannot be taken exactly; nothing of size n is allocated here."""
    try:
        n = operator.index(n)
    except TypeError:
        raise GraphError(f"vertex count must be an integer, got {n!r}") from None
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    if isinstance(edges, tuple) and len(edges) == 3 and isinstance(edges[0], np.ndarray):
        cols = [np.asarray(col) for col in edges]
        if any(col.ndim != 1 or len(col) != len(cols[0]) for col in cols):
            raise GraphError("edge columns must be 1-D arrays of equal length")
        if any(col.dtype.kind not in "iu" for col in cols):
            kinds = ", ".join(str(col.dtype) for col in cols)
            raise GraphError(f"edge columns must have an integer dtype, got {kinds}")
        if any(col.dtype.kind == "u" and len(col) and col.max() > _INT64_MAX for col in cols):
            raise GraphError("edge values must fit int64")
        us, vs, ws = (col.astype(np.int64, copy=False) for col in cols)
    else:
        triples = list(edges)
        try:
            sizes = set(map(len, triples))
        except TypeError:
            sizes = {None}
        if sizes - {3}:
            raise GraphError("each edge must be a (u, v, w) triple")
        values = _int64s("edge values", lambda: itertools.chain.from_iterable(triples), 3 * len(triples))
        us, vs, ws = values.reshape(-1, 3).T
    _check_graph_size(n, len(us))
    return n, us, vs, ws


def _int64s(what: str, values: Callable[[], Iterator], count: int) -> np.ndarray:
    """The `count` items values() yields (it is called twice) as int64, or
    GraphError unless each is an integer (not bool) that fits int64."""
    odd = [t for t in set(map(type, values())) if not issubclass(t, (int, np.integer)) or issubclass(t, bool)]
    if odd:
        raise GraphError(f"{what} must be integers, got {', '.join(sorted(t.__name__ for t in odd))}")
    try:
        return np.fromiter(values(), dtype=np.int64, count=count)
    except OverflowError:
        raise GraphError(f"{what} must fit int64") from None


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


# Text is tokenized in blocks of about this many bytes, each cut after a
# newline, so the per-byte scratch arrays stay small.
_BLOCK = 1 << 16
# The ASCII bytes str.split() takes for whitespace; then those and the digits.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_PLAIN = _SPACE.copy()
_PLAIN[ord("0") : ord("9") + 1] = True
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" or "u v w" lines into a Graph.

    '#' starts a comment line; blank lines are skipped; missing weights
    default to 1.  A line "u" alone names a vertex, which keeps a vertex
    with no edge (as write_edge_list writes one) in the graph.  Vertex ids
    must be below 2**63; they are compacted to 0..n-1 in first-appearance
    order, with the original ids kept as the graph's labels (so labels
    fit int64).

    ASCII text is read by a numpy tokenizer, one block of whole lines at a
    time.  It takes only what it can read exactly: tokens of at most 18
    digits with an optional leading '+', at most 3 fields per line, and no
    zero weight.  Any other text goes whole to the line-by-line reader,
    which decides it and reports every parse error with its line number.
    Both give the same columns, which go to from_edges.
    """
    cols = _block_columns(text) if text.isascii() else None
    n, us, vs, ws, labels = cols if cols is not None else _line_columns(text)
    return from_edges(n, (us, vs, ws), labels=labels)


_Columns = tuple[int, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]


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
        line = raw.rstrip("\r").strip()
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
        if u < 0 or v < 0:
            raise EdgeListParseError(lineno, "vertex ids must be nonnegative")
        if u >= 2**63 or v >= 2**63:
            raise EdgeListParseError(lineno, "vertex ids must be below 2**63")
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
    return (len(id_map), *cols, tuple(id_map.keys()))


def _block_columns(text: str) -> _Columns | None:
    """_line_columns of ASCII text by numpy, or None where a block is not
    plainly valid (or no line names a vertex), leaving it to _line_columns."""
    values, fields = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int8)]
    at = 0
    while at < len(text):
        cut = text.find("\n", min(at + _BLOCK, len(text)) - 1)
        cut = len(text) if cut < 0 else cut + 1
        block = _block_tokens(text[at:cut].encode("ascii"))
        if block is None:
            return None
        values.append(block[0])
        fields.append(block[1])
        at = cut
    value, field = np.concatenate(values), np.concatenate(fields)
    if not len(value):
        return None
    heads = np.flatnonzero(field == 0)
    count = np.diff(heads, append=len(field))
    edge = heads[count > 1]
    w = np.ones(len(edge), dtype=np.int64)
    three = count[count > 1] == 3
    w[three] = value[edge[three] + 2]
    if not w.all():  # a zero weight
        return None
    named = field < 2
    raw, first, inverse = np.unique(value[named], return_index=True, return_inverse=True)
    order = np.argsort(first)
    dense = np.empty(len(order), dtype=np.int64)
    dense[order] = np.arange(len(order))
    dense = dense[inverse]
    u = np.cumsum(named)[edge] - 1  # position of each edge's u among the ids
    return len(raw), dense[u], dense[u + 1], w, tuple(raw[order].tolist())


def _block_tokens(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Values and field numbers (0, 1 or 2) of the tokens on the data lines
    of one block of whole lines, or None if a byte, token or line is not
    plainly valid."""
    if not raw.endswith(b"\n"):
        raw += b"\n"
    b = np.frombuffer(raw, dtype=np.uint8)
    space = _SPACE[b]
    start = ~space
    start[1:] &= space[:-1]
    end = ~space
    end[:-1] &= space[1:]
    s = np.flatnonzero(start)
    e = np.flatnonzero(end) + 1
    line = np.searchsorted(np.flatnonzero(b == ord("\n")), s)
    heads = np.flatnonzero(np.diff(line, prepend=-1))
    count = np.diff(heads, append=len(s))
    field = np.arange(len(s)) - np.repeat(heads, count)
    note = np.repeat(b[s[heads]] == ord("#"), count)  # the token is on a comment line
    odd = np.flatnonzero(~_PLAIN[b])
    if len(odd):
        # Outside comments, the only other byte allowed is a '+' that leads a token.
        t = np.searchsorted(s, odd, side="right") - 1
        sign = (b[odd] == ord("+")) & (s[t] == odd) & (e[t] - odd > 1)
        if not (note[t] | sign).all():
            return None
    data = ~note
    s, e, field = s[data], e[data], field[data]
    if not len(s):
        return s, field.astype(np.int8)
    s += b[s] == ord("+")
    size = e - s
    if field.max() > 2 or size.max() > 18:
        return None
    field = field.astype(np.int8)
    first = np.cumsum(size) - size
    at = np.repeat(s - first, size) + np.arange(int(size.sum()))  # every digit, token by token
    digit = (b[at] - ord("0")).astype(np.int64) * _POW10[np.repeat(e - 1, size) - at]
    return np.add.reduceat(digit, first), field


def _half_edges(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each undirected edge once as columns (u, v, w), u < v, sorted by u."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    mask = src < g.nbr
    return src[mask], g.nbr[mask], g.wt[mask]


def _edge_slots(g: Graph, act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR slots of every edge out of `act`, row by row, and the row lengths."""
    starts = g.indptr[act]
    counts = g.indptr[act + 1] - starts
    offsets = starts - (np.cumsum(counts) - counts)
    return np.repeat(offsets, counts) + np.arange(int(counts.sum())), counts


def _render(rows: np.ndarray, brief: np.ndarray, full: str, short: str) -> str:
    """Integer rows through one %-template: `full` for each row, `short` where
    brief.  Both take every column; "%.0s" takes one and prints nothing."""
    return "".join(map((full, short).__getitem__, brief.tolist())) % tuple(rows.ravel().tolist())


def _label_ids(labels: tuple[int, ...] | None, n: int) -> np.ndarray:
    """The labels as int64, or the ids 0..n-1 where there are none."""
    return np.arange(n, dtype=np.int64) if labels is None else np.asarray(labels, dtype=np.int64)


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
    among the edge lines.  Ids are the graph's labels (the retained input
    ids, distinct and within int64), so the text is a pure function of the
    labeled value: parsing it back and re-writing reproduces the same
    bytes, which makes parse/write idempotent after the first parse.
    """
    rows = _edge_rows(g)
    return _render(rows, rows[:, 2] == 0, "%d %d %d\n", "%d%.0s%.0s\n")


def _edge_rows(g: Graph) -> np.ndarray:
    """write_edge_list's rows (lesser label, greater label, weight) in
    order, with (label, any, 0) for a vertex with no edge.  A function of
    its own, so its scratch arrays are freed before the text is built."""
    u, v, w = _half_edges(g)
    lone = np.flatnonzero(np.diff(g.indptr) == 0)
    label = _label_ids(g.labels, g.n)
    by_rank = np.argsort(label)
    rank = np.empty(g.n, dtype=np.int64)
    rank[by_rank] = np.arange(g.n)
    label = label[by_rank]
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

