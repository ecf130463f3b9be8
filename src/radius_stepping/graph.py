"""Undirected weighted graphs in compressed adjacency (CSR) form.

Vertices are dense ids 0..n-1.  Weights are positive integers, so path
lengths are exact and every distance comparison is integer arithmetic.
Parallel edges collapse to the minimum weight and self-loops are dropped:
a Graph is always simple and symmetric.  Per-vertex adjacency is sorted
ascending by (weight, neighbor id), which the ball-building code relies on
to scan only the lightest edges of each vertex.  That order, the dedupe
of parallel edges and the writer's row order come from argsorts of packed
int64 keys, so n is bounded: n*max(n, 2*edges) < 2**63.

Edge-list text is read by np.loadtxt, numpy's C text reader, wherever its
columns must equal the line-by-line reader's: every data line holds 2
fields or every one holds 3, weights lie in [1, 2**62), '#' starts only
comment lines, and loadtxt neither warns nor fails.  Any other text goes
to the line reader, which decides it and names the line of every error.
Ids are any int64, as labels are everywhere, so every edge list the
writer makes reads back but the 0-vertex graph's empty text.  Every writer
renders its rows with _render, a fixed block of values at a time, by digit
tables in numpy.  Every Graph keeps its labels as a read-only int64 array
(0..n-1 if none given).

Edges come as (u, v, w) rows, an (m, 3) int64 array, from the readers
and from augmentation into from_edges, which builds the CSR.  The writer
reads the CSR itself: each edge's row is its half-edge out of the end
with the lesser label.  Every integer
sequence the package takes (edge rows and triples, labels, radii, ball
sources) is taken exactly by _int64_array, or refused.
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
    """The bound of the packed sort keys, n*max(n, 2*edges) < 2**63: from_edges'
    dedupe key min*n + max < n**2 and CSR key src*R + weight rank < n*edges
    (R distinct weights), and the writer's key lo*n + hi < n**2."""
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
    edges: Iterable[Sequence[int]] | np.ndarray,
    labels: Sequence[int] | np.ndarray | None = None,
) -> Graph:
    """Build a Graph from (u, v, w) rows: a sequence of triples or an (m, 3) array.

    Symmetrizes, drops self-loops, collapses parallel edges to the minimum
    weight.  Input is taken only where it is exact: an (m, 3) array by its
    dtype, and each triple (a list, tuple, range or 1-D array of three
    values) value by value, by _int64_array's rule, as are the labels; and
    n must be a nonnegative int with n*max(n, 2*len(edges)) < 2**63, the
    bound on the packed sort keys.  Every row's weight, self-loops and
    parallel edges included, must lie in [1, 2**62), as the parser
    requires; and shortest paths must stay below UNREACHED (see
    _check_distance_bound).  Labels, if
    given, must be n distinct ids, which the edge-list and radii writers
    rely on; the graph keeps a read-only copy (the caller may own them),
    or 0..n-1 if none are given.  All this is checked before anything of
    size n is allocated.  An int64 row array is read, never written.

    An unstable argsort by min*n + max < n**2 groups parallel edges, and a
    stable one by src*R + weight rank < n*len(edges), with R distinct
    weights, gives the CSR order (src, weight, dst).
    """
    n, rows = _edge_table(n, edges)
    us, vs, ws = rows.T
    if len(us) and ((us < 0).any() or (vs < 0).any() or (us >= n).any() or (vs >= n).any()):
        raise GraphError("vertex id out of range")
    if len(ws) and ws.min() < 1:
        raise GraphError("edge weight must be a positive integer")
    if len(ws) and (L := int(ws.max())) >= UNREACHED:
        raise GraphError(f"edge weight {L} is not below 2**62")
    if labels is not None:
        labels = _int64_array("vertex labels", labels)
        _check_distinct(np.sort(labels), n)

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

    # Half-edge i < m runs b[i] -> a[i], and m + i runs back.  The pairs come
    # sorted with a < b, so each src lists its lesser neighbours and then its
    # greater ones, both ascending: a stable sort by (src, weight rank) keeps
    # dst ascending within a tie, which is the (src, weight, dst) order.
    weights, rank = np.unique(ws, return_inverse=True)
    key = np.concatenate((b, a))
    key *= len(weights)
    key += np.concatenate((rank, rank))
    order = np.argsort(key, kind="stable")
    del key, rank
    dst = np.concatenate((a, b))[order]
    w2 = np.concatenate((ws, ws))[order]
    del order
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n) + np.bincount(b, minlength=n), out=indptr[1:])
    max_weight = int(weights[-1]) if m else 1
    labels = np.arange(n, dtype=np.int64) if labels is None else labels.copy()
    for arr in (indptr, dst, w2, labels):
        arr.flags.writeable = False
    return Graph(n=n, m=m, max_weight=max_weight, indptr=indptr, nbr=dst, wt=w2, labels=labels)


# The containers a triple may be: a set, bytes or dict iterates as integers
# too, but not as (u, v, w).
_TRIPLE = (list, tuple, range, np.ndarray)


def _edge_table(n: object, edges: object) -> tuple[int, np.ndarray]:
    """from_edges' n and its (m, 3) int64 rows, or GraphError for input
    that cannot be taken exactly; nothing of size n is allocated here."""
    if not _is_int(n):
        raise GraphError(f"vertex count must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    if isinstance(edges, np.ndarray):
        if edges.ndim != 2 or edges.shape[1] != 3:
            raise GraphError(f"edge rows must be an (m, 3) array, got shape {edges.shape}")
        values = edges.ravel()
    else:
        try:
            triples = list(edges)
            kinds = set(map(type, triples))
            sizes = set(map(len, triples)) if all(issubclass(t, _TRIPLE) for t in kinds) else {None}
        except TypeError:
            sizes = {None}
        if sizes - {3}:
            raise GraphError("each edge must be a (u, v, w) triple")
        values = list(itertools.chain.from_iterable(triples))
    rows = _int64_array("edge values", values).reshape(-1, 3)
    _check_graph_size(n, len(rows))
    return n, rows


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


def _check_distinct(ordered: np.ndarray, n: int) -> None:
    """Sorted labels must be n distinct ids; anything else raises GraphError."""
    if len(ordered) != n or (ordered[1:] == ordered[:-1]).any():
        raise GraphError(f"vertex labels must be {n} distinct ids")


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
    if not len(ws) or (n - 1) * int(ws.max()) < UNREACHED:
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
    Both give the same (u, v, w) rows, which go to from_edges.
    """
    read = _loadtxt_columns(text)
    n, rows, labels = read if read is not None else _line_columns(text)
    return from_edges(n, rows, labels=labels)


def _line_columns(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """parse_edge_list's (n, rows, labels) one line at a time: the reader
    that decides every input."""
    id_map: dict[int, int] = {}
    flat: list[int] = []
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
            id_map.setdefault(u, len(id_map))
            continue
        if w <= 0:
            raise EdgeListParseError(lineno, f"weight must be >= 1, got {w}")
        if w >= UNREACHED:
            raise EdgeListParseError(lineno, f"weight must be below 2**62, got {w}")
        flat += (id_map.setdefault(u, len(id_map)), id_map.setdefault(v, len(id_map)), w)

    if not id_map:
        raise GraphError("empty edge list")
    return len(id_map), np.array(flat, dtype=np.int64).reshape(-1, 3), np.fromiter(id_map, dtype=np.int64)


def _loadtxt_columns(text: str) -> tuple[int, np.ndarray, np.ndarray] | None:
    """_line_columns by np.loadtxt, or None wherever the two could differ,
    leaving the text to _line_columns.  A ones column gives 2-column text
    its weights, and the dense ids overwrite the raw ones in place."""
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
    if rows.shape[1] == 2:
        rows = np.column_stack((rows, np.ones(len(rows), dtype=np.int64)))
    if rows.shape[1] != 3 or (rows[:, 2] < 1).any() or (rows[:, 2] >= UNREACHED).any():
        return None
    # Ids in first-appearance order from one unstable sort: each run of equal
    # ids gets its least position, whatever the order within the run.
    ids = rows[:, :2].ravel()
    by_id = np.argsort(ids)
    ordered = ids[by_id]
    run = np.empty(len(ids), dtype=bool)
    run[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run[1:])
    starts = np.flatnonzero(run)
    by_first = np.argsort(np.minimum.reduceat(by_id, starts))
    dense = np.empty(len(starts), dtype=np.int64)
    dense[by_first] = np.arange(len(starts))
    ids[by_id] = dense[np.cumsum(run) - 1]
    rows[:, :2] = ids.reshape(-1, 2)
    return len(starts), rows, ordered[starts[by_first]]


def _edge_slots(g: Graph, act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR slots of every edge out of `act`, row by row, and the row lengths."""
    starts = g.indptr[act]
    counts = g.indptr[1:][act] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total), counts


# Values per _render block: its scratch stays under 1 MB however long the
# text.  On grid2d-w (seeds 1-3), one block for every value raised peak RSS
# to 56.0-56.5 MB, against 53.0-53.7 MB with blocks of 8,192 values; of
# 2,048 to 32,768 values a block, 8,192 also rendered fastest.
_BLOCK = 8192

# _render's word tables.  _WORD[g] is the four ASCII digits of g < 10**4 as
# one 32-bit word, and _WORD[10**4 + g] the same with its leading zeros as
# NUL (all NUL for 0).  _HEAD[sign + 1] is the word before a row's first
# value and _HEAD[sign + 4] the word before any other: its separator ("\n",
# which ends the row before, or " "), two NULs and its sign: "-" below zero,
# "0" for zero (whose digit words are all NUL) and NUL above.
_DIGITS = (np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10).astype(np.uint8)
_DIGITS += ord("0")
_LEADING = np.logical_and.accumulate(_DIGITS == ord("0"), axis=1)
_WORD = np.concatenate((_DIGITS, _DIGITS * ~_LEADING)).view(np.uint32).ravel()
_HEAD = np.frombuffer(b"\n\0\0-\n\0\x000\n\0\0\0 \0\0- \0\x000 \0\0\0", dtype=np.uint32)
del _DIGITS, _LEADING


def _render(rows: np.ndarray, brief: np.ndarray, tail: str) -> str:
    """Int64 rows as text: each row's values in decimal, space-separated, and
    "\\n"; a brief row prints only its first value and then `tail`.

    A block of _BLOCK values at a time becomes fixed-width cells of 32-bit
    words: a head word (separator and sign) and then one word per 4-digit
    group, as wide as the block's widest number needs, looked up in _WORD.
    The NUL bytes that pad every cell go in one bytes.translate.  Each head
    holds the separator before its value, so the text's first newline goes
    and one more ends it.
    """
    count, cols = rows.shape
    step = max(1, _BLOCK // cols)
    head = np.minimum(np.arange(cols), 1) * 3 + 1  # _HEAD's offset for each column
    parts = []
    for lo in range(0, count, step):
        block = rows[lo : lo + step]
        mag = np.abs(block).view(np.uint64).ravel()  # abs(-2**63) wraps to 2**63 as uint64
        groups = -(-len(str(int(mag.max()))) // 4)
        cells = np.empty((mag.size, 1 + groups), dtype=np.uint32)
        cells[:, 0] = _HEAD.take(np.sign(block) + head).ravel()
        for j in range(groups, 0, -1):
            high = mag // 10**4
            mag -= high * 10**4
            np.add(mag, 10**4, out=mag, where=high == 0)  # no higher digit: NUL-padded
            cells[:, j] = _WORD.take(mag)
            mag = high
        line = cells.view(np.uint8).reshape(len(block), -1)
        if (short := brief[lo : lo + step]).any():
            first = 4 * (1 + groups)
            line[short, first:] = np.frombuffer(tail.encode().ljust(line.shape[1] - first, b"\0"), dtype=np.uint8)
        if lo == 0:
            line[0, 0] = 0
        parts.append(line.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts) + "\n" if count else ""


def _render_labeled(label: np.ndarray, value: np.ndarray) -> str:
    """One "label value\\n" line per entry, with "inf" for UNREACHED or more."""
    return _render(np.column_stack((label, value)), value >= UNREACHED, " inf")


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
    makes parse/write idempotent after the first parse.  The one text that
    does not read back is the 0-vertex graph's "", an empty edge list.
    """
    rows = _edge_rows(g)
    return _render(rows, rows[:, 2] == 0, "")


def _edge_rows(g: Graph) -> np.ndarray:
    """write_edge_list's rows (lesser label, greater label, weight) in
    order, with (label, any, 0) for a vertex with no edge.  An edge's row
    is its half-edge out of the end with the lesser label.  A function of
    its own, so its scratch arrays are freed before the text is built."""
    by_rank = np.argsort(g.labels)
    rank = np.empty(g.n, dtype=np.int64)
    rank[by_rank] = np.arange(g.n)
    deg = np.diff(g.indptr)
    lo, hi = np.repeat(rank, deg), rank[g.nbr]
    keep = lo < hi
    # Labels are distinct, so ordering by label rank is ordering by label.
    # Rows sort by (lesser rank, greater rank) packed as lo*n + hi, and a
    # vertex with no edge as rank*n, which no edge row shares: the graph is
    # simple, so the keys are distinct and the unstable sort is exact.
    key = np.concatenate((lo[keep], rank[deg == 0]))
    key *= g.n
    key[: g.m] += hi[keep]
    del lo, hi
    order = np.argsort(key)
    rows = np.zeros((len(key), 3), dtype=np.int64)
    lo, hi = np.divmod(key[order], g.n)
    label = g.labels[by_rank]
    rows[:, 0], rows[:, 1] = label[lo], label[hi]
    rows[:, 2] = np.concatenate((g.wt[keep], np.zeros(len(key) - g.m, dtype=np.int64)))[order]
    return rows
