"""Graph loading, adjacency normalization, link splits, synthetic benchmark.

numpy only. The CSR matrix, the sigmoid and the row-block size defined
here are shared with the autodiff layer (`tensor`), which adds the
compiled sparse product.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger("dglfrm.graphdata")

OVERLAP_PROB = 0.3  # chance a synthetic node joins one extra community
# Loaders reject node ids, node counts and feature columns at or above this:
# SparseMatrix stores int32 column indices. It also keeps the dedup keys
# u * n + v and row * width + col below 2**62.
ID_LIMIT = 2**31
# Elements per row block of the blocked ops: link_bce_sum, feature_bce_sum
# and the synthetic edge draw (1 MB of float64 per temporary).
# For link_bce_sum, sizes 2**16 to 2**18 timed within 10% of each other at
# N = 2000 to 5000, 2**20 up to 16% slower. The fused likelihoods keep up to
# BLOCK_WORKERS blocks in flight: at 2**17 two hold what one 2**18 block held.
LINK_BLOCK_ELEMENTS = 2**17


class LoadError(Exception):
    """Input file is malformed or inconsistent."""
    exit_code = 2  # the CLI's exit code, as for every error class


class SplitError(Exception):
    """A link split cannot be produced as requested."""
    exit_code = 2


class ShapeError(ValueError):
    """Operand shapes do not fit the operation."""
    exit_code = 2


def sigmoid_np(x: np.ndarray, out=None) -> np.ndarray:
    """1 / (1 + exp(-x)) into `out` if given, on numpy's vectorized exp."""
    out = np.empty(np.shape(x)) if out is None else out
    with np.errstate(over="ignore"):  # x < -709: exp(-x) is inf and the result 0
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


class SparseMatrix:
    """Immutable CSR float64 matrix: each row's int32 column indices sorted and unique.

    `SparseMatrix(dense)` stores the nonzero entries of a 2-D array.
    """

    __slots__ = ("shape", "indptr", "indices", "values", "_spmm_view", "_spmm_view_t")

    def __init__(self, dense) -> None:
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)  # row-major: already in CSR order
        self._set(dense.shape, rows, cols, dense[rows, cols])

    def _set(self, shape, rows, cols, values) -> "SparseMatrix":
        """Fill from entries in CSR order (rows ascending)."""
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.searchsorted(rows, np.arange(self.shape[0] + 1))
        self.indices, self.values = cols.astype(np.int32, copy=False), values
        self._spmm_view = self._spmm_view_t = None  # tensor.spmm's kernel matrix over the arrays, and its transpose
        return self

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: tuple[int, int]) -> "SparseMatrix":
        """vals[i] at (rows[i], cols[i]); duplicates are summed and explicit zeros kept."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        n_rows, n_cols = shape
        if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= n_rows or cols.max() >= n_cols):
            raise ShapeError(f"index out of range for a {n_rows} x {n_cols} sparse matrix")
        key = rows * n_cols + cols
        order = np.argsort(key)
        key, vals = key[order], vals[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if not first.all():
            starts = np.flatnonzero(first)
            key, vals = key[starts], np.add.reduceat(vals, starts)
        return cls.__new__(cls)._set(shape, *np.divmod(key, n_cols), vals)

    def with_values(self, values: np.ndarray) -> "SparseMatrix":
        """The same pattern holding `values`, one per stored entry."""
        return SparseMatrix.__new__(SparseMatrix)._set(self.shape, self.entry_rows(), self.indices, values)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        arrays = ("indptr", "indices", "values")
        return self.shape == other.shape and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays)

    def __hash__(self) -> int:
        return hash((self.shape, self.nnz))

    def __repr__(self) -> str:
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of `keys` appear in the ascending array `sorted_keys`."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.size
    found[found] = sorted_keys[at[found]] == keys[found]
    return found


@dataclass(frozen=True)
class Graph:
    """Undirected graph: symmetric 0/1 adjacency, optional sparse N x D features."""

    n_nodes: int
    adjacency: SparseMatrix
    features: SparseMatrix | None = None

    def __post_init__(self) -> None:
        a = self.adjacency
        if a.shape != (self.n_nodes, self.n_nodes):
            raise LoadError(f"adjacency shape {a.shape} vs n_nodes {self.n_nodes}")
        # the transpose is built by from_coo, not by spmm's scipy kernel: graphdata stays numpy only
        if a != SparseMatrix.from_coo(a.indices, a.entry_rows(), a.values, a.shape):
            raise LoadError("adjacency must be symmetric")
        if np.any(a.values[a.entry_rows() == a.indices]):
            raise LoadError("adjacency must have a zero diagonal")
        if self.features is not None and self.features.shape[0] != self.n_nodes:
            raise LoadError(
                f"features have {self.features.shape[0]} rows for {self.n_nodes} nodes"
            )

    @property
    def d_features(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2


@dataclass(frozen=True)
class SplitSpec:
    """Train adjacency plus held-out positive/negative pairs (u < v)."""

    n_nodes: int
    train_adjacency: SparseMatrix
    val_pos: tuple[tuple[int, int], ...]
    val_neg: tuple[tuple[int, int], ...]
    test_pos: tuple[tuple[int, int], ...]
    test_neg: tuple[tuple[int, int], ...]
    seed: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Overlapping-block benchmark configuration."""

    n_nodes: int = 100
    n_communities: int = 10
    seed: int = 0


def _adjacency_from_pairs(pairs, n: int) -> SparseMatrix:
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([arr[:, 0], arr[:, 1]])
    cols = np.concatenate([arr[:, 1], arr[:, 0]])
    return SparseMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n))


def _upper_pairs(adjacency: SparseMatrix) -> np.ndarray:
    """Stored entries (u, v) with u < v as an (m, 2) array, in row-major order."""
    rows = adjacency.entry_rows()
    keep = rows < adjacency.indices
    return np.column_stack((rows[keep], adjacency.indices[keep]))


# ---------------------------------------------------------------------------
# text files


def write_atomic(path, data: str | bytes) -> None:
    """Replace `path` with `data` whole: write a temp file beside it, then rename.

    A failed write leaves the old file as it was and removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _int_lines(values: np.ndarray, line_ends: np.ndarray) -> bytes:
    """Ints in (-2**63, 2**63) in decimal, space-separated, with a newline after each index in `line_ends`."""
    values = np.asarray(values, dtype=np.int64)
    magnitude = np.abs(values)
    negative = values < 0
    digits = 1 + np.searchsorted(_POWERS_OF_TEN, magnitude, side="right")
    end = np.cumsum(digits + negative + 1)  # one past each value's separator
    out = np.full(end[-1] if values.size else 0, ord(" "), dtype=np.uint8)
    out[end[line_ends] - 1] = ord("\n")
    out[(end - digits - 2)[negative]] = ord("-")
    for k in range(int(digits.max(initial=0))):
        more = digits > k
        out[end[more] - 2 - k] = ord("0") + magnitude[more] // 10**k % 10
    return out.tobytes()


def _pair_lines(pairs) -> bytes:
    """One "u v" line per row of an (m, 2) array of pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return _int_lines(pairs.ravel(), np.arange(1, pairs.size, 2))


# str.split() splits at the characters for which str.isspace() holds, and
# str.splitlines() ends a line at the first ten of them.
_LINE_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_SPACES = _LINE_BREAKS + "\t\x1f \xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u202f\u205f\u3000"
_CHAR_KIND = np.zeros(ord("\u3000") + 2, dtype=np.int8)  # 0 other, 1 space, 2 line break
_CHAR_KIND[[ord(c) for c in _SPACES]] = 1
_CHAR_KIND[[ord(c) for c in _LINE_BREAKS]] = 2


class _TextFile:
    """A text file's non-blank lines and their whitespace-separated tokens.

    The tokens are those of `str.split()`; token i is `code[start[i]:end[i]]`.
    Row i is the i-th non-blank line: `lineno[i]` is its 0-based index in
    `text.splitlines()`, `width[i]` its number of tokens, `first[i]` the
    index of its first token, and `comment[i]` whether that token starts
    with "#".
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        try:
            self.text = self.path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise LoadError(f"cannot read {self.path}: {e}") from e
        self.code = np.frombuffer(self.text.encode("utf-32-le"), dtype=np.uint32)
        kind = _CHAR_KIND[np.minimum(self.code, _CHAR_KIND.size - 1)]
        # read_text turns "\r\n" into "\n", so each line break is one character
        self.line_of_char = np.cumsum(kind == 2, dtype=np.int32)
        bounds = np.flatnonzero(np.diff(kind == 0, prepend=False, append=False))
        self.start, self.end = bounds[0::2], bounds[1::2]
        line = self.line_of_char[self.start]
        self.first = np.flatnonzero(np.diff(line, prepend=-1))
        self.lineno = line[self.first]
        self.width = np.diff(self.first, append=line.size)
        self.comment = self.code[self.start[self.first]] == ord("#")
        self._read_ints()

    def _read_ints(self) -> None:
        """Every token's value as an integer: an optional "+" or "-" and 1 to 18 ASCII digits."""
        lead = self.code[self.start]
        digits_from = self.start + ((lead == ord("+")) | (lead == ord("-")))
        n_digits = self.end - digits_from
        digits_before = np.r_[0, np.cumsum(self.code - ord("0") < 10, dtype=np.int32)]
        all_digits = digits_before[self.end] - digits_before[digits_from] == n_digits
        self.int_ok = all_digits & (n_digits >= 1) & (n_digits <= 18)
        n_digits[~self.int_ok] = 0
        self.int_value = np.zeros(self.start.size, dtype=np.int64)
        for k in range(int(n_digits.max(initial=0))):  # the digit 10**k counts
            digit = self.code[np.maximum(self.end - 1 - k, 0)].astype(np.int64) - ord("0")
            self.int_value += np.where(n_digits > k, digit, 0) * 10**k
        self.int_value[lead == ord("-")] *= -1

    def _token(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Index of token `col` of each row (0 where the row is shorter), and which rows have one."""
        has = self.width > col
        return np.where(has, self.first + col, 0), has

    def is_word(self, col: int, word: str) -> np.ndarray:
        """Rows whose token `col` is `word`."""
        tok, has = self._token(col)
        start = self.start[tok]
        match = has & (self.end[tok] - start == len(word))
        for k, char in enumerate(word):
            match[match] = self.code[start[match] + k] == ord(char)
        return match

    def ints(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Token `col` of each row as an integer (0 where it is none), and the rows where it is none."""
        tok, has = self._token(col)
        ok = has & self.int_ok[tok]
        return np.where(ok, self.int_value[tok], 0), ~ok

    def words(self, col: int) -> np.ndarray:
        """Token `col` of each row as a str ("" where the row is shorter)."""
        tok, has = self._token(col)
        return np.where(has, np.array(self.text.split(), dtype=object)[tok], "")

    def raw(self, row: int) -> str:
        return repr(self.text.splitlines()[self.lineno[row]])

    def check(self, *checks) -> None:
        """Raise LoadError for the first row that a (mask, message(row)) check flags.

        Checks are in the order they apply to one line, so on a row that
        several flag, the first of them names the problem.
        """
        found = None
        for bad, message in checks:
            row = int(np.argmax(bad)) if bad.any() else len(bad)
            if found is None or row < found[0]:
                found = (row, message)
        if found[0] < len(self.lineno):
            row, message = found
            raise LoadError(f"{self.path}:{self.lineno[row] + 1}: {message(row)}")


def _floats(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert str cells as float() would, and flag the first that does not convert.

    Cells from the flagged one on are left 0.
    """
    bad = np.zeros(words.size, dtype=bool)
    try:
        return words.astype(np.float64), bad
    except ValueError:
        pass
    good, failing = 0, words.size  # words[:good] convert; words[good:failing] hold a failure
    while failing - good > 1:
        mid = (good + failing) // 2
        try:
            words[good:mid].astype(np.float64)
            good = mid
        except ValueError:
            failing = mid
    values = np.zeros(words.size)
    values[:good] = words[:good].astype(np.float64)
    bad[good] = True
    return values, bad


def _first_of_each(key: np.ndarray) -> np.ndarray:
    """Indices that sort `key`, keeping only the first occurrence of each value."""
    order = np.argsort(key, kind="stable")
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    return order[first]


def load_edge_list(path) -> Graph:
    """Read "u v" pairs (0-based ids, '#' comments); dedup, drop self-loops.

    An optional "# nodes N" directive pins the node count; otherwise it is
    inferred as max id + 1 (which silently drops trailing isolated nodes).
    """
    f = _TextFile(path)
    u, bad_u = f.ints(0)
    v, bad_v = f.ints(1)
    count, bad_count = f.ints(2)
    spaced = f.is_word(0, "#") & f.is_word(1, "nodes")  # "# nodes N"
    joined = f.is_word(0, "#nodes")  # "#nodes N"
    declared = np.where(spaced, count, v)
    data = ~f.comment
    f.check(
        ((spaced & bad_count) | (joined & bad_v), lambda i: f"bad nodes directive {f.raw(i)}"),
        ((spaced | joined) & (declared >= ID_LIMIT), lambda i: f"node count at or above 2**31 in {f.raw(i)}"),
        (data & (f.width != 2), lambda i: f"expected 'u v', got {f.raw(i)}"),
        (data & (bad_u | bad_v), lambda i: f"non-integer node id in {f.raw(i)}"),
        (data & ((u < 0) | (v < 0)), lambda i: f"negative node id in {f.raw(i)}"),
        (data & ((u >= ID_LIMIT) | (v >= ID_LIMIT)), lambda i: f"node id at or above 2**31 in {f.raw(i)}"),
    )
    u, v = u[data], v[data]
    loops = u == v
    if loops.all():
        raise LoadError(f"{f.path}: no edges")
    if loops.any():
        logger.warning("%s: dropped %d self-loop(s)", f.path, int(loops.sum()))
    max_id = int(max(u.max(), v.max()))
    n = max_id + 1
    if (spaced | joined).any():
        declared_n = int(declared[spaced | joined][-1])  # the last directive wins
        if declared_n < n:
            raise LoadError(
                f"{f.path}: nodes directive says {declared_n} but ids reach {max_id}"
            )
        n = declared_n
    keys = (np.minimum(u, v) * n + np.maximum(u, v))[~loops]
    keys = keys[_first_of_each(keys)]
    return Graph(n_nodes=n, adjacency=_adjacency_from_pairs(np.column_stack((keys // n, keys % n)), n))


def save_edge_list(g: Graph, path) -> None:
    """Write a graph as "u v" lines with a "# nodes N" directive."""
    write_atomic(path, f"# nodes {g.n_nodes}\n".encode() + _pair_lines(_upper_pairs(g.adjacency)))


def save_memberships(memberships: np.ndarray, path) -> None:
    """Write binary memberships as "node k [k ...]" lines under a two-line header."""
    n, k = memberships.shape
    nodes, communities = np.nonzero(memberships)
    counts = np.bincount(nodes, minlength=n)
    before = np.cumsum(counts) - counts  # communities listed before each node's
    values = np.insert(communities, before, np.arange(n))
    header = f"# nodes {n}\n# communities {k}\n".encode()
    write_atomic(path, header + _int_lines(values, before + np.arange(n) + counts))


def load_features(path, n_nodes: int) -> SparseMatrix:
    """Read node features: "row col value" triplets (.txt) or dense CSV (.csv)."""
    f = _TextFile(path)
    data = ~f.comment
    if f.path.suffix.lower() == ".csv":
        return SparseMatrix(_csv_table(f, data, n_nodes))

    row, bad_row = f.ints(0)
    col, bad_col = f.ints(1)
    value, bad_value = _floats(np.where(data, f.words(2), "0"))
    f.check(
        (data & (f.width != 3), lambda i: f"expected 'row col value', got {f.raw(i)}"),
        (data & (bad_row | bad_col | bad_value), lambda i: f"bad triplet {f.raw(i)}"),
        (data & ((row < 0) | (row >= n_nodes)), lambda i: f"row {row[i]} out of range for {n_nodes} nodes"),
        (data & (col < 0), lambda i: f"negative column {col[i]}"),
        (data & (col >= ID_LIMIT), lambda i: f"column {col[i]} at or above 2**31"),
        (data & ~np.isfinite(value), lambda i: f"non-finite value in {f.raw(i)}"),
    )
    if not data.any():
        raise LoadError(f"{f.path}: no feature entries")
    row, col, value = row[data], col[data], value[data]
    width = int(col.max()) + 1
    # a later triplet for the same entry overwrites an earlier one; keep only
    # the last, as SparseMatrix sums duplicates
    last = row.size - 1 - _first_of_each((row * width + col)[::-1])
    return SparseMatrix.from_coo(row[last], col[last], value[last], (n_nodes, width))


def _csv_table(f: _TextFile, data: np.ndarray, n_nodes: int) -> np.ndarray:
    """Comma-separated floats, one row per data line of `f`."""
    commas = np.bincount(f.line_of_char[f.code == ord(",")], minlength=f.lineno.max(initial=-1) + 1)
    widths = commas[f.lineno[data]] + 1
    lines = np.array(f.text.splitlines(), dtype=object)[f.lineno[data]]
    fields = np.array(",".join(lines).split(",") if lines.size else [], dtype=object)
    value, bad_field = _floats(fields)
    row_of_field = np.repeat(np.flatnonzero(data), widths)
    bad, non_finite = np.zeros_like(data), np.zeros_like(data)
    bad[row_of_field[bad_field]] = True
    non_finite[row_of_field[~np.isfinite(value)]] = True
    f.check(
        (bad, lambda i: f"bad value in {f.raw(i)}"),
        (non_finite, lambda i: f"non-finite value in {f.raw(i)}"),
    )
    if widths.size != n_nodes:
        raise LoadError(f"{f.path}: {widths.size} rows for {n_nodes} nodes")
    distinct = np.unique(widths)
    if distinct.size != 1:
        raise LoadError(f"{f.path}: ragged rows (widths {distinct.tolist()})")
    return value.reshape(n_nodes, -1)


def normalize_adjacency(g: Graph) -> SparseMatrix:
    """Symmetric GCN normalization of A+I by the degree of A+I."""
    a, n = g.adjacency, g.n_nodes
    diagonal = np.arange(n)
    a_tilde = SparseMatrix.from_coo(
        np.r_[a.entry_rows(), diagonal], np.r_[a.indices, diagonal], np.r_[a.values, np.ones(n)], (n, n)
    )
    # each degree summed along its row in column order; no row of A+I is empty
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(a_tilde.values, a_tilde.indptr[:-1]))
    return a_tilde.with_values(a_tilde.values * inv_sqrt[a_tilde.entry_rows()] * inv_sqrt[a_tilde.indices])


def _holdout_size(frac: float, n_edges: int) -> int:
    # round half up, but never less than one edge for a positive fraction
    return max(1, int(math.floor(frac * n_edges + 0.5)))


def make_splits(g: Graph, test_frac: float = 0.10, val_frac: float = 0.05, seed: int = 0) -> SplitSpec:
    """Hold out random undirected edges plus matching non-edge negatives."""
    if not (0.0 < test_frac < 1.0 and 0.0 < val_frac < 1.0):
        raise SplitError(
            f"holdout fractions must lie in (0, 1), got test={test_frac} val={val_frac}"
        )
    edges = _upper_pairs(g.adjacency)
    n_edges = len(edges)
    n_test = _holdout_size(test_frac, n_edges)
    n_val = _holdout_size(val_frac, n_edges)
    if n_test + n_val >= n_edges:
        raise SplitError(
            f"cannot hold out {n_test}+{n_val} of {n_edges} edges and keep a train graph"
        )
    n = g.n_nodes
    n_non_edges = n * (n - 1) // 2 - n_edges
    n_neg = n_test + n_val
    if n_neg > n_non_edges:
        raise SplitError(f"need {n_neg} non-edges for negatives, graph has {n_non_edges}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n_edges)
    test_pos = tuple(map(tuple, edges[order[:n_test]].tolist()))
    val_pos = tuple(map(tuple, edges[order[n_test : n_test + n_val]].tolist()))
    train_edges = edges[order[n_test + n_val :]]

    # Rejection sampling in batches of pairs (u, v), u drawn before v by
    # rng.integers(n): the same stream as one draw per id. In draw order a pair
    # is kept unless u == v, it is an edge or it was kept before, until n_neg
    # are kept or max_attempts pairs are drawn. A pair's key is u * n + v, u < v.
    edge_keys = edges[:, 0] * n + edges[:, 1]  # ascending
    negatives, kept_keys = np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    attempts, max_attempts = 0, 100 * n_neg + 1000
    while len(negatives) < n_neg and attempts < max_attempts:
        batch = min(max_attempts - attempts, 2 * (n_neg - len(negatives)) + 64)
        attempts += batch
        pairs = np.sort(rng.integers(n, size=(batch, 2)), axis=1)
        keys = pairs[:, 0] * n + pairs[:, 1]
        fresh = (pairs[:, 0] != pairs[:, 1]) & ~_contains(edge_keys, keys) & ~_contains(kept_keys, keys)
        fresh = np.flatnonzero(fresh)
        kept = np.sort(fresh[_first_of_each(keys[fresh])])[: n_neg - len(negatives)]
        negatives = np.concatenate([negatives, pairs[kept]])
        kept_keys = np.sort(np.concatenate([kept_keys, keys[kept]]))
    if len(negatives) < n_neg:
        # dense graph: enumerate the remaining non-edges outright
        iu, iv = np.triu_indices(n, k=1)
        keys = iu * n + iv
        free = ~_contains(edge_keys, keys) & ~_contains(kept_keys, keys)
        pool = np.column_stack((iu[free], iv[free]))
        extra = rng.permutation(len(pool))[: n_neg - len(negatives)]
        negatives = np.concatenate([negatives, pool[extra]])
    test_neg = tuple(map(tuple, negatives[:n_test].tolist()))
    val_neg = tuple(map(tuple, negatives[n_test:].tolist()))

    return SplitSpec(
        n_nodes=n,
        train_adjacency=_adjacency_from_pairs(train_edges, n),
        val_pos=val_pos,
        val_neg=val_neg,
        test_pos=test_pos,
        test_neg=test_neg,
        seed=seed,
    )


def generate_synthetic(spec: SyntheticSpec) -> tuple[Graph, np.ndarray]:
    """Sample an overlapping-block graph; returns (graph, binary memberships).

    Node n always belongs to community n mod K and with probability
    `OVERLAP_PROB` to one extra community. Edge (u, v) is Bernoulli of
    sigmoid(8 * <b_u, b_v> - 4): shared-community pairs connect w.p. >= 0.98,
    disjoint pairs w.p. ~0.018.
    """
    n, k = spec.n_nodes, spec.n_communities
    if not 1 <= k <= n:
        raise SplitError(f"n_communities {k} must lie in [1, n_nodes {n}]")
    rng = np.random.default_rng(spec.seed)
    memberships = np.zeros((n, k))
    for node in range(n):
        primary = node % k
        memberships[node, primary] = 1.0
        if k > 1 and rng.random() < OVERLAP_PROB:
            extra = (primary + 1 + int(rng.integers(k - 1))) % k
            memberships[node, extra] = 1.0
    # Pairs u < v are drawn in row-major order, in row blocks so that no N x N
    # array is formed; Generator.random gives the same stream in any chunking.
    pairs = []
    rows = max(1, LINK_BLOCK_ELEMENTS // n)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        probs = sigmoid_np(8.0 * (memberships[a:b] @ memberships.T) - 4.0)
        u, v = np.nonzero(np.arange(n) > np.arange(a, b)[:, None])
        present = rng.random(u.size) < probs[u, v]
        pairs.append(np.column_stack((u[present] + a, v[present])))
    return Graph(n_nodes=n, adjacency=_adjacency_from_pairs(np.concatenate(pairs), n)), memberships


_SPLIT_SECTIONS = ("TRAIN", "VAL_POS", "VAL_NEG", "TEST_POS", "TEST_NEG")


def save_split(split: SplitSpec, path) -> None:
    """Write a split as sectioned "u v" text, reloadable by load_split."""
    sections = {
        "TRAIN": _upper_pairs(split.train_adjacency),
        "VAL_POS": split.val_pos,
        "VAL_NEG": split.val_neg,
        "TEST_POS": split.test_pos,
        "TEST_NEG": split.test_neg,
    }
    parts = [f"# nodes {split.n_nodes}\n# seed {split.seed}\n".encode()]
    for name in _SPLIT_SECTIONS:
        parts += [f"{name}\n".encode(), _pair_lines(sections[name])]
    write_atomic(path, b"".join(parts))


def _raise_at(path, linenos: np.ndarray, name: str, arr: np.ndarray, bad: np.ndarray, problem: str):
    """Raise LoadError naming the line of the first pair flagged in `bad`."""
    if bad.any():
        i = int(np.argmax(bad))
        raise LoadError(f"{path}:{linenos[i]}: {name} pair {arr[i, 0]} {arr[i, 1]} {problem}")


def load_split(path) -> SplitSpec:
    """Read a split written by save_split; malformed content raises LoadError."""
    f = _TextFile(path)
    u, bad_u = f.ints(0)
    v, bad_v = f.ints(1)
    count, bad_count = f.ints(2)
    # "# nodes N" and "#nodes N" both leave two fields after the "#"
    spaced = f.is_word(0, "#") & (f.width == 3)
    joined = f.comment & (f.width == 2)
    header = {
        key: (spaced & f.is_word(1, key)) | (joined & f.is_word(0, "#" + key))
        for key in ("nodes", "seed")
    }
    value = np.where(spaced, count, v)
    bad_value = np.where(spaced, bad_count, bad_v) & (header["nodes"] | header["seed"])
    section = np.full(len(f.lineno), -1)
    for k, name in enumerate(_SPLIT_SECTIONS):
        section[(f.width == 1) & f.is_word(0, name)] = k
    # the section of the last section line at or above each row; -1 above the first
    rows = np.arange(len(section))
    current = section[np.maximum.accumulate(np.where(section >= 0, rows, 0))]
    is_pair = ~f.comment & (section < 0)
    f.check(
        (bad_value, lambda i: f"non-integer header {f.raw(i)}"),
        (header["nodes"] & (value <= 0), lambda i: f"node count must be positive, got {f.raw(i)}"),
        (header["nodes"] & (value >= ID_LIMIT), lambda i: f"node count at or above 2**31 in {f.raw(i)}"),
        (is_pair & (current < 0), lambda i: "pair before any section header"),
        (is_pair & (f.width != 2), lambda i: f"expected 'u v', got {f.raw(i)}"),
        (is_pair & (bad_u | bad_v), lambda i: f"non-integer pair {f.raw(i)}"),
    )
    if not header["nodes"].any():
        raise LoadError(f"{f.path}: missing '# nodes N' header")
    n_nodes = int(value[header["nodes"]][-1])  # the last header wins
    arrays, linenos = {}, {}
    for k, name in enumerate(_SPLIT_SECTIONS):
        in_section = is_pair & (current == k)
        arrays[name] = np.column_stack((u[in_section], v[in_section]))
        linenos[name] = f.lineno[in_section] + 1
    for name, arr in arrays.items():
        bad = (arr < 0).any(axis=1) | (arr >= n_nodes).any(axis=1) | (arr[:, 0] == arr[:, 1])
        problem = f"needs two distinct node ids in [0, {n_nodes})"
        _raise_at(f.path, linenos[name], name, arr, bad, problem)
    train = _adjacency_from_pairs(arrays["TRAIN"], n_nodes)
    if train.nnz != 2 * len(arrays["TRAIN"]):  # the CSR build merged repeated pairs
        arr = arrays["TRAIN"]
        repeat = np.ones(len(arr), dtype=bool)
        repeat[_first_of_each(arr.min(axis=1) * n_nodes + arr.max(axis=1))] = False
        _raise_at(f.path, linenos["TRAIN"], "TRAIN", arr, repeat, "repeats an earlier TRAIN pair")
    train_keys = train.entry_rows() * n_nodes + train.indices  # ascending
    for name in _SPLIT_SECTIONS[1:]:
        arr = arrays[name]
        leaked = _contains(train_keys, arr[:, 0] * n_nodes + arr[:, 1])
        _raise_at(f.path, linenos[name], name, arr, leaked, "is also a TRAIN edge")
    held_out = {name: tuple(map(tuple, arrays[name].tolist())) for name in _SPLIT_SECTIONS[1:]}
    return SplitSpec(
        n_nodes=n_nodes,
        train_adjacency=train,
        val_pos=held_out["VAL_POS"],
        val_neg=held_out["VAL_NEG"],
        test_pos=held_out["TEST_POS"],
        test_neg=held_out["TEST_NEG"],
        seed=int(value[header["seed"]][-1]) if header["seed"].any() else 0,
    )
