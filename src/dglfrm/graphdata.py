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

    `SparseMatrix(dense)` stores the nonzero entries of a 2-D array. Two facts
    derived from the arrays are computed at most once and kept: the arrays
    tensor.spmm's compiled kernel reads, for the matrix and its transpose,
    and whether the matrix is symmetric, which `_adjacency_from_pairs` knows
    when it builds one.
    """

    __slots__ = ("shape", "indptr", "indices", "values", "_symmetric", "_spmm_view", "_spmm_view_t")

    def __init__(self, dense) -> None:
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)  # row-major: already in CSR order
        self._set(dense.shape, np.searchsorted(rows, np.arange(dense.shape[0] + 1)), cols, dense[rows, cols])

    def _set(self, shape, indptr, indices, values, symmetric: bool | None = None) -> "SparseMatrix":
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr, self.indices, self.values = indptr, indices.astype(np.int32, copy=False), values
        self._symmetric = symmetric  # None until is_symmetric() decides
        self._spmm_view = self._spmm_view_t = None  # tensor.spmm's kernel arrays of the matrix and of its transpose
        return self

    @classmethod
    def _from_keys(cls, keys, values, shape, symmetric: bool | None = None) -> "SparseMatrix":
        """values[i] at key row * n_cols + col; keys ascending, the values of a repeated key summed in order."""
        first = _run_starts(keys)
        if not first.all():
            starts = np.flatnonzero(first)
            keys, values = keys[starts], np.add.reduceat(values, starts)
        indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
        return cls.__new__(cls)._set(shape, indptr, keys % shape[1], values, symmetric)

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
        return cls._from_keys(key[order], vals[order], shape)

    def with_values(self, values: np.ndarray) -> "SparseMatrix":
        """The same pattern holding `values`, one per stored entry."""
        return SparseMatrix.__new__(SparseMatrix)._set(self.shape, self.indptr, self.indices, values)

    def is_symmetric(self) -> bool:
        """Whether the matrix equals its transpose, stored zeros included."""
        if self._symmetric is None:
            n, rows = self.shape[0], self.entry_rows()
            mirrored = self.indices * np.int64(n) + rows  # each entry's key in the transpose
            t = np.argsort(mirrored)  # the transpose's k-th entry is entry t[k]
            self._symmetric = self.shape == (n, n) and np.array_equal(mirrored[t], rows * n + self.indices) \
                and np.array_equal(self.values[t], self.values)
        return self._symmetric

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


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in an ascending array."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


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
        if not a.is_symmetric():
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


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """Train adjacency plus held-out pairs, each an (m, 2) int64 array.

    make_splits gives u < v, load_split each pair as its line gives it.
    Two splits compare field by field, with np.array_equal for the pairs.
    """

    n_nodes: int
    train_adjacency: SparseMatrix
    val_pos: np.ndarray
    val_neg: np.ndarray
    test_pos: np.ndarray
    test_neg: np.ndarray
    seed: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Overlapping-block benchmark configuration."""

    n_nodes: int = 100
    n_communities: int = 10
    seed: int = 0


def _adjacency_from_pairs(pairs, n: int) -> SparseMatrix:
    """The symmetric adjacency of (m, 2) pairs in [0, n): 1 per pair, summed over repeats as from_coo sums."""
    u, v = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    return SparseMatrix._from_keys(keys, np.ones(keys.size), (n, n), symmetric=True)


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
_CHAR_KIND = np.zeros(0x110000, dtype=np.int8)  # per code point: 0 other, 1 space, 2 line break
_CHAR_KIND[[ord(c) for c in _SPACES]] = 1
_CHAR_KIND[[ord(c) for c in _LINE_BREAKS]] = 2


class _TextFile:
    """A text file's non-blank lines and their whitespace-separated tokens.

    The tokens are those of `str.split()`; token i is `code[start[i]:end[i]]`.
    Row i is the i-th non-blank line: `lineno[i]` is its 0-based index in
    `text.splitlines()`, `width[i]` its number of tokens, `first[i]` the
    index of its first token, and `comment[i]` whether that token starts
    with "#".

    `code` is the text as uint8 if it is ASCII, else as uint32 code points; the
    same code reads both. A token's line is the number of line breaks before it.
    Loading an edge list peaks at about 16 bytes of memory per byte of file.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        try:
            self.text = self.path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise LoadError(f"cannot read {self.path}: {e}") from e
        wide = not self.text.isascii()
        self.code = np.frombuffer(self.text.encode("utf-32-le" if wide else "ascii"), np.uint32 if wide else np.uint8)
        kind = _CHAR_KIND[self.code]  # read_text turns "\r\n" into "\n", so each line break is one character
        word = kind == 0
        self.start, self.end = np.flatnonzero(np.diff(word, prepend=False, append=False)).reshape(-1, 2).T.copy()
        self.breaks, non_digits = np.flatnonzero(kind == 2), np.flatnonzero(word & (self.code - ord("0") >= 10))
        del kind, word  # of the arrays per character only `code` is kept
        line = np.searchsorted(self.breaks, self.start)
        self.first = np.flatnonzero(_run_starts(line))
        self.lineno = line[self.first]
        self.width = np.diff(self.first, append=line.size)
        self.comment = self.code[self.start[self.first]] == ord("#")
        self._read_ints(non_digits)
        self._worded = np.flatnonzero(~self.int_ok[self.first])  # rows that may hold a section or directive word

    def _read_ints(self, non_digits: np.ndarray) -> None:
        """Every token's value as an integer: an optional "+" or "-" and 1 to 18 ASCII digits."""
        lead = self.code[self.start]
        signed = (lead == ord("+")) | (lead == ord("-"))
        n_digits = self.end - self.start - signed
        holder = np.searchsorted(self.start, non_digits, side="right") - 1  # the token each non-digit is in
        self.int_ok = (n_digits >= 1) & (n_digits <= 18)
        self.int_ok[holder[non_digits >= self.start[holder] + signed[holder]]] = False  # a non-digit after the sign
        n_digits[~self.int_ok] = 0
        self.int_value = np.zeros(self.start.size, dtype=np.int64)
        for k in range(int(n_digits.max(initial=0))):  # the digit 10**k counts
            digit = self.code[np.maximum(self.end - 1 - k, 0)] - ord("0")
            self.int_value += np.where(n_digits > k, digit, 0) * np.int64(10**k)
        self.int_value[lead == ord("-")] *= -1

    def _token(self, col: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of token `col` of each row (0 where the row is shorter), and which rows have one."""
        has = self.width > col
        return np.where(has, self.first + col, 0), has

    def is_word(self, col: int, word: str) -> np.ndarray:
        """Rows whose token `col` is `word`, among the rows whose first token is not an integer."""
        rows = self._worded[self.width[self._worded] > col]
        tok = self.first[rows] + col
        match = self.end[tok] - self.start[tok] == len(word)
        for k, char in enumerate(word):
            match[match] = self.code[self.start[tok[match]] + k] == ord(char)
        return np.bincount(rows[match], minlength=len(self.first)) > 0

    def ints(self, col: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Token `col` of each row as an integer (0 where it is none), and the rows where it is none."""
        tok, has = self._token(col)
        ok = has & self.int_ok[tok]
        return np.where(ok, self.int_value[tok], 0), ~ok

    def directive(self, key: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows that are "# key ..." or "#key ...", the integer after the key, and the rows among
        them where that is not exactly one integer."""
        spaced = self.is_word(0, "#") & self.is_word(1, key)
        rows = spaced | self.is_word(0, "#" + key)
        value, bad = self.ints(1 + spaced)
        return rows, value, rows & (bad | (self.width != 2 + spaced))

    def words(self, col: int) -> np.ndarray:
        """Token `col` of each row as a str ("" where the row is shorter), decoded from a copy of those tokens only."""
        tok, has = self._token(col)
        start = self.start[tok[has]]
        size = self.end[tok[has]] - start + 1  # each token and the space put after it
        at = np.cumsum(size) - size
        chars = self.code[np.minimum(np.repeat(start - at, size) + np.arange(size.sum()), self.code.size - 1)]
        chars[at + size - 1] = ord(" ")
        out = np.full(len(self.first), "", dtype=object)
        out[has] = np.array(chars.tobytes().decode("utf-32-le" if chars.itemsize == 4 else "ascii").split(), dtype=object)
        return out

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


def load_edge_list(path) -> Graph:
    """Read "u v" pairs (0-based ids, '#' comments); dedup, drop self-loops.

    An optional "# nodes N" directive pins the node count; otherwise it is
    inferred as max id + 1 (which silently drops trailing isolated nodes).
    """
    f = _TextFile(path)
    u, bad_u = f.ints(0)
    v, bad_v = f.ints(1)
    nodes, declared, bad_nodes = f.directive("nodes")
    data = ~f.comment
    f.check(
        (bad_nodes, lambda i: f"bad nodes directive {f.raw(i)}"),
        (nodes & (declared >= ID_LIMIT), lambda i: f"node count at or above 2**31 in {f.raw(i)}"),
        (data & (f.width != 2), lambda i: f"expected 'u v', got {f.raw(i)}"),
        (data & (bad_u | bad_v), lambda i: f"non-integer node id in {f.raw(i)}"),
        (data & ((u < 0) | (v < 0)), lambda i: f"negative node id in {f.raw(i)}"),
        (data & ((u >= ID_LIMIT) | (v >= ID_LIMIT)), lambda i: f"node id at or above 2**31 in {f.raw(i)}"),
    )
    u, v, path = u[data], v[data], f.path
    del f  # the text's arrays are freed before the adjacency is built
    loops = u == v
    if loops.all():
        raise LoadError(f"{path}: no edges")
    if loops.any():
        logger.warning("%s: dropped %d self-loop(s)", path, int(loops.sum()))
    max_id = int(max(u.max(), v.max()))
    n = max_id + 1
    if nodes.any():
        declared_n = int(declared[nodes][-1])  # the last directive wins
        if declared_n < n:
            raise LoadError(
                f"{path}: nodes directive says {declared_n} but ids reach {max_id}"
            )
        n = declared_n
    keys = np.sort((np.minimum(u, v) * n + np.maximum(u, v))[~loops])
    keys = keys[_run_starts(keys)]  # as np.unique, without its hash table
    return Graph(n_nodes=n, adjacency=_adjacency_from_pairs(np.column_stack(np.divmod(keys, n)), n))


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
    last = row.size - 1 - np.unique((row * width + col)[::-1], return_index=True)[1]
    return SparseMatrix.from_coo(row[last], col[last], value[last], (n_nodes, width))


def _csv_table(f: _TextFile, data: np.ndarray, n_nodes: int) -> np.ndarray:
    """Comma-separated floats, one row per data line of `f`."""
    commas = np.bincount(np.searchsorted(f.breaks, np.flatnonzero(f.code == ord(","))), minlength=f.lineno.max(initial=-1) + 1)
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
    """Symmetric GCN normalization of A+I by the degree of A+I.

    A+I is built without a sort: the diagonal goes in among A's ascending keys,
    and a stored (zero) diagonal entry is summed with its 1, as from_coo sums."""
    a, n = g.adjacency, g.n_nodes
    keys, diagonal = a.entry_rows() * n + a.indices, np.arange(n) * (n + 1)
    at = np.searchsorted(keys, diagonal)
    a_tilde = SparseMatrix._from_keys(np.insert(keys, at, diagonal), np.insert(a.values, at, 1.0), (n, n))
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
    test_pos = edges[order[:n_test]]
    val_pos = edges[order[n_test : n_test + n_val]]
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
        kept = np.sort(fresh[np.unique(keys[fresh], return_index=True)[1]])[: n_neg - len(negatives)]
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
    return SplitSpec(
        n_nodes=n,
        train_adjacency=_adjacency_from_pairs(train_edges, n),
        val_pos=val_pos,
        val_neg=negatives[n_test:],
        test_pos=test_pos,
        test_neg=negatives[:n_test],
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


def load_split(path, g: Graph) -> SplitSpec:
    """Read a split of `g` written by save_split; a split that does not fit `g` raises LoadError.

    Besides the format, one pass over the lines checks three rules and names
    the first line that breaks any of them:
    1. every "# nodes N" directive gives g's node count;
    2. TRAIN, VAL_POS and TEST_POS pairs are edges of g; VAL_NEG and TEST_NEG
       pairs are not;
    3. no unordered pair appears twice in the file.
    Then 4. the TRAIN, VAL_POS and TEST_POS pairs are all of g's edges; the
    error names the first edge that no section lists.
    """
    f = _TextFile(path)
    n = g.n_nodes
    u, bad_u = f.ints(0)
    v, bad_v = f.ints(1)
    nodes, n_value, bad_nodes = f.directive("nodes")
    seeds, seed_value, bad_seed = f.directive("seed")
    section = np.full(len(f.lineno), -1)
    for k, name in enumerate(_SPLIT_SECTIONS):
        section[(f.width == 1) & f.is_word(0, name)] = k
    # the section of the last section line at or above each row; -1 above the first
    current = section[np.maximum.accumulate(np.where(section >= 0, np.arange(len(section)), 0))]
    is_pair = ~f.comment & (section < 0)
    positive = np.isin(current, (0, 1, 3))  # TRAIN, VAL_POS, TEST_POS
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    out_of_range = (lo < 0) | (hi >= n) | (u == v)
    key = np.where(is_pair & ~out_of_range, lo * n + hi, -1)
    edges = _upper_pairs(g.adjacency)
    edge_keys = edges[:, 0] * n + edges[:, 1]  # ascending
    keys, first, same = np.unique(key, return_index=True, return_inverse=True)
    first_row = first[same]  # the first row holding each row's key
    is_edge = _contains(edge_keys, keys)[same]

    def pair(i: int) -> str:
        return f"{_SPLIT_SECTIONS[current[i]]} pair {u[i]} {v[i]}"

    f.check(
        (bad_nodes, lambda i: f"bad nodes directive {f.raw(i)}"),
        (bad_seed, lambda i: f"bad seed directive {f.raw(i)}"),
        (nodes & (n_value != n), lambda i: f"split has {n_value[i]} nodes, graph has {n}"),
        (is_pair & (current < 0), lambda i: "pair before any section header"),
        (is_pair & (f.width != 2), lambda i: f"expected 'u v', got {f.raw(i)}"),
        (is_pair & (bad_u | bad_v), lambda i: f"non-integer node id in {f.raw(i)}"),
        (is_pair & out_of_range, lambda i: f"{pair(i)} needs two distinct node ids in [0, {n})"),
        (is_pair & (is_edge != positive),
         lambda i: f"{pair(i)} is {'not ' if positive[i] else ''}an edge of the graph"),
        (is_pair & (first_row != np.arange(len(key))),
         lambda i: f"{pair(i)} repeats line {f.lineno[first_row[i]] + 1}"),
    )
    if not nodes.any():
        raise LoadError(f"{f.path}: missing '# nodes N' header")
    if np.count_nonzero(is_pair & positive) < len(edges):  # by rules 2 and 3 they are distinct edges
        a, b = edges[~_contains(keys, edge_keys)][0]
        raise LoadError(f"{f.path}: graph edge {a} {b} is in none of TRAIN, VAL_POS and TEST_POS")
    pairs, rows = np.column_stack((u, v)), np.flatnonzero(is_pair)
    train, val_pos, val_neg, test_pos, test_neg = (pairs[rows[current[rows] == k]] for k in range(len(_SPLIT_SECTIONS)))
    return SplitSpec(
        n_nodes=n,
        train_adjacency=_adjacency_from_pairs(train, n),
        val_pos=val_pos,
        val_neg=val_neg,
        test_pos=test_pos,
        test_neg=test_neg,
        seed=int(seed_value[seeds][-1]) if seeds.any() else 0,
    )
