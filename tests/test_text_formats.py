"""The array-based text readers and writers against per-line reference code.

The `oracle_*` functions are the line-by-line parsers and writers that
`graphdata` used before its readers were rewritten around whole-array
numpy operations. Rules added or changed in them since: non-finite
feature values are rejected; a split section may be empty; both formats
read a `# key N` directive by one rule, exactly one integer after the key;
split pair lines give the edge list's messages; a split is read against
its graph, whose node count, edges and non-edges it must match, with no
pair twice and no edge left out; and a split's line errors name the first
bad line. Generated files must give the same graph, split or features, or
the same LoadError text, from both.

Deliberate differences, tested one by one at the end: integer fields are
an optional sign and 1 to 18 ASCII digits, so `1_000`, non-ASCII digits
and longer numerals that Python's `int` accepts are rejected; a file
that is not valid text is a LoadError instead of a UnicodeDecodeError;
node ids, node counts and feature columns must be below 2**31.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dglfrm import graphdata as gd
from dglfrm.graphdata import LoadError, SplitSpec, _adjacency_from_pairs
from oracles import as_scipy, assert_splits_equal, pair_array, to_dense

# ---------------------------------------------------------------------------
# reference implementations


def oracle_load_edge_list(path) -> gd.Graph:
    path = Path(path)
    pairs: set[tuple[int, int]] = set()
    max_id = -1
    declared_n: int | None = None
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise LoadError(f"cannot read {path}: {e}") from e
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            fields = line[1:].split()
            if fields[:1] == ["nodes"]:
                try:
                    (declared_n,) = map(int, fields[1:])
                except ValueError as e:
                    raise LoadError(f"{path}:{lineno}: bad nodes directive {raw!r}") from e
            continue
        parts = line.split()
        if len(parts) != 2:
            raise LoadError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise LoadError(f"{path}:{lineno}: non-integer node id in {raw!r}") from e
        if u < 0 or v < 0:
            raise LoadError(f"{path}:{lineno}: negative node id in {raw!r}")
        max_id = max(max_id, u, v)
        if u == v:
            continue
        pairs.add((min(u, v), max(u, v)))
    if not pairs:
        raise LoadError(f"{path}: no edges")
    n = max_id + 1
    if declared_n is not None:
        if declared_n < n:
            raise LoadError(
                f"{path}: nodes directive says {declared_n} but ids reach {max_id}"
            )
        n = declared_n
    return gd.Graph(n_nodes=n, adjacency=_adjacency_from_pairs(sorted(pairs), n))


def oracle_load_features(path, n_nodes: int) -> np.ndarray:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise LoadError(f"cannot read {path}: {e}") from e

    if path.suffix.lower() == ".csv":
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as e:
                raise LoadError(f"{path}:{lineno}: bad value in {raw!r}") from e
            if not all(map(math.isfinite, rows[-1])):  # the non-finite rule
                raise LoadError(f"{path}:{lineno}: non-finite value in {raw!r}")
        if len(rows) != n_nodes:
            raise LoadError(f"{path}: {len(rows)} rows for {n_nodes} nodes")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise LoadError(f"{path}: ragged rows (widths {sorted(widths)})")
        return np.asarray(rows)

    triplets = []
    max_col = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise LoadError(f"{path}:{lineno}: expected 'row col value', got {raw!r}")
        try:
            r, c, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as e:
            raise LoadError(f"{path}:{lineno}: bad triplet {raw!r}") from e
        if not 0 <= r < n_nodes:
            raise LoadError(f"{path}:{lineno}: row {r} out of range for {n_nodes} nodes")
        if c < 0:
            raise LoadError(f"{path}:{lineno}: negative column {c}")
        if not math.isfinite(val):  # the non-finite rule
            raise LoadError(f"{path}:{lineno}: non-finite value in {raw!r}")
        max_col = max(max_col, c)
        triplets.append((r, c, val))
    if not triplets:
        raise LoadError(f"{path}: no feature entries")
    out = np.zeros((n_nodes, max_col + 1))
    for r, c, val in triplets:
        out[r, c] = val
    return out


SECTIONS = ("TRAIN", "VAL_POS", "VAL_NEG", "TEST_POS", "TEST_NEG")


def oracle_load_split(path, g: gd.Graph) -> SplitSpec:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise LoadError(f"cannot read {path}: {e}") from e
    n = g.n_nodes
    coo = as_scipy(g.adjacency).tocoo()
    edges = {(int(u), int(v)) for u, v in zip(coo.row, coo.col) if u < v}
    headers: dict[str, int] = {}
    sections: dict[str, list[tuple[int, int]]] = {name: [] for name in SECTIONS}
    first_line: dict[tuple[int, int], int] = {}  # each unordered pair's line
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] in (["nodes"], ["seed"]):
                try:
                    (headers[parts[0]],) = map(int, parts[1:])
                except ValueError as e:
                    raise LoadError(f"{path}:{lineno}: bad {parts[0]} directive {raw!r}") from e
                if parts[0] == "nodes" and headers["nodes"] != n:  # rule 1
                    raise LoadError(f"{path}:{lineno}: split has {headers['nodes']} nodes, graph has {n}")
            continue
        if line in SECTIONS:
            current = line
            continue
        if current is None:
            raise LoadError(f"{path}:{lineno}: pair before any section header")
        parts = line.split()
        if len(parts) != 2:
            raise LoadError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise LoadError(f"{path}:{lineno}: non-integer node id in {raw!r}") from e
        if not (0 <= u < n and 0 <= v < n and u != v):
            raise LoadError(f"{path}:{lineno}: {current} pair {u} {v} needs two distinct node ids in [0, {n})")
        pair = (min(u, v), max(u, v))
        positive = current in ("TRAIN", "VAL_POS", "TEST_POS")
        if (pair in edges) != positive:  # rule 2
            is_or_not = "is not" if positive else "is"
            raise LoadError(f"{path}:{lineno}: {current} pair {u} {v} {is_or_not} an edge of the graph")
        if pair in first_line:  # rule 3
            raise LoadError(f"{path}:{lineno}: {current} pair {u} {v} repeats line {first_line[pair]}")
        first_line[pair] = lineno
        sections[current].append((u, v))
    if "nodes" not in headers:
        raise LoadError(f"{path}: missing '# nodes N' header")
    unlisted = sorted(edges - first_line.keys())  # rule 4
    if unlisted:
        a, b = unlisted[0]
        raise LoadError(f"{path}: graph edge {a} {b} is in none of TRAIN, VAL_POS and TEST_POS")
    return SplitSpec(
        n_nodes=n,
        train_adjacency=_adjacency_from_pairs(sections["TRAIN"], n),
        val_pos=pair_array(sections["VAL_POS"]),
        val_neg=pair_array(sections["VAL_NEG"]),
        test_pos=pair_array(sections["TEST_POS"]),
        test_neg=pair_array(sections["TEST_NEG"]),
        seed=headers.get("seed", 0),
    )


def oracle_edge_list_text(g: gd.Graph) -> str:
    coo = as_scipy(g.adjacency).tocoo()
    lines = [f"# nodes {g.n_nodes}"]
    lines.extend(f"{u} {v}" for u, v in zip(coo.row, coo.col) if u < v)
    return "\n".join(lines) + "\n"


def oracle_split_text(split: SplitSpec) -> str:
    lines = [f"# nodes {split.n_nodes}", f"# seed {split.seed}"]
    coo = as_scipy(split.train_adjacency).tocoo()
    sections = {
        "TRAIN": [(int(u), int(v)) for u, v in zip(coo.row, coo.col) if u < v],
        "VAL_POS": split.val_pos,
        "VAL_NEG": split.val_neg,
        "TEST_POS": split.test_pos,
        "TEST_NEG": split.test_neg,
    }
    for name in SECTIONS:
        lines.append(name)
        lines.extend(f"{u} {v}" for u, v in sections[name])
    return "\n".join(lines) + "\n"


def oracle_memberships_text(memberships: np.ndarray) -> str:
    n, k = memberships.shape
    lines = [f"# nodes {n}", f"# communities {k}"]
    for node in range(n):
        ks = " ".join(str(k) for k in np.flatnonzero(memberships[node]))
        lines.append(f"{node} {ks}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generated files

# separators and line ends the formats meet in practice, plus the Unicode
# whitespace that str.split() and str.splitlines() also honour
SPACES = [" ", " ", " ", "\t", "  ", " \t", "\xa0", "　", "\x1f", " "]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", " "]
JUNK = ["x", "1.5", "1e3", "0x1", "+", "-", "--1", "1-", "#", "#x", "1#2", "nodes", "seed",
        "#nodes", "#seed", "TRAIN", "VAL_POS", "TEST_NEG", "nan", "inf", "-inf", "1,2", "٫"]


def ids(low=-2, high=9):
    """Integer fields, now and then signed, zero-padded or below `low` + 1."""
    plain = st.integers(max(low, 0), high).map(str)
    decorated = st.integers(0, high).flatmap(lambda i: st.sampled_from([f"+{i}", f"0{i}", f"00{i}"]))
    negative = st.integers(low, 0).map(str)
    return st.integers(0, 99).flatmap(lambda r: plain if r < 85 else decorated if r < 95 else negative)


@st.composite
def line_of(draw, tokens):
    """Tokens joined by random whitespace, sometimes with an inline comment."""
    words = list(tokens)
    if draw(st.integers(0, 39)) == 0:
        words.append(draw(st.sampled_from(["#", "# c", "#c"])))
    sep = draw(st.sampled_from(SPACES))
    lead = draw(st.sampled_from(["", "", " ", "\t", "　"]))
    trail = draw(st.sampled_from(["", "", " ", "\t"]))
    return lead + sep.join(words) + trail


@st.composite
def odd_line(draw, field):
    """A line that is blank, a comment, of the wrong width, or holds junk."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.sampled_from(["", " ", "\t", "　"]))
    if kind == 1:
        return draw(st.sampled_from(["#", "# a comment", "  #x y", "#\tnodes", "# seed"]))
    if kind == 2:
        return draw(line_of(draw(st.lists(field, min_size=1, max_size=4))))
    if kind == 3:
        return draw(line_of(draw(st.lists(st.sampled_from(JUNK), min_size=1, max_size=3))))
    if kind == 4:
        return draw(line_of([draw(field), draw(st.sampled_from(JUNK))]))
    return draw(line_of(draw(st.lists(st.one_of(field, st.sampled_from(JUNK)),
                                      min_size=2, max_size=3))))


@st.composite
def text_file(draw, good_line, field, headers=()):
    """Mostly good lines with a few odd ones, header lines and random line ends."""
    lines = draw(st.lists(good_line, min_size=0, max_size=25))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd_line(field)))
    for header in headers:
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, min(2, len(lines)))), draw(header))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def nodes_directive(draw):
    count = draw(st.one_of(st.integers(-1, 14).map(str), st.sampled_from(["x", "", "+12", "1.0"])))
    form = draw(st.sampled_from(["# nodes {}", "#nodes {}", "#  nodes\t{}", "# nodes {} extra"]))
    return form.format(count).rstrip()


def pair_line(low=-1, high=9):
    return st.tuples(ids(low, high), ids(low, high)).flatmap(lambda uv: line_of(uv))


def outcome(load, *args):
    """What a loader gives: its value, or the LoadError text."""
    try:
        return "ok", load(*args)
    except LoadError as e:
        return "error", str(e)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@SETTINGS
@given(text=text_file(pair_line(), ids(), headers=[nodes_directive()]))
def test_edge_list_matches_oracle(tmp_path, text):
    path = write(tmp_path, "e.txt", text)
    expected = outcome(oracle_load_edge_list, path)
    got = outcome(gd.load_edge_list, path)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
    else:
        assert got[1].n_nodes == expected[1].n_nodes
        assert got[1].adjacency == expected[1].adjacency


@st.composite
def triplet_line(draw, n):
    value = draw(st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False).map(repr),
        st.integers(-5, 5).map(str),
        st.sampled_from(["1", "0", "-0.0", ".5", "5.", "1e-3", "1E2", "1.5.", "nan", "inf", "-Infinity", "1e999"]),
    ))
    row = draw(st.one_of(ids(0, n - 1), ids(0, n - 1), ids(-1, n)))
    col = draw(st.one_of(ids(0, 6), ids(0, 6), ids(-1, 6)))
    return draw(line_of([row, col, value]))


@st.composite
def csv_file(draw, n, width):
    fields = st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False).map(repr),
        st.sampled_from(["0", "1", " 2.5", "3 ", "\t-1", "1e2", "nan", "inf", "", "x", "1 2"]),
    )
    good = st.floats(-10, 10, allow_nan=False).map(repr)
    rows = []
    for _ in range(n + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))):
        cells = [draw(good) for _ in range(width)]
        if draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, width - 1))] = draw(fields)
        if draw(st.integers(0, 19)) == 0:
            cells = cells[:-1] if draw(st.booleans()) and width > 1 else cells + [draw(good)]
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        rows.append(lead + ",".join(cells))
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.sampled_from(["", " ", "# comment, with, commas", "#1,2", "  # x"]))
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return "".join(row + draw(st.sampled_from(LINE_ENDS)) for row in rows)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 6))
def test_triplet_features_match_oracle(tmp_path, data, n):
    text = data.draw(text_file(triplet_line(n), ids()))
    path = write(tmp_path, "f.txt", text)
    expected = outcome(oracle_load_features, path, n)
    got = outcome(gd.load_features, path, n)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
    else:
        np.testing.assert_array_equal(to_dense(got[1]), expected[1])


@pytest.mark.parametrize(
    "name,text",
    [
        ("f.txt", "0 0 1\n1 2 1\n"),
        ("f.txt", "# row col value\n0 1 2\n1 0 5\n0 1 3\n"),  # the last triplet wins
        ("f.txt", "0 1 2\n0 1 0\n1 3 0\n1 0 -0.0\n"),  # explicit zeros, one overwriting
        ("f.txt", "1 4 0.25\n"),  # row 0 empty
        ("f.csv", "1.0,0.5\n0.0,2.0\n"),
        ("f.csv", "0,0,0\n# comment\n0,-1.5,0\n"),
    ],
    ids=["triplets", "last-wins", "explicit-zeros", "empty-row", "csv", "csv-zero-row"],
)
def test_feature_fixtures_match_oracle(tmp_path, name, text):
    path = write(tmp_path, name, text)
    expected = oracle_load_features(path, 2)
    got = gd.load_features(path, 2)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(to_dense(got), expected)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 6), width=st.integers(1, 4))
def test_csv_features_match_oracle(tmp_path, data, n, width):
    path = write(tmp_path, "f.csv", data.draw(csv_file(n, width)))
    expected = outcome(oracle_load_features, path, n)
    got = outcome(gd.load_features, path, n)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
    else:
        np.testing.assert_array_equal(to_dense(got[1]), expected[1])


def random_graph(seed: int, n: int, density: float = 0.5) -> gd.Graph:
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    pairs = np.column_stack((iu[keep], iv[keep]))
    return gd.Graph(n_nodes=n, adjacency=_adjacency_from_pairs(pairs, n))


@st.composite
def split_file(draw):
    """A graph and its saved split, then lines edited, moved, added or dropped.

    Last, up to two pairs of distinct ids in range may be inserted anywhere.
    Most break a rule: an edge listed again, a non-edge among the positives.
    So a file often holds two bad lines of different kinds, and the first by
    line must be named.
    """
    g = random_graph(draw(st.integers(0, 10**6)), draw(st.integers(6, 10)), density=0.3)
    try:
        split = gd.make_splits(g, 0.2, 0.2, seed=draw(st.integers(0, 99)))
    except gd.SplitError:
        assume(False)  # too few edges or non-edges to hold out
    lines = oracle_split_text(split).splitlines()
    n = split.n_nodes
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.integers(0, 7))
        if edit == 0:  # re-space the line
            lines[i] = draw(line_of(lines[i].split()))
        elif edit == 1:  # swap the pair or header words
            lines[i] = " ".join(reversed(lines[i].split()))
        elif edit == 2:
            lines.insert(i, draw(odd_line(ids(-1, n))))
        elif edit == 3:
            del lines[i]
        elif edit == 4:  # repeat a line elsewhere
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == 5:
            lines.insert(i, draw(pair_line(-1, n)))
        elif edit == 6:
            lines.insert(i, draw(st.sampled_from(SECTIONS)))
        else:
            header = draw(st.sampled_from([
                "# nodes {}", "#nodes {}", "# seed {}", "#seed {}",
                "# nodes {} 1", "#seed {} x", "##nodes {}", "# nodes", "#seed",
            ]))
            lines.insert(i, header.format(draw(st.one_of(ids(-1, n + 2), st.sampled_from(JUNK)))))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        lines.insert(draw(st.integers(0, len(lines))), f"{u} {v}")
    return g, "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)


@SETTINGS
@given(case=split_file())
def test_split_matches_oracle(tmp_path, case):
    g, text = case
    path = write(tmp_path, "s.split", text)
    expected = outcome(oracle_load_split, path, g)
    got = outcome(gd.load_split, path, g)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
    else:
        assert_splits_equal(got[1], expected[1])


# ---------------------------------------------------------------------------
# both character widths


def widened(text: str) -> str:
    """The text with a non-ASCII comment line first, its first " " made an
    ideographic space and CRLF line ends: the readers take it as uint32 code points."""
    return ("# ünïcödé — 注释\n" + text.replace(" ", "\u3000", 1)).replace("\n", "\r\n")


def width_cases(case):
    """(file name, loader, good text, bad text, bad line, message) of one format."""
    if case == "split":
        g = random_graph(3, 8)
        lines = oracle_split_text(gd.make_splits(g, 0.2, 0.2, seed=1)).splitlines(keepends=True)
        bad = "".join(lines[:4] + ["0 x\n"] + lines[4:])
        return "s.split", lambda p: gd.load_split(p, g), "".join(lines), bad, 5, "non-integer node id in '0 x'"
    return {
        "edges": ("e.txt", gd.load_edge_list, "# nodes 6\n0 1\n1 2\n2 0\n3 4\n", "0 1\n1 2\n2 x\n",
                  3, "non-integer node id in '2 x'"),
        "triplets": ("f.txt", lambda p: gd.load_features(p, 3), "0 0 1\n1 2 0.5\n2 1 -3\n", "0 0 1\n1 x 2\n",
                     2, "bad triplet '1 x 2'"),
        "csv": ("f.csv", lambda p: gd.load_features(p, 2), "1.0, 0.5\n0.0,2.0\n", "1.0, 0.5\n0.0,x\n",
                2, "bad value in '0.0,x'"),
    }[case]


@pytest.mark.parametrize("case", ["edges", "split", "triplets", "csv"])
def test_both_character_widths_load_alike(tmp_path, case):
    name, load, good, bad, line, message = width_cases(case)
    plain, wide = write(tmp_path, name, good), write(tmp_path, "wide-" + name, widened(good))
    assert (gd._TextFile(plain).code.dtype, gd._TextFile(wide).code.dtype) == (np.uint8, np.uint32)
    got, want = load(wide), load(plain)
    if case == "split":
        assert_splits_equal(got, want)
    elif case == "edges":
        assert (got.n_nodes, got.adjacency) == (want.n_nodes, want.adjacency)
    else:
        assert got == want
    for path, text, lineno in ((plain, bad, line), (wide, widened(bad), line + 1)):
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(LoadError) as e:
            load(path)
        assert str(e.value) == f"{path}:{lineno}: {message}"


# ---------------------------------------------------------------------------
# writers


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 40))
def test_edge_list_and_split_round_trip_byte_for_byte(tmp_path_factory, seed, n):
    tmp = tmp_path_factory.mktemp("rt")
    g = random_graph(seed, n)
    assume(g.n_edges > 0)  # an edge list without edges is a load error
    gd.save_edge_list(g, tmp / "a.txt")
    assert (tmp / "a.txt").read_text() == oracle_edge_list_text(g)
    gd.save_edge_list(gd.load_edge_list(tmp / "a.txt"), tmp / "b.txt")
    assert (tmp / "a.txt").read_bytes() == (tmp / "b.txt").read_bytes()

    try:
        split = gd.make_splits(g, 0.2, 0.1, seed=seed)
    except gd.SplitError:
        return  # too few edges or non-edges to hold out
    gd.save_split(split, tmp / "a.split")
    assert (tmp / "a.split").read_text() == oracle_split_text(split)
    assert_splits_equal(gd.load_split(tmp / "a.split", g), split)
    gd.save_split(gd.load_split(tmp / "a.split", g), tmp / "b.split")
    assert (tmp / "a.split").read_bytes() == (tmp / "b.split").read_bytes()


@settings(max_examples=50, deadline=None)
@given(memberships=st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=3, max_size=3), min_size=n, max_size=n)
))
def test_memberships_text_matches_oracle(tmp_path_factory, memberships):
    m = np.asarray(memberships, dtype=float)
    path = tmp_path_factory.mktemp("m") / "m.txt"
    gd.save_memberships(m, path)
    assert path.read_text() == oracle_memberships_text(m)


@given(st.lists(st.integers(-(2**63) + 1, 2**63 - 1), min_size=1, max_size=30), st.data())
def test_int_lines_match_str(values, data):
    cuts = data.draw(st.sets(st.integers(0, len(values) - 1), max_size=5))
    ends = sorted(cuts | {len(values) - 1})
    lines, at = [], 0
    for end in ends:
        lines.append(" ".join(map(str, values[at : end + 1])) + "\n")
        at = end + 1
    assert gd._int_lines(np.asarray(values), np.asarray(ends)).decode() == "".join(lines)


def test_whitespace_tables_match_python():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    breaks = [c for c in spaces if len(f"a{c}b".splitlines()) == 2]
    assert sorted(gd._SPACES) == spaces
    assert sorted(gd._LINE_BREAKS) == breaks
    kinds = {chr(c): int(k) for c, k in enumerate(gd._CHAR_KIND) if k}
    assert kinds == {c: 2 if c in breaks else 1 for c in spaces}


# ---------------------------------------------------------------------------
# deliberate differences from the reference


@pytest.mark.parametrize("token", ["1_0", "١", "1234567890123456789", "99999999999999999999"])
def test_integer_fields_are_ascii_digits_only(tmp_path, token):
    int(token)  # Python's int accepts each of these
    path = write(tmp_path, "e.txt", f"0 1\n2 {token}\n")
    with pytest.raises(LoadError, match=r"e\.txt:2: non-integer node id"):
        gd.load_edge_list(path)


def test_undecodable_file_is_a_load_error(tmp_path):
    path = tmp_path / "e.txt"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    with pytest.raises(UnicodeDecodeError):
        oracle_load_edge_list(path)
    with pytest.raises(LoadError, match="cannot read"):
        gd.load_edge_list(path)


@pytest.mark.parametrize(
    "text,where",
    [("0 1\n2 2147483648\n", ":2: node id at or above 2**31"),
     ("0 99999999999\n", ":1: node id at or above 2**31"),
     ("0 1\n# nodes 2147483648\n", ":2: node count at or above 2**31")],
    ids=["id", "long-id", "nodes-directive"],
)
def test_edge_list_ids_stay_below_2_31(tmp_path, text, where):
    path = write(tmp_path, "e.txt", text)
    with pytest.raises(LoadError) as e:
        gd.load_edge_list(path)
    assert str(e.value).startswith(f"{path}{where}")


@pytest.mark.parametrize(
    "text,where",
    [("# nodes 2147483648\nTRAIN\n0 1\n", ":1: split has 2147483648 nodes, graph has 4"),
     ("# nodes 4\nTRAIN\n0 1\n2 2147483648\n", ":4: TRAIN pair 2 2147483648 needs two distinct")],
    ids=["nodes-header", "pair"],
)
def test_split_ids_stay_below_2_31(tmp_path, text, where):
    # a split's node count must be its graph's, which load_edge_list keeps below 2**31
    path = write(tmp_path, "s.split", text)
    with pytest.raises(LoadError) as e:
        gd.load_split(path, gd.Graph(n_nodes=4, adjacency=_adjacency_from_pairs([(0, 1)], 4)))
    assert str(e.value).startswith(f"{path}{where}")


def test_feature_columns_stay_below_2_31(tmp_path):
    path = write(tmp_path, "f.txt", "0 0 1\n0 999999999999999999 1\n")
    with pytest.raises(LoadError, match=r"f\.txt:2: column 999999999999999999 at or above 2\*\*31"):
        gd.load_features(path, 3)
    path = write(tmp_path, "f.txt", f"0 0 1\n1 {2**31 - 1} 1\n")
    assert gd.load_features(path, 3).shape == (3, 2**31)
