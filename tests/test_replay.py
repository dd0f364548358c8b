"""Bit-exact replay as a test: the replay pipeline's digests against the committed file.

`tests/replay_digests.txt` holds the numeric environment it was recorded in
("# " lines) and one "sha256  file" line per output of
`scripts/replay_digests.py`. Rounding depends on that environment, so on any
other the test skips and names both; on the same one a moved digest fails it.
A change that moves an output rewrites the file as the script's docstring shows.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DIGESTS = REPO / "tests" / "replay_digests.txt"

_spec = importlib.util.spec_from_file_location("replay_digests", REPO / "scripts" / "replay_digests.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


def digests(lines: list[str]) -> dict[str, str]:
    """{file: sha256} of the "sha256  file" lines."""
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def env(header: list[str]) -> str:
    return "; ".join(line[2:] for line in header)


def test_replay_digests_match_the_committed_file(tmp_path, capsys):
    lines = DIGESTS.read_text().splitlines()
    recorded = [line for line in lines if line.startswith("# ")]
    here = replay.environment()
    if here != recorded:
        pytest.skip(f"digests recorded on [{env(recorded)}], this is [{env(here)}]")
    assert replay.main([str(REPO), str(tmp_path / "out")]) == 0
    want = digests(lines[len(recorded):])
    got = digests(capsys.readouterr().out.splitlines())
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"{len(moved)} replay outputs moved: {', '.join(moved)}"
