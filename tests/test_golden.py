"""Byte-for-byte checks of the default scenario's outputs.

``tests/golden/`` holds ``metroslice --json plan`` at the request's k
(10) and at k=11, the ``kpi.json``, ``kpi.csv``, ``events.jsonl`` and
``records.jsonl`` that ``deploy`` writes, the ``table1.csv`` and
``budget.json`` of ``table1``, and the ``degrade.csv`` and
``degrade.json`` of ``degrade``, all at the packaged seed. The test
regenerates them in process and compares bytes. After a change that
alters them on purpose, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and say why, and which numpy wrote them, in the change log. The seeded
files (``events.jsonl``, ``records.jsonl``, ``table1.csv``,
``budget.json``) depend on numpy's ``Generator`` streams, which NEP 19
does not promise stable across numpy releases; a numpy that draws
differently fails here rather than being skipped.
"""

import contextlib
import difflib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from metroslice.cli import main

GOLDEN = Path(__file__).parent / "golden"
#: Subcommand argv and the files it writes under ``--out``.
WRITERS = (
    (["deploy"], ("kpi.json", "kpi.csv", "events.jsonl", "records.jsonl")),
    (["table1"], ("table1.csv", "budget.json")),
    (["degrade"], ("degrade.csv", "degrade.json")),
)
NAMES = ("plan_k10.json", "plan_k11.json") + tuple(
    name for _, names in WRITERS for name in names
)


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, (argv, rc)
    return buf.getvalue().encode("utf-8")


def render(out_dir: Path) -> dict[str, bytes]:
    """Each golden file's bytes as the current code writes them."""
    out = {
        "plan_k10.json": _stdout(["--json", "plan"]),
        "plan_k11.json": _stdout(["--json", "plan", "--k", "11"]),
    }
    for argv, names in WRITERS:
        _stdout(["--out", str(out_dir), *argv])
        for name in names:
            out[name] = (out_dir / name).read_bytes()
    return out


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return render(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(rendered, name):
    want = (GOLDEN / name).read_bytes()
    got = rendered[name]
    if got != want:
        diff = difflib.unified_diff(
            want.decode().splitlines(keepends=True),
            got.decode().splitlines(keepends=True),
            fromfile=f"golden/{name}", tofile="now",
        )
        pytest.fail(f"{name} differs from tests/golden:\n" + "".join(diff))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in render(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
