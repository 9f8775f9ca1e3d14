"""Byte-for-byte checks of the default scenario's outputs.

``tests/golden/`` holds ``metroslice --json plan`` at the request's k
(10) and at k=11, the same pair for the request with its ingress at
``probe-a`` and its egress at ``probe-b`` (``plan_access_*``), the
``kpi.json``, ``kpi.csv``, ``events.jsonl`` and
``records.jsonl`` that ``deploy`` writes, the ``table1.csv`` and
``budget.json`` of ``table1``, and the ``degrade.csv`` and
``degrade.json`` of ``degrade``, all at the packaged seed. The test
regenerates them in process and compares bytes, then renders
``deploy`` and ``table1`` once more in the same process, over warm
memos, and every file again with every memo bypassed. After a change that alters them on purpose, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and say why, and which numpy wrote them, in the change log. The seeded
files (``events.jsonl``, ``records.jsonl``, ``table1.csv``,
``budget.json``) depend on numpy's ``Generator`` streams, which NEP 19
does not promise stable across numpy releases; a numpy that draws
differently fails here rather than being skipped. They and
``degrade.csv`` depend on libm (``erfc``, ``pow``) too, but not on the
BLAS or SIMD kernel the CPU selects: every sum runs in an order the
code fixes (``np.add.reduce`` or a loop), and every power is libm's,
so the same bytes come back on OpenBLAS's SSE3 kernels and on one BLAS
thread, rendered in a fresh process below.
"""

import contextlib
import difflib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import metroslice
from metroslice.cli import main
from metroslice.config import default_scenario_path

GOLDEN = Path(__file__).parent / "golden"
#: Subcommand argv and the files it writes under ``--out``.
WRITERS = (
    (["deploy"], ("kpi.json", "kpi.csv", "events.jsonl", "records.jsonl")),
    (["table1"], ("table1.csv", "budget.json")),
    (["degrade"], ("degrade.csv", "degrade.json")),
)
NAMES = ("plan_k10.json", "plan_k11.json",
         "plan_access_k10.json", "plan_access_k11.json") + tuple(
    name for _, names in WRITERS for name in names
)
#: The writers that run simulated trains, rendered a second time.
TWICE = WRITERS[:2]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, (argv, rc)
    return buf.getvalue().encode("utf-8")


def access_scenario(directory: Path) -> Path:
    """A copy of the packaged scenario whose request enters at
    ``probe-a`` and leaves at ``probe-b``."""
    src = default_scenario_path().parent
    for name in ("scenario.yaml", "topology.yaml", "ns_request.yaml"):
        shutil.copy(src / name, directory / name)
    with open(directory / "ns_request.yaml", "a", encoding="utf-8") as fh:
        fh.write("ingress: probe-a\negress: probe-b\n")
    return directory / "scenario.yaml"


def render(out_dir: Path) -> dict[str, bytes]:
    """Each golden file's bytes as the current code writes them."""
    access = ["--scenario", str(access_scenario(out_dir))]
    out = {
        "plan_k10.json": _stdout(["--json", "plan"]),
        "plan_k11.json": _stdout(["--json", "plan", "--k", "11"]),
        "plan_access_k10.json": _stdout([*access, "--json", "plan"]),
        "plan_access_k11.json": _stdout([*access, "--json", "plan", "--k", "11"]),
    }
    for argv, names in WRITERS:
        out.update(_written(out_dir, argv, names))
    return out


def _written(out_dir: Path, argv, names) -> dict[str, bytes]:
    _stdout(["--out", str(out_dir), *argv])
    return {name: (out_dir / name).read_bytes() for name in names}


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return render(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def rerendered(rendered, tmp_path_factory):
    """``deploy`` and ``table1`` written again in the same process, over
    the RTT laws and latency graphs the first rendering left memoised."""
    out_dir = tmp_path_factory.mktemp("golden-warm")
    out = {}
    for argv, names in TWICE:
        out.update(_written(out_dir, argv, names))
    return out


@pytest.fixture(scope="module")
def bypassed(tmp_path_factory):
    """Every file rendered with each registered memo that a package module
    holds replaced by the function it wraps: each ``latency_graph`` call
    builds a fresh graph, whose per-geometry memos start empty, and no
    process-wide memo is read or filled."""
    from metroslice import model

    memos = {id(m): m for m in model._MEMOS}
    before = [m.cache_info() for m in memos.values()]
    found = set()
    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name == "metroslice" or name.startswith("metroslice."):
                for attr, value in list(vars(module).items()):
                    if id(value) in memos:
                        mp.setattr(module, attr, value.__wrapped__)
                        found.add(id(value))
        assert found == set(memos)
        out = render(tmp_path_factory.mktemp("golden-bypassed"))
    assert [m.cache_info() for m in memos.values()] == before
    return out


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(rendered, name):
    _compare(name, rendered[name])


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden_with_every_memo_bypassed(bypassed, name):
    _compare(name, bypassed[name])


@pytest.mark.parametrize("name", [name for _, names in TWICE for name in names])
def test_second_run_matches_golden(rerendered, name):
    _compare(name, rerendered[name])


#: Renders the goldens and prints them as one JSON object, name to text.
RENDER = ("import json, pathlib, sys, test_golden; "
          "out = test_golden.render(pathlib.Path(sys.argv[1])); "
          "print(json.dumps({name: data.decode() for name, data in out.items()}))")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are x86-64 kernels")
@pytest.mark.parametrize("setting", [
    # SSE3 kernels, which run on any x86-64.
    pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, id="prescott"),
    pytest.param({"OPENBLAS_NUM_THREADS": "1"}, id="one-thread"),
])
def test_matches_golden_on_other_kernels(setting, tmp_path):
    """The goldens rendered in a fresh process on other BLAS kernels."""
    path = [str(Path(metroslice.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, **setting, PYTHONPATH=os.pathsep.join(
        filter(None, [*path, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", RENDER, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert [name for name in NAMES
            if got[name].encode() != (GOLDEN / name).read_bytes()] == []


def _compare(name: str, got: bytes) -> None:
    want = (GOLDEN / name).read_bytes()
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
