"""Subprocess checks of the REPRO_OBS gate: truly free off, effective on."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent.parent / "src")


def _run(code: str, **env_overrides) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env["PYTHONPATH"] = SRC
    env.update(env_overrides)
    # An override of None removes the variable.
    env = {key: value for key, value in env.items() if value is not None}
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )


def test_off_never_allocates_span_objects():
    # Poison the Span constructor: if any instrumented path tried to build
    # a real span while REPRO_OBS=off, the query below would explode.
    code = """
from repro.obs import spans
def _boom(cls, *args, **kwargs):
    raise AssertionError("Span allocated while REPRO_OBS=off")
spans.Span.__new__ = classmethod(_boom)

import repro
result = repro.query(
    mode="distribution", topologies="cycle", sizes=8,
    algorithms="largest-id", methods="sample", samples=32, seed=3,
)
assert result.profile is None
assert spans.span("anything") is spans.NOOP_SPAN
print("CLEAN")
"""
    proc = _run(code, REPRO_OBS="off")
    assert proc.returncode == 0, proc.stderr
    assert "CLEAN" in proc.stdout


def test_on_attaches_a_profile_block():
    code = """
import repro
result = repro.query(
    mode="distribution", topologies="cycle", sizes=8,
    algorithms="largest-id", methods="sample", samples=32, seed=3,
)
profile = result.profile
assert profile is not None
assert profile["spans"][0]["name"] == "api.query"
names = {child["name"] for child in profile["spans"][0]["children"]}
assert "engine.dist_cell" in names
assert profile["metrics"]["counters"]["kernel.rows"] >= 32
assert profile["total_s"] > 0.0
print("PROFILED")
"""
    proc = _run(code, REPRO_OBS="on")
    assert proc.returncode == 0, proc.stderr
    assert "PROFILED" in proc.stdout


def test_unset_defaults_to_off():
    code = """
from repro.obs import spans
assert spans.obs_enabled() is False
assert spans.span("x") is spans.NOOP_SPAN
print("OFF")
"""
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr
    assert "OFF" in proc.stdout


def test_unknown_value_raises_configuration_error():
    code = """
from repro.errors import ConfigurationError
from repro.obs import spans
try:
    spans.obs_enabled()
except ConfigurationError as exc:
    assert "REPRO_OBS" in str(exc)
    print("REJECTED")
"""
    proc = _run(code, REPRO_OBS="sometimes")
    assert proc.returncode == 0, proc.stderr
    assert "REJECTED" in proc.stdout


def test_on_splits_the_exact_search_into_its_phases():
    # search.branch_bound is covered by its two phases: its own (self)
    # time is the certificate bookkeeping, not the enumeration.
    code = """
import repro
result = repro.query(
    mode="worst-case", topologies="cycle", sizes=9, algorithms="largest-id",
    adversaries="branch-and-bound", measure="sum",
)
assert result.measures["sum"] == 17.0, result.measures

def find(nodes, name):
    for node in nodes:
        if node["name"] == name:
            return node
        found = find(node["children"], name)
        if found is not None:
            return found

search = find(result.profile["spans"], "search.branch_bound")
phases = {child["name"] for child in search["children"]}
assert phases == {"search.enumerate", "search.evaluate"}, phases
assert search["self_s"] <= 0.1 * search["total_s"], search
counters = result.profile["metrics"]["counters"]
assert counters["search.leaves"] == 20160, counters
assert counters["search.nodes"] == 72495, counters
assert counters["search.pruned_by_symmetry"] == 9636, counters
print("PHASES")
"""
    proc = _run(code, REPRO_OBS="on")
    assert proc.returncode == 0, proc.stderr
    assert "PHASES" in proc.stdout


def test_on_covers_strategies_witness_and_backend_probe():
    # A fresh process probes numpy inside its first query (unless
    # REPRO_KERNEL=python forbids the probe, hence the variable is dropped);
    # the portfolio's strategy runs and the witness run get their own spans.
    code = """
import repro
result = repro.query(
    mode="worst-case", topologies="cycle", sizes=32, algorithms="largest-id",
    adversaries="portfolio", workers=1,
)

def names(nodes):
    for node in nodes:
        yield node["name"]
        yield from names(node["children"])

seen = set(names(result.profile["spans"]))
missing = {"search.strategy", "search.witness", "kernel.backend_probe"} - seen
assert not missing, (missing, sorted(seen))
print("COVERED")
"""
    proc = _run(code, REPRO_OBS="on", REPRO_KERNEL=None)
    assert proc.returncode == 0, proc.stderr
    assert "COVERED" in proc.stdout


def test_on_covers_the_kernel_compile():
    # Compiling the cone rule (ring check, neighbourhood masks) is its own span,
    # so a greedy sampled query leaves none of it in the cell's self time.
    code = """
import repro
result = repro.query(
    mode="distribution", topologies="cycle", sizes=256, algorithms="greedy-mis",
    methods="sample", samples=16, seed=3,
)

def walk(nodes):
    for node in nodes:
        yield node
        yield from walk(node["children"])

compiles = [node for node in walk(result.profile["spans"]) if node["name"] == "kernel.compile"]
assert compiles, sorted({node["name"] for node in walk(result.profile["spans"])})
assert compiles[0]["count"] == 1, compiles
print("COMPILE")
"""
    proc = _run(code, REPRO_OBS="on")
    assert proc.returncode == 0, proc.stderr
    assert "COMPILE" in proc.stdout
