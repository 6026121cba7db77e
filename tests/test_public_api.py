"""The package's public surface: ``__all__`` is sorted and fully importable."""

from pathlib import Path

import pytest

import repro


def test_all_is_sorted():
    assert list(repro.__all__) == sorted(repro.__all__), (
        "repro.__all__ must stay alphabetically sorted; offenders: "
        f"{[name for name, expected in zip(repro.__all__, sorted(repro.__all__)) if name != expected]}"
    )


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_every_name_is_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists {name!r} but it is missing"


def test_version_is_a_string():
    assert isinstance(repro.__version__, str) and repro.__version__


def test_api_facade_is_exported():
    for name in ("Query", "QueryBuilder", "Result", "Session", "query", "ID_FAMILIES"):
        assert name in repro.__all__


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == repro.__version__
