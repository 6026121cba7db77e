"""Backend selection: REPRO_KERNEL override, degradation, numpy isolation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.kernel import (
    KERNEL_BACKENDS,
    active_backend,
    numpy_available,
    resolve_backend,
)

SRC = str(Path(__file__).resolve().parent.parent.parent / "src")


class TestResolution:
    def test_known_backends(self):
        assert set(KERNEL_BACKENDS) == {"numpy", "python"}
        assert active_backend() in KERNEL_BACKENDS

    def test_none_resolves_to_the_active_default(self):
        assert resolve_backend(None) == active_backend()

    def test_python_always_resolves(self):
        assert resolve_backend("python") == "python"
        assert resolve_backend("  PYTHON ") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            resolve_backend("fortran")

    def test_numpy_resolution_matches_availability(self):
        if numpy_available():
            assert resolve_backend("numpy") == "numpy"
        elif os.environ.get("REPRO_KERNEL", "").strip().lower() == "python":
            # Forced-stdlib mode reports numpy unavailable *by policy* (the
            # default path must never import it), but an explicit
            # per-instance override may still resolve when numpy exists.
            try:
                assert resolve_backend("numpy") == "numpy"
            except ConfigurationError:
                pass  # and raises cleanly when numpy is genuinely missing
        else:
            with pytest.raises(ConfigurationError, match="numpy"):
                resolve_backend("numpy")


def _run_subprocess(code: str, **env_overrides) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


class TestEnvironmentOverride:
    def test_python_mode_never_imports_numpy(self):
        # The acceptance guarantee: with REPRO_KERNEL=python, a full batch
        # evaluation through *every* registered algorithm's vectorised rule
        # must not pull numpy into the process — the stdlib paths of the
        # cone and cv-ring rules have to be genuinely stdlib.
        code = (
            "import sys\n"
            "from repro.kernel import compile_instance, simulate_batch, active_backend\n"
            "from repro.algorithms.registry import algorithm_registry\n"
            "from repro.engine.campaign import make_ball_algorithm\n"
            "from repro.topology.cycle import cycle_graph\n"
            "from repro.model.identifiers import random_assignment\n"
            "assert active_backend() == 'python', active_backend()\n"
            "graph = cycle_graph(8)\n"
            "rows = [random_assignment(8, seed=s).identifiers() for s in range(32)]\n"
            "for name in sorted(algorithm_registry()):\n"
            "    instance = compile_instance(graph, make_ball_algorithm(name, 8))\n"
            "    assert instance.vectorized, name\n"
            "    assert len(simulate_batch(instance, rows)) == 32, name\n"
            "assert 'numpy' not in sys.modules, 'numpy leaked into the python backend'\n"
            "print('ok')\n"
        )
        result = _run_subprocess(code, REPRO_KERNEL="python")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_invalid_value_fails_loudly(self):
        # Importing stays cheap (no resolution); the first kernel use
        # surfaces the configuration error.
        code = (
            "import repro.kernel\n"
            "repro.kernel.active_backend()\n"
        )
        result = _run_subprocess(code, REPRO_KERNEL="rust")
        assert result.returncode != 0
        assert "REPRO_KERNEL" in result.stderr

    def test_importing_the_library_does_not_import_numpy(self):
        code = (
            "import sys\n"
            "import repro\n"
            "import repro.kernel\n"
            "assert 'numpy' not in sys.modules, 'import-time numpy probe'\n"
            "print('ok')\n"
        )
        result = _run_subprocess(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_importing_the_library_does_not_import_networkx(self):
        # The package has no runtime dependency: no public entry point may
        # pull a graph library in, even where one is installed.
        code = (
            "import sys\n"
            "import repro, repro.api, repro.cli, repro.theory, repro.experiments\n"
            "assert 'networkx' not in sys.modules, 'networkx imported'\n"
            "print('ok')\n"
        )
        result = _run_subprocess(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_numpy_mode_selects_numpy(self):
        code = (
            "from repro.kernel import active_backend\n"
            "assert active_backend() == 'numpy', active_backend()\n"
            "print('ok')\n"
        )
        result = _run_subprocess(code, REPRO_KERNEL="numpy")
        assert result.returncode == 0, result.stderr

    def test_version_flag_reports_the_backend(self):
        code = (
            "from repro.cli import main\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit:\n"
            "    pass\n"
        )
        result = _run_subprocess(code, REPRO_KERNEL="python")
        assert result.returncode == 0, result.stderr
        assert "kernel backend: python" in result.stdout
