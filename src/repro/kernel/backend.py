"""Kernel backend selection: numpy fast path or pure-stdlib fallback.

The batch kernel has two interchangeable executors for its vectorised
decision rules:

* ``"numpy"`` — array expressions over whole assignment matrices; the fast
  path whenever numpy is importable;
* ``"python"`` — plain loops over tuples; always available, used both as
  the degradation path on numpy-free installs and as the reference
  implementation the property tests hold the numpy path to.

The default backend is **selected once per process**, on the first kernel
use (so merely importing the library never pays a numpy import):
``REPRO_KERNEL`` (values ``numpy`` or ``python``) wins when set, otherwise
numpy is probed and the stdlib fallback is used when the probe fails.
When ``REPRO_KERNEL=python`` is set, numpy is *never imported* anywhere on
the kernel path — a guarantee the test suite enforces with a subprocess
check — so the stdlib fallback stays honest.  Individual
:class:`~repro.kernel.compile.CompiledInstance` objects can still override
the default per instance (the benchmarks compare both backends in one
process).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.spans import span as _obs_span

#: Environment variable overriding the backend choice.
KERNEL_ENV = "REPRO_KERNEL"

#: The recognised backend names.
KERNEL_BACKENDS = ("numpy", "python")

_numpy_module = None
_numpy_probed = False


def _probe_numpy():
    """Import numpy at most once; remember the outcome.

    The first call pays the numpy import (a few hundred milliseconds cold),
    recorded as the ``kernel.backend_probe`` span.
    """
    global _numpy_module, _numpy_probed
    if not _numpy_probed:
        _numpy_probed = True
        with _obs_span("kernel.backend_probe"):
            try:
                import numpy  # noqa: PLC0415 - deliberate lazy, optional import

                _numpy_module = numpy
            except ImportError:
                _numpy_module = None
    return _numpy_module


def _select_default() -> str:
    """Resolve the process default from ``REPRO_KERNEL`` / availability."""
    requested = os.environ.get(KERNEL_ENV, "").strip().lower()
    if requested == "python":
        return "python"
    if requested == "numpy":
        # Availability is checked lazily, on first use, so that merely
        # importing the library under a forced-but-missing backend still
        # works; compile_instance raises a clear error instead.
        return "numpy"
    if requested:
        raise ConfigurationError(
            f"{KERNEL_ENV} must be one of {', '.join(KERNEL_BACKENDS)}; "
            f"got {requested!r}"
        )
    return "numpy" if _probe_numpy() is not None else "python"


#: The process-wide default backend; resolved (and frozen) on first use so
#: that importing the library costs no numpy import.
_default_backend: Optional[str] = None


def active_backend() -> str:
    """The backend new :class:`CompiledInstance` objects use by default."""
    global _default_backend
    if _default_backend is None:
        _default_backend = _select_default()
    return _default_backend


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend choice (``None`` means the default).

    A resolved ``"numpy"`` backend is guaranteed importable: asking for it
    on a numpy-free install raises :class:`~repro.errors.ConfigurationError`
    with the installation hint instead of failing deep inside a batch.
    """
    name = active_backend() if backend is None else str(backend).strip().lower()
    if name not in KERNEL_BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {backend!r}; known: {', '.join(KERNEL_BACKENDS)}"
        )
    if name == "numpy" and _probe_numpy() is None:
        raise ConfigurationError(
            "the numpy kernel backend was requested but numpy is not "
            "installed; pip install 'repro-local-average[fast]' or set "
            f"{KERNEL_ENV}=python"
        )
    return name


def numpy_available() -> bool:
    """Whether the numpy backend can actually run in this process.

    Respects ``REPRO_KERNEL=python``: with the stdlib backend forced, numpy
    is reported unavailable *without probing it*, preserving the
    no-numpy-import guarantee of that mode.
    """
    if os.environ.get(KERNEL_ENV, "").strip().lower() == "python":
        return False
    return _probe_numpy() is not None


def numpy_module():
    """The numpy module (resolving it on first use); raises when missing."""
    module = _probe_numpy()
    if module is None:
        raise ConfigurationError(
            "numpy is not installed; pip install 'repro-local-average[fast]' "
            f"or set {KERNEL_ENV}=python"
        )
    return module
