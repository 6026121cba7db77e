"""The unified query API — one façade over simulate · worst-case · distribution · sweep · scale.

Four generations of entry points answered four kinds of question about the
paper's measures, each with its own argument conventions and result shapes.
This package is the consolidated public surface on top of all of them:

* :mod:`repro.api.query` — :class:`Query`, the declarative, validated spec
  (graph grid × algorithm × measure × mode × budget), constructible from
  keyword arguments, a fluent builder, or a versioned JSON document;
* :mod:`repro.api.session` — :class:`Session`, the owner of shared
  execution infrastructure (cached graphs with their frontier plans and
  automorphism groups, decision caches, the process pool) and
  :meth:`Session.run <repro.api.session.Session.run>`, the one executor
  behind every mode, plus the module-level
  default session behind :func:`repro.query <repro.api.session.query>`
  (re-exported at the top level only: ``repro.api.query`` names the module);
* :mod:`repro.api.results` — :class:`Result`, the single versioned result
  type every mode returns (spec echo, rows with certificates/standard
  errors, headline measures, cache stats, timing), with ``.table()`` and a
  JSON round trip.

``tests/property/test_property_api.py`` asserts that a warm session, a
fresh one and a pooled run give the same rows in every mode on cycles,
paths, trees and G(n, p).  See ``docs/api.md`` for the guide and the JSON
schemas.
"""

from repro.api.query import MODES, Query, QueryBuilder
from repro.api.results import Result
from repro.api.session import Session, default_session, reset_default_session
from repro.model.identifiers import ID_FAMILIES

__all__ = [
    "ID_FAMILIES",
    "MODES",
    "Query",
    "QueryBuilder",
    "Result",
    "Session",
    "default_session",
    "reset_default_session",
]
