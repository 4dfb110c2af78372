"""Static analysis of the repo's own invariants (``repro-lint``).

The paper reproduction rests on contracts no type checker sees: results
must be bit-identical across execution backends, every charged counter
key must belong to one central ledger schema, and real wall-clock must
never reach a costed path.  This package lints those contracts at the
AST level — ``python -m repro.analysis src/repro`` is a CI gate, so the
bug classes that previously needed golden-test archaeology (the ``id()``
-as-key redirect bug of PR 4, typo'd counter keys) fail at review time.

Rule pack
---------

====== ======================= ==============================================
code   name                    contract
====== ======================= ==============================================
DET001 id-as-key               no ``id()`` as dict/set key or grouping token
DET002 unseeded-rng            no module-level / unseeded RNG
DET003 unordered-set-iteration no set iteration feeding order without sorted()
CLK001 wall-clock-discipline   real clock only in exec.task / trace
CTR001 counter-ledger          counter keys literal + in COUNTER_SCHEMA
API001 export-integrity        __all__ / lazy _EXPORTS resolve to real attrs
====== ======================= ==============================================

Suppress a deliberate exception with ``# repro: noqa[RULE]`` on the
offending line; accept legacy debt via a committed JSON baseline
(``lint-baseline.json`` — empty in this repo by policy).
"""

from .baseline import Baseline, BaselineResult
from .cli import main
from .core import (
    RULES,
    FileContext,
    Finding,
    LintSession,
    Rule,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    register,
)
from .reporting import render_json, render_text

# Importing the rule modules registers the rule pack (per-file rules
# first, then the whole-program pack, which depends on the graph engine).
from . import api, clock, counters, determinism  # noqa: F401  isort: skip
from . import interproc  # noqa: F401  isort: skip
from .graph import ProjectGraph, build_graph
from .interproc import lint_project

__all__ = [
    "Baseline",
    "BaselineResult",
    "FileContext",
    "Finding",
    "LintSession",
    "ProjectGraph",
    "RULES",
    "Rule",
    "build_graph",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "main",
    "register",
    "render_json",
    "render_text",
]
