"""``repro-lint`` / ``python -m repro.analysis``: the invariant lint gate.

Exit codes: 0 = clean (possibly via baseline), 1 = new findings or stale
baseline entries, 2 = usage error.  See DESIGN.md §9 for the contracts
the rule pack enforces and README §"Invariant linting" for the
suppression/baseline policy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .baseline import Baseline
from .cache import DEFAULT_CACHE, LintCache, lint_paths_cached
from .core import RULES, LintSession, iter_python_files, lint_paths
from .reporting import render_github, render_json, render_text

__all__ = ["main"]

#: Baseline used when --baseline is not given and this file exists in cwd.
DEFAULT_BASELINE = "lint-baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter for the repro codebase: determinism "
            "(DET*), clock discipline (CLK*), the counter ledger (CTR*), "
            "API export integrity (API*), "
            "and whole-program worker purity / flow rules (WRK001, CTR002, "
            "DET004, API002) over the project call graph."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "report format (default: text); 'github' emits ::error "
            "workflow commands for inline PR annotations"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=(
            "JSON baseline of accepted findings; fails on anything new and "
            f"on stale entries (default: ./{DEFAULT_BASELINE} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    parser.add_argument(
        "--graph-dump",
        metavar="PATH",
        help=(
            "write the project call graph as JSON to PATH ('-' for stdout) "
            "after linting"
        ),
    )
    parser.add_argument(
        "--why",
        nargs=2,
        metavar=("CODE", "PATH:LINE"),
        help=(
            "explain one finding: print the interprocedural witness chain "
            "for rule CODE at PATH:LINE (suffix-matched), then exit 0 if "
            "the finding exists, 1 otherwise"
        ),
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        help=(
            "incremental cache file keyed by content SHA "
            f"(default: ./{DEFAULT_CACHE})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="lint every file from scratch; do not read or write the cache",
    )
    return parser


def _default_paths() -> list[Path]:
    for candidate in (Path("src/repro"), Path("src"), Path(".")):
        if candidate.is_dir():
            return [candidate]
    return []


def _why(findings: list, code: str, where: str, parser) -> int:
    """``--why``: print the witness chain for one finding; 0 = found."""
    path_part, sep, line_part = where.rpartition(":")
    if not sep or not line_part.isdigit():
        parser.error(f"--why location must be PATH:LINE, got {where!r}")
    want_line = int(line_part)
    matches = [
        f
        for f in findings
        if f.rule == code
        and f.line == want_line
        and Path(f.path).as_posix().endswith(Path(path_part).as_posix())
    ]
    if not matches:
        print(f"no {code} finding at {path_part}:{want_line}")
        return 1
    for f in matches:
        print(f"{f.rule} {f.path}:{f.line}:{f.col + 1} {f.message}")
        if f.trace:
            for step in f.trace:
                print(f"  {step}")
        else:
            print("  (per-file rule: the finding is local to the reported line)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-lint``; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            scope = "whole-program" if getattr(rule, "whole_program", False) else "per-file"
            print(f"{code}  {rule.name:<28} [{scope:>13}] {rule.description}")
        return 0

    paths = args.paths or _default_paths()
    if not paths:
        parser.error("no paths given and no src/ directory found")
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    try:
        session = LintSession(
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else (),
        )
    except ValueError as exc:
        parser.error(str(exc))

    if args.no_cache:
        findings = lint_paths(paths, session=session)
    else:
        cache = LintCache.load(args.cache or Path(DEFAULT_CACHE), session)
        findings = lint_paths_cached(paths, session=session, cache=cache)
        cache.save()

    if args.graph_dump is not None:
        if session.graph is None:
            # Project phase served from cache (or disabled): build fresh.
            from .graph import build_graph

            session.graph = build_graph(iter_python_files(paths))
        doc = json.dumps(session.graph.to_json(), indent=2, sort_keys=True)
        if args.graph_dump == "-":
            print(doc)
        else:
            Path(args.graph_dump).write_text(doc + "\n")

    if args.why is not None:
        return _why(findings, args.why[0], args.why[1], parser)

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        default = Path(DEFAULT_BASELINE)
        baseline_path = default if default.exists() or args.write_baseline else None
    if args.no_baseline:
        baseline_path = None

    if args.write_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE)
        Baseline.save(target, findings)
        print(f"wrote {len(findings)} finding(s) to {target}")
        return 0

    stale: list = []
    matched = 0
    if baseline_path is not None:
        try:
            result = Baseline.load(baseline_path).check(findings)
        except ValueError as exc:
            parser.error(str(exc))
        findings, stale, matched = result.new, result.stale, len(result.matched)

    n_files = len(list(iter_python_files(paths)))
    if args.format == "json":
        print(json.dumps(
            render_json(findings, stale=stale, matched=matched, files=n_files),
            indent=2,
        ))
    elif args.format == "github":
        out = render_github(findings, stale=stale)
        if out:
            print(out)
    else:
        print(render_text(findings, stale=stale, matched=matched, files=n_files))
    return 1 if findings or stale else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
