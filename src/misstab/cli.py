"""Command line interface.

Commands: assess, fit, bootstrap, datasets, catalog.  Exit codes: 0 on
success, 1 for usage problems, 2 for data problems (unknown dataset or
model, unreadable or invalid table), 3 when a computation cannot finish.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .bootstrap import MODE_MULTINOMIAL, MODE_POISSON, bootstrap_assess
from .errors import ComputationError, TableError
from .fitting import DEFAULT_MAX_ITER, DEFAULT_TOL, fit_all, fit_model
from .models import (
    DF_POISSON_CELLS,
    enumerate_models,
    model_summary,
    observed_statistic_count,
)
from .odds import (
    MEMBERSHIP_INSIDE,
    MEMBERSHIP_OUTSIDE,
    assess,
    screening_plan,
)
from .tables import (
    builtin_dataset,
    builtin_dataset_description,
    builtin_dataset_names,
    sniff_and_load,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_COMPUTE = 3

TOL_ENV = "MISSTAB_TOL"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our codes
    def error(self, message):
        raise _UsageError(message)


def _load_source(source: str):
    if source in builtin_dataset_names():
        return builtin_dataset(source), source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        return sniff_and_load(text), source
    raise TableError(f"unknown dataset or file: {source}")


def _env_tol():
    raw = os.environ.get(TOL_ENV)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise _UsageError(f"{TOL_ENV} must be a number, got {raw!r}")
    if not 0 < value < math.inf:
        raise _UsageError(
            f"{TOL_ENV} must be positive and finite, got {raw!r}"
        )
    return value


def _resolve_tol(args):
    env = _env_tol()
    if getattr(args, "tol", None) is not None:
        return args.tol, False
    if env is not None:
        return env, True
    return DEFAULT_TOL, False


def _print_header(table, source, tol, from_env, out):
    print(f"source: {source}", file=out)
    print(f"shape: {table.schema.shape}", file=out)
    print(f"N: {table.N}", file=out)
    if tol is not None:
        suffix = f" ({TOL_ENV})" if from_env else ""
        print(f"tolerance: {tol:g}{suffix}", file=out)


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _print_columns(head, rows, out):
    """Left-aligned columns two spaces apart, trailing blanks trimmed."""
    widths = [max(map(len, col)) for col in zip(head, *rows)]
    for row in (head, *rows):
        print(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(),
            file=out,
        )


def _json_head(command, table, source, tol, **rest) -> dict:
    """The opening keys of a report on one table, then rest in order; the
    tolerance is left out when none applies."""
    head = {
        "command": command,
        "source": source,
        "shape": table.schema.shape,
        "N": table.N,
    }
    if tol is not None:
        head["tolerance"] = tol
    head.update(rest)
    return head


def _print_json(payload, out):
    print(json.dumps(payload, indent=2), file=out)


def _print_assess_text(table, source, verdict, out):
    _print_header(table, source, None, False, out)
    print(file=out)
    for fam in verdict.families:
        print(f"variable {fam.variable}:", file=out)
        for rec in fam.records:
            label = rec.query.label()
            if rec.membership == MEMBERSHIP_INSIDE:
                body = f"{rec.value} ∈ {rec.interval}"
            elif rec.membership == MEMBERSHIP_OUTSIDE:
                body = f"{rec.value} ∉ {rec.interval}"
            else:
                body = f"{rec.value} vs {rec.interval}  [undefined]"
            note = f"  ({rec.note})" if rec.note else ""
            print(f"  {label}: {body}{note}", file=out)
        print(
            f"  suggested class for {fam.variable}: {fam.suggested_class}",
            file=out,
        )
    print(file=out)
    print(verdict.statement, file=out)


def _cmd_assess(args, out):
    table, source = _load_source(args.source)
    verdict = assess(table)
    if args.format == "json":
        _print_json(_json_head("assess", table, source, None,
                               **verdict.as_dict()), out)
    else:
        _print_assess_text(table, source, verdict, out)
    return EXIT_OK


def _fit_row(fit) -> dict:
    row = model_summary(fit.model, fit.schema)
    row.update(
        {
            "G2": fit.G2,
            "p_value": fit.p_value,
            "aic": fit.aic,
            "bic": fit.bic,
            "method": fit.method,
            "converged": fit.converged,
            "boundary": fit.boundary,
            "iterations": fit.iterations,
            "evaluations": fit.evaluations,
            "face_cells": fit.face_cells,
            "boundary_rule": fit.boundary_rule,
        }
    )
    return row


def _fit_notes(row) -> str:
    notes = []
    if row["perfect_fit"]:
        notes.append("perfect")
    if row["boundary"]:
        notes.append("boundary")
    if not row["converged"]:
        notes.append("no-converge")
    return ",".join(notes)


_MODEL_HEAD = ("model", "mechanisms", "par", "df")


def _model_cells(row, *cells) -> tuple:
    """A fit or catalog table row: the model_summary columns, then cells."""
    return (row["id"], row["mechanisms"], str(row["parameters"]),
            str(row["df"]), *cells)


def _print_fit_text(table, source, rows, tol, from_env, out):
    _print_header(table, source, tol, from_env, out)
    print(
        f"observed statistics: {observed_statistic_count(table.schema)}",
        file=out,
    )
    print(file=out)
    head = _MODEL_HEAD + ("G2", "p", "AIC", "BIC", "method", "notes")
    cells = [
        _model_cells(r, *(_fmt(r[k]) for k in ("G2", "p_value", "aic", "bic")),
                     r["method"], _fit_notes(r))
        for r in rows
    ]
    _print_columns(head, cells, out)


def _cmd_fit(args, out):
    table, source = _load_source(args.source)
    tol, from_env = _resolve_tol(args)
    if args.model is not None:
        fits = [fit_model(args.model, table, tol=tol, max_iter=args.max_iter)]
    else:
        fits = fit_all(table, tol=tol, max_iter=args.max_iter)
    rows = [_fit_row(f) for f in fits]
    if args.format == "json":
        _print_json(_json_head(
            "fit", table, source, tol, df_convention=DF_POISSON_CELLS,
            observed_statistics=observed_statistic_count(table.schema),
            fits=rows,
        ), out)
    else:
        _print_fit_text(table, source, rows, tol, from_env, out)
    return EXIT_OK


def _cmd_bootstrap(args, out):
    if args.seed is not None and args.seed < 0:
        raise _UsageError(f"argument --seed: must be >= 0, got {args.seed}")
    table, source = _load_source(args.source)
    tol, from_env = _resolve_tol(args)
    screening_plan(table.schema)  # a table it refuses is not fitted first
    fit = fit_model(args.model, table, tol=tol, max_iter=args.max_iter)
    summary = bootstrap_assess(
        table,
        args.model,
        n_replicates=args.replicates,
        seed=args.seed,
        mode=args.mode,
        fit=fit,
    )
    timing = (
        {"draw_s": summary.draw_s, "screen_s": summary.screen_s}
        if args.verbose else {}
    )
    if args.format == "json":
        _print_json(_json_head(
            "bootstrap", table, source, tol, df_convention=DF_POISSON_CELLS,
            seed=args.seed, **summary.as_dict(), **timing,
        ), out)
        return EXIT_OK
    _print_header(table, source, tol, from_env, out)
    print(
        f"model: {summary.model_id}  replicates: {summary.n_replicates}"
        f"  mode: {summary.mode}  seed: {args.seed}",
        file=out,
    )
    print(file=out)
    tallies = [
        (f"variable {f.variable}", f.percent_mar, f.n_counted, f.n_excluded)
        for f in summary.families
    ]
    tallies.append(("overall", summary.percent_mar, summary.overall_counted,
                    summary.overall_excluded))
    for label, percent, counted, excluded in tallies:
        print(f"{label}: {percent:.2f}% MAR  (counted {counted},"
              f" excluded {excluded})", file=out)
    if timing:
        print(f"time: draw {summary.draw_s:.4f} s  screen"
              f" {summary.screen_s:.4f} s", file=out)
    return EXIT_OK


def _cmd_datasets(args, out):
    rows = []
    for name in builtin_dataset_names():
        table = builtin_dataset(name)
        rows.append({"name": name, "shape": table.schema.shape, "N": table.N,
                     "description": builtin_dataset_description(name)})
    if args.format == "json":
        _print_json({"command": "datasets", "datasets": rows}, out)
    else:
        for r in rows:
            print(f"{r['name']}  [{r['shape']}, N={r['N']}]"
                  f"  {r['description']}", file=out)
    return EXIT_OK


def _cmd_catalog(args, out):
    table, source = _load_source(args.source)
    schema = table.schema
    models = enumerate_models(schema)
    summaries = [model_summary(m, schema) for m in models]
    if args.format == "json":
        payload = {
            "command": "catalog",
            "source": source,
            "shape": schema.shape,
            "observed_statistics": observed_statistic_count(schema),
            "df_convention": DF_POISSON_CELLS,
            "models": summaries,
        }
        _print_json(payload, out)
    else:
        print(f"source: {source}", file=out)
        print(f"shape: {schema.shape}", file=out)
        print(
            f"observed statistics: {observed_statistic_count(schema)}",
            file=out,
        )
        print(file=out)
        rows = [
            _model_cells(s, "perfect" if s["perfect_fit"] else "")
            for s in summaries
        ]
        _print_columns(_MODEL_HEAD + ("notes",), rows, out)
    return EXIT_OK


def _add_format(p):
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )


def _add_fit_options(p):
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)


# the cache hits only when main runs more than once in one process, as
# the tests and bench/run.py run it; a misstab process parses once
@functools.cache
def build_parser() -> _Parser:
    """The command-line parser; parsing leaves it unchanged, so it is
    built once per process."""
    parser = _Parser(
        prog="misstab",
        description=(
            "Assess missing-data mechanisms and fit non-response models"
            " for incomplete contingency tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "assess",
        help="containment checks of non-response odds in response intervals",
    )
    p.add_argument("source", help="builtin dataset name or table file")
    _add_format(p)
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("fit", help="fit the non-response model catalog")
    p.add_argument("source")
    p.add_argument("--model", default=None, help="fit one model by id")
    _add_fit_options(p)
    _add_format(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "bootstrap",
        help="parametric bootstrap of the assessment under one model",
    )
    p.add_argument("source")
    p.add_argument("--model", required=True)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--mode",
        choices=(MODE_MULTINOMIAL, MODE_POISSON),
        default=MODE_MULTINOMIAL,
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also report the seconds spent drawing and screening",
    )
    _add_fit_options(p)
    _add_format(p)
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("datasets", help="list builtin datasets")
    _add_format(p)
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser(
        "catalog", help="list the model catalog for a table's shape"
    )
    p.add_argument("source")
    _add_format(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    out = sys.stdout
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TableError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
