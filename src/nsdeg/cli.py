"""Command-line front-end; one text-or-JSON emitter.

Usage:
    nsdeg info --gens 5,7,9 [--json]
    nsdeg degrees --gens 5,7,9 [--json]
    nsdeg ideal --gens 5,7,9 --ideal 0,2 --op bidual [--json]
    nsdeg herzog --gens 5,7,9 [--json]
    nsdeg sweep --max-genus 12 --out report.csv --format csv
    nsdeg lab --gens 3,4,5 --enumerate-ideals

``info``, ``degrees``, ``ideal`` and ``herzog`` each build a JSON payload
and its text fields and print them through :func:`_emit`, as indented
JSON or as ``key: value`` lines; ``ideal --op closed|reflexive`` prints
one line either way.  ``--gens`` and ``--json`` are declared once and
shared.  ``lab`` prints CSV and ``sweep`` a summary of the report file
it writes.

Exit codes: 0 clean, 1 usage, input or file error (a stdout pipe closed
by its reader included), 2 internal invariant violation, 3
theorem-assertion failure in a sweep.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import click

from .degrees import TcdegCheck, classify
from .errors import InternalInvariantViolation, NsdegError
from .herzog import herzog_consistency
from .ideals import generate
from .lab import (
    enumerate_ideals,
    gap_subset_mask,
    is_closed,
    is_reflexive,
    profile_ideal,
)
from .semigroup import NumericalSemigroup
from .sweep import SweepConfig, run_sweep


# The options these parse are required, and click reports a missing one
# before it calls the callback, so ``value`` is always a string.
def _parse_int_list(ctx, param, value):
    try:
        items = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter("expected a comma-separated list of integers")
    if not items:
        raise click.BadParameter("expected at least one integer")
    return items


def _parse_positive_list(ctx, param, value):
    items = _parse_int_list(ctx, param, value)
    if any(x < 1 for x in items):
        raise click.BadParameter("expected positive integers")
    return items


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


# Shared by every command that reads one ring, and by those that can
# answer in JSON.
_gens_option = click.option("--gens", required=True, callback=_parse_positive_list,
                            help="Comma-separated semigroup generators, e.g. 5,7,9.")
_json_option = click.option("--json", "as_json", is_flag=True, help="Emit JSON.")


def _emit(as_json: bool, payload: dict, fields) -> None:
    """Print ``payload`` as indented JSON, or else one ``key: value`` line
    per pair that ``fields()`` returns.  ``fields`` is called only for
    text, so work that only the text needs is skipped under ``--json``."""
    if as_json:
        click.echo(json.dumps(payload, indent=2))
        return
    for key, value in fields():
        click.echo(f"{key}: {_fmt(value)}")


@click.group()
def cli():
    """Exact degree invariants of numerical semigroup rings."""


@cli.command()
@_gens_option
@_json_option
def info(gens, as_json):
    """Semigroup invariants: Frobenius number, genus, type, gaps."""
    S = NumericalSemigroup(gens)
    payload = S.to_dict()
    _emit(as_json, payload, lambda: [*payload.items(), ("gaps", S.gaps)])


@cli.command()
@_gens_option
@_json_option
def degrees(gens, as_json):
    """Full degree report: cdeg, ddeg, tdeg, canonical index, flags."""
    payload = classify(NumericalSemigroup(gens)).to_dict()

    def fields():
        flat = dict(payload)
        idealization = flat.pop("idealization")
        tc = flat.pop("tcdeg") or {}
        return [
            *flat.items(),
            *((f"idealization_{key}", value) for key, value in idealization.items()),
            *((f"tcdeg_{f.name}", tc.get(f.name)) for f in dataclasses.fields(TcdegCheck)),
        ]

    _emit(as_json, payload, fields)


@cli.command()
@_gens_option
@click.option("--ideal", "ideal_gens", required=True, callback=_parse_int_list,
              help="Comma-separated ideal generator values.")
@click.option("--op", required=True,
              type=click.Choice(["bidual", "trace", "dual", "closed", "reflexive", "profile"]))
@_json_option
def ideal(gens, ideal_gens, op, as_json):
    """Ideal-calculus operations on the ideal generated by --ideal."""
    E = generate(NumericalSemigroup(gens), ideal_gens)

    if op in ("closed", "reflexive"):
        value = is_closed(E) if op == "closed" else is_reflexive(E)
        click.echo(json.dumps({op: value}) if as_json else f"{op}: {_fmt(value)}")
        return

    if op in ("dual", "bidual", "trace"):
        result = getattr(E, op)()
        _emit(as_json, result.to_dict(), lambda: [
            ("op", op),
            ("offset", result.offset),
            ("conductor", result.conductor),
            ("elements_below_conductor", result.elements_below_conductor()),
        ])
        return

    prof = profile_ideal(E)
    payload = {
        "elements_below_conductor": prof.ideal.elements_below_conductor(),
        "conductor": prof.ideal.conductor,
        "closed": prof.is_closed,
        "reflexive": prof.is_reflexive,
        "principal": prof.is_principal,
        "canonical": prof.is_canonical,
        "rel_ddeg": prof.rel_ddeg,
        "socle_witnesses": [list(w) for w in prof.socle_witnesses],
        "ext_check_required": prof.needs_ext_check,
    }
    _emit(as_json, payload, lambda: {
        **payload, "socle_witnesses": [f"{c}:{n}" for c, n in prof.socle_witnesses],
    }.items())


@cli.command()
@_gens_option
@_json_option
def herzog(gens, as_json):
    """Matrix exponents and closed-form degree checks (3-generated case)."""
    result = herzog_consistency(NumericalSemigroup(gens))
    data, checks = result.data.to_dict(), result.to_dict()
    # the text shows the formula's ddeg once, as the data's ddeg_formula
    _emit(as_json, {**data, "consistency": checks},
          lambda: [*data.items(), *((k, v) for k, v in checks.items() if k != "formula_ddeg")])


@cli.command()
@click.option("--max-genus", required=True, type=int)
@click.option("--check-conjecture", is_flag=True)
@click.option("--check-herzog", is_flag=True)
@click.option("--strict-conjecture", is_flag=True,
              help="Check the conjecture (implies --check-conjecture); exit 3 on a counterexample.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--jobs", type=int, default=1, help="Parallel worker processes, at most one per CPU.")
def sweep(max_genus, check_conjecture, check_herzog, strict_conjecture, out_path, fmt, jobs):
    """Sweep all semigroups up to a genus bound and write a report file."""
    cfg = SweepConfig(
        max_genus=max_genus,
        check_conjecture=check_conjecture or strict_conjecture,
        check_herzog=check_herzog,
        output_format=fmt,
        parallelism=jobs,
    )
    report = run_sweep(cfg, out_path)

    total = sum(report.genus_counts.values())
    click.echo(f"rings: {total}")
    for name, tally in report.properties.items():
        status = "ok" if not tally["failures"] else f"FAIL x{len(tally['failures'])}"
        click.echo(f"property {name}: checked {tally['checked']}, {status}")
        for witness in tally["failures"][:10]:
            click.echo(f"  failure witness: {_fmt(witness)}")
    if report.herzog_no_orientation:
        n = len(report.herzog_no_orientation)
        click.echo(f"WARNING: herzog orientation missing for {n} ring(s):")
        for gens_list in report.herzog_no_orientation[:10]:
            click.echo(f"  no valid orientation: {_fmt(gens_list)}")
    if report.conjecture is not None:
        n = len(report.conjecture["counterexamples"])
        click.echo(f"conjecture {report.conjecture['statement']}: {n} counterexample(s)")
        for row in report.conjecture["counterexamples"][:10]:
            click.echo(f"  counterexample: {_fmt(row['generators'])}")
    click.echo(f"report written to {out_path}")

    if report.has_property_failures():
        return 3
    if strict_conjecture and report.has_counterexamples():
        return 3
    return 0


@cli.command()
@_gens_option
@click.option("--enumerate-ideals", "do_enumerate", is_flag=True, required=True)
def lab(gens, do_enumerate):
    """Profile every normalized relative ideal of a small semigroup (CSV)."""
    S = NumericalSemigroup(gens)
    gens_str = ";".join(str(g) for g in S.generators)
    # No field holds a comma, a quote or a newline, so a row is its fields
    # joined by commas.  Every row is built before the first is printed,
    # so a ring that fails to enumerate prints nothing.
    rows = [
        "generators,gap_subset_mask,closed,reflexive,principal,canonical,"
        "rel_ddeg,socle_witness_count,ext_check_required"
    ]
    for E in enumerate_ideals(S):
        prof = profile_ideal(E)
        rows.append(",".join(_fmt(v) for v in (
            gens_str,
            gap_subset_mask(E),
            prof.is_closed,
            prof.is_reflexive,
            prof.is_principal,
            prof.is_canonical,
            prof.rel_ddeg,
            len(prof.socle_witnesses),
            prof.needs_ext_check,
        )))
    click.echo("\n".join(rows))


def main(argv=None) -> int:
    streams = sys.stdout, sys.stderr
    try:
        rv = cli.main(args=argv, prog_name="nsdeg", standalone_mode=False)
    except SystemExit as exc:
        # click meets a closed stdout pipe by wrapping both streams and
        # exiting 1, even outside standalone mode; the pipe error is the
        # exit's context.  Report it as any OSError, on the streams as found.
        if not isinstance(exc.__context__, BrokenPipeError):
            raise
        sys.stdout, sys.stderr = streams
        if sys.stdout is sys.__stdout__:
            # the process's stdout may still hold the bytes that failed; point
            # fd 1 at the null device so the interpreter's last flush succeeds
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        click.echo(f"error: {type(exc.__context__).__name__}: {exc.__context__}", err=True)
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except InternalInvariantViolation as exc:
        click.echo(f"error: InternalInvariantViolation: {exc}", err=True)
        return 2
    except (NsdegError, OSError) as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
