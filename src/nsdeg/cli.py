"""Command-line front-end.

Usage:
    nsdeg info --gens 5,7,9 [--json]
    nsdeg degrees --gens 5,7,9 [--json]
    nsdeg ideal --gens 5,7,9 --ideal 0,2 --op bidual
    nsdeg herzog --gens 5,7,9 [--json]
    nsdeg sweep --max-genus 12 --out report.csv --format csv
    nsdeg lab --gens 3,4,5 --enumerate-ideals

Exit codes: 0 clean, 1 usage or input error, 2 internal invariant
violation, 3 theorem-assertion failure in a sweep.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from .degrees import classify
from .errors import InternalInvariantViolation, NsdegError
from .herzog import herzog_consistency
from .ideals import generate
from .lab import (
    DEFAULT_ENUMERATION_CAP,
    enumerate_ideals,
    gap_subset_mask,
    is_closed,
    is_reflexive,
    profile_ideal,
)
from .semigroup import NumericalSemigroup
from .sweep import SweepConfig, run_sweep


def _parse_int_list(ctx, param, value):
    if value is None:
        return None
    try:
        items = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter("expected a comma-separated list of integers")
    if not items:
        raise click.BadParameter("expected at least one integer")
    return items


def _parse_positive_list(ctx, param, value):
    items = _parse_int_list(ctx, param, value)
    if items is not None and any(x < 1 for x in items):
        raise click.BadParameter("expected positive integers")
    return items


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _echo_fields(pairs) -> None:
    for key, value in pairs:
        click.echo(f"{key}: {_fmt(value)}")


@click.group()
def cli():
    """Exact degree invariants of numerical semigroup rings."""


@cli.command()
@click.option("--gens", required=True, callback=_parse_positive_list,
              help="Comma-separated semigroup generators, e.g. 5,7,9.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def info(gens, as_json):
    """Semigroup invariants: Frobenius number, genus, type, gaps."""
    S = NumericalSemigroup(gens)
    if as_json:
        click.echo(json.dumps(S.to_dict(), indent=2))
        return
    _echo_fields(S.to_dict().items())
    click.echo(f"gaps: {_fmt(list(S.gaps))}")


@cli.command()
@click.option("--gens", required=True, callback=_parse_positive_list,
              help="Comma-separated semigroup generators.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def degrees(gens, as_json):
    """Full degree report: cdeg, ddeg, tdeg, canonical index, flags."""
    report = classify(NumericalSemigroup(gens))
    payload = report.to_dict()
    if as_json:
        click.echo(json.dumps(payload, indent=2))
        return
    flat = dict(payload)
    idealization = flat.pop("idealization")
    tc = flat.pop("tcdeg")
    _echo_fields(flat.items())
    _echo_fields(
        [
            ("idealization_cdeg", idealization["cdeg"]),
            ("idealization_ddeg", idealization["ddeg"]),
            ("tcdeg_lhs", None if tc is None else tc["lhs"]),
            ("tcdeg_rhs", None if tc is None else tc["rhs"]),
            ("tcdeg_equal", None if tc is None else tc["equal"]),
        ]
    )


@cli.command()
@click.option("--gens", required=True, callback=_parse_positive_list,
              help="Comma-separated semigroup generators.")
@click.option("--ideal", "ideal_gens", required=True, callback=_parse_int_list,
              help="Comma-separated ideal generator values.")
@click.option("--op", required=True,
              type=click.Choice(["bidual", "trace", "dual", "closed", "reflexive", "profile"]))
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def ideal(gens, ideal_gens, op, as_json):
    """Ideal-calculus operations on the ideal generated by --ideal."""
    S = NumericalSemigroup(gens)
    E = generate(S, ideal_gens)

    if op in ("dual", "bidual", "trace"):
        result = getattr(E, op)()
        if as_json:
            click.echo(json.dumps(result.to_dict(), indent=2))
            return
        _echo_fields(
            [
                ("op", op),
                ("offset", result.offset),
                ("conductor", result.conductor),
                ("elements_below_conductor", result.elements_below_conductor()),
            ]
        )
        return

    if op in ("closed", "reflexive"):
        value = is_closed(E) if op == "closed" else is_reflexive(E)
        if as_json:
            click.echo(json.dumps({op: value}))
        else:
            click.echo(f"{op}: {_fmt(value)}")
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
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if key == "socle_witnesses":
                click.echo(f"{key}: {_fmt([f'{c}:{n}' for c, n in value])}")
            else:
                click.echo(f"{key}: {_fmt(value)}")


@cli.command()
@click.option("--gens", required=True, callback=_parse_positive_list,
              help="Comma-separated semigroup generators.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def herzog(gens, as_json):
    """Matrix exponents and closed-form degree checks (3-generated case)."""
    result = herzog_consistency(NumericalSemigroup(gens))
    if as_json:
        payload = result.data.to_dict()
        payload["consistency"] = result.to_dict()
        click.echo(json.dumps(payload, indent=2))
        return
    _echo_fields(
        [
            ("assignment", result.data.assignment),
            ("exponents", result.data.exponents),
            ("ddeg_formula", result.formula_ddeg),
            ("cdeg_candidates", result.data.cdeg_candidates),
            ("direct_ddeg", result.direct_ddeg),
            ("direct_cdeg", result.direct_cdeg),
            ("ddeg_match", result.ddeg_match),
            ("cdeg_in_candidates", result.cdeg_in_candidates),
        ]
    )


@cli.command()
@click.option("--max-genus", required=True, type=int)
@click.option("--check-conjecture", is_flag=True)
@click.option("--check-herzog", is_flag=True)
@click.option("--strict-conjecture", is_flag=True,
              help="Exit nonzero when the conjecture has counterexamples.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--jobs", type=int, default=1, help="Parallel worker processes, at most one per CPU.")
def sweep(max_genus, check_conjecture, check_herzog, strict_conjecture, out_path, fmt, jobs):
    """Sweep all semigroups up to a genus bound and write a report file."""
    cfg = SweepConfig(
        max_genus=max_genus,
        check_conjecture=check_conjecture,
        check_herzog=check_herzog,
        output_format=fmt,
        parallelism=jobs,
    )
    report = run_sweep(cfg)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(report.render())

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
        click.echo(f"conjecture cdeg >= ddeg: {n} counterexample(s)")
        for row in report.conjecture["counterexamples"][:10]:
            click.echo(f"  counterexample: {_fmt(row['generators'])}")
    click.echo(f"report written to {out_path}")

    if report.has_property_failures():
        return 3
    if strict_conjecture and report.has_counterexamples():
        return 3
    return 0


@cli.command()
@click.option("--gens", required=True, callback=_parse_positive_list,
              help="Comma-separated semigroup generators.")
@click.option("--enumerate-ideals", "do_enumerate", is_flag=True, required=True)
@click.option("--max-genus", "cap", type=int, default=DEFAULT_ENUMERATION_CAP,
              help="Refuse enumeration above this genus.")
def lab(gens, do_enumerate, cap):
    """Profile every normalized relative ideal of a small semigroup (CSV)."""
    S = NumericalSemigroup(gens)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "generators",
            "gap_subset_mask",
            "closed",
            "reflexive",
            "principal",
            "canonical",
            "rel_ddeg",
            "socle_witness_count",
            "ext_check_required",
        ]
    )
    gens_str = ";".join(str(g) for g in S.generators)
    for E in enumerate_ideals(S, max_genus=cap):
        prof = profile_ideal(E)
        writer.writerow(
            [
                gens_str,
                gap_subset_mask(E),
                _fmt(prof.is_closed),
                _fmt(prof.is_reflexive),
                _fmt(prof.is_principal),
                _fmt(prof.is_canonical),
                prof.rel_ddeg,
                len(prof.socle_witnesses),
                _fmt(prof.needs_ext_check),
            ]
        )
    click.echo(buf.getvalue(), nl=False)


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, prog_name="nsdeg", standalone_mode=False)
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
    except NsdegError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
