"""Command-line front end: analyze, closure, gen, boxes-graph, verify.

Exit codes: 0 success / claim verified, 1 internal error, 2 input error,
3 validation failure. ``verify CLAIM [--max-n N] [--workers W]`` runs a
claim at its defaults; ``--max-n`` sets its range, and a range beyond the
claim's ceiling, or any range for ``boxes``, is an input error.
"""

from __future__ import annotations

import json
import sys

import click

from .bounds import reduced_dag_edge_bound
from .boxes import (
    directed_intersection_graph,
    extremal_box_family,
    format_box_csv,
    is_transverse_family,
    parse_box_csv,
)
from .errors import DagxError, ParseError
from .generators import ExtremalSpec, extremal_for, random_dag, turan_dag
from .graph import format_edge_list, level_partition, parse_edge_list
from .harness import CLAIMS, DEFAULT_SEED, verify_claim
from .predicates import (
    is_extremely_reduced,
    is_reduced,
    is_strongly_reduced,
    is_transitive,
    transitive_closure,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_VALIDATION = 3


def _read(path: str) -> str:
    try:
        with click.open_file(path, "r") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {exc.encoding} text (byte {exc.start})") from None


@click.group()
def cli() -> None:
    """Analyze, generate, and exhaustively verify reduced DAGs and box families."""


@cli.command()
@click.argument("path", type=click.Path(allow_dash=True))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def analyze(path: str, fmt: str) -> int:
    """Predicates, level structure, and edge-bound slack for an edge-list file."""
    g = parse_edge_list(_read(path))
    part = level_partition(g)
    ell = part.ell
    bound = reduced_dag_edge_bound(g.n, ell) if ell >= 1 else None
    edges = len(g.edges)
    info = {
        "n": g.n,
        "edges": edges,
        "ell": ell,
        "levels": [sorted(s) for s in part.levels],
        "reduced": is_reduced(g),
        "strongly_reduced": is_strongly_reduced(g),
        "extremely_reduced": is_extremely_reduced(g),
        "transitive": is_transitive(g),
        "edge_bound": bound,
        "slack": bound - edges if bound is not None else None,
    }
    if fmt == "json":
        click.echo(json.dumps(info, indent=2))
    else:
        for key in ("n", "edges", "ell"):
            click.echo(f"{key:18} {info[key]}")
        click.echo(f"{'levels':18} " + " | ".join(",".join(map(str, lv)) for lv in info["levels"]))
        for key in ("reduced", "strongly_reduced", "extremely_reduced", "transitive"):
            click.echo(f"{key:18} {str(info[key]).lower()}")
        click.echo(f"{'edge_bound':18} {'-' if bound is None else bound}")
        click.echo(f"{'slack':18} {'-' if info['slack'] is None else info['slack']}")
    return EXIT_OK


@cli.command()
@click.argument("path", type=click.Path(allow_dash=True))
def closure(path: str) -> int:
    """Print the transitive closure of an edge-list file."""
    g = parse_edge_list(_read(path))
    click.echo(format_edge_list(transitive_closure(g)), nl=False)
    return EXIT_OK


@cli.group()
def gen() -> None:
    """Emit generated instances (edge-list text, or CSV for box families)."""


@gen.command("turan-dag")
@click.option("--n", required=True, type=int)
@click.option("--k", required=True, type=int)
def gen_turan(n: int, k: int) -> int:
    click.echo(format_edge_list(turan_dag(n, k)), nl=False)
    return EXIT_OK


@gen.command("extremal")
@click.option("--n", required=True, type=int)
@click.option("--ell", required=True, type=int)
def gen_extremal(n: int, ell: int) -> int:
    click.echo(format_edge_list(extremal_for(n, ell)), nl=False)
    return EXIT_OK


@gen.command("boxes-extremal")
@click.option("--r", required=True, type=int)
@click.option("--l", required=True, type=int)
@click.option("--s", required=True, type=int)
def gen_boxes(r: int, l: int, s: int) -> int:
    click.echo(format_box_csv(extremal_box_family(ExtremalSpec(r=r, l=l, s=s))), nl=False)
    return EXIT_OK


@gen.command("random")
@click.option("--n", required=True, type=int)
@click.option("--p", required=True, type=float)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
def gen_random(n: int, p: float, seed: int) -> int:
    click.echo(format_edge_list(random_dag(n, p, seed)), nl=False)
    return EXIT_OK


@cli.command("boxes-graph")
@click.argument("path", type=click.Path(allow_dash=True))
@click.option("--require-transverse", is_flag=True)
def boxes_graph(path: str, require_transverse: bool) -> int:
    """Directed intersection graph of a box CSV file, plus a transversality check."""
    family = parse_box_csv(_read(path))
    g = directed_intersection_graph(family)
    ok, offenders = is_transverse_family(family)
    for index, ident in enumerate(family.ids):
        click.echo(f"# vertex {index} = {ident}")
    click.echo(f"# transverse: {'yes' if ok else 'no'}")
    for a, b in offenders:
        click.echo(f"# not-transverse-pair: {a} {b}")
    click.echo(format_edge_list(g), nl=False)
    if require_transverse and not ok:
        click.echo(f"family is not transverse: {len(offenders)} offending pair(s)", err=True)
        return EXIT_VALIDATION
    return EXIT_OK


@cli.command()
@click.argument("claim", type=click.Choice(CLAIMS))
@click.option("--max-n", type=int, default=None, help="enumeration range (claim default if omitted)")
@click.option("--workers", type=int, default=1, show_default=True)
def verify(claim: str, max_n: int | None, workers: int) -> int:
    """Re-check a claim over its range; JSON report on stdout, exit 0 iff clean.

    boxes refuses --max-n; "all" clamps it to each claim's ceiling. Every
    claim takes --workers; clique runs in one process.
    """
    reports = verify_claim(claim, max_n=max_n, workers=workers)
    payload = [r.to_dict() for r in reports]
    click.echo(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    for r in reports:
        status = "ok" if r.ok else f"FAILED ({len(r.violations)} violation entries)"
        click.echo(f"{r.claim}: {status}, checked {r.checked} in {r.elapsed_ms} ms", err=True)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        return EXIT_INPUT
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return 130
    except DagxError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal error contract
        click.echo(f"internal error: {exc!r}", err=True)
        return EXIT_INTERNAL
    return int(result) if isinstance(result, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
