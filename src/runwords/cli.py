"""Command-line interface.

Every command is deterministic and supports --format plain|csv|json.
Exit codes: 0 success, 1 verification failure (a failed ``verify`` check,
or a failed identity check of ``count``), 2 usage error, 3 internal
failure (no certified result after refinement, root estimates that are
not conjugate pairs, root disks that could not be certified, ``verify full``
without mpmath, its independent referee, running out of memory, or a size
beyond the machine's index range, as for ``phi``'s degree-k polynomial at
k = 10^23).

``main`` builds its parser once per process and dispatches by command
name at call time: ``args.command`` selects the module's ``cmd_<command>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from decimal import ROUND_CEILING, Decimal
from fractions import Fraction

from . import core, numerics, oracle, poly, series, verify
from .interval import render_decimal, round_fraction


def _csv_field(value) -> str:
    """str(value) as a csv field, in double quotes with its own quotes
    doubled where it holds a comma, a quote or a line break.  csv.writer
    quotes the same way but copies each character in turn, 25 ms more on
    the 1.1 MB of ``alpha-series --k 3 --n-max 2000``.
    """
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(args, plain: Callable[[], str], rows: list[dict], json_doc=None) -> None:
    """Render one result in the selected format, to stdout or --out.

    ``plain()`` builds the plain text; it is called only when that format
    is selected, so csv and json do not pay for it.
    """
    if args.format == "plain":
        text = plain()
    elif args.format == "csv":
        header = list(rows[0].keys())
        lines = [",".join(map(_csv_field, header))]
        lines += [",".join(_csv_field(row[h]) for h in header) for row in rows]
        text = "\n".join(lines)
    else:
        text = json.dumps(json_doc if json_doc is not None else rows, indent=2)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        print(text)


def cmd_count(args) -> int:
    count = core.count_words(args.n, args.k)
    fib = core.kstep_fibonacci(args.n + args.k, args.k)
    row = {"k": args.k, "n": args.n, "count": count, "kstep_fibonacci": fib,
           "identity_ok": count == fib}

    def plain():
        return (
            f"|B_{args.n}(1^{args.k})| = {count}\n"
            f"kstep_fibonacci({args.n + args.k}, {args.k}) = {fib}  "
            f"[identity {'ok' if count == fib else 'FAILED'}]"
        )

    _emit(args, plain, [row], row)
    return 0 if count == fib else 1


def cmd_table1(args) -> int:
    grid = verify.table1_cells(args.k, args.n_max)
    ns = list(range(1, args.n_max + 1))

    def plain():
        header = ["m\\n"] + [str(n) for n in ns]
        widths = [max(len(header[0]), 1)] + [
            max(len(str(n)), max(len(str(row[i])) for row in grid)) for i, n in enumerate(ns)
        ]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for m, row in enumerate(grid):
            cells = [str(m).rjust(widths[0])]
            for i, value in enumerate(row):
                cells.append((str(value) if value else "").rjust(widths[i + 1]))
            lines.append("  ".join(cells).rstrip())
        return "\n".join(lines)

    rows = [
        {"k": args.k, "n": n, "m": m, "count": grid[m][i]}
        for m in range(len(grid))
        for i, n in enumerate(ns)
    ]
    doc = {"k": args.k, "n_max": args.n_max, "rows_by_m": grid}
    _emit(args, plain, rows, doc)
    return 0


def cmd_limits(args) -> int:
    if args.k_min > args.k_max:
        raise ValueError("--k-min must be <= --k-max")
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        decimal = render_decimal(lambda work, k=k: numerics.limit_value(k, work), args.digits)
        rows.append({"k": k, "limit": decimal})
    _emit(args, lambda: "\n".join(f"{row['k']:>3}  {row['limit']}" for row in rows), rows, rows)
    return 0


def cmd_alpha_series(args) -> int:
    """alpha(n) = P_n / (n W_n) for n = 1..n_max, from prefixes of the 1s and word series."""
    limit_decimal = render_decimal(
        lambda work: numerics.limit_value(args.k, work), args.digits
    )
    ones = series.expand(*poly.pk_fraction(args.k), args.n_max)
    words = series.expand(*poly.words_fraction(args.k), args.n_max)
    rows = []
    for n in range(1, args.n_max + 1):
        a = Fraction(ones[n], n * words[n])  # n bits in each word
        rows.append(
            {
                "k": args.k,
                "n": n,
                "alpha_num": a.numerator,
                "alpha_den": a.denominator,
                "alpha_decimal": round_fraction(a, args.digits),
                "limit_decimal": limit_decimal,
            }
        )

    def plain():
        return "\n".join(
            f"n={row['n']:>5}  alpha={row['alpha_num']}/{row['alpha_den']}"
            f" = {row['alpha_decimal']}  (limit {row['limit_decimal']})"
            for row in rows
        )

    _emit(args, plain, rows, rows)
    return 0


def cmd_phi(args) -> int:
    """phi_k and 1/phi_k from one root per precision; 1 / root is ``inverse_phi``'s enclosure."""
    root = functools.cache(lambda work: numerics.phi(args.k, work))
    decimal = render_decimal(root, args.digits)
    inverse = render_decimal(lambda work: 1 / root(work), args.digits)
    row = {"k": args.k, "phi": decimal, "inverse_phi": inverse}
    _emit(args, lambda: f"phi_{args.k} = {decimal}\n1/phi_{args.k} = {inverse}", [row], row)
    return 0


def _bound(radius: float) -> str:
    """radius to three significant digits, rounded up, so the printed bound still holds."""
    exact = Decimal(radius)
    if not exact:
        return "0"
    return f"{float(exact.quantize(Decimal(1).scaleb(exact.adjusted() - 2), ROUND_CEILING)):.3g}"


def cmd_roots(args) -> int:
    roots = numerics.all_roots(args.k)
    rows = [
        {
            "k": args.k,
            "re": f"{z.real:.15g}",
            "im": f"{z.imag:.15g}",
            "modulus": f"{abs(z):.15g}",
            "error_radius": _bound(radius),
        }
        for z, radius in zip(roots.roots, roots.error_radii)
    ]

    def plain():
        return "\n".join(
            f"{row['re']:>22} {row['im']:>22}i  |r|={row['modulus']}"
            f"  (err<={row['error_radius']})"
            for row in rows
        )

    _emit(args, plain, rows, rows)
    return 0


def cmd_dist(args) -> int:
    dist = core.ones_distribution(args.n, args.k)
    rows = [
        {"k": args.k, "n": args.n, "m": m, "count": c}
        for m, c in enumerate(dist.counts)
    ]
    doc = {"k": args.k, "n": args.n, "counts": list(dist.counts)}
    _emit(args, lambda: "\n".join(f"m={row['m']:>3}  {row['count']}" for row in rows), rows, doc)
    return 0


def cmd_popularity(args) -> int:
    value = core.popularity(args.n, args.k)
    row = {"k": args.k, "n": args.n, "popularity": value}
    _emit(args, lambda: str(value), [row], row)
    return 0


def cmd_list(args) -> int:
    words = oracle.list_words(args.n, args.k)
    rows = [{"k": args.k, "n": args.n, "word": w} for w in words]
    _emit(args, lambda: "\n".join(words), rows, words)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_checks(args.level)
    ok = all(r.passed for r in results)

    def plain():
        lines = [
            f"{'PASS' if r.passed else 'FAIL'}  {r.name}" + (f"  ({r.detail})" if r.detail else "")
            for r in results
        ]
        lines.append(f"{'all checks passed' if ok else 'VERIFICATION FAILED'}")
        return "\n".join(lines)

    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    doc = {"level": args.level, "passed": ok, "checks": rows}
    _emit(args, plain, rows, doc)
    return 0 if ok else 1


def _add_common(parser, *, out=True) -> None:
    parser.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    if out:
        parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runwords",
        description="Statistics of binary words avoiding k consecutive 1s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of length-n avoiders")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("table1", help="triangle of counts by number of 1s")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, default=9, dest="n_max")
    _add_common(p)

    p = sub.add_parser("limits", help="limit of the expected bit value per k")
    p.add_argument("--k-min", type=int, default=2, dest="k_min")
    p.add_argument("--k-max", type=int, default=13, dest="k_max")
    p.add_argument("--digits", type=int, default=15)
    _add_common(p)

    p = sub.add_parser("alpha-series", help="expected bit value for n = 1..n_max")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, default=50, dest="n_max")
    p.add_argument("--digits", type=int, default=6)
    _add_common(p)

    p = sub.add_parser("phi", help="generalized golden ratio")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits", type=int, default=15)
    _add_common(p)

    p = sub.add_parser("roots", help="all complex roots of the k-step polynomial")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("dist", help="distribution of the number of 1s")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("popularity", help="total 1s over all avoiders")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("list", help="list all avoiders (n <= 16)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run the self-check battery")
    p.add_argument("level", choices=("quick", "full"))
    _add_common(p)

    return parser


# Least value of the int options that the library does not check itself.
OPTION_MINIMUM = {"digits": 0, "n_max": 1}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        for dest, least in OPTION_MINIMUM.items():
            value = getattr(args, dest, least)
            if value < least:
                raise ValueError(f"--{dest.replace('_', '-')} must be >= {least}, got {value}")
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ImportError) as exc:  # RootFindingError; mpmath missing
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 3
    except OverflowError as exc:  # a list or integer too large to index
        print(f"error: too large to compute: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
