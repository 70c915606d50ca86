"""Command-line interface.

Every command is deterministic and supports --format plain|csv|json.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import core, numerics, oracle, verify
from .interval import render_decimal, round_fraction


def _emit(args, plain: str, rows: list[dict], json_doc=None) -> None:
    """Render one result in the selected format, to stdout or --out."""
    if args.format == "plain":
        text = plain
    elif args.format == "csv":
        header = list(rows[0].keys())
        lines = [",".join(header)]
        lines += [",".join(str(row[h]) for h in header) for row in rows]
        text = "\n".join(lines)
    else:
        text = json.dumps(json_doc if json_doc is not None else rows, indent=2)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_count(args) -> int:
    count = core.count_words(args.n, args.k)
    fib = core.kstep_fibonacci(args.n + args.k, args.k)
    row = {"k": args.k, "n": args.n, "count": count, "kstep_fibonacci": fib,
           "identity_ok": count == fib}
    plain = (
        f"|B_{args.n}(1^{args.k})| = {count}\n"
        f"kstep_fibonacci({args.n + args.k}, {args.k}) = {fib}  "
        f"[identity {'ok' if count == fib else 'FAILED'}]"
    )
    _emit(args, plain, [row], row)
    return 0


def cmd_table1(args) -> int:
    grid = verify.table1_cells(args.k, args.n_max)
    ns = list(range(1, args.n_max + 1))
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
    rows = [
        {"k": args.k, "n": n, "m": m, "count": grid[m][i]}
        for m in range(len(grid))
        for i, n in enumerate(ns)
    ]
    doc = {"k": args.k, "n_max": args.n_max, "rows_by_m": grid}
    _emit(args, "\n".join(lines), rows, doc)
    return 0


def cmd_limits(args) -> int:
    if args.k_min > args.k_max:
        raise ValueError("--k-min must be <= --k-max")
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        decimal = render_decimal(lambda work, k=k: numerics.limit_value(k, work), args.digits)
        rows.append({"k": k, "limit": decimal})
    plain = "\n".join(f"{row['k']:>3}  {row['limit']}" for row in rows)
    _emit(args, plain, rows, rows)
    return 0


def cmd_alpha_series(args) -> int:
    limit_decimal = render_decimal(
        lambda work: numerics.limit_value(args.k, work), args.digits
    )
    rows = []
    for n in range(1, args.n_max + 1):
        a = core.alpha(n, args.k)
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
    plain = "\n".join(
        f"n={row['n']:>5}  alpha={row['alpha_num']}/{row['alpha_den']}"
        f" = {row['alpha_decimal']}  (limit {row['limit_decimal']})"
        for row in rows
    )
    _emit(args, plain, rows, rows)
    return 0


def cmd_phi(args) -> int:
    decimal = render_decimal(lambda work: numerics.phi(args.k, work), args.digits)
    inverse = render_decimal(lambda work: numerics.inverse_phi(args.k, work), args.digits)
    row = {"k": args.k, "phi": decimal, "inverse_phi": inverse}
    _emit(args, f"phi_{args.k} = {decimal}\n1/phi_{args.k} = {inverse}", [row], row)
    return 0


def cmd_roots(args) -> int:
    roots = numerics.all_roots(args.k)
    rows = [
        {
            "k": args.k,
            "re": f"{z.real:.15g}",
            "im": f"{z.imag:.15g}",
            "modulus": f"{abs(z):.15g}",
            "error_radius": f"{radius:.3g}",
        }
        for z, radius in zip(roots.roots, roots.error_radii)
    ]
    plain = "\n".join(
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
    plain = "\n".join(f"m={row['m']:>3}  {row['count']}" for row in rows)
    doc = {"k": args.k, "n": args.n, "counts": list(dist.counts)}
    _emit(args, plain, rows, doc)
    return 0


def cmd_popularity(args) -> int:
    value = core.popularity(args.n, args.k)
    row = {"k": args.k, "n": args.n, "popularity": value}
    _emit(args, str(value), [row], row)
    return 0


def cmd_list(args) -> int:
    words = oracle.list_words(args.n, args.k)
    rows = [{"k": args.k, "n": args.n, "word": w} for w in words]
    _emit(args, "\n".join(words), rows, words)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_checks(args.level)
    ok = all(r.passed for r in results)
    plain_lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}" + (f"  ({r.detail})" if r.detail else "")
        for r in results
    ]
    plain_lines.append(f"{'all checks passed' if ok else 'VERIFICATION FAILED'}")
    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    doc = {"level": args.level, "passed": ok, "checks": rows}
    _emit(args, "\n".join(plain_lines), rows, doc)
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
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table1", help="triangle of counts by number of 1s")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, default=9, dest="n_max")
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("limits", help="limit of the expected bit value per k")
    p.add_argument("--k-min", type=int, default=2, dest="k_min")
    p.add_argument("--k-max", type=int, default=13, dest="k_max")
    p.add_argument("--digits", type=int, default=15)
    _add_common(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("alpha-series", help="expected bit value for n = 1..n_max")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, default=50, dest="n_max")
    p.add_argument("--digits", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=cmd_alpha_series)

    p = sub.add_parser("phi", help="generalized golden ratio")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits", type=int, default=15)
    _add_common(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("roots", help="all complex roots of the k-step polynomial")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("dist", help="distribution of the number of 1s")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("popularity", help="total 1s over all avoiders")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_popularity)

    p = sub.add_parser("list", help="list all avoiders (n <= 16)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("verify", help="run the self-check battery")
    p.add_argument("level", choices=("quick", "full"))
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# Least value of the int options that the library does not check itself.
OPTION_MINIMUM = {"digits": 0, "n_max": 1}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, least in OPTION_MINIMUM.items():
            value = getattr(args, dest, least)
            if value < least:
                raise ValueError(f"--{dest.replace('_', '-')} must be >= {least}, got {value}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
