"""Command-line surface: one subcommand per capability, reproducible outputs.

Every output file embeds the parameters that produced it (as '#' comment
lines before the CSV header, or a "config" object in JSON documents), and
identical flags plus seed produce byte-identical files: nothing
time-dependent is ever written (stage timings go to stderr). Every
subcommand writes through one writer (_emit); `scan` streams its rows to
it a chunk at a time. Each handler imports the modules it runs, so a
command loads only those: `tn` loads errors, sieve, gf2 and tn.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from itertools import chain
from typing import Iterable, Optional

from .errors import RangeError, TnLabError


def _config_dict(args, keys) -> dict:
    return {k: getattr(args, k) for k in sorted(keys)}


def _emit(parts: Iterable[str], out: Optional[str]) -> None:
    """Write the parts in order, each as it comes, to the file `out`, or to
    stdout without one.

    A new file, or an old regular file with one name, is all or nothing:
    the parts go to a temporary file beside it (with the old file's mode),
    which replaces `out` once every part is written and is removed if one
    fails, so a failing command leaves no file and an older file as it
    was. Anything else `out` may name (a symlink, such as /dev/stdout, a
    pipe or device, a file with other names or another owner, or a file in
    a directory that cannot be written) is written in place, through it.
    """
    if not out:
        sys.stdout.writelines(parts)
        return
    old = os.lstat(out) if os.path.lexists(out) else None
    if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1
                                and old.st_uid == os.geteuid()
                                and os.access(os.path.dirname(out) or ".", os.W_OK)):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            if old is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            fh.writelines(parts)
        os.replace(tmp, out)
    except BaseException:
        os.remove(tmp)
        raise


def _emit_json(payload: dict, config: dict, out: Optional[str]) -> None:
    doc = {"config": config, "result": payload}
    _emit([json.dumps(doc, sort_keys=True, indent=2) + "\n"], out)


def _config_lines(config: dict) -> str:
    """The '#' lines that open a CSV file."""
    return "".join(f"# {k}={config[k]}\n" for k in sorted(config))


def _cmd_tn(args) -> int:
    from .tn import compute_tn, render_results
    r = compute_tn(args.n, cap=args.cap, use_shortcut=not args.no_shortcut,
                   include_witness=True)
    witness = list(r.witness) if r.witness is not None else None
    print(f"n={r.n} t={r.t} shortcut_used={r.shortcut_used} witness={witness}")
    if args.out:
        config = _config_dict(args, ["n", "cap", "no_shortcut", "format"])
        if args.format == "csv":
            _emit([_config_lines(config), render_results([r], "csv")], args.out)
        else:
            _emit_json({"n": r.n, "t": r.t, "shortcut_used": r.shortcut_used,
                        "witness": witness}, config, args.out)
    return 0


def _cmd_scan(args) -> int:
    from .tn import scan_lines
    # the first chunk is rendered here, before anything is written
    parts = scan_lines(args.lo, args.hi, args.cap, not args.no_shortcut, args.witness,
                       args.workers, args.format)
    config = _config_dict(args, ["lo", "hi", "cap", "no_shortcut", "witness", "format"])
    head = [_config_lines(config)] if args.format == "csv" else []
    _emit(chain(head, parts), args.out)
    return 0


def _cmd_interval(args) -> int:
    from . import intervals
    mode = "kernel" if args.kernel else "brute"
    report = intervals.check_interval_identity(args.lo, args.hi, args.y, mode=mode)
    config = _config_dict(args, ["lo", "hi", "y", "kernel"])
    _emit_json(report.to_json_dict(), config, args.out)
    return 0


def _cmd_dist(args) -> int:
    from . import distribution
    dist = distribution.distribution_table(args.x, args.c, workers=args.workers)
    config = _config_dict(args, ["x", "c", "workers"])
    config["exceptional_count"] = dist.exceptional_count
    config["cap_excluded"] = dist.cap_excluded
    config["admissible_c_min"] = dist.admissible_c_min
    if args.format == "csv":
        _emit([_config_lines(config), dist.to_csv()], args.out)
    else:
        _emit_json({"x": dist.x, "rows": [r._asdict() for r in dist.rows]}, config, args.out)
    return 0


def _cmd_rho(args) -> int:
    from . import distribution
    config = _config_dict(args, ["u"])
    if args.format == "csv":
        _emit([_config_lines(config), "u,rho\n",
               *(f"{u!r},{distribution.dickman_rho(u)!r}\n" for u in args.u)], args.out)
    else:
        _emit_json({"values": [{"u": u, "rho": distribution.dickman_rho(u)}
                               for u in args.u]}, config, args.out)
    return 0


def _cmd_construct(args) -> int:
    from . import constructor
    from .sieve import build_spf_table
    x = args.x
    y = args.y if args.y is not None else constructor.smoothness_parameter(x)
    length = args.length if args.length is not None else \
        int(constructor.interval_length_parameter(x))
    table = build_spf_table(max(x, 4))
    found = constructor.find_smooth_rich_intervals(x, y, length, args.delta, table)
    certs = []
    for lo, hi in found[:args.max_intervals]:
        built = constructor.build_small_tn(lo, hi, y, table)
        if built is None:
            continue
        n, offsets = built
        certs.append({"interval": [lo, hi], "n": n, "offsets": list(offsets),
                      "tn_upper_bound": hi - lo})
    config = _config_dict(args, ["x", "delta", "max_intervals"])
    config["y"] = y
    config["length"] = length
    _emit_json({"intervals_found": len(found), "certificates": certs}, config, args.out)
    return 0


def _cmd_curve_point(args) -> int:
    from . import constructor
    cert = constructor.construct_curve_point(
        args.x, args.c, seed=args.seed, y=args.y, length=args.length,
        delta=args.delta, family_size=args.family_size)
    for stage, secs in cert.stage_seconds.items():
        print(f"stage {stage}: {secs:.3f}s", file=sys.stderr)
    config = _config_dict(args, ["x", "c", "seed", "delta", "family_size"])
    _emit_json(cert.to_json_dict(), config, args.out)
    return 0


def _cmd_pell(args) -> int:
    from . import heights
    sols = heights.pell_solutions(args.J)
    config = _config_dict(args, ["J"])
    _emit_json({"solutions": [[x, y] for x, y in sols]}, config, args.out)
    return 0


def _cmd_bounds(args) -> int:
    from . import heights
    if args.kind == "integral-point":
        if args.degree is None or args.H is None:
            raise TnLabError("--kind integral-point needs --degree and --H")
        report = heights.integral_point_log_bound(args.degree, args.H)
    elif args.kind == "few-offsets":
        if args.s is None or args.J is None:
            raise TnLabError("--kind few-offsets needs --s and --J")
        report = heights.few_offsets_log_bound(args.s, args.J, args.constant)
    elif args.kind == "tn-lower":
        if args.n is None:
            raise TnLabError("--kind tn-lower needs --n")
        report = heights.tn_lower_bound_eval(args.n, args.constant
                                             if args.constant is not None else 1.0)
    else:  # pragma: no cover - argparse restricts choices
        raise TnLabError(f"unknown bound kind {args.kind}")
    config = _config_dict(args, ["kind", "degree", "H", "s", "J", "n", "constant"])
    _emit_json(report.to_json_dict(), config, args.out)
    return 0


def _cmd_select_omega(args) -> int:
    from . import heights
    bs = [int(v) for v in args.bs.split(",") if v]
    sel = heights.select_low_omega(bs, args.J)
    config = _config_dict(args, ["bs", "J"])
    _emit_json(sel.to_json_dict(), config, args.out)
    return 0


def _cmd_runge(args) -> int:
    from . import runge
    offsets = [int(v) for v in args.offsets.split(",") if v]
    dec = runge.offsets_near_square(offsets)
    payload = dec.to_json_dict()
    payload["height_bound"] = runge.height_bound(dec.half_degree, dec.span)
    if args.search_limit is not None:
        payload["integral_points"] = [
            [x, y] for x, y in runge.search_integral_points(offsets, args.search_limit)]
    config = _config_dict(args, ["offsets", "search_limit"])
    _emit_json(payload, config, args.out)
    return 0


def _cmd_conjecture(args) -> int:
    from . import distribution
    report = distribution.conjecture_scan(args.x, args.c, workers=args.workers)
    config = _config_dict(args, ["x", "c", "workers"])
    _emit_json(report.to_json_dict(), config, args.out)
    return 0


def _add_common(p, fmt_default="csv", with_format=True):
    p.add_argument("--out", help="output file path (stdout when omitted)")
    if with_format:
        p.add_argument("--format", choices=["csv", "json"], default=fmt_default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tnlab",
        description="Subset-product-square thresholds t_n: exact computation, "
                    "interval identities, distribution tables, constructive "
                    "certificates, and explicit height bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tn", help="compute one t_n with witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--no-shortcut", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_tn)

    p = sub.add_parser("scan", help="t_n over a range")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--no-shortcut", action="store_true")
    p.add_argument("--witness", action="store_true",
                   help="compute witnesses for every row (slower)")
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("interval", help="interval subset-square identities")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--brute", dest="kernel", action="store_false",
                     help="exponential enumeration (default)")
    grp.add_argument("--kernel", dest="kernel", action="store_true",
                     help="GF(2) kernel counting for long intervals")
    p.set_defaults(kernel=False)
    _add_common(p, with_format=False)
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("dist", help="t_n vs smoothness distribution table")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", type=float, action="append", required=True,
                   help="threshold exponent in (0, 1]; repeatable")
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("rho", help="Dickman rho values")
    p.add_argument("--u", type=float, action="append", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("construct", help="small-t_n certificates from smooth-rich intervals")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=float)
    p.add_argument("--L", dest="length", type=int)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--max-intervals", dest="max_intervals", type=int, default=16)
    _add_common(p, with_format=False)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("curve-point", help="curve-point certificate pipeline")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--y", type=float)
    p.add_argument("--L", dest="length", type=int)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--family-size", dest="family_size", type=int, default=128)
    _add_common(p, with_format=False)
    p.set_defaults(func=_cmd_curve_point)

    p = sub.add_parser("pell", help="all solutions of y^2 = x(x+J)")
    p.add_argument("--J", type=int, required=True)
    _add_common(p, with_format=False)
    p.set_defaults(func=_cmd_pell)

    p = sub.add_parser("bounds", help="explicit height-bound evaluators")
    p.add_argument("--kind", choices=["integral-point", "few-offsets", "tn-lower"],
                   required=True)
    p.add_argument("--degree", type=int)
    p.add_argument("--H", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--J", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--constant", type=float)
    _add_common(p, with_format=False)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("select-omega", help="three lowest-omega members of a squarefree system")
    p.add_argument("--bs", required=True, help="comma-separated positive integers")
    p.add_argument("--J", type=int, required=True)
    _add_common(p, with_format=False)
    p.set_defaults(func=_cmd_select_omega)

    p = sub.add_parser("runge", help="near-square decomposition and height bound")
    p.add_argument("--offsets", required=True, help="comma-separated offsets, first 0")
    p.add_argument("--limit", dest="search_limit", type=int)
    _add_common(p, with_format=False)
    p.set_defaults(func=_cmd_runge)

    p = sub.add_parser("conjecture", help="scan t_n against (log n)^(1-c)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p, with_format=False)
    p.set_defaults(func=_cmd_conjecture)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # interval --kernel writes square_subset_count, 2^dim, in full: lift the
    # limit on int-to-str digits, which early Python 3.10 releases lack
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)
    try:
        if getattr(args, "workers", 1) < 1:  # scan, dist and conjecture
            raise RangeError(f"workers must be >= 1, got {args.workers}")
        return args.func(args)
    except TnLabError as e:
        print(f"tnlab: error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"tnlab: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
