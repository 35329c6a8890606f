"""Command-line interface: machine-readable reports over all modules.

Exit codes: 0 success, 1 verification mismatch, 2 usage error.  Every
report carries a header with q, the modulus polynomial and the
distinguished constants so runs are reproducible; output is
deterministic for a fixed command line (JSON keys sorted, no
timestamps).

The thread-count override QUASIHERM_THREADS, when set, is exported to
the BLAS thread variables before numpy loads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__


def _apply_thread_env():
    n = os.environ.get("QUASIHERM_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, n)


MAX_CLI_Q = 7


def field_header(F) -> dict:
    return {
        "q": F.q,
        "p": F.p,
        "e": F.e,
        "modulus_low_coeffs": list(F.prim_poly[:-1]),
        "xi": elem_info(F, F.xi),
        "s": elem_info(F, F.s),
        "i": elem_info(F, F.i_elem),
        "version": __version__,
    }


def elem_info(F, code: int) -> dict:
    x0, x1 = F.components(code)
    return {
        "code": int(code),
        "log": None if code == 0 else int(F.log[code]),
        "x0": int(x0),
        "x1": int(x1),
    }


def _check_q(args) -> None:
    from .gf import MAX_Q, factor_prime_power

    p, _ = factor_prime_power(args.q)  # raises for non prime powers
    if p == 2:
        raise ValueError(f"q={args.q} is even; an odd prime power is required")
    bound = MAX_CLI_Q if not getattr(args, "allow_large", False) else MAX_Q
    if args.q > bound:
        raise ValueError(
            f"q={args.q} exceeds the default bound {MAX_CLI_Q}"
            " (pass --allow-large to raise it; sweeps grow steeply)"
        )


def _geometry(args):
    from .projgeom import geometry_for_q

    return geometry_for_q(args.q)


def emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        flat = _flatten(payload)
        writer.writerow(["key", "value"])
        for k, v in flat:
            writer.writerow([k, v])
        sys.stdout.write(buf.getvalue())
    else:
        for k, v in _flatten(payload):
            print(f"{k}: {v}")


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            rows.extend(_flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix.rstrip("."), json.dumps(obj)))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


# -- subcommands --------------------------------------------------------------


def cmd_field_info(args):
    geom = _geometry(args)
    emit(args, {"header": field_header(geom.F)})
    return 0


def cmd_geometry(args):
    geom = _geometry(args)
    emit(
        args,
        {
            "header": field_header(geom.F),
            "points": geom.n_points,
            "planes": geom.n_points,
            "lines": geom.n_lines,
        },
    )
    return 0


def cmd_surfaces(args):
    from . import varieties as V

    geom = _geometry(args)
    q = geom.F.q
    payload = {"header": field_header(geom.F)}
    if args.id:
        kind, _, param = args.id.partition(":")
        sid = V.SurfaceId(kind, int(param) if param else None)
        payload["surface"] = {"id": sid.label(), "size": int(V.build_surface(geom, sid).sum())}
    else:
        crv = V.curve_set(geom)
        sizes = {
            "hermitian": int(V.hermitian_set(geom).sum()),
            "quadric": int(V.quadric_set(geom).sum()),
            "baer": int(V.sigma_set(geom).sum()),
            "curve": int(crv.sum()),
        }
        inter_ok = True
        members = [("S", j) for j in V.valid_j(q)] + [("E", k) for k in V.valid_k(q)]
        masks = {}
        for kind, param in members:
            m = V.build_surface(geom, V.SurfaceId(kind, param))
            masks[(kind, param)] = m
            sizes[f"{kind}{param}"] = int(m.sum())
        for a in masks:
            for b in masks:
                if a < b:
                    inter_ok &= bool(((masks[a] & masks[b]) == crv).all())
        payload["sizes"] = sizes
        payload["pairwise_intersections_equal_curve"] = inter_ok
    emit(args, payload)
    return 0


def cmd_orbits(args):
    from . import group as G

    geom = _geometry(args)
    dec = G.orbit_decomposition(geom, args.group)
    rows = [
        {
            "label": lab,
            "size": size,
            "representative": [int(x) for x in geom.pts[rep]],
            "stabilizer_order": G.stabilizer_order(geom, rep, args.group),
        }
        for lab, size, rep in zip(dec.labels, dec.sizes, dec.reps)
    ]
    emit(
        args,
        {
            "header": field_header(geom.F),
            "group": args.group,
            "n_orbits": dec.n_orbits,
            "orbits": sorted(rows, key=lambda r: (r["size"], r["label"])),
        },
    )
    return 0


def cmd_tables(args):
    from . import tables as T

    geom = _geometry(args)
    res = T.verify_table(geom, args.group)
    ok = all(r["match"] for r in res)
    emit(
        args,
        {
            "header": field_header(geom.F),
            "group": args.group,
            "rows": res,
            "all_match": ok,
        },
    )
    return 0 if ok else 1


def cmd_verify_quasi(args):
    from . import quasi as QH

    geom = _geometry(args)
    payload = {"header": field_header(geom.F), "results": []}
    if args.all:
        kinds = QH.valid_kinds(geom.F.q)
    else:
        kinds = [QH.QuasiKind(args.kind, j=args.j, k=args.k)]
    ok = True
    for kind in kinds:
        res = QH.verify_quasi_hermitian(geom, QH.assemble(geom, kind))
        res["kind"] = kind.label()
        res["spectrum"] = {str(k): v for k, v in res["spectrum"].items()}
        res["expected_spectrum"] = {
            str(k): v for k, v in res["expected_spectrum"].items()
        }
        ok &= res["is_quasi"]
        payload["results"].append(res)
    emit(args, payload)
    return 0 if ok else 1


def cmd_lines(args):
    from . import invariants as I

    geom = _geometry(args)
    mask = _named_set(geom, args.set)
    census = I.lines_in_set(geom, mask)
    emit(
        args,
        {
            "header": field_header(geom.F),
            "set": args.set,
            "set_size": census.set_size,
            "contained_lines": census.contained,
            "per_point_histogram": {str(k): v for k, v in census.per_point_hist.items()},
        },
    )
    return 0


def _named_set(geom, name: str):
    from . import invariants as I
    from . import varieties as V
    from . import quasi as QH

    if name == "hermitian":
        return V.hermitian_set(geom)
    if name == "quadric":
        return V.quadric_set(geom)
    if name == "curve":
        return V.curve_set(geom)
    if name == "baer":
        return V.sigma_set(geom)
    if name.startswith("S:") or name.startswith("E:"):
        kind, param = name.split(":")
        return V.build_surface(geom, V.SurfaceId(kind, int(param)))
    if name.startswith("V4:"):
        _, variant, *params = name.split(":")
        j = k = None
        for prm in params:
            key, val = prm.split("=")
            if key == "j":
                j = int(val)
            else:
                k = int(val)
        return QH.assemble(geom, QH.QuasiKind(variant, j=j, k=k))
    if name.startswith("V1"):
        z = int(name.split(":")[1]) if ":" in name else 1
        return I.build_V1(geom, z)["mask"]
    if name == "V2":
        return I.build_V2(geom)["mask"]
    if name.startswith("V3"):
        kind = name.split(":")[1] if ":" in name else "elliptic"
        return I.build_V3(geom, kind)["mask"]
    raise ValueError(f"unknown set name {name!r}")


def cmd_yj(args):
    from . import invariants as I

    geom = _geometry(args)
    got = I.count_Yj(geom, args.i, args.j)
    want = I.expected_Yj(geom.F.q, args.i, args.j)
    emit(
        args,
        {
            "header": field_header(geom.F),
            "i": args.i,
            "j": args.j,
            "count": got,
            "expected": want,
            "match": got == want,
        },
    )
    return 0 if got == want else 1


def cmd_net_census(args):
    from . import invariants as I

    geom = _geometry(args)
    got = I.net_rank_census(geom, args.i, args.j)
    want = I.expected_net_census(geom.F.q, args.i, args.j)
    emit(
        args,
        {
            "header": field_header(geom.F),
            "i": args.i,
            "j": args.j,
            "census": {f"rank{r}_{t}": c for (r, t), c in sorted(got.items())},
            "expected": {f"rank{r}_{t}": c for (r, t), c in sorted(want.items())},
            "match": got == want,
        },
    )
    return 0 if got == want else 1


def cmd_known(args):
    from . import invariants as I

    geom = _geometry(args)
    payload = {"header": field_header(geom.F), "kind": args.kind}
    payload.update(I.verify_known(geom, args.kind, args.z))
    emit(args, payload)
    return 0 if payload["ok"] else 1


def cmd_klein(args):
    from . import invariants as I

    geom = _geometry(args)
    F = geom.F
    payload = {"header": field_header(F)}
    if args.census:
        cen = I.line_orbit_census(geom)
        payload.update(
            n_orbits=cen["n_orbits"],
            conjectured=cen["conjectured"],
            match=cen["n_orbits"] == cen["conjectured"],
            sizes=sorted(cen["sizes"]),
            tags={str(k): v for k, v in sorted(cen["tags"].items())},
        )
        emit(args, payload)
        return 0 if payload["match"] else 1
    omegas = [args.omega] if args.omega is not None else list(range(F.q2))
    rows = []
    ok = True
    for w in omegas:
        length = I.klein_orbit_length(geom, w)
        expect = I.expected_klein_orbit_length(F.q, w)
        ok &= length == expect
        rows.append({"omega": w, "orbit_length": length, "expected": expect})
    payload["orbits"] = rows
    emit(args, payload)
    return 0 if ok else 1


def cmd_srg(args):
    from . import srg
    from . import quasi as QH

    srg.check_memory(args.q)
    geom = _geometry(args)
    mask = _named_set(geom, args.set)
    if len(QH.plane_spectrum(geom, mask)) != 2:
        print("input set is not two-character; refusing", file=sys.stderr)
        return 2
    res = srg.graph_params(geom, mask)
    emit(args, {"header": field_header(geom.F), "set": args.set, "graph": res})
    return 0 if res["srg_ok"] else 1


def cmd_code_weights(args):
    from . import srg

    geom = _geometry(args)
    mask = _named_set(geom, args.set)
    wd = srg.weight_distribution(geom, mask)
    emit(
        args,
        {
            "header": field_header(geom.F),
            "set": args.set,
            "length": int(mask.sum()),
            "weights": {str(k): v for k, v in sorted(wd.items())},
        },
    )
    return 0


def cmd_report(args):
    from .report import report_all

    geom = _geometry(args)
    res = report_all(geom)
    ok = all(r["status"] != "fail" for r in res)
    emit(
        args,
        {
            "header": field_header(geom.F),
            "checks": res,
            "all_pass": ok,
        },
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quasiherm",
        description="exhaustive verification of the invariant-surface "
        "construction of quasi-Hermitian surfaces in PG(3, q^2)",
    )
    ap.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--allow-large", action="store_true")
        p.set_defaults(fn=fn)
        return p

    add("field-info", cmd_field_info)
    add("geometry", cmd_geometry)
    p = add("surfaces", cmd_surfaces)
    p.add_argument("--id", help="surface id like S:1 or E:0")
    p = add("orbits", cmd_orbits)
    p.add_argument("--group", choices=("K", "G", "Gp"), default="K")
    p = add("tables", cmd_tables)
    p.add_argument("--group", choices=("K", "G"), default="K")
    p = add("verify-quasi", cmd_verify_quasi)
    p.add_argument("--kind", choices=("SE", "H1E", "SH2"))
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--all", action="store_true")
    p = add("lines", cmd_lines)
    p.add_argument("--set", required=True)
    p = add("yj", cmd_yj)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p = add("net-census", cmd_net_census)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p = add("known", cmd_known)
    p.add_argument("--kind", choices=("V1", "V2", "V3"), required=True)
    p.add_argument("--z", type=int, default=1)
    p = add("klein", cmd_klein)
    p.add_argument("--omega", type=int)
    p.add_argument("--census", action="store_true")
    p = add("srg", cmd_srg)
    p.add_argument("--set", default="V4:SH2:j=1")
    p = add("code-weights", cmd_code_weights)
    p.add_argument("--set", default="V4:SH2:j=1")
    add("report", cmd_report)
    return ap


def main(argv=None) -> int:
    _apply_thread_env()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_q(args)
        if args.command == "verify-quasi" and not args.all:
            if args.kind is None:
                raise ValueError("--kind (or --all) is required")
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
