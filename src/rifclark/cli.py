"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``analyze`` builds a
Clark measure and writes its file, ``levelset`` exports traced branches,
``verify`` replays the Poisson identity on a stored measure, ``contact``
writes singularity reports, ``embed`` runs the isometry and density
checks, ``tridisk`` exposes the closed-form family, and ``reconstruct``
rebuilds the inner function from a measure's moments.  A measure file is
the recipe of its build (RIF, alpha, grid) and the digest of its arrays;
``verify`` and ``reconstruct`` build it again and refuse a rebuild whose
digest differs (``clark.measure_from_json``).

All JSON output goes through one writer, ``util.canonical_json`` (keys
in insertion order, floats in their shortest round-trip form), so
identical configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys

# largest grid of tridisk --build: the builder solves grid**2 slices
BUILD_GRID_CAP = 256
# rows of tridisk --surface formatted per write: the text of a grid of
# 4096 (16.8M rows, a file of about 1 GB) is never held whole
SURFACE_CHUNK = 65536
# verify redraws points z with |phi(z) - alpha| at or below this, where the
# Poisson quotient exceeds 1e6 times its numerator
DRAW_ALPHA_DIST = 1e-3

def parse_alpha(text: str) -> complex:
    """Parse a unimodular target: 1, -1, i, -i, exp:t (angle t*pi), re,im.
    A re,im pair is normalised onto the circle (3,4 gives 0.6 + 0.8i).
    ValueError for the pair 0,0, for a plain number off the circle and
    for NaN and infinite parts (exp:inf included)."""
    import numpy as np

    from .util import on_circle

    t = text.strip()
    named = {"1": 1.0 + 0.0j, "-1": -1.0 + 0.0j, "i": 1.0j, "-i": -1.0j}
    if t in named:
        return named[t]
    if t.startswith("exp:"):
        with np.errstate(invalid="ignore"):  # exp:inf is NaN, refused below
            a = complex(np.exp(1j * np.pi * float(t[4:])))
    elif "," in t:
        re, im = (float(part) for part in t.split(",", 1))
        a = complex(re, im)
        mod = abs(a)
        if mod == 0.0:
            raise ValueError("alpha cannot be zero")
        a /= mod
    else:
        a = complex(float(t), 0.0)
    if not on_circle(a):
        raise ValueError(f"alpha {text!r} is not unimodular")
    return a


def _load_rif(args):
    from . import poly as _poly

    with open(args.poly, "r", encoding="utf-8") as fh:
        den = _poly.poly_from_json(fh.read())
    degrees = None
    if getattr(args, "rif_degrees", None):
        degrees = tuple(int(x) for x in args.rif_degrees.split(","))
    return _poly.Rif(den, degrees=degrees)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _interior_points(rng, count, radius, d=2):
    """``count`` points (count, d) of the polydisk of ``radius``, uniform."""
    import numpy as np

    r = radius * np.sqrt(rng.uniform(0.0, 1.0, (count, d)))
    ang = 2.0 * np.pi * rng.uniform(0.0, 1.0, (count, d))
    return r * np.exp(1j * ang)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from . import clark

    phi = _load_rif(args)
    alpha = parse_alpha(args.alpha)
    measure = clark.build_measure(phi, alpha, args.grid)
    mass = clark.total_mass(measure)
    expected = clark.expected_mass(phi, alpha)
    _write(args.out, clark.measure_to_json(measure))
    print(f"alpha {alpha:.17g} grid {measure.grid_n}")
    print(f"base {len(measure.base)} atoms {(measure.weights != 0).sum()} "
          f"lines {len(measure.lines)}")
    print(f"mass {mass:.17g} expected {expected:.17g} "
          f"gap {abs(mass - expected):.3g}")
    print(f"wrote {args.out}")
    return 0


def cmd_levelset(args) -> int:
    from . import levelset

    phi = _load_rif(args)
    alpha = parse_alpha(args.alpha)
    branches = levelset.trace_branches(phi, alpha, args.grid)
    label = os.path.splitext(os.path.basename(args.poly))[0]
    base, ext = os.path.splitext(args.out)
    for j, br in enumerate(branches):
        path = f"{base}_{j}{ext or '.csv'}"
        _write(path, "\n".join(levelset.branch_csv_lines(br, label, j)))
        print(f"branch {j}: weight range [{br.weights.min():.6g}, "
              f"{br.weights.max():.6g}] wrote {path}")
    lines = levelset.detect_lines(phi, alpha)
    print(f"alpha class: {'exceptional' if lines else 'generic'}")
    for line in lines:
        print(f"  line axis={line.axis} tau={line.tau:.17g} "
              f"constant={line.constant:.17g}")
    sings = levelset.find_singularities(phi)
    for tau, gamma in sings:
        print(f"singularity ({tau:.17g}, {gamma:.17g})")
    return 0


def cmd_verify(args) -> int:
    import numpy as np

    from . import clark
    from .util import canonical_json

    with open(args.measure, "r", encoding="utf-8") as fh:
        measure = clark.measure_from_json(fh.read())
    phi = measure.phi
    rng = np.random.default_rng(args.seed)
    pts = np.empty((0, phi.dim), dtype=complex)
    for _ in range(50):  # drop draws with phi(z) within DRAW_ALPHA_DIST
        if len(pts) >= args.points:
            break
        z = _interior_points(rng, args.points, 0.7, phi.dim)
        far = np.abs(phi(*z.T) - measure.alpha) > DRAW_ALPHA_DIST
        pts = np.concatenate([pts, z[far]])[:args.points]
    report = clark.verify_poisson(measure, pts)
    ok = bool(report.max_rel_err < args.tol)
    obj = {
        "alpha": complex(measure.alpha),
        "points": pts,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "rel_err": report.rel_err,
        "max_rel_err": report.max_rel_err,
        "tol": args.tol,
        "pass": ok,
    }
    if args.out:
        _write(args.out, canonical_json(obj))
    for z, lhs, rhs, rel in zip(pts, report.lhs, report.rhs, report.rel_err):
        print(f"z=({','.join(f'{c:.4f}' for c in z)}) lhs {lhs:.10g} "
              f"rhs {rhs:.10g} rel {rel:.3g}")
    print(f"max rel err {report.max_rel_err:.3g} tol {args.tol:g} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_contact(args) -> int:
    from dataclasses import asdict

    from . import contact, levelset
    from .util import canonical_json

    phi = _load_rif(args)
    alphas = [parse_alpha(tok) for tok in args.alphas.split(";")]
    sings = levelset.find_singularities(phi)
    reports = []
    for sing in sings:
        rep = contact.contact_report(phi, sing, alphas)
        reports.append(asdict(rep))
        print(f"singularity ({sing[0]:.8g}, {sing[1]:.8g}): "
              f"nt value {rep.nontangential_value:.8g}, "
              f"{len(rep.fits)} weight fits")
        for f in rep.fits:
            print(f"  alpha {f.alpha:.6g} branch {f.branch}: K {f.rounded}, "
                  f"c {f.constant:.4g}")
    _write(args.out, canonical_json(reports))
    print(f"wrote {args.out}")
    return 0


def cmd_embed(args) -> int:
    import numpy as np

    from . import clark, embedding
    from .errors import DenominatorVanishes
    from .util import canonical_json

    phi = _load_rif(args)
    if phi.dim != 2:  # refused before a build of grid**(dim - 1) slices
        raise ValueError("embed expects a two-variable inner function")
    alpha = parse_alpha(args.alpha)
    measure = clark.build_measure(phi, alpha, args.grid)
    rng = np.random.default_rng(args.seed)
    pts = _interior_points(rng, args.kernels, 0.6)
    gram = embedding.gram_isometry_check(phi, alpha, pts, measure)
    dens = embedding.density_distance(measure, args.degree)
    obj = {
        "alpha": complex(alpha),
        "gram_max_abs_error": gram.max_abs_error,
        "density": {
            "degree": dens.degree,
            "distance_zbar2": dens.distance_zbar2,
            "distance_zbar1": dens.distance_zbar1,
            "verdict": dens.verdict,
        },
    }
    try:
        cr = embedding.conj_rational(phi, alpha)
        obj["conj_rational_residuals"] = list(cr.max_residual)
        print(f"conjugate coordinates rational: residuals "
              f"{cr.max_residual[0]:.3g}, {cr.max_residual[1]:.3g}")
    except DenominatorVanishes as exc:
        obj["conj_rational_error"] = str(exc)
        print(f"conjugate coordinates: {exc}")
    _write(args.out, canonical_json(obj))
    print(f"gram isometry max error {gram.max_abs_error:.3g} "
          f"({args.kernels} kernels)")
    print(f"density distance (deg {dens.degree}): zbar2 "
          f"{dens.distance_zbar2:.6g} zbar1 {dens.distance_zbar1:.6g} "
          f"-> {dens.verdict}")
    print(f"wrote {args.out}")
    return 0


def cmd_tridisk(args) -> int:
    import numpy as np

    from . import catalog, clark, polydisk
    from .util import TWO_PI, unit_roots

    alpha = parse_alpha(args.alpha)
    s = args.s
    did = False
    if args.diagonal:
        if args.grid < 2:  # the diagonal samples theta = 2 pi k / grid, 0 < k
            raise ValueError("--diagonal needs a --grid of at least 2")
        theta = TWO_PI * np.arange(1, args.grid) / args.grid
        z = unit_roots(args.grid)[1:]  # e^{i theta}
        w = polydisk.tridisk_weight(s, alpha, z, np.conj(z))
        lines = [f"# s={s:.17g} alpha={alpha.real:.17g}{alpha.imag:+.17g}j "
                 f"diagonal N={args.grid}", "theta,weight"]
        lines += [f"{t:.17g},{x:.17g}" for t, x in zip(theta, w)]
        _write(args.out, "\n".join(lines))
        print(f"diagonal weights: max {w.max():.6g} wrote {args.out}")
        did = True
    if args.surface:
        rows = polydisk.level_surface_rows(s, alpha, args.grid)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# s={s:.17g} alpha={alpha.real:.17g}"
                     f"{alpha.imag:+.17g}j surface N={args.grid}\n"
                     "theta1,theta2,arg_psi\n")
            for lo in range(0, len(rows), SURFACE_CHUNK):
                fh.writelines(f"{t1:.17g},{t2:.17g},{a:.17g}\n" for t1, t2, a
                              in rows[lo:lo + SURFACE_CHUNK].tolist())
        print(f"level surface samples: {len(rows)} wrote {args.out}")
        did = True
    if args.point:
        z = [_coordinate(tok) for tok in args.point.split(";")]
        rep = polydisk.verify_poisson_d(s, alpha, z, args.grid)
        print(f"poisson at z={args.point}: lhs {rep.lhs:.10g} rhs "
              f"{rep.rhs:.10g} rel {rep.rel_err:.3g}")
        did = True
    if args.build:
        phi = catalog.tridisk_rif(s)
        grid = min(args.grid, BUILD_GRID_CAP)
        measure = clark.build_measure(phi, alpha, grid)
        mass = clark.total_mass(measure)
        capped = f", --grid {args.grid} capped" if grid < args.grid else ""
        print(f"built {len(measure.base)} base nodes, "
              f"{np.count_nonzero(measure.weights)} atoms, mass {mass:.12g} "
              f"(grid {grid}x{grid}{capped})")
        did = True
    if not did:
        print("nothing to do: pass --diagonal, --surface, --point or --build",
              file=sys.stderr)
        return 2
    return 0


def _coordinate(tok):
    """One coordinate of --point, re,im or a real number; ValueError for
    any other token."""
    parts = tok.split(",")
    if len(parts) > 2:
        raise ValueError(f"--point coordinate {tok!r} is not re,im")
    return complex(*(float(p) for p in parts))


def cmd_reconstruct(args) -> int:
    import numpy as np

    from . import clark
    from .util import canonical_json

    with open(args.measure, "r", encoding="utf-8") as fh:
        measure = clark.measure_from_json(fh.read())
    H = clark.herglotz_reconstruct(measure, args.degree)
    phi = measure.phi
    z = _interior_points(np.random.default_rng(args.seed), 200, 0.5,
                         phi.dim).T
    sup = float(np.max(np.abs(H(*z) - phi(*z))))
    obj = {
        "alpha": complex(measure.alpha),
        "degree": args.degree,
        "sup_error_half_disk": sup,
        "moments": H.moments,
    }
    _write(args.out, canonical_json(obj))
    print(f"degree {args.degree}: sup |reconstructed - original| = {sup:.3g} "
          f"on 200 points of (0.5 D)^{phi.dim}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rifclark",
        description="Clark measures of rational inner functions on the "
                    "bidisk and tridisk")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly(p):
        p.add_argument("--poly", required=True,
                       help="denominator polynomial JSON")
        p.add_argument("--rif-degrees", default=None,
                       help="reflection degrees m,n (pads the numerator "
                            "with a monomial factor)")

    p = sub.add_parser("analyze", help="build and store a Clark measure")
    add_poly(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--grid", type=int, default=None,
                   help="angles per base coordinate (default 4096 in two "
                        "variables, 256 in three)")
    p.add_argument("--out", default="measure.json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("levelset", help="trace level-set branches to CSV")
    add_poly(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", default="branches.csv")
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("verify", help="replay the Poisson identity")
    p.add_argument("--measure", required=True)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("contact", help="singularity contact-order reports")
    add_poly(p)
    p.add_argument("--alphas", default="1;i;exp:0.3333333333333333",
                   help="semicolon-separated alpha list")
    p.add_argument("--out", default="contact.json")
    p.set_defaults(func=cmd_contact)

    p = sub.add_parser("embed", help="Gram isometry and density checks")
    add_poly(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--grid", type=int, default=8192)
    p.add_argument("--kernels", type=int, default=10)
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="embed.json")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("tridisk", help="closed-form tridisk family tools")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--grid", type=int, default=4096,
                   help="grid size N; --build uses a grid of "
                        f"min(N, {BUILD_GRID_CAP}) squared")
    csv = p.add_mutually_exclusive_group()  # both would write --out
    csv.add_argument("--diagonal", action="store_true",
                     help="CSV of weights along (e^{it}, e^{-it})")
    csv.add_argument("--surface", action="store_true",
                     help="CSV of (theta1, theta2, arg psi)")
    p.add_argument("--point", default=None,
                   help="semicolon-separated z, each re,im — run the "
                        "3-variable Poisson check")
    p.add_argument("--build", action="store_true",
                   help="run the general 3-variable builder")
    p.add_argument("--out", default="tridisk.csv")
    p.set_defaults(func=cmd_tridisk)

    p = sub.add_parser("reconstruct",
                       help="rebuild the inner function from a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--degree", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="herglotz.json")
    p.set_defaults(func=cmd_reconstruct)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .errors import RifclarkError
    from .util import canonical_json

    try:
        return args.func(args)
    except (RifclarkError, ValueError, OSError, MemoryError) as exc:
        # numpy refuses a grid too large to allocate with a private subclass
        kind = MemoryError if isinstance(exc, MemoryError) else type(exc)
        print(canonical_json({"error": {"type": kind.__name__,
                                        "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
