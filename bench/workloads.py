"""The four benchmark workloads and the exact-oracle gates on their ops.

Each workload is set up once from the seed (inputs, prebuilt measures,
warm-up of lazy BLAS/LAPACK state) and then yields a fixed list of ops per
cycle.  An op is a callable taking the tracer and returning an
``Outcome``: the gates it missed, the residuals behind ``digits_min`` and
the grid nodes it charges to ``nodes_to_tol``.  Every library call goes
through ``tr.call`` so the traced run can put a span around it; calls made
through ``tr.probe`` exist only in the traced run, to time layers that the
public entry points hide (slice roots, continuation, line detection).
"""

from __future__ import annotations

import glob
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from rifclark import catalog, clark, contact, embedding, levelset, poly, polydisk
from rifclark.errors import DenominatorVanishes
from rifclark.poly import PolyMD, Rif

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# contractual bounds from tests/test_acceptance.py (criterion in brackets)
MASS_TOL = 1e-8         # [c1]
POISSON_TOL = 1e-6      # [c2]
GRAM_TOL = 1e-5         # [c6]
DENSE_GAP_MIN = 0.69    # [c6] distance to conj(zeta2) at an exceptional alpha
HERGLOTZ_TOL = 1e-3     # [c8]
CONTACT_TOL = 0.1       # [c5] |K - 2|
NT_TOL = 1e-6           # [c7] nontangential value
CONJ_TOL = 1e-10        # tests/test_embedding.py, conj_rational residuals
# accuracy target of the near-exceptional ladder (ROADMAP item 3)
LADDER_MASS_TOL = 1e-10
LADDER_POISSON_TOL = 1e-8

# |t - 1| values of the near-exceptional ladder: a fixed spread over
# [0.01, 0.2] so every run holds the same mix of easy and stalling cases;
# the seed picks the side of t = 1 and a jitter of up to 2% on each
NEAR_DELTAS = (0.01, 0.045, 0.08, 0.19)


@dataclass(frozen=True)
class Size:
    build_n: int = 65536
    tridisk_n: int = 128
    ladder: tuple = (1024, 4096, 16384, 65536)
    query_n: int = 65536
    cli_grid: int = 4096


FULL = Size()
SMOKE = Size(build_n=512, tridisk_n=16, ladder=(256, 512), query_n=512,
             cli_grid=256)


@dataclass
class Outcome:
    missed: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    nodes: int = 0
    info: dict = field(default_factory=dict)

    def gate(self, name, ok, value, bound, contract=True):
        """Record a miss.  ``contract`` marks bounds the package promises;
        the others are accuracy targets it does not meet everywhere yet."""
        if not ok:
            self.missed.append({"gate": name, "value": _num(value),
                                "bound": bound, "contract": contract})

    def at_most(self, name, value, bound, contract=True):
        self.gate(name, bool(value <= bound), value, bound, contract)


def _num(x):
    try:
        x = float(x)
    except (TypeError, ValueError):
        return str(x)
    return x if math.isfinite(x) else str(x)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def generic_alpha(rng):
    """Unimodular alpha with |arg alpha| <= 0.7 pi, away from alpha = -1."""
    return complex(np.exp(1j * np.pi * rng.uniform(-0.7, 0.7)))


def interior_points(rng, count, radius):
    r = radius * np.sqrt(rng.uniform(size=(count, 2)))
    a = 2.0 * np.pi * rng.uniform(size=(count, 2))
    z = r * np.exp(1j * a)
    return [(complex(z[k, 0]), complex(z[k, 1])) for k in range(count)]


def poisson_points(rng, phi, alpha, count=20, radius=0.7):
    """Interior points where phi stays 1e-3 away from alpha."""
    pts: list = []
    while len(pts) < count:
        pts += [z for z in interior_points(rng, count, radius)
                if abs(complex(phi(*z)) - alpha) > 1e-3]
    return pts[:count]


def tridisk_k(s, k):
    """phi with denominator s - z1 - z2 - z3^k, stable for s > 3."""
    c = np.zeros((2, 2, k + 1), dtype=complex)
    c[0, 0, 0] = s
    c[1, 0, 0] = c[0, 1, 0] = c[0, 0, k] = -1.0
    return Rif(PolyMD(c))


BIDISK = {
    "fav": catalog.simple_singular_rif,
    "squared": catalog.squared_singular_rif,
    "product": catalog.product_singular_rif,
    "diagonal": catalog.diagonal_rif,
}
SINGULARITY_COUNT = {"fav": 1, "squared": 4}


# ---------------------------------------------------------------------------
# shared op bodies
# ---------------------------------------------------------------------------

def build_2d(tr, phi, alpha, n):
    """build_measure + total_mass; returns (measure, mass gap)."""
    if tr.on:
        zeta = np.exp(2j * np.pi * np.arange(n) / n)
        rows = tr.probe("poly.slice_coeffs", poly.slice_coeffs,
                        phi.level_coeffs(alpha), zeta[:, None])
        tr.probe("poly.companion_roots", poly.companion_roots, rows)
        tr.probe("levelset.trace_branches", levelset.trace_branches,
                 phi, alpha, n)
        tr.probe("levelset.detect_lines", levelset.detect_lines, phi, alpha)
    m = tr.call("clark.build_measure", clark.build_measure, phi, alpha, n)
    mass = tr.call("clark.total_mass", clark.total_mass, m)
    if tr.on:
        count_nodes(tr, m)
    return m, abs(mass - clark.expected_mass(phi, alpha))


def count_nodes(tr, measure):
    """Node counts from the public Branch fields (absent fields count 0)."""
    for br in getattr(measure, "branches", ()):
        tr.add("levelset.nodes", len(getattr(br, "values", ())))
        for name, attr in (("levelset.extra_nodes", "extra_ticks"),
                           ("levelset.filled_nodes", "filled"),
                           ("levelset.zero_over_zero_nodes", "zero_over_zero")):
            tr.add(name, len(getattr(br, attr, ())))


def verify(tr, measure, pts):
    tr.add("clark.verify_poisson.points", len(pts))
    return tr.call("clark.verify_poisson", clark.verify_poisson,
                   measure, pts).max_rel_err


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    setup_runs = 3  # cold set-ups behind the setup_s median

    def __init__(self, seed, size, tr, mark=lambda: None):
        """``mark`` samples the host speed; a set-up of several seconds
        calls it between its steps (see hostspeed.SpanClock)."""
        self.seed = seed
        self.size = size
        self.mark = mark
        self.setup_outcomes: list[Outcome] = []
        self.setup(np.random.default_rng(seed), tr)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


class Build(Workload):
    """Measure builds at N=65536 plus the tridisk builder at N=128."""

    def setup(self, rng, tr):
        self.alphas = [generic_alpha(rng) for _ in range(2)]
        self.s = float(rng.uniform(3.3, 4.0))
        self.alpha3 = generic_alpha(rng)
        self.z3 = tuple(0.7 * np.sqrt(rng.uniform(size=3))
                        * np.exp(2j * np.pi * rng.uniform(size=3)))
        self.rifs = {name: make() for name, make in BIDISK.items()}
        self.tri = {k: tridisk_k(self.s, k) for k in (1, 2, 3)}
        # warm-up: first calls into eigvals/lstsq pay lazy LAPACK init
        build_2d(tr, self.rifs["fav"], self.alphas[0], 256)
        tr.call("polydisk.build_measure_d.k2", polydisk.build_measure_d,
                self.tri[2], self.alpha3, 8)

    def ops(self, cycle):
        out = []
        for alpha in self.alphas:
            for name, phi in self.rifs.items():
                out.append((f"build.{name}",
                            lambda tr, phi=phi, a=alpha: self.bidisk(tr, phi, a)))
        for k in (1, 2, 3):
            out.append((f"build.tridisk_k{k}",
                        lambda tr, k=k: self.tridisk(tr, k)))
        return out

    def bidisk(self, tr, phi, alpha):
        o = Outcome(nodes=self.size.build_n, info={"alpha": alpha})
        _, gap = build_2d(tr, phi, alpha, self.size.build_n)
        o.at_most("mass", gap, MASS_TOL)
        o.residuals.append(gap)
        if o.missed:
            o.nodes *= 2
        return o

    def tridisk(self, tr, k):
        n = self.size.tridisk_n
        phi = self.tri[k]
        o = Outcome(nodes=n)
        if tr.on:
            tr.probe("poly.stability_check", poly.stability_check, phi.den)
        branches = tr.call(f"polydisk.build_measure_d.k{k}",
                           polydisk.build_measure_d, phi, self.alpha3, n)
        gap = abs(polydisk.total_mass_d(branches)
                  - clark.expected_mass(phi, self.alpha3))
        o.at_most("mass", gap, MASS_TOL)
        o.residuals.append(gap)
        if k == 1:
            rep = tr.call("polydisk.verify_poisson_d", polydisk.verify_poisson_d,
                          self.s, self.alpha3, self.z3, 512)
            o.at_most("poisson", rep.rel_err, POISSON_TOL)
            o.residuals.append(rep.rel_err)
        if o.missed:
            o.nodes *= 2
        return o


class NearExceptional(Workload):
    """Accuracy ladders at alpha = exp(i pi t) with t at or near 1."""

    def setup(self, rng, tr):
        self.cases = []
        for name in ("fav", "squared", "product"):
            phi = BIDISK[name]()
            ts = [1.0] + [1.0 + rng.choice((-1.0, 1.0)) * d
                          * (1.0 + 0.02 * rng.uniform()) for d in NEAR_DELTAS]
            for t in ts:
                alpha = -1.0 + 0.0j if t == 1.0 else complex(np.exp(1j * np.pi * t))
                self.cases.append((name, t, phi, alpha))
        name, t, phi, alpha = self.cases[1]
        m, _ = build_2d(tr, phi, alpha, 256)
        verify(tr, m, poisson_points(rng, phi, alpha))

    def ops(self, cycle):
        # Poisson points drawn afresh per cycle, so that a run samples the
        # error of each case at more than one set of 20 points
        rng = np.random.default_rng((self.seed, cycle))
        return [(f"ladder.{name}", lambda tr, c=(t, phi, alpha, pts):
                 self.ladder(tr, *c))
                for name, t, phi, alpha in self.cases
                for pts in [poisson_points(rng, phi, alpha)]]

    def ladder(self, tr, t, phi, alpha, pts):
        o = Outcome(info={"t": t})
        reached = None
        for n in self.size.ladder:
            m, gap = build_2d(tr, phi, alpha, n)
            err = verify(tr, m, pts)
            if gap <= LADDER_MASS_TOL and err <= LADDER_POISSON_TOL:
                reached = n
                break
        o.info.update(reached=reached, mass_gap=gap, poisson=err)
        o.nodes = reached or 2 * self.size.ladder[-1]
        o.residuals += [gap, err]
        o.gate("ladder_tol", reached is not None, max(gap, err),
               LADDER_MASS_TOL, contract=False)
        return o


class Queries(Workload):
    """Integration, embedding, serialization and contact on prebuilt measures."""

    # each set-up builds four measures at N=65536: a second cold set-up
    # would add about 10 s to every run
    setup_runs = 1

    def setup(self, rng, tr):
        self.alpha = generic_alpha(rng)
        self.alpha2 = self.alpha * complex(np.exp(1j * rng.uniform(0.3, 0.6)))
        self.measures = []
        for name in ("fav", "squared"):
            phi = BIDISK[name]()
            for alpha in (self.alpha, -1.0 + 0.0j):
                m, gap = build_2d(tr, phi, alpha, self.size.query_n)
                self.mark()
                o = Outcome(nodes=self.size.query_n)
                o.at_most("mass", gap, MASS_TOL)
                o.residuals.append(gap)
                self.setup_outcomes.append(o)
                self.measures.append((name, phi, alpha, m))
        name, phi, alpha, _ = self.measures[0]
        small, _ = build_2d(tr, phi, alpha, 256)
        for op in self.pass_ops(rng, [(name, phi, alpha, small)], 4):
            op[1](tr)

    def ops(self, cycle):
        rng = np.random.default_rng((self.seed, cycle))
        return self.pass_ops(rng, self.measures, 32)

    def pass_ops(self, rng, measures, degree):
        out = []
        for name, phi, alpha, m in measures:
            tag = f"{name}.{'exc' if alpha == -1 else 'gen'}"
            pts = poisson_points(rng, phi, alpha)
            kernels = interior_points(rng, 10, 0.6)
            out += [
                (f"verify.{tag}", lambda tr, m=m, p=pts: self.verify(tr, m, p)),
                (f"herglotz.{tag}",
                 lambda tr, m=m, phi=phi: self.herglotz(tr, m, phi, degree)),
                (f"gram.{tag}", lambda tr, m=m, phi=phi, a=alpha, k=kernels:
                 self.gram(tr, m, phi, a, k)),
                (f"density.{tag}", lambda tr, m=m, phi=phi, a=alpha:
                 self.density(tr, m, phi, a)),
                (f"json.{tag}", lambda tr, m=m, t=tag: self.round_trip(tr, m, t)),
            ]
            if alpha != -1:
                out.append((f"contact.{name}",
                            lambda tr, phi=phi, n=name: self.contact(tr, phi, n)))
        return out

    def verify(self, tr, m, pts):
        o = Outcome()
        err = verify(tr, m, pts)
        o.at_most("poisson", err, POISSON_TOL)
        o.residuals.append(err)
        return o

    def herglotz(self, tr, m, phi, degree):
        o = Outcome()
        if tr.on:
            tr.probe("clark.herglotz_moments", clark.herglotz_moments, m, degree)
        H = tr.call("clark.herglotz_reconstruct", clark.herglotz_reconstruct,
                    m, degree)
        pts = np.unique((np.array([0.0, 0.25, 0.5])[:, None]
                         * np.exp(2j * np.pi * np.arange(8) / 8)[None, :]).ravel())
        Z1, Z2 = np.meshgrid(pts, pts, indexing="ij")
        o.at_most("herglotz", float(np.max(np.abs(H(Z1, Z2) - phi(Z1, Z2)))),
                  HERGLOTZ_TOL)
        return o

    def gram(self, tr, m, phi, alpha, kernels):
        o = Outcome()
        rep = tr.call("embedding.gram_isometry_check",
                      embedding.gram_isometry_check, phi, alpha, kernels, m)
        o.at_most("gram", rep.max_abs_error, GRAM_TOL)
        return o

    def density(self, tr, m, phi, alpha):
        o = Outcome()
        rep = tr.call("embedding.density_distance", embedding.density_distance,
                      m, 8)
        try:
            cr = tr.call("embedding.conj_rational", embedding.conj_rational,
                         phi, alpha)
        except DenominatorVanishes:
            cr = None
        if alpha == -1:
            o.gate("density_gap", rep.distance_zbar2 >= DENSE_GAP_MIN,
                   rep.distance_zbar2, DENSE_GAP_MIN)
            o.gate("conj_refused", cr is None, 0.0, 0.0)
        else:
            o.gate("conj_exists", cr is not None, 1.0, 0.0)
            if cr is not None:
                o.at_most("conj", max(cr.max_residual), CONJ_TOL)
        return o

    def round_trip(self, tr, m, tag):
        o = Outcome()
        if tr.on:  # the CSV export of the cli levelset command
            for i, br in enumerate(m.branches):
                tr.probe("levelset.branch_csv_lines",
                         levelset.branch_csv_lines, br, tag, i)
        text = tr.call("clark.measure_to_json", clark.measure_to_json, m)
        back = tr.call("clark.measure_from_json", clark.measure_from_json, text)
        again = tr.call("clark.measure_to_json", clark.measure_to_json, back)
        tr.add("clark.measure_to_json.bytes", len(text) + len(again))
        # the package promises byte-identical artifacts per configuration,
        # not idempotent re-serialization, so this is a target, not a bound
        o.gate("reserialize_identical", text == again, len(again), len(text),
               contract=False)
        return o

    def contact(self, tr, phi, name):
        o = Outcome()
        sings = tr.call("levelset.find_singularities",
                        levelset.find_singularities, phi)
        o.gate("singularities", len(sings) == SINGULARITY_COUNT[name],
               len(sings), SINGULARITY_COUNT[name])
        for sing in sings:
            rep = tr.call("contact.contact_report", contact.contact_report,
                          phi, sing, [self.alpha])
            o.gate("fits", len(rep.fits) > 0, len(rep.fits), 1)
            for fit in rep.fits:
                check_order(o, fit.exponent, fit.rounded)
            nt = tr.call("contact.nontangential_value",
                         contact.nontangential_value, phi, sing)
            o.at_most("nontangential", abs(nt + 1.0), NT_TOL)
        if sings:
            co = tr.call("contact.branch_contact_order",
                         contact.branch_contact_order, phi, sings[0],
                         self.alpha, self.alpha2)
            check_order(o, co.exponent, co.rounded)
        return o


def check_order(o, exponent, rounded):
    o.gate("order_rounds_to_2", rounded == 2, rounded, 2)
    o.at_most("order", abs(exponent - 2.0), CONTACT_TOL)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 120.0


class Cli(Workload):
    """Fresh ``python -m rifclark.cli`` children, one at a time."""

    def setup(self, rng, tr):
        self.dir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        with open(os.path.join(self.dir, "fav.json"), "w", encoding="utf-8") as fh:
            fh.write(poly.poly_to_json(catalog.simple_singular_rif().den))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        RIFCLARK_THREADS="1")
        t = rng.uniform(-0.7, 0.7)
        t2 = rng.uniform(-0.7, 0.7)
        s = rng.uniform(3.3, 4.0)
        seed = int(rng.integers(0, 2**31))
        g = self.size.cli_grid
        poly_arg = ["--poly", "fav.json"]
        self.commands = [
            ("analyze", [*poly_arg, "--alpha", f"exp:{t!r}", "--grid", str(g),
                         "--out", "m.json"], ["m.json"]),
            ("levelset", [*poly_arg, "--alpha", f"exp:{t!r}", "--grid", str(g),
                          "--out", "b.csv"], ["b_*.csv"]),
            ("verify", ["--measure", "m.json", "--points", "20", "--seed",
                        str(seed), "--out", "v.json"], ["v.json"]),
            ("reconstruct", ["--measure", "m.json", "--degree", "32", "--seed",
                             str(seed), "--out", "h.json"], ["h.json"]),
            ("contact", [*poly_arg, "--alphas", f"exp:{t!r};exp:{t2!r}",
                         "--out", "c.json"], ["c.json"]),
            ("embed", [*poly_arg, "--alpha", f"exp:{t!r}", "--grid", str(g),
                       "--seed", str(seed), "--out", "e.json"], ["e.json"]),
            ("tridisk", ["--s", repr(s), "--alpha", f"exp:{t!r}", "--grid",
                         "128", "--diagonal", "--build", "--out", "t.csv"],
             ["t.csv"]),
        ]
        self.max_rss_kb = 0
        self.first: dict[str, dict] = {}
        # warm-up: page in the interpreter and the package once
        self.child(["-c", "import rifclark.clark"])

    def child(self, argv):
        """Run one child to completion; returns (exit code, stdout, rss KB)."""
        log = os.path.join(self.dir, "stdout.txt")
        with open(log, "w", encoding="utf-8") as out:
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.dir,
                                    env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log, encoding="utf-8") as fh:
            return proc.returncode, fh.read(), usage.ru_maxrss

    def ops(self, cycle):
        return [(f"cli.{name}", lambda tr, n=name, a=args, f=artifacts:
                 self.run_command(tr, n, a, f))
                for name, args, artifacts in self.commands]

    def run_command(self, tr, name, args, artifacts):
        o = Outcome()
        if tr.on and name == "analyze":
            tr.call("cli.interpreter", self.child, ["-c", "pass"])
            tr.call("cli.import", self.child, ["-c", "import rifclark.clark"])
        code, text, rss = tr.call(f"cli.{name}", self.child,
                                  ["-m", "rifclark.cli", name, *args])
        self.max_rss_kb = max(self.max_rss_kb, rss)
        o.gate("exit_status", code == 0, code, 0)
        if name == "analyze":
            gap = _parse(r"gap (\S+)", text)
            o.at_most("mass", gap, MASS_TOL)
            o.residuals.append(gap)
            o.nodes = self.size.cli_grid * (2 if o.missed else 1)
        elif name == "verify":
            err = _parse(r"max rel err (\S+)", text)
            o.gate("verify_pass", text.rstrip().endswith("PASS"), err,
                   POISSON_TOL)
            o.residuals.append(err)
        elif name == "tridisk":
            o.at_most("mass", abs(_parse(r"mass (\S+)", text) - 1.0), MASS_TOL)
        files = {}
        for pattern in artifacts:
            for path in sorted(glob.glob(os.path.join(self.dir, pattern))):
                with open(path, "rb") as fh:
                    files[os.path.basename(path)] = fh.read()
        if name not in self.first:
            self.first[name] = files
        else:
            o.gate("byte_identical", bool(files) and files == self.first[name],
                   len(files), len(self.first[name]))
        return o

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _parse(pattern, text):
    match = re.search(pattern, text)
    return float(match.group(1)) if match else float("nan")


WORKLOADS = {
    "build": Build,
    "near-exceptional": NearExceptional,
    "queries": Queries,
    "cli": Cli,
}
