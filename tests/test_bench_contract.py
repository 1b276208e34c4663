"""The benchmark's ops keep the package's contract at smoke size.

One cycle of the build, near-exceptional and queries workloads of
``bench/workloads.py`` runs in-process at its SMOKE size, once with the
benchmark's untraced tracer and once with its traced one, whose probes
read more of the package (``ClarkMeasure.branches``, ``trace_branches``,
``branch_csv_lines``, ``stability_check``, ``count_nodes``).  Every op
returns an ``Outcome``, and no bidisk build, ladder or query op misses a
contract gate (a bound from tests/test_acceptance.py); a tridisk
build's mass gap is checked against the gap its grid leaves.  The bench
directory is imported as it is.
"""

import os
import sys

import numpy as np
import pytest

from rifclark import clark
from rifclark.poly import _eval_tensor
from rifclark.util import unit_roots

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


@pytest.fixture(scope="module")
def bench():
    # imported as they are, and without leaving bytecode beside them
    sys.path.insert(0, BENCH)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = write_bytecode
    return workloads, tracer


NAMES = ["build", "near-exceptional", "queries"]


@pytest.mark.parametrize("name, traced",
                         [(n, t) for t in (False, True) for n in NAMES],
                         ids=NAMES + [f"{n}-traced" for n in NAMES])
def test_one_cycle_keeps_the_contract(bench, name, traced):
    workloads, tracer = bench
    tr = tracer.Tracer() if traced else tracer.NullTracer()
    wl = workloads.WORKLOADS[name](1, workloads.SMOKE, tr)
    try:
        outcomes = [("setup", out) for out in wl.setup_outcomes]
        outcomes += [(op, fn(tr)) for op, fn in wl.ops(0)]
    finally:
        wl.close()
    assert len(outcomes) > len(wl.setup_outcomes)
    for op, out in outcomes:
        assert isinstance(out, workloads.Outcome), op
        missed = [gate for gate in out.missed if gate["contract"]]
        if op.startswith("build.tridisk"):
            # SMOKE's grid of 16 misses the mass gate against the exact
            # mass by its quadrature error (3.3e-4 at seed 1); the gap must
            # be that error, which the grid mean of the exact slice masses
            # (the oracle of build_measure_d's guard) resolves
            k = int(op[-1])
            assert abs(out.residuals[0] - _grid_gap(wl, k)) \
                <= workloads.MASS_TOL, op
            missed = [gate for gate in missed if gate["gate"] != "mass"]
        assert not missed, (op, missed)


def _grid_gap(wl, k):
    """|grid mean of the exact slice masses - expected mass| of the
    tridisk op k: the gap of an exact build on the op's grid."""
    n, phi = wl.size.tridisk_n, wl.tri[k]
    zg = unit_roots(n)
    pts = np.stack(np.broadcast_arrays(zg[:, None], zg[None, :]), -1)
    oracle = np.mean(_slice_masses(phi, wl.alpha3, pts.reshape(-1, 2)))
    return abs(oracle - clark.expected_mass(phi, wl.alpha3))


def _slice_masses(phi, alpha, pts):
    """Mass of the Clark measure of each slice b = phi(zeta1, zeta2, .)
    over ``pts`` (m, 2): the Poisson identity at z3 = 0,
    (1 - |b(0)|^2) / |alpha - b(0)|^2, from the full coefficient tensors."""
    zs = [pts[:, 0], pts[:, 1]]
    b0 = _eval_tensor(phi.num.coeffs[..., 0], zs) \
        / _eval_tensor(phi.den.coeffs[..., 0], zs)
    return (1.0 - np.abs(b0) ** 2) / np.abs(complex(alpha) - b0) ** 2
