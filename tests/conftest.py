"""Shared fixtures and the acceptance-criteria reporter.

The acceptance tests record one entry per criterion into
ACCEPTANCE_RESULTS; the terminal-summary hook prints a single PASS/FAIL
line for each after the run, so the criteria are visible even under
captured stdout.

Hypothesis runs under a derandomized profile, so every run draws the
same examples (derandomize also turns the example database off).
"""

import numpy as np
import pytest
from hypothesis import settings

from rifclark import catalog, poly
from rifclark.poly import slice_coeffs
from rifclark.util import unimodular_alpha

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# criterion index -> (label, passed)
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for idx in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[idx]
        terminalreporter.write_line(
            f"criterion {idx} ({label}): {'PASS' if ok else 'FAIL'}")


def slice_atoms(phi, alpha, pts):
    """Every root of h(zeta', .) over frozen points ``pts`` (m, d-1) with
    its weight parts: (roots, num, den, zero_rows), the blocks of
    ``poly._atom_blocks`` collected.  ``roots`` (k, m) is root-major
    as the kernel writes it (NaN after a degree drop or in a zero slice),
    ``num`` and ``den`` are |p| and |d/dz_d h| there, and ``zero_rows``
    flags the zero slices by the kernel's documented rule: every
    coefficient of the h row below ZERO_SLICE_REL_TOL times the largest
    of h.  ValueError for an alpha off the circle."""
    k, m = phi.degrees[-1], len(pts)
    roots = np.empty((k, m), dtype=complex)
    num, den = np.empty((k, m)), np.empty((k, m))
    h = phi.level_coeffs(unimodular_alpha(alpha))
    for b, block_den, *_ in poly._atom_blocks(
            h, phi._den_full, pts, roots, num):
        den[:, b] = block_den
    zero_rows = np.max(np.abs(slice_coeffs(h, pts)), axis=0) \
        < poly.ZERO_SLICE_REL_TOL * np.max(np.abs(h))
    return roots, num, den, zero_rows


@pytest.fixture(scope="session")
def fav():
    return catalog.simple_singular_rif()


@pytest.fixture(scope="session")
def squared():
    return catalog.squared_singular_rif()


@pytest.fixture(scope="session")
def monomial():
    return catalog.monomial_rif()


@pytest.fixture(scope="session")
def product():
    return catalog.product_singular_rif()


@pytest.fixture(scope="session")
def diagonal():
    return catalog.diagonal_rif()


@pytest.fixture(scope="session")
def corpus(monomial, fav, squared, product, diagonal):
    return {
        "monomial": monomial,
        "fav": fav,
        "squared": squared,
        "product": product,
        "diagonal": diagonal,
    }


@pytest.fixture(scope="session")
def fav_measure_alpha1(fav):
    from rifclark import clark

    return clark.build_measure(fav, 1.0 + 0.0j, 1024)


@pytest.fixture(scope="session")
def fav_measure_alphai(fav):
    from rifclark import clark

    return clark.build_measure(fav, 1.0j, 1024)
