import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rifclark import catalog, clark, cli, levelset, polydisk
from rifclark.cli import main, parse_alpha
from rifclark.poly import poly_to_json


@pytest.fixture()
def fav_json(tmp_path):
    path = tmp_path / "fav.json"
    path.write_text(poly_to_json(catalog.simple_singular_rif().den))
    return str(path)


def test_parse_alpha_forms():
    assert parse_alpha("1") == 1.0 + 0.0j
    assert parse_alpha("-1") == -1.0 + 0.0j
    assert parse_alpha("i") == 1.0j
    assert parse_alpha("-i") == -1.0j
    assert abs(parse_alpha("exp:0.5") - 1.0j) < 1e-15
    assert abs(parse_alpha("exp:1") - (-1.0)) < 1e-15
    # re,im pairs are normalized onto the circle
    assert abs(parse_alpha("3,4") - (0.6 + 0.8j)) < 1e-15


def test_parse_alpha_rejects_bad_values():
    with pytest.raises(ValueError):
        parse_alpha("0,0")
    with pytest.raises(ValueError):
        parse_alpha("0.5")


@pytest.mark.parametrize("text", ["nan", "exp:nan", "nan,0", "inf,0",
                                  "exp:inf"])
def test_parse_alpha_refuses_non_finite_forms(text):
    with pytest.raises(ValueError):
        parse_alpha(text)


@pytest.mark.parametrize("flags", [["--s", "3.5", "--alpha", "nan"],
                                   ["--s", "nan", "--alpha", "1"],
                                   ["--s", "inf", "--alpha", "1"]])
def test_tridisk_refuses_non_finite_alpha_and_s(flags, tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["tridisk", *flags, "--grid", "8", "--diagonal",
               "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"


def _error_type(capsys):
    return json.loads(capsys.readouterr().out)["error"]["type"]


@pytest.mark.parametrize("command", ["embed"])
def test_three_variable_poly_gives_error_json(command, tmp_path, capsys,
                                              monkeypatch):
    # refused before a build: at embed's default grid a tridisk build
    # would solve 8192**2 slices
    def refuse(*args):
        raise AssertionError("the measure was built")

    monkeypatch.setattr(clark, "build_measure", refuse)
    path = tmp_path / "tri.json"
    path.write_text(poly_to_json(catalog.tridisk_rif(4.0).den))
    out = tmp_path / "o.json"
    rc = main([command, "--poly", str(path), "--alpha", "i", "--grid", "256",
               "--out", str(out)])
    assert rc == 1 and _error_type(capsys) == "ValueError"
    assert not out.exists()


def test_four_variable_poly_gives_error_json(tmp_path, capsys):
    path = tmp_path / "quad.json"
    path.write_text(poly_to_json(catalog.monomial_rif(4).den))
    out = tmp_path / "o.json"
    rc = main(["analyze", "--poly", str(path), "--alpha", "i",
               "--out", str(out)])
    assert rc == 1 and _error_type(capsys) == "ValueError"
    assert not out.exists()


def test_analyze_verify_reconstruct_three_variables(tmp_path, capsys):
    # analyze writes a tridisk file at the builder's default grid, the one
    # build_measure returns, and verify and reconstruct read it
    path = tmp_path / "tri.json"
    path.write_text(poly_to_json(catalog.tridisk_rif(3.6).den))
    mpath, out = str(tmp_path / "m3.json"), str(tmp_path / "o.json")
    assert main(["analyze", "--poly", str(path), "--alpha", "exp:0.3",
                 "--out", mpath]) == 0
    text = capsys.readouterr().out
    assert text.startswith(f"alpha {parse_alpha('exp:0.3'):.17g} grid 256\n"
                           f"base {256 * 256} atoms {256 * 256} lines 0\n")
    want = clark.build_measure(catalog.tridisk_rif(3.6),
                               parse_alpha("exp:0.3"))
    assert Path(mpath).read_text() == clark.measure_to_json(want) + "\n"
    assert main(["verify", "--measure", mpath, "--out", out]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")
    assert main(["reconstruct", "--measure", mpath, "--degree", "8",
                 "--out", out]) == 0
    assert json.loads(Path(out).read_text())["sup_error_half_disk"] < 1e-5
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_three_variable_measure_round_trips(command, tmp_path, capsys):
    # verify and reconstruct rebuild a tridisk file and draw points of
    # three coordinates, through the two-variable code
    measure = polydisk.build_measure_d(catalog.tridisk_rif(3.6),
                                       np.exp(0.7j), 64)
    path = tmp_path / "m3.json"
    path.write_text(clark.measure_to_json(measure))
    out = tmp_path / "o.json"
    extra = ["--degree", "8"] if command == "reconstruct" else []
    rc = main([command, "--measure", str(path), "--out", str(out)] + extra)
    assert rc == 0
    obj = json.loads(out.read_text())
    text = capsys.readouterr().out
    if command == "verify":
        assert obj["pass"] and len(obj["points"]) == 20
        assert all(len(z) == 3 for z in obj["points"])
        assert "max rel err" in text and "PASS" in text
    else:
        assert obj["sup_error_half_disk"] < 1e-5
        assert np.shape(obj["moments"]) == (9, 9, 9, 2)
        assert "points of (0.5 D)^3" in text


def test_embed_without_kernels_gives_error_json(fav_json, tmp_path, capsys):
    out = tmp_path / "e.json"
    rc = main(["embed", "--poly", fav_json, "--alpha", "i", "--grid", "256",
               "--kernels", "0", "--out", str(out)])
    assert rc == 1 and _error_type(capsys) == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("s", ["nan", "inf", "2.9"])
def test_tridisk_refuses_s_alike_in_build_and_diagonal(s, tmp_path, capsys):
    errors = []
    for mode in ("--build", "--diagonal"):
        rc = main(["tridisk", "--s", s, "--alpha", "i", "--grid", "8", mode,
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        errors.append(json.loads(capsys.readouterr().out)["error"])
    assert errors[0] == errors[1]
    assert errors[0]["type"] == "ValueError"


@pytest.mark.parametrize("mode, grid", [(["--point", "0.1;0.2;0.3"], "0"),
                                        (["--surface"], "0"),
                                        (["--diagonal"], "1")])
def test_tridisk_refuses_grids_too_small(mode, grid, tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["tridisk", "--s", "3.5", "--alpha", "i", "--grid", grid,
               *mode, "--out", str(out)])
    assert rc == 1 and _error_type(capsys) == "ValueError"
    assert not out.exists()


def test_analyze_verify_round_trip(fav_json, tmp_path, capsys):
    mpath = str(tmp_path / "m.json")
    rc = main(["analyze", "--poly", fav_json, "--alpha", "i",
               "--grid", "1024", "--out", mpath])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mass 1" in out
    # fav's atom at its singular point (1, 1) weighs exactly 0
    assert "base 1024 atoms 1023 lines 0" in out
    rc = main(["verify", "--measure", mpath, "--points", "5",
               "--tol", "1e-6"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_fails_on_impossible_tolerance(fav_json, tmp_path, capsys):
    mpath = str(tmp_path / "m.json")
    main(["analyze", "--poly", fav_json, "--alpha", "i",
          "--grid", "512", "--out", mpath])
    capsys.readouterr()
    rc = main(["verify", "--measure", mpath, "--points", "5",
               "--tol", "1e-18"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_analyze_is_deterministic(fav_json, tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (p1, p2):
        assert main(["analyze", "--poly", fav_json, "--alpha", "exp:0.25",
                     "--grid", "512", "--out", out]) == 0
    capsys.readouterr()
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_missing_poly_file_gives_error_json(tmp_path, capsys):
    rc = main(["analyze", "--poly", str(tmp_path / "absent.json"),
               "--alpha", "1", "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert "error" in err and err["error"]["type"]


@pytest.mark.parametrize("text", [
    '{"degrees": [1, 1]}',
    '{"degrees": 1, "coeffs": [[2, 0], [-1, 0]]}',
    '{"degrees": [1.7, 1], "coeffs": [[2, 0], [-1, 0], [-1, 0], [0, 0]]}',
    '{"degrees": [1, 1], "coeffs": [[2, 0], [-1], [-1, 0], [0, 0]]}',
    '[1, 1]',
])
def test_malformed_poly_file_gives_error_json(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(["analyze", "--poly", str(path), "--alpha", "1",
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"
    assert not (tmp_path / "m.json").exists()


def test_bad_alpha_gives_error_json(fav_json, tmp_path, capsys):
    rc = main(["analyze", "--poly", fav_json, "--alpha", "0.25",
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"


def test_levelset_writes_branch_csvs(fav_json, tmp_path, capsys):
    out = str(tmp_path / "br.csv")
    rc = main(["levelset", "--poly", fav_json, "--alpha", "1",
               "--grid", "512", "--out", out])
    assert rc == 0
    text = (tmp_path / "br_0.csv").read_text().splitlines()
    assert text[1] == "theta,re_g,im_g,weight"
    assert len(text) == 512 + 2
    assert "singularity (1" in capsys.readouterr().out
    # each file is its branch's CSV lines, each ended by a newline
    br = levelset.trace_branches(catalog.simple_singular_rif(), 1.0, 512)
    for j, b in enumerate(br):
        assert (tmp_path / f"br_{j}.csv").read_bytes() == "".join(
            line + "\n" for line in levelset.branch_csv_lines(b, "fav", j)
        ).encode()


@pytest.mark.parametrize("t", ["-0.94", "0.935"])
def test_levelset_labels_squared_near_minus_one(tmp_path, capsys, t):
    # the two branches of squared move further between the 256 grid points
    # than the gap between them, which no matching by distance can label;
    # the rule clusters nodes at the poles there, and each file holds a row
    # per node of the measure's base
    phi = catalog.squared_singular_rif()
    poly = tmp_path / "squared.json"
    poly.write_text(poly_to_json(phi.den))
    rc = main(["levelset", "--poly", str(poly), "--alpha", f"exp:{t}",
               "--grid", "256", "--out", str(tmp_path / "br.csv")])
    assert rc == 0
    rows = len(clark.build_measure(phi, parse_alpha(f"exp:{t}"), 256).base)
    assert rows > 256
    for j in (0, 1):
        assert len((tmp_path / f"br_{j}.csv").read_text().splitlines()) \
            == rows + 2
    capsys.readouterr()


def test_levelset_reads_a_clustered_build(tmp_path, capsys):
    # squared at exp:0.995 clusters its zeta1 nodes at two poles of
    # h(., 0): every row is a unimodular level point of nonnegative Clark
    # weight, and the rows' weights times the rule's quadrature weights sum
    # to the measure's mass
    phi = catalog.squared_singular_rif()
    alpha = parse_alpha("exp:0.995")
    poly = tmp_path / "squared.json"
    poly.write_text(poly_to_json(phi.den))
    assert main(["levelset", "--poly", str(poly), "--alpha", "exp:0.995",
                 "--grid", "256", "--out", str(tmp_path / "br.csv")]) == 0
    capsys.readouterr()
    m = clark.build_measure(phi, alpha, 256)
    zeta1, quad, lines = clark._zeta1_rule(phi, alpha, 256)
    assert len(zeta1) == 3 * 256 and not lines
    angle = np.angle(zeta1) % (2 * np.pi)
    order = np.argsort(angle)
    scale = np.max(np.abs(phi.level_coeffs(alpha)))
    total = sum(ln.constant for ln in m.lines)
    for j in (0, 1):
        text = (tmp_path / f"br_{j}.csv").read_text().splitlines()
        assert f"N={len(m.base)} branch={j}" in text[0]
        theta, re, im, weight = np.loadtxt(text[2:], delimiter=",").T
        assert np.array_equal(theta, angle[order])
        zeta2 = re + 1j * im
        assert np.max(np.abs(np.abs(zeta2) - 1.0)) <= 1e-8
        res = phi.num(np.exp(1j * theta), zeta2) \
            - alpha * phi.den(np.exp(1j * theta), zeta2)
        assert np.max(np.abs(res)) <= 1e-8 * scale
        assert np.min(weight) >= 0.0
        total += quad[order] @ weight
    assert abs(total / clark.total_mass(m) - 1.0) <= 1e-12


def test_levelset_refuses_where_analyze_refuses(fav_json, tmp_path, capsys):
    # fav 1e-6 off alpha0 = -1 at N = 1024 misses the mass guard: the
    # labeled branches are read off the same build, so both subcommands
    # give the same typed refusal and write nothing
    errors = []
    for command, out in (("analyze", "m.json"), ("levelset", "br.csv")):
        assert main([command, "--poly", fav_json, "--alpha", "exp:1.000001",
                     "--grid", "1024", "--out", str(tmp_path / out)]) == 1
        errors.append(json.loads(capsys.readouterr().out)["error"])
    assert errors[0] == errors[1]
    assert errors[0]["type"] == "MassGapExceeded"
    assert not list(tmp_path.glob("m.json")) + list(tmp_path.glob("br_*"))


def test_a_grid_too_large_to_allocate_gives_error_json(fav_json, tmp_path,
                                                       capsys):
    # no address space holds 10**15 grid points, so numpy refuses the grid
    # before allocating anything: analyze, and verify of a file edited to
    # that grid, give the one-line error and write nothing
    big, out = 10 ** 15, tmp_path / "big.json"
    assert main(["analyze", "--poly", fav_json, "--alpha", "i",
                 "--grid", str(big), "--out", str(out)]) == 1
    assert _error_type(capsys) == "MemoryError" and not out.exists()
    mpath = tmp_path / "m.json"
    assert main(["analyze", "--poly", fav_json, "--alpha", "i",
                 "--grid", "64", "--out", str(mpath)]) == 0
    capsys.readouterr()
    obj = json.loads(mpath.read_text())
    obj["grid_n"] = big
    mpath.write_text(json.dumps(obj))
    assert main(["verify", "--measure", str(mpath), "--out", str(out)]) == 1
    assert _error_type(capsys) == "MemoryError" and not out.exists()


def test_reconstruct_round_trip(fav_json, tmp_path, capsys):
    mpath = str(tmp_path / "m.json")
    main(["analyze", "--poly", fav_json, "--alpha", "1",
          "--grid", "2048", "--out", mpath])
    hpath = str(tmp_path / "h.json")
    rc = main(["reconstruct", "--measure", mpath, "--degree", "24",
               "--out", hpath])
    assert rc == 0
    obj = json.loads(Path(hpath).read_text())
    assert obj["sup_error_half_disk"] < 1e-8
    capsys.readouterr()


def _b64(a):
    return base64.b64encode(a.tobytes()).decode("ascii")


def _base64_records(obj, m):
    for key in ("base", "atoms", "weights"):
        a = getattr(m, key)
        obj[key] = {"shape": list(a.shape), "data": _b64(a)}


def _per_branch(obj, m):
    obj["branches"] = [{"values": _b64(m.atoms[0]),
                        "weights": _b64(m.weights[0])}]


def _text_arrays(obj, m):
    obj["atoms"] = np.stack([m.atoms.real, m.atoms.imag], axis=-1).tolist()
    obj["weights"] = m.weights.tolist()


@pytest.mark.parametrize("layout", [_base64_records, _per_branch,
                                    _text_arrays],
                         ids=["base64", "per_branch", "text_arrays"])
def test_verify_refuses_an_earlier_layout_measure_file(fav_json, tmp_path,
                                                       capsys, layout):
    # the layouts before recipes held the arrays (as base64 records, per
    # branch or as text) and no digest, which refuses them all
    mpath = tmp_path / "m.json"
    main(["analyze", "--poly", fav_json, "--alpha", "i", "--grid", "256",
          "--out", str(mpath)])
    capsys.readouterr()
    obj = json.loads(mpath.read_text())
    del obj["sha256"]
    layout(obj, clark.build_measure(catalog.simple_singular_rif(), 1j, 256))
    mpath.write_text(json.dumps(obj))
    rc = main(["verify", "--measure", str(mpath)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError" and "sha256" in err["message"]


def test_analyze_refuses_a_wrong_mass(tmp_path, capsys):
    poly = tmp_path / "product.json"
    poly.write_text(poly_to_json(catalog.product_singular_rif().den))
    rc = main(["analyze", "--poly", str(poly), "--rif-degrees", "2,2",
               "--alpha", "exp:1.00000001", "--grid", "512",
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "MassGapExceeded"
    assert not (tmp_path / "m.json").exists()


def test_tridisk_build_reports_nodes_and_mass(capsys):
    rc = main(["tridisk", "--s", "4", "--alpha", "i", "--grid", "32",
               "--build"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "built 1024 base nodes, 1024 atoms, mass " in out
    assert "(grid 32x32)" in out
    assert abs(float(out.split("mass ")[1].split()[0]) - 1.0) < 1e-8


def test_tridisk_build_reports_the_capped_grid(capsys):
    rc = main(["tridisk", "--s", "4", "--alpha", "i", "--grid", "4096",
               "--build"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "built 65536 base nodes, 65536 atoms, mass " in out
    assert "(grid 256x256, --grid 4096 capped)" in out
    assert abs(float(out.split("mass ")[1].split()[0]) - 1.0) < 1e-12


def test_tridisk_diagonal_csv(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    rc = main(["tridisk", "--s", "3", "--alpha", "-1", "--diagonal",
               "--grid", "128", "--out", out])
    assert rc == 0
    rows = [ln.split(",") for ln in Path(out).read_text().splitlines()[2:]]
    th = np.array([float(r[0]) for r in rows])
    w = np.array([float(r[1]) for r in rows])
    exact = 1 + 1 / (1 - np.cos(th))
    assert np.max(np.abs(w - exact) / exact) < 1e-10
    capsys.readouterr()


def test_tridisk_csv_modes_exclude_each_other(tmp_path, capsys):
    # both modes write --out, so the second would overwrite the first
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["tridisk", "--s", "3", "--alpha", "-1", "--diagonal",
              "--surface", "--grid", "16", "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["tridisk", "--s", "4", "--alpha", "i", "--diagonal",
               "--build", "--grid", "32", "--out", str(out)])
    assert rc == 0 and out.exists()
    assert "built 1024 base nodes, 1024 atoms" in capsys.readouterr().out


def test_tridisk_requires_a_mode(capsys):
    rc = main(["tridisk", "--s", "4", "--alpha", "1"])
    assert rc == 2
    capsys.readouterr()


def test_tridisk_point_check(capsys):
    rc = main(["tridisk", "--s", "4", "--alpha", "i", "--grid", "128",
               "--point", "0.3,0.1;0.2,0;0,0.4"])
    assert rc == 0
    assert "rel" in capsys.readouterr().out


def test_tridisk_point_refuses_a_three_part_coordinate(capsys):
    rc = main(["tridisk", "--s", "4", "--alpha", "i", "--grid", "16",
               "--point", "0.1,0.2,0.3;0.1;0.2"])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError" and "0.1,0.2,0.3" in err["message"]


def test_tridisk_surface_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    args = ["tridisk", "--s", "3.5", "--alpha", "i", "--surface", "--grid",
            "8", "--out", str(out)]
    assert main(args) == 0
    assert "level surface samples: 64" in capsys.readouterr().out
    text = out.read_bytes()
    lines = text.decode().splitlines()
    assert lines[0].startswith("# s=3.5 alpha=")
    assert lines[0].endswith(" surface N=8")
    assert lines[1] == "theta1,theta2,arg_psi"
    assert len(lines) == 2 + 8 * 8
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    z = np.exp(1j * rows[:, 0]), np.exp(1j * rows[:, 1])
    psi = np.exp(1j * rows[:, 2])
    assert np.max(np.abs(psi - polydisk.tridisk_level(3.5, 1.0j, *z))) < 1e-12
    assert main(args) == 0
    assert out.read_bytes() == text
    capsys.readouterr()
    # 90,000 rows cross a write chunk: the file is the rows formatted one
    # by one, bytes and all
    assert 300 ** 2 > cli.SURFACE_CHUNK
    assert main(args[:-3] + ["300", "--out", str(out)]) == 0
    rows = polydisk.level_surface_rows(3.5, 1.0j, 300)
    lines = ["# s=3.5 alpha=0+1j surface N=300", "theta1,theta2,arg_psi"]
    lines += [f"{r[0]:.17g},{r[1]:.17g},{r[2]:.17g}" for r in rows]
    assert out.read_text() == "\n".join(lines) + "\n"
    capsys.readouterr()


def test_verify_out_agrees_with_stdout(fav_json, tmp_path, capsys):
    m, v = str(tmp_path / "m.json"), str(tmp_path / "v.json")
    assert main(["analyze", "--poly", fav_json, "--alpha", "i", "--grid",
                 "1024", "--out", m]) == 0
    capsys.readouterr()
    rc = main(["verify", "--measure", m, "--points", "5", "--out", v])
    last = capsys.readouterr().out.splitlines()[-1]
    obj = json.loads(Path(v).read_text())
    assert rc == 0 and obj["pass"] is True and last.endswith("PASS")
    assert last.split()[3] == f"{obj['max_rel_err']:.3g}"


def test_embed_at_an_exceptional_alpha_reports_conj_rational_error(
        fav_json, tmp_path, capsys):
    out = str(tmp_path / "e.json")
    rc = main(["embed", "--poly", fav_json, "--alpha", "-1", "--grid", "256",
               "--kernels", "3", "--degree", "2", "--out", out])
    assert rc == 0
    obj = json.loads(Path(out).read_text())
    assert "conj_rational_residuals" not in obj
    assert "alpha is exceptional" in obj["conj_rational_error"]
    assert "conjugate coordinates: " in capsys.readouterr().out


def test_embed_command(fav_json, tmp_path, capsys):
    out = str(tmp_path / "e.json")
    rc = main(["embed", "--poly", fav_json, "--alpha", "i", "--grid", "1024",
               "--kernels", "4", "--degree", "3", "--out", out])
    assert rc == 0
    obj = json.loads(Path(out).read_text())
    assert obj["gram_max_abs_error"] < 1e-8
    assert "conj_rational_residuals" in obj
    capsys.readouterr()


def test_contact_command(fav_json, tmp_path, capsys):
    out = str(tmp_path / "c.json")
    rc = main(["contact", "--poly", fav_json, "--alphas", "1;i",
               "--out", out])
    assert rc == 0
    text = Path(out).read_text()
    reports = json.loads(text)
    assert len(reports) == 1
    assert all(f["rounded"] == 2 for f in reports[0]["fits"])
    assert all(set(f) == {"alpha", "branch", "exponent", "rounded",
                          "constant"} for f in reports[0]["fits"])
    # a second run writes the same bytes
    assert main(["contact", "--poly", fav_json, "--alphas", "1;i",
                 "--out", out]) == 0
    assert Path(out).read_text() == text
    capsys.readouterr()


def test_module_invocation_with_thread_cap(fav_json, tmp_path, capsys):
    # a child capped at one BLAS thread writes the file, and this process,
    # on its own thread count, rebuilds it to the same digest
    mpath = str(tmp_path / "m.json")
    proc = subprocess.run(
        [sys.executable, "-m", "rifclark.cli", "analyze", "--poly", fav_json,
         "--alpha", "1", "--grid", "512", "--out", mpath],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert "mass 1" in proc.stdout
    assert main(["verify", "--measure", mpath, "--points", "5"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_library_imports_leave_scipy_out():
    # numpy is the one dependency: importing every submodule in a fresh
    # interpreter loads neither scipy nor mpmath, and no slow module that
    # only a few calls need
    code = ("import importlib, pkgutil, sys, rifclark\n"
            "names = [m.name for m in pkgutil.iter_modules(rifclark.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('rifclark.' + name)\n"
            "print(sorted(names) == sorted(rifclark._SUBMODULES),\n"
            "      *(m in sys.modules for m in ('scipy', 'mpmath', 'base64',\n"
            "        'numpy.polynomial', 'hashlib')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] + ["False"] * 5


def test_reading_a_tridisk_file_leaves_polydisk_and_catalog_out(tmp_path):
    # measure_from_json rebuilds a three-variable file through the one
    # builder: neither the closed-form family nor the catalog is loaded
    path = tmp_path / "m3.json"
    path.write_text(clark.measure_to_json(clark.build_measure(
        catalog.tridisk_rif(3.6), np.exp(0.7j), 64)))
    code = ("import sys\n"
            "from rifclark.cli import main\n"
            f"code = main(['verify', '--measure', {str(path)!r}])\n"
            "print(code, *(m in sys.modules for m in\n"
            "             ('rifclark.polydisk', 'rifclark.catalog')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "False", "False"]


def test_the_slice_kernel_leaves_levelset_and_clark_out():
    # the slice kernel lives beside its solver in poly: solving fav's
    # slices over the 8th roots of unity loads neither the level-set
    # module nor the measure module
    code = ("import sys\n"
            "import numpy as np\n"
            "from rifclark import catalog, poly, util\n"
            "phi = catalog.simple_singular_rif()\n"
            "roots, num = np.empty((1, 8), complex), np.empty((1, 8))\n"
            "for _ in poly._atom_blocks(phi.level_coeffs(np.exp(0.7j)),\n"
            "                           phi._den_full, util.unit_roots(8)"
            "[:, None], roots, num):\n"
            "    pass\n"
            "print(np.max(np.abs(np.abs(roots) - 1.0)) < 1e-12,\n"
            "      *(m in sys.modules for m in\n"
            "        ('rifclark.levelset', 'rifclark.clark')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False"]


def test_stability_and_line_tests_leave_numpy_ma_out():
    # np.unique imports numpy.ma, a slow import in a fresh process; the
    # stability certificate and the line test dedupe without it
    code = ("import sys\n"
            "from rifclark import catalog, levelset, poly\n"
            "poly.stability_check(catalog.tridisk_rif(3.5).den)\n"
            "levelset.detect_lines(catalog.simple_singular_rif(), -1)\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
