import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rifclark import catalog
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


def test_analyze_verify_round_trip(fav_json, tmp_path, capsys):
    mpath = str(tmp_path / "m.json")
    rc = main(["analyze", "--poly", fav_json, "--alpha", "i",
               "--grid", "1024", "--out", mpath])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mass 1" in out
    assert "nodes 1024 lines 0" in out
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
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_missing_poly_file_gives_error_json(tmp_path, capsys):
    rc = main(["analyze", "--poly", str(tmp_path / "absent.json"),
               "--alpha", "1", "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert "error" in err and err["error"]["type"]


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


def test_reconstruct_round_trip(fav_json, tmp_path, capsys):
    mpath = str(tmp_path / "m.json")
    main(["analyze", "--poly", fav_json, "--alpha", "1",
          "--grid", "2048", "--out", mpath])
    hpath = str(tmp_path / "h.json")
    rc = main(["reconstruct", "--measure", mpath, "--degree", "24",
               "--out", hpath])
    assert rc == 0
    obj = json.loads(open(hpath).read())
    assert obj["sup_error_half_disk"] < 1e-8
    capsys.readouterr()


def test_verify_rejects_per_branch_measure_file(fav_json, tmp_path, capsys):
    mpath = tmp_path / "m.json"
    main(["analyze", "--poly", fav_json, "--alpha", "i", "--grid", "256",
          "--out", str(mpath)])
    capsys.readouterr()
    obj = json.loads(mpath.read_text())
    obj["branches"] = [{"values": obj.pop("nodes"),
                        "weights": obj.pop("weights")}]
    mpath.write_text(json.dumps(obj))
    rc = main(["verify", "--measure", str(mpath)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError"


def test_verify_rejects_text_array_measure_file(fav_json, tmp_path, capsys):
    mpath = tmp_path / "m.json"
    main(["analyze", "--poly", fav_json, "--alpha", "i", "--grid", "256",
          "--out", str(mpath)])
    capsys.readouterr()
    obj = json.loads(mpath.read_text())
    obj["weights"] = [1.0 / 256] * 256  # the layout before base64 arrays
    mpath.write_text(json.dumps(obj))
    rc = main(["verify", "--measure", str(mpath)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError" and "base64" in err["message"]


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
    assert "built 1024 nodes, mass " in out
    assert abs(float(out.split("mass ")[1].split()[0]) - 1.0) < 1e-8


def test_tridisk_diagonal_csv(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    rc = main(["tridisk", "--s", "3", "--alpha", "-1", "--diagonal",
               "--grid", "128", "--out", out])
    assert rc == 0
    rows = [ln.split(",") for ln in open(out).read().splitlines()[2:]]
    th = np.array([float(r[0]) for r in rows])
    w = np.array([float(r[1]) for r in rows])
    exact = 1 + 1 / (1 - np.cos(th))
    assert np.max(np.abs(w - exact) / exact) < 1e-10
    capsys.readouterr()


def test_tridisk_requires_a_mode(capsys):
    rc = main(["tridisk", "--s", "4", "--alpha", "1"])
    assert rc == 2
    capsys.readouterr()


def test_tridisk_point_check(capsys):
    rc = main(["tridisk", "--s", "4", "--alpha", "i", "--grid", "128",
               "--point", "0.3,0.1;0.2,0;0,0.4"])
    assert rc == 0
    assert "rel" in capsys.readouterr().out


def test_embed_command(fav_json, tmp_path, capsys):
    out = str(tmp_path / "e.json")
    rc = main(["embed", "--poly", fav_json, "--alpha", "i", "--grid", "1024",
               "--kernels", "4", "--degree", "3", "--out", out])
    assert rc == 0
    obj = json.loads(open(out).read())
    assert obj["gram_max_abs_error"] < 1e-8
    assert "conj_rational_residuals" in obj
    capsys.readouterr()


def test_contact_command(fav_json, tmp_path, capsys):
    out = str(tmp_path / "c.json")
    rc = main(["contact", "--poly", fav_json, "--alphas", "1;i",
               "--out", out])
    assert rc == 0
    reports = json.loads(open(out).read())
    assert len(reports) == 1
    assert all(f["rounded"] == 2 for f in reports[0]["fits"])
    capsys.readouterr()


def test_module_invocation_with_thread_cap(fav_json, tmp_path):
    env = dict(os.environ, RIFCLARK_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "rifclark.cli", "analyze", "--poly", fav_json,
         "--alpha", "1", "--grid", "512",
         "--out", str(tmp_path / "m.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "mass 1" in proc.stdout


def test_library_imports_leave_scipy_out():
    code = ("import sys\n"
            "import rifclark.cli, rifclark.clark, rifclark.contact\n"
            "import rifclark.embedding, rifclark.polydisk\n"
            "print('scipy' in sys.modules, 'base64' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
