"""Spec files, expression language, CLI round trips, exit codes."""

import json
import struct

import numpy as np
import pytest

from lingrad.cli import main
from lingrad.errors import InvalidFieldError, SpecFileError
from lingrad.expr import evaluate_on_points
from lingrad.fields import read_lgf, write_lgf
from lingrad.gallery import get_case
from lingrad.solver import SolverConfig, duality_gap, solve
from lingrad.specfile import parse_shape, parse_spec


# ---------------------------------------------------------------------------
# expression language
# ---------------------------------------------------------------------------


def test_expression_basics():
    pts = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert np.allclose(evaluate_on_points("r", pts), [5.0, 1.0])
    assert np.allclose(evaluate_on_points("x^2 + y^2", pts), [25.0, 1.0])
    assert np.allclose(evaluate_on_points("4/(3*r) - 4/3", pts),
                       [4 / 15 - 4 / 3, 0.0])
    assert np.allclose(evaluate_on_points("indicator(y)", pts), [1.0, 0.0])
    assert np.allclose(evaluate_on_points("min(x, y)", pts), [3.0, 0.0])
    assert np.allclose(evaluate_on_points("sign(-x)", pts), [-1.0, -1.0])
    assert np.allclose(evaluate_on_points("cos(theta)", pts), [0.6, 1.0])
    assert np.allclose(evaluate_on_points("sqrt(abs(-9))", pts), [3.0, 3.0])
    assert np.allclose(evaluate_on_points("2*pi", pts), [2 * np.pi] * 2)
    assert np.allclose(evaluate_on_points("-x^2", pts), [-9.0, -1.0])
    assert np.allclose(evaluate_on_points("2^3^1", pts), [8.0, 8.0])


def test_expression_errors_name_position():
    with pytest.raises(SpecFileError) as err:
        evaluate_on_points("x + bogus", np.zeros((1, 2)))
    assert "bogus" in str(err.value)
    with pytest.raises(SpecFileError) as err:
        evaluate_on_points("x + ", np.zeros((1, 2)))
    assert "column" in str(err.value)
    with pytest.raises(SpecFileError):
        evaluate_on_points("min(x)", np.zeros((1, 2)))
    with pytest.raises(SpecFileError):
        evaluate_on_points("x $ y", np.zeros((1, 2)))


def test_shape_grammar():
    assert parse_shape("disk 1.0").radius == 1.0
    ann = parse_shape("annulus 0.5 1.0")
    assert (ann.r_in, ann.r_out) == (0.5, 1.0)
    assert parse_shape("rect").dim == 2
    iv = parse_shape("interval 0 1")
    assert iv.dim == 1
    with pytest.raises(SpecFileError):
        parse_shape("torus 1 2")


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


MINIMAL = """
[domain]
shape = disk 1.0
nx = 32

[integrand]
name = tv

[data]
u0 = 0
"""

ROF = """
[domain]
shape = annulus 0.5 1.0
nx = 48

[integrand]
name = tv

[data]
u0 = 4/(3*r)-4/3
h = 4/(3*r)-4/3
lambda = 1
"""


def test_minimal_spec(tmp_path):
    p = tmp_path / "m.cfg"
    p.write_text(MINIMAL)
    bundle = parse_spec(str(p))
    assert bundle.spec.integrand.name == "tv"
    assert np.all(bundle.spec.lam == 0)  # default
    assert np.all(bundle.spec.u0 == 0)


def test_rof_spec_matches_gallery(tmp_path):
    p = tmp_path / "rof.cfg"
    p.write_text(ROF)
    bundle = parse_spec(str(p))
    case = get_case("rof_annulus")
    ana_u0 = case.analytic.u0(bundle.spec.domain.boundary_faces.point)
    assert np.allclose(bundle.spec.u0[:, 0], ana_u0, atol=1e-12)
    ref_h = case.analytic.h(bundle.spec.domain.cell_centers)
    inside = bundle.spec.domain.inside_mask
    assert np.allclose(bundle.spec.h[0][inside], ref_h[inside], atol=1e-12)


def test_rof_spec_gap_uses_inside_cell_box_bound(tmp_path):
    # h = 4/(3r) - 4/3 is evaluated at every cell center and reaches 43.9
    # near the origin, outside the annulus; the default box bound of the
    # gap reads the inside cells only
    p = tmp_path / "rof.cfg"
    p.write_text(ROF)
    spec = parse_spec(str(p)).spec
    res = solve(spec, SolverConfig(max_iters=20, gap_tol=0.0))
    box = max(np.abs(spec.u0).max(), np.abs(spec.h_cells).max())
    assert box < 1.34 < np.abs(spec.h).max()
    assert (duality_gap(spec, res.u, res.z, res.zeta).value
            == duality_gap(spec, res.u, res.z, res.zeta, box_bound=box).value)


def test_misspelled_key_is_named(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(MINIMAL.replace("u0 = 0", "u0 = 0\nlamda = 1"))
    with pytest.raises(SpecFileError) as err:
        parse_spec(str(p))
    assert "lamda" in str(err.value)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad2.cfg"
    p.write_text(MINIMAL + "\n[extras]\nfoo = 1\n")
    with pytest.raises(SpecFileError) as err:
        parse_spec(str(p))
    assert "extras" in str(err.value)


def test_solver_overrides(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + "\n[solver]\nmax_iters = 7\ngap_tol = 0.5\n")
    bundle = parse_spec(str(p))
    assert bundle.solver_config.max_iters == 7
    assert bundle.solver_config.gap_tol == 0.5


def test_weighted_integrand_string(tmp_path):
    p = tmp_path / "w.cfg"
    p.write_text("""
[domain]
shape = interval 0 1
nx = 64

[integrand]
name = weighted_tv:2 - sin(pi*x)

[data]
u0 = sign(x - 0.5)
g = -pi*cos(pi*x)
""")
    bundle = parse_spec(str(p))
    assert bundle.spec.integrand.x_dependent
    assert bundle.spec.u0[:, 0].min() == -1.0


def test_file_reference_round_trip(tmp_path):
    p = tmp_path / "f.cfg"
    # build the domain first to learn the grid, then point g at a file
    p.write_text(MINIMAL)
    bundle = parse_spec(str(p))
    grid = bundle.spec.domain.grid_shape
    gvals = np.arange(np.prod(grid), dtype=float).reshape((1,) + grid)
    write_lgf(tmp_path / "g.lgf", gvals, h=bundle.spec.domain.h)
    p2 = tmp_path / "f2.cfg"
    p2.write_text(MINIMAL + "g = file:g.lgf\n")
    bundle2 = parse_spec(str(p2))
    inside = bundle2.spec.domain.inside_mask
    assert np.allclose(bundle2.spec.g[0][inside], gvals[0][inside])


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def test_cli_solve_certify_roundtrip(tmp_path):
    spec = tmp_path / "rof.cfg"
    spec.write_text(ROF)
    u = tmp_path / "u.lgf"
    z = tmp_path / "z.lgf"
    zeta = tmp_path / "zeta.lgf"
    hist = tmp_path / "hist.csv"
    code = main(["solve", "--spec", str(spec), "--max-iters", "4000",
                 "--gap-tol", "1e-4", "--out", str(u), "--dual-out", str(z),
                 "--zeta-out", str(zeta), "--history", str(hist)])
    assert code == 0
    assert u.exists() and z.exists() and zeta.exists()
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "iter,energy,gap"
    assert len(lines) > 2

    report = tmp_path / "report.json"
    code = main(["certify", "--spec", str(spec), "--u", str(u), "--z", str(z),
                 "--zeta", str(zeta), "--tol", "1e-1",
                 "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["overall_pass"] is True
    assert "r_div.l1" in payload


def test_cli_certify_corrupted_dual_exits_2(tmp_path):
    spec = tmp_path / "rof.cfg"
    spec.write_text(ROF)
    u = tmp_path / "u.lgf"
    z = tmp_path / "z.lgf"
    assert main(["solve", "--spec", str(spec), "--max-iters", "1500",
                 "--gap-tol", "1e-3", "--out", str(u),
                 "--dual-out", str(z)]) == 0
    vals, h = read_lgf(z)
    vals = vals + 0.75  # push z out of the dual ball
    write_lgf(z, vals, h)
    code = main(["certify", "--spec", str(spec), "--u", str(u), "--z", str(z),
                 "--tol", "1e-6"])
    assert code == 2


def test_cli_field_write_is_bit_stable(tmp_path):
    spec = tmp_path / "m.cfg"
    spec.write_text(MINIMAL)
    u1 = tmp_path / "u1.lgf"
    u2 = tmp_path / "u2.lgf"
    for out in (u1, u2):
        assert main(["solve", "--spec", str(spec), "--max-iters", "300",
                     "--gap-tol", "1e-8", "--out", str(out)]) == 0
    assert u1.read_bytes() == u2.read_bytes()


def test_cli_energy_and_convert(tmp_path):
    spec = tmp_path / "m.cfg"
    spec.write_text(MINIMAL)
    u = tmp_path / "u.lgf"
    assert main(["solve", "--spec", str(spec), "--max-iters", "200",
                 "--gap-tol", "1e-8", "--out", str(u)]) == 0
    assert main(["energy", "--spec", str(spec), "--u", str(u)]) == 0
    out = tmp_path / "u.csv"
    assert main(["convert", "--spec", str(spec), "--in", str(u),
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("x,y,channel,value")


def test_cli_curvature(tmp_path):
    spec = tmp_path / "m.cfg"
    spec.write_text(MINIMAL)
    out = tmp_path / "H.csv"
    assert main(["curvature", "--spec", str(spec), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    H = np.array([float(r.split(",")[2]) for r in rows])
    assert np.allclose(H, 1.0, rtol=0.05)


def test_cli_gallery_run_rof(tmp_path):
    report = tmp_path / "r.json"
    code = main(["gallery", "run", "rof_annulus", "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["pass"] is True
    assert payload["certificate.overall_pass"] is True


def test_cli_gallery_list(capsys):
    assert main(["gallery", "list"]) == 0
    out = capsys.readouterr().out
    assert "rof_annulus" in out


DISK_BV = """
[domain]
shape = disk 1.0
nx = 32

[integrand]
name = tv

[data]
u0 = indicator(y)
"""


def test_cli_solve_then_certify_disk_bv(tmp_path):
    spec = tmp_path / "bv.cfg"
    spec.write_text(DISK_BV)
    u = tmp_path / "u.lgf"
    z = tmp_path / "z.lgf"
    zeta = tmp_path / "zeta.lgf"
    assert main(["solve", "--spec", str(spec), "--max-iters", "8000",
                 "--gap-tol", "1e-4", "--out", str(u), "--dual-out", str(z),
                 "--zeta-out", str(zeta)]) == 0
    assert main(["certify", "--spec", str(spec), "--u", str(u), "--z", str(z),
                 "--zeta", str(zeta), "--tol", "1e-1"]) == 0


def test_vector_and_badf0_integrand_strings(tmp_path):
    p = tmp_path / "v.cfg"
    p.write_text("""
[domain]
shape = disk 1.0
nx = 32

[integrand]
name = vector_tv:2

[data]
u0 = indicator(y); 0
""")
    bundle = parse_spec(str(p))
    assert bundle.spec.integrand.n_rows == 2
    assert bundle.spec.u0.shape[1] == 2
    assert set(np.unique(bundle.spec.u0[:, 1])) == {0.0}

    p2 = tmp_path / "b.cfg"
    p2.write_text("""
[domain]
shape = disk 1.0
nx = 32

[integrand]
name = bad_f0:0.01
""")
    bundle2 = parse_spec(str(p2))
    assert bundle2.spec.integrand.n_rows == 2
    assert bundle2.spec.integrand.homogeneous


def test_cli_solve_rejects_integrand_without_dual_radius(tmp_path, capsys):
    spec = tmp_path / "b.cfg"
    spec.write_text(MINIMAL.replace("nx = 32", "nx = 16")
                    .replace("name = tv", "name = bad_f0:0.01"))
    assert main(["solve", "--spec", str(spec), "--max-iters", "10"]) == 1
    assert "dual_radius" in capsys.readouterr().err


def test_cli_parse_error_exit_1(tmp_path):
    spec = tmp_path / "bad.cfg"
    spec.write_text(MINIMAL.replace("u0 = 0", "lamda = 1"))
    assert main(["solve", "--spec", str(spec), "--max-iters", "10"]) == 1


def test_cli_missing_file_exit_1(tmp_path):
    assert main(["solve", "--spec", str(tmp_path / "nope.cfg")]) == 1


def test_cli_rejects_non_finite_datum(tmp_path, capsys):
    spec = tmp_path / "nan.cfg"
    spec.write_text(MINIMAL.replace("u0 = 0", "u0 = 1/(x-x)"))
    with np.errstate(divide="ignore", invalid="ignore"):
        code = main(["solve", "--spec", str(spec), "--max-iters", "10"])
    assert code == 1
    assert "u0 has non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    b"LGF1" + struct.pack("<II", 1, 36),
    b"LGF1" + struct.pack("<III", 1, 36, 36) + b"\0" * 5,
], ids=["ny_and_h_missing", "h_cut_short"])
def test_cli_convert_truncated_header_exit_1(tmp_path, capsys, header):
    spec = tmp_path / "m.cfg"
    spec.write_text(MINIMAL)
    bad = tmp_path / "u.lgf"
    bad.write_bytes(header)
    code = main(["convert", "--spec", str(spec), "--in", str(bad),
                 "--out", str(tmp_path / "u.csv")])
    assert code == 1
    assert "truncated LGF1 header" in capsys.readouterr().err


def test_cli_convert_oversized_header_exit_1(tmp_path, capsys):
    # a header promising 8 (2^32 - 1)^3 payload bytes must not reach f.read
    spec = tmp_path / "m.cfg"
    spec.write_text(MINIMAL)
    bad = tmp_path / "u.lgf"
    top = 2**32 - 1
    bad.write_bytes(b"LGF1" + struct.pack("<IIId", top, top, top, 0.1)
                    + b"\0" * 64)
    code = main(["convert", "--spec", str(spec), "--in", str(bad),
                 "--out", str(tmp_path / "u.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "LGF1 header promises" in err


def test_read_lgf_rejects_payload_size_mismatch(tmp_path):
    path = tmp_path / "f.lgf"
    write_lgf(path, np.ones((1, 4, 3)), h=0.5)
    raw = path.read_bytes()
    for cut in (raw[:-8], raw + b"\0" * 8):
        path.write_bytes(cut)
        with pytest.raises(InvalidFieldError, match="LGF1 header promises"):
            read_lgf(path)
