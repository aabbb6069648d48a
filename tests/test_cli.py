"""Spec files, expression language, CLI round trips, exit codes."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_TOKENS = ["0", "1", "2.5", ".5", "1e308", "9e-324", "x", "y", "r", "theta",
           "pi", "sin", "cos", "sqrt", "abs", "sign", "indicator", "min",
           "max", "bogus", "+", "-", "*", "/", "^", "(", ")", ",", " ", "$"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join))
def test_expression_fuzz_returns_floats_or_spec_error(src):
    pts = np.array([[0.0, 0.0], [3.0, -4.0], [-1.0, 0.0]])
    try:
        out = evaluate_on_points(src, pts)
    except SpecFileError:
        return
    assert out.dtype == np.float64 and out.shape == (3,)


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
    # spec reads the inside cells only, and the solve's gap reads the spec's
    p = tmp_path / "rof.cfg"
    p.write_text(ROF)
    spec = parse_spec(str(p)).spec
    box = max(np.abs(spec.u0).max(), np.abs(spec.h_cells).max())
    assert spec.box_bound == box < 1.34 < np.abs(spec.h).max()
    res = solve(spec, SolverConfig(max_iters=20, gap_tol=0.0))
    assert res.gap == duality_gap(spec, res.u, res.z, res.zeta).value


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


@pytest.mark.parametrize("key", ["theta", "tau", "sigma", "step_alpha"])
def test_solver_step_keys_rejected(tmp_path, key):
    # the step rule is fixed: spec files cannot set steps or their exponent
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + f"\n[solver]\n{key} = 0.5\n")
    with pytest.raises(SpecFileError, match=f"'{key}'"):
        parse_spec(str(p))


def test_solver_overrides(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + "\n[solver]\nmax_iters = 7\ngap_tol = 0.5\n")
    bundle = parse_spec(str(p))
    assert bundle.solver_config.max_iters == 7
    assert bundle.solver_config.gap_tol == 0.5


@pytest.mark.parametrize("section, entry", [
    ("domain", "nx = abc"),
    ("domain", "nx = 0"),
    ("solver", "max_iters = abc"),
    ("solver", "check_every = 1.5"),
    ("solver", "gap_tol = 1e-3x"),
    ("solver", "box_bound = abc"),
    ("solver", "box_bound = -1"),
    ("integrand", "name = vector_tv:abc"),
    ("integrand", "name = bad_f0:abc"),
    ("integrand", "name = weighted_tv:x-5"),
    ("domain", "shape = disk abc"),
], ids=["nx", "nx_0", "max_iters", "check_every", "gap_tol", "box_bound_abc",
        "box_bound_neg", "vector_tv", "bad_f0", "weighted_tv_negative",
        "shape"])
def test_malformed_entry_names_file_section_and_key(tmp_path, section, entry):
    # a bad value fails in parse_spec, not as a bare ValueError further in
    key = entry.split(" = ")[0]
    text = "\n".join(line for line in MINIMAL.splitlines()
                     if not line.startswith(f"{key} = "))
    text = text.replace(f"[{section}]\n", f"[{section}]\n{entry}\n")
    if f"[{section}]" not in text:
        text += f"\n[{section}]\n{entry}\n"
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    with pytest.raises(SpecFileError) as err:
        parse_spec(str(p))
    assert f"{p}: [{section}] {key}" in str(err.value)


def test_cli_malformed_entry_exits_1_naming_the_key(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(MINIMAL.replace("nx = 32", "nx = abc"))
    assert main(["solve", "--spec", str(p), "--max-iters", "10"]) == 1
    assert f"{p}: [domain] nx: " in capsys.readouterr().err


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


ANNULUS_LG = """
[domain]
shape = annulus 1.0 2.0
nx = 64

[integrand]
name = tv

[data]
u0 = indicator(1.5-r)
"""


def test_cli_solve_prints_the_energy_of_the_written_u(tmp_path, capsys):
    spec = tmp_path / "lg.cfg"
    spec.write_text(ANNULUS_LG)
    u = tmp_path / "u.lgf"
    assert main(["solve", "--spec", str(spec), "--max-iters", "3000",
                 "--gap-tol", "1e-4", "--out", str(u)]) == 0
    printed = dict(line.split(": ", 1)
                   for line in capsys.readouterr().out.splitlines())
    report = tmp_path / "energy.json"
    assert main(["energy", "--spec", str(spec), "--u", str(u),
                 "--report", str(report)]) == 0
    energy = json.loads(report.read_text())["energy"]
    assert float(printed["energy"]) == pytest.approx(energy, rel=1e-12)


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


@pytest.mark.parametrize("flags, solver, field", [
    (["--max-iters", "0"], "", "max_iters"),
    (["--max-iters", "-5"], "", "max_iters"),
    (["--gap-tol", "nan"], "", "gap_tol"),
    (["--gap-tol", "-1"], "", "gap_tol"),
    ([], "check_every = 0", "check_every"),
    ([], "box_bound = inf", "box_bound"),
], ids=["max_iters_0", "max_iters_neg", "gap_tol_nan", "gap_tol_neg",
        "check_every_0", "box_bound_inf"])
def test_cli_solve_rejects_bad_solver_settings(tmp_path, capsys, flags,
                                               solver, field):
    spec = tmp_path / "s.cfg"
    spec.write_text(MINIMAL.replace("nx = 32", "nx = 16")
                    + f"\n[solver]\nmax_iters = 10\n{solver}\n")
    assert main(["solve", "--spec", str(spec)] + flags) == 1
    assert field in capsys.readouterr().err


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


@pytest.mark.parametrize("src", [
    "1/0", "0^-1", "2^9999", "(-8)^(1/3)",
    "(" * 3000 + "1" + ")" * 3000, "-" * 5000 + "1", "+".join(["1"] * 5000),
], ids=["div_zero", "zero_neg_power", "overflow", "neg_base_fraction",
        "parens", "unary_minus", "long_sum"])
def test_cli_bad_expression_exits_1_naming_field(tmp_path, capsys, src):
    # float errors give inf or nan, which ProblemSpec rejects by name;
    # recursion in the parser or the evaluator is a SpecFileError
    spec = tmp_path / "m.cfg"
    spec.write_text(MINIMAL.replace("nx = 32", "nx = 16")
                    .replace("u0 = 0", f"u0 = {src}"))
    assert main(["solve", "--spec", str(spec), "--max-iters", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "u0" in err


# ---------------------------------------------------------------------------
# LGF1 fields read back against the grid of the spec
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_minimal(tmp_path_factory):
    """A short solve on the MINIMAL spec at nx=16, written as LGF1 files."""
    d = tmp_path_factory.mktemp("solved")
    spec = d / "m.cfg"
    spec.write_text(MINIMAL.replace("nx = 32", "nx = 16"))
    paths = {k: d / f"{k}.lgf" for k in ("u", "z", "zeta")}
    assert main(["solve", "--spec", str(spec), "--max-iters", "50",
                 "--out", str(paths["u"]), "--dual-out", str(paths["z"]),
                 "--zeta-out", str(paths["zeta"])]) == 0
    return spec, paths


def _rewrite(src, dst, edit=lambda v: v, scale_h=1.0):
    values, h = read_lgf(src)
    write_lgf(dst, edit(values), h * scale_h)
    return dst


def test_cli_energy_rejects_nan_spacing(tmp_path, capsys, solved_minimal):
    spec, paths = solved_minimal
    u = _rewrite(paths["u"], tmp_path / "u.lgf", scale_h=np.nan)
    assert main(["energy", "--spec", str(spec), "--u", str(u)]) == 1
    assert str(u) in capsys.readouterr().err


@pytest.mark.parametrize("factor", [2.0, 3.0])
def test_cli_convert_rejects_other_spacing(tmp_path, capsys, solved_minimal,
                                           factor):
    spec, paths = solved_minimal
    u = _rewrite(paths["u"], tmp_path / "u.lgf", scale_h=factor)
    assert main(["convert", "--spec", str(spec), "--in", str(u),
                 "--out", str(tmp_path / "u.csv")]) == 1
    assert "grid spacing" in capsys.readouterr().err


def _first_nan(v):
    v = v.copy()
    v.flat[0] = np.nan
    return v


@pytest.mark.parametrize("edit, scale_h, msg", [
    (lambda v: v[:, :-3], 1.0, "boundary faces"),
    (_first_nan, 1.0, "non-finite"),
    (lambda v: v, 2.0, "grid spacing"),
], ids=["three_short", "nan", "twice_the_spacing"])
def test_cli_certify_rejects_bad_zeta(tmp_path, capsys, solved_minimal,
                                      edit, scale_h, msg):
    spec, paths = solved_minimal
    zeta = _rewrite(paths["zeta"], tmp_path / "zeta.lgf", edit, scale_h)
    assert main(["certify", "--spec", str(spec), "--u", str(paths["u"]),
                 "--z", str(paths["z"]), "--zeta", str(zeta)]) == 1
    err = capsys.readouterr().err
    assert str(zeta) in err and msg in err


def test_cli_certify_scores_the_spec_box_bound(tmp_path, capsys,
                                              solved_minimal):
    # certify takes the gap's box bound from [solver], as solve does
    spec, paths = solved_minimal
    args = ["certify", "--u", str(paths["u"]), "--z", str(paths["z"]),
            "--zeta", str(paths["zeta"]), "--tol", "1"]
    boxed = tmp_path / "boxed.cfg"
    boxed.write_text(spec.read_text() + "\n[solver]\nbox_bound = 2.5\n")
    report = tmp_path / "report.json"
    assert main(args + ["--spec", str(boxed), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["r_div.note"].endswith("M = 2.5")
    bad = tmp_path / "bad.cfg"
    bad.write_text(spec.read_text() + "\n[solver]\nbox_bound = -1\n")
    assert main(args + ["--spec", str(bad)]) == 1
    assert "box_bound" in capsys.readouterr().err


def test_cli_file_datum_at_other_spacing_exits_1(tmp_path, capsys,
                                                 solved_minimal):
    spec, paths = solved_minimal
    _rewrite(paths["u"], tmp_path / "g.lgf", scale_h=3.0)
    bad = tmp_path / "g.cfg"
    bad.write_text(spec.read_text() + "g = file:g.lgf\n")
    assert main(["solve", "--spec", str(bad), "--max-iters", "10"]) == 1
    assert "g.lgf" in capsys.readouterr().err
