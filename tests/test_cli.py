"""Spec files, expression language, CLI round trips, exit codes."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingrad import expr
from lingrad.cli import _atomic_write, main
from lingrad.errors import InvalidFieldError, SpecFileError
from lingrad.expr import evaluate_on_points
from lingrad.fields import read_lgf, write_lgf
from lingrad.gallery import get_case
from lingrad.certificate import verify_scalar
from lingrad.energy import boundary_penalty, lower_order_energy, relaxed_energy
from lingrad.solver import SolverConfig, duality_gap, solve, trace_error
from lingrad.specfile import make_integrand_from_name, parse_shape, parse_spec

from expr_reference import evaluate_on_points as reference


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


def _outcome(evaluate, src):
    """The bytes of ``evaluate(src)`` at three points, or "error" when it
    raises SpecFileError."""
    pts = np.array([[0.0, 0.0], [3.0, -4.0], [-1.0, 0.0]])
    try:
        return evaluate(src, pts).tobytes()
    except SpecFileError:
        return "error"


# tokens on which Python's expression grammar and the language part ways:
# '**', '#', '=', brackets, trailing commas, newlines and tabs, leading
# zeros and the number forms only Python reads
_DIFFERENTIAL_TOKENS = _TOKENS + [
    "\n", "\t", "00", ",)", "**", "#", "=", "[", "1_0", "0x", "j"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_DIFFERENTIAL_TOKENS), max_size=30)
       .map("".join))
def test_expression_matches_the_reference_parser(src):
    # both raise SpecFileError or both give the same bits
    assert _outcome(evaluate_on_points, src) == _outcome(reference, src)


_BLANK = st.sampled_from(["", " ", "\n"])
# expressions of the language, with blanks, newlines and leading zeros
_VALID = st.recursive(
    st.sampled_from(["0", "01", "2.5", ".5", "1e-01", "1e308", "9e-324",
                     "x", "y", "r", "theta", "pi"]),
    lambda inner: st.one_of(
        st.builds("{}{}{}{}{}".format, inner, _BLANK,
                  st.sampled_from("+-*/^"), _BLANK, inner),
        st.builds("-{}".format, inner),
        st.builds("({})".format, inner),
        st.builds("{}({})".format, st.sampled_from(
            ["sin", "cos", "sqrt", "abs", "sign", "indicator"]), inner),
        st.builds("{}({},{}{})".format, st.sampled_from(["min", "max"]),
                  inner, _BLANK, inner)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_VALID)
def test_valid_expressions_give_the_reference_bits(src):
    out = _outcome(evaluate_on_points, src)
    assert out != "error" and out == _outcome(reference, src)


@pytest.mark.parametrize("src", [
    "sin(x,)", "min(x, y ,)", "01", "007.5", "-01", "1e-01", "1E+007",
    "x +\n 1", "\tx\n", "x^\n2", "2**3", "x # c", "x=1", "'x'", "[x]",
    "x[0]", "1_0", "0x1f", "1j", "0_1", "(sin)(x)", "sin (x)", "pi(x)",
    "sin(x)(y)", "min(*x, y)", "min(^x)", "x^-y^2", "-x^2", "+x", "x//y",
    "x, y", "x.real", "None", "not x", "x if y else r", "1if x else 2",
    "x \\\n+ 1", "x\u00a0+ 1", "\u0663", "\uff58", "x\x00",
])
def test_expression_edges_match_the_reference_parser(src):
    assert _outcome(evaluate_on_points, src) == _outcome(reference, src)


@pytest.mark.parametrize("depth", [100, 150, 190, 199, 200, 250])
@pytest.mark.parametrize("opener, closer, step", [
    ("(", ")", lambda v: v), ("sin(", ")", np.sin), ("-", "", np.negative)],
    ids=["parens", "sin", "unary_minus"])
def test_deep_nesting_gives_its_value_or_a_spec_error(opener, closer, step,
                                                     depth):
    # Python's parser and the reference stop at different depths past
    # about 150; either way the outcome is the value or a SpecFileError
    expected = np.array([0.5])
    for _ in range(depth):
        expected = step(expected)
    src = opener * depth + "x" + closer * depth
    try:
        out = evaluate_on_points(src, np.array([[0.5, 0.0]]))
    except SpecFileError:
        return
    assert out.tobytes() == expected.tobytes()


def test_weighted_tv_weight_is_compiled_once(monkeypatch):
    # the weight is a closure over the compiled text: prox calls compile
    # nothing
    f = make_integrand_from_name("weighted_tv:2 - sin(pi*x)",
                                 parse_shape("interval 0 1"))
    monkeypatch.setattr(expr, "compile_expression",
                        lambda src: pytest.fail(f"{src!r} compiled again"))
    x = np.array([[0.25], [0.5]])
    assert np.array_equal(f.dual_radius(x), 2.0 - np.sin(np.pi * x[:, 0]))


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
    ref_h = case.analytic.h(bundle.spec.domain.points)
    assert np.allclose(bundle.spec.h[:, 0], ref_h, atol=1e-12)


def test_rof_spec_gap_uses_inside_cell_box_bound(tmp_path):
    # h = 4/(3r) - 4/3 reaches 43.9 at the cell centers near the origin,
    # outside the annulus; the spec samples h on the inside cells only, its
    # default box bound reads those, and the solve's gap reads the spec's
    p = tmp_path / "rof.cfg"
    p.write_text(ROF)
    spec = parse_spec(str(p)).spec
    domain = spec.domain
    assert evaluate_on_points("4/(3*r)-4/3", domain.cell_centers).max() > 1.34
    assert spec.h.shape == (len(domain.points), 1)
    box = max(np.abs(spec.u0).max(), np.abs(spec.h).max())
    assert spec.box_bound == box < 1.34
    res = solve(spec, SolverConfig(max_iters=20, gap_tol=0.0))
    assert res.gap == duality_gap(spec, res.u, res.z, res.zeta).value


def test_spec_data_are_sampled_on_inside_cells_only(tmp_path):
    # 0/indicator(r - 0.5) is NaN exactly at the cell centers with r <= 0.5,
    # outside the annulus, where the spec never evaluates it
    p = tmp_path / "hole.cfg"
    p.write_text(ROF.replace("h = 4/(3*r)-4/3", "h = 0/indicator(r-0.5)"))
    spec = parse_spec(str(p)).spec
    centers = spec.domain.cell_centers
    nan = np.isnan(evaluate_on_points("0/indicator(r-0.5)", centers))
    assert np.array_equal(nan, np.linalg.norm(centers, axis=-1) <= 0.5)
    assert np.all(spec.h == 0)  # finite: 0/1 at every inside cell


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


@pytest.mark.parametrize("name, at_0, at_2", [("area", 1.0, 3.0),
                                              ("hencky", 0.0, 8**0.5 - 0.25)])
def test_integrand_names_area_and_hencky(tmp_path, name, at_0, at_2):
    # sqrt(1 + |xi|^2), and |xi|^2 below |xi| = 1/2 then |xi| - 1/4
    p = tmp_path / "i.cfg"
    p.write_text(MINIMAL.replace("name = tv", f"name = {name}"))
    f = parse_spec(str(p)).spec.integrand
    assert (f.name, f.n_rows, f.n_cols) == (name, 1, 2)
    xi = np.array([[[0.0, 0.0]], [[2.0, 2.0]]])
    assert f.value(np.zeros((2, 2)), xi) == pytest.approx([at_0, at_2])


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
    ("integrand", "name = bad_f0:nan"),
    ("integrand", "name = weighted_tv:x-5"),
    ("domain", "shape = disk abc"),
], ids=["nx", "nx_0", "max_iters", "check_every", "gap_tol", "box_bound_abc",
        "box_bound_neg", "vector_tv", "bad_f0", "bad_f0_nan",
        "weighted_tv_negative", "shape"])
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


@pytest.mark.parametrize("shape", ["disk nan", "disk inf", "annulus 0.5 inf",
                                   "interval 0 nan", "disk 1e-200",
                                   "disk 1e-160", "disk 1e300"])
def test_cli_bad_shape_parameters_exit_1(tmp_path, capsys, shape):
    # a non-finite parameter is named with its shape; a radius whose grid
    # spacing h, h^d or 1/h^2 over- or underflows is a resolution error
    p = tmp_path / "bad.cfg"
    p.write_text(MINIMAL.replace("nx = 32", "nx = 16")
                 .replace("shape = disk 1.0", f"shape = {shape}"))
    assert main(["solve", "--spec", str(p), "--max-iters", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if shape.startswith("disk 1e"):
        assert f"{p}: [domain] nx: grid spacing h = " in err
        assert "is not representable" in err
    else:
        assert f"{p}: [domain] shape: bad shape parameters in {shape!r}" in err


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
    assert np.allclose(bundle2.spec.g[:, 0], gvals[0][inside])


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

    # the files hold the padded state of the same solve run in process:
    # u as (1, *grid), z as its n * d = 2 channels, zeta as (1, m, 1)
    bundle = parse_spec(str(spec))
    bundle.solver_config.max_iters, bundle.solver_config.gap_tol = 4000, 1e-4
    domain = bundle.spec.domain
    res = solve(bundle.spec, bundle.solver_config)
    assert np.array_equal(read_lgf(u)[0], domain.pad(res.u))
    assert np.array_equal(read_lgf(z)[0],
                          domain.pad(res.z).reshape((2,) + domain.grid_shape))
    assert np.array_equal(read_lgf(zeta)[0], res.zeta.T[:, :, None])

    report = tmp_path / "report.json"
    code = main(["certify", "--spec", str(spec), "--u", str(u), "--z", str(z),
                 "--zeta", str(zeta), "--tol", "1e-1",
                 "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["overall_pass"] is True
    assert "r_div.l1" in payload
    rep = verify_scalar(bundle.spec, res.u, res.z, zeta=res.zeta, tol=1e-1)
    assert payload == json.loads(json.dumps(rep.as_flat_dict(), default=str))

    assert main(["energy", "--spec", str(spec), "--u", str(u),
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text()) == {
        "energy": relaxed_energy(bundle.spec, res.u),
        "boundary_penalty": boundary_penalty(bundle.spec, res.u),
        "lower_order": lower_order_energy(bundle.spec, res.u),
        "trace_error": trace_error(bundle.spec, res.u)}


def test_cli_certify_passes_what_solve_reports_converged(tmp_path, capsys):
    # the README's ROF annulus at nx=64 converges at rel-gap 3.5e-6; the
    # default --tol is its [solver] gap_tol, 1e-5, times the denominator of
    # the relative gap, so certify passes what solve's own test passed,
    # where a fixed 1e-6 failed r_subdiff (l1 8.9e-6)
    spec = tmp_path / "rof.cfg"
    spec.write_text(ROF.replace("nx = 48", "nx = 64"))
    paths = {k: str(tmp_path / f"{k}.lgf") for k in ("u", "z", "zeta")}
    assert main(["solve", "--spec", str(spec), "--out", paths["u"],
                 "--dual-out", paths["z"], "--zeta-out", paths["zeta"]]) == 0
    assert "converged: True" in capsys.readouterr().out
    args = ["certify", "--spec", str(spec), "--u", paths["u"],
            "--z", paths["z"], "--zeta", paths["zeta"]]
    assert main(args) == 0
    assert main(args + ["--tol", "1e-6"]) == 2
    # a dual pushed out of its ball has an infinite gap: r_range fails,
    # and so does each infinite share, against a default bound that stays
    # finite
    values, h = read_lgf(paths["z"])
    write_lgf(paths["z"], values + 0.75, h)
    report = tmp_path / "report.json"
    assert main(args + ["--report", str(report)]) == 2
    payload = json.loads(report.read_text())
    assert 0.0 < payload["r_subdiff.tol"] < 1e-3
    assert not payload["r_subdiff.passed"] and not payload["r_range.passed"]


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


def test_atomic_write_removes_its_temp_file_when_the_writer_raises(tmp_path):
    # the target keeps its old bytes and no temp file is left behind
    target = tmp_path / "u.lgf"
    target.write_bytes(b"old")

    def writer(tmp):
        with open(tmp, "wb") as fh:
            fh.write(b"partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(str(target), writer)
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["u.lgf"]


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
    # one row per inside cell and channel, the cells row-major over the
    # grid (the order of domain.points), every number at 17 digits
    domain = parse_spec(str(spec)).spec.domain
    values = read_lgf(u)[0]
    rows = ["x,y,channel,value"]
    for cell in np.argwhere(domain.inside_mask):
        x, y = domain.cell_centers[tuple(cell)]
        rows += [f"{x:.17g},{y:.17g},{ch},{values[(ch,) + tuple(cell)]:.17g}"
                 for ch in range(len(values))]
    assert out.read_text() == "\n".join(rows) + "\n"


def test_cli_energy_evaluates_the_densities_once(tmp_path, monkeypatch):
    # the three sums come from one evaluation of the densities of u, and
    # are the values of the public functions, each of which evaluates them
    import lingrad.energy as en

    spec_path = tmp_path / "rof.cfg"
    spec_path.write_text(ROF)
    spec = parse_spec(str(spec_path)).spec
    values = np.random.default_rng(3).uniform(
        -1.0, 1.0, (1,) + spec.domain.grid_shape)
    u = tmp_path / "u.lgf"
    write_lgf(u, values, h=spec.domain.h)
    calls = []
    densities = en._densities
    monkeypatch.setattr(en, "_densities",
                        lambda *args: calls.append(1) or densities(*args))
    report = tmp_path / "energy.json"
    assert main(["energy", "--spec", str(spec_path), "--u", str(u),
                 "--report", str(report)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    got = json.loads(report.read_text())
    u_in = spec.domain.cells(values)
    assert got["energy"] == en.relaxed_energy(spec, u_in)
    assert got["boundary_penalty"] == en.boundary_penalty(spec, u_in)
    assert got["lower_order"] == en.lower_order_energy(spec, u_in)


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


def test_cli_solve_prints_the_levels_of_the_solve(tmp_path, capsys):
    spec = tmp_path / "lg.cfg"
    spec.write_text(ANNULUS_LG)
    assert main(["solve", "--spec", str(spec), "--max-iters", "300",
                 "--gap-tol", "1e-3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("levels: ")  # right after iterations:
    printed = dict(line.split(": ", 1) for line in out)
    levels = [tuple(int(v) for v in lv.split(":"))
              for lv in printed["levels"].split()]
    bundle = parse_spec(str(spec))
    cfg = bundle.solver_config
    cfg.max_iters, cfg.gap_tol = 300, 1e-3
    res = solve(bundle.spec, cfg)
    assert levels == [lv[:2] for lv in res.levels]
    assert [nx for nx, _ in levels] == [16, 32, 64]
    assert levels[-1][1] == int(printed["iterations"])


def test_cli_gallery_run_reports_the_levels(tmp_path):
    report = tmp_path / "r.json"
    assert main(["gallery", "run", "annulus_least_gradient", "--solve",
                 "--nx", "32", "--max-iters", "200", "--gap-tol", "1e-3",
                 "--report", str(report)]) in (0, 2)
    payload = json.loads(report.read_text())
    levels = payload["solve.levels"]
    assert [lv[0] for lv in levels] == [16, 32]
    assert levels[-1][1] == payload["solve.iterations"]
    assert all(lv[2] > 0.0 for lv in levels)


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


def test_cli_gallery_run_rejects_a_zero_resolution(capsys):
    # --nx 0 is a resolution, not "unset": it fails, no default grid solves
    assert main(["gallery", "run", "disk_bv_attainment", "--nx", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: resolution must be at least 16\n")


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


@pytest.mark.parametrize("entry, message", [
    ("max_iters = 0", "max_iters must be an integer >= 1, got 0"),
    ("max_iters = -5", "max_iters must be an integer >= 1, got -5"),
    ("check_every = 0", "check_every must be an integer >= 1, got 0"),
    ("gap_tol = -1", "gap_tol must be a number >= 0, got -1.0"),
    ("gap_tol = nan", "gap_tol must be a number >= 0, got nan"),
], ids=["max_iters_0", "max_iters_neg", "check_every_0", "gap_tol_neg",
        "gap_tol_nan"])
def test_bad_solver_setting_fails_at_the_file(tmp_path, entry, message):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + f"\n[solver]\n{entry}\n")
    with pytest.raises(SpecFileError, match="^" + re.escape(
            f"{p}: [solver] {message}") + "$"):
        parse_spec(str(p))


def test_cli_flag_does_not_rescue_a_bad_file_setting(tmp_path, capsys):
    # the file's value is rejected even though --max-iters would replace it
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL.replace("nx = 32", "nx = 16")
                 + "\n[solver]\nmax_iters = 0\n")
    assert main(["solve", "--spec", str(p), "--max-iters", "5"]) == 1
    assert f"{p}: [solver] max_iters" in capsys.readouterr().err


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


@pytest.mark.parametrize("where", ["inside", "outside"])
@pytest.mark.parametrize("field", ["u", "z"])
def test_cli_certify_reads_only_the_inside_cells(tmp_path, capsys,
                                                 solved_minimal, field,
                                                 where):
    # a NaN at an inside cell of u or z fails naming the file; one at an
    # outside cell is never read, and the report is that of the clean files
    spec, paths = solved_minimal
    domain = parse_spec(str(spec)).spec.domain
    cell = tuple(np.argwhere(domain.inside_mask == (where == "inside"))[0])

    def nan_at_cell(v):
        v = v.copy()
        v[(-1,) + cell] = np.nan
        return v

    files = dict(paths, **{field: _rewrite(
        paths[field], tmp_path / f"{field}.lgf", nan_at_cell)})
    reports = {}
    for name, given in (("clean", paths), ("edited", files)):
        reports[name] = tmp_path / f"{name}.json"
        code = main(["certify", "--spec", str(spec), "--u", str(given["u"]),
                     "--z", str(given["z"]), "--zeta", str(given["zeta"]),
                     "--report", str(reports[name])])
    err = capsys.readouterr().err
    if where == "inside":
        assert code == 1 and not reports["edited"].exists()
        assert f"{files[field]}: non-finite inside-cell values" in err
    else:
        assert code != 1 and err == ""
        assert reports["edited"].read_text() == reports["clean"].read_text()


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
