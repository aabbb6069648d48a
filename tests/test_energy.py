"""Operators, Gauss-Green exactness, relaxed energy, truncation, field IO."""

import numpy as np
import pytest

from lingrad.energy import (
    ProblemSpec,
    boundary_flux,
    boundary_penalty,
    discrete_divergence,
    discrete_gradient,
    gauss_green_residual,
    lower_order_energy,
    relaxed_energy,
    total_variation,
    truncate,
)
from lingrad.errors import InvalidFieldError, ShapeMismatchError
from lingrad.fields import Field, field_to_csv, read_lgf, write_lgf
from lingrad.geometry import Annulus, Ball, GridDomain, Interval, Rectangle
from lingrad.integrands import make_tv

RNG = np.random.default_rng(123)


def random_pair(domain, n=1):
    u = np.where(domain.inside_mask[None],
                 RNG.standard_normal((n,) + domain.grid_shape), 0.0)
    z = RNG.standard_normal((n, domain.dim) + domain.grid_shape)
    return u, z


def shipped_domains():
    return [
        GridDomain(Ball(1.0), 48),
        GridDomain(Annulus(1.0, 2.0), 48),
        GridDomain(Annulus(0.5, 1.0), 48),
        GridDomain(Rectangle(), 32),
        GridDomain(Interval(0.0, 1.0), 64),
    ]


def test_gradient_of_constant_vanishes():
    domain = GridDomain(Ball(1.0), 32)
    u = np.where(domain.inside_mask[None], 3.7, 0.0)
    assert np.all(discrete_gradient(domain, u) == 0.0)


def test_gradient_of_linear_on_rectangle():
    domain = GridDomain(Rectangle(), 32)
    u = domain.cell_centers[..., 0][None]
    g = discrete_gradient(domain, u)
    interior = domain.pad(domain.interior[:, 0, :])
    assert np.allclose(g[0, 0][interior[0]], 1.0)
    assert np.allclose(g[0, 1][interior[1]], 0.0)


def test_adjoint_identity_by_direct_summation():
    # <grad u, z> + <u, div z> compared against a plain-loop evaluation of
    # the boundary flux: the oracle walks the face list independently
    domain = GridDomain(Ball(1.0), 32)
    u, z = random_pair(domain)
    vol = domain.cell_volume
    lhs = vol * np.sum(discrete_gradient(domain, u) * z) + vol * np.sum(
        u * discrete_divergence(domain, z))
    bf = domain.boundary_faces
    flux = 0.0
    for i in range(len(bf)):
        c = tuple(bf.cell[i])
        a = int(bf.axis[i])
        s = int(bf.sign[i])
        slot = list(c)
        if s < 0:
            slot[a] -= 1
        flux += bf.face_measure * u[(0,) + c] * s * z[(0, a) + tuple(slot)]
    assert abs(lhs - flux) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("domain", shipped_domains(),
                         ids=lambda d: type(d.shape).__name__ + str(d.n_cells[0]))
def test_gauss_green_exact_on_random_pairs(domain):
    for _ in range(20):
        u, z = random_pair(domain)
        scale = max(1.0, np.abs(u).max() * np.abs(z).max())
        assert gauss_green_residual(domain, u, z) <= 1e-12 * scale


def test_gauss_green_zero_dual():
    domain = GridDomain(Ball(1.0), 32)
    u, _ = random_pair(domain)
    assert gauss_green_residual(domain, u, np.zeros((1, 2) + domain.grid_shape)) == 0.0


def test_boundary_flux_constant_field():
    # for u = const the flux reduces to const * sum of signed face values
    domain = GridDomain(Ball(1.0), 32)
    _, z = random_pair(domain)
    c = 2.5
    u = np.where(domain.inside_mask[None], c, 0.0)
    lhs = boundary_flux(domain, u, z)
    vol = domain.cell_volume
    rhs = vol * np.sum(u * discrete_divergence(domain, z)) + vol * np.sum(
        discrete_gradient(domain, u) * z)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# relaxed energy
# ---------------------------------------------------------------------------


def annulus_lg_spec(nx):
    domain = GridDomain(Annulus(1.0, 2.0), nx)
    r = np.linalg.norm(domain.boundary_faces.point, axis=1)
    return ProblemSpec(make_tv(1, 2), domain, np.where(r < 1.5, 1.0, 0.0))


def test_energy_of_zero_on_annulus_converges_to_inner_perimeter():
    errs = []
    for nx in (64, 128):
        spec = annulus_lg_spec(nx)
        e = relaxed_energy(spec, spec.zero_field())
        errs.append(abs(e - 2 * np.pi) / (2 * np.pi))
    assert errs[-1] <= 0.02
    assert errs[-1] <= errs[0] + 1e-9


def test_energy_boundary_term_vanishes_on_match():
    # smooth extension matching u0 on the rectangle: zero penalty
    domain = GridDomain(Rectangle(), 32)
    fn = lambda p: p[..., 0] + 2.0 * p[..., 1]
    u = Field.from_function(domain, fn)
    # one-sided trace: the penalty compares u0 with the adjacent cell value,
    # so prescribe exactly those values
    bf = domain.boundary_faces
    adj = u.values[(slice(None),) + tuple(bf.cell.T)][0]
    spec = ProblemSpec(make_tv(1, 2), domain, adj)
    assert boundary_penalty(spec, u.values) == pytest.approx(0.0, abs=1e-14)


def test_rof_annulus_energy_against_quadrature_oracle():
    # direct re-summation of the same discrete sums, written independently
    domain = GridDomain(Annulus(0.5, 1.0), 48)
    hbar = lambda p: 4.0 / (3.0 * np.linalg.norm(p, axis=-1)) - 4.0 / 3.0
    bf = domain.boundary_faces
    spec = ProblemSpec(
        make_tv(1, 2), domain, hbar(bf.point),
        h=Field.from_function(domain, hbar).values,
        lam=np.ones(domain.grid_shape),
    )
    u = spec.zero_field()
    got = relaxed_energy(spec, u)

    oracle = 0.0
    for i in range(len(bf)):
        oracle += bf.weight[i] * abs(hbar(bf.point[i][None])[0])
    vals = hbar(domain.cell_centers)
    for idx in np.argwhere(domain.inside_mask):
        oracle += 0.5 * domain.cell_volume * vals[tuple(idx)] ** 2
    assert got == pytest.approx(oracle, rel=1e-10)


def test_lower_order_energy_examples():
    domain = GridDomain(Ball(1.0), 64)
    spec = ProblemSpec(make_tv(1, 2), domain,
                       np.zeros(len(domain.boundary_faces)),
                       g=np.ones((1,) + domain.grid_shape))
    u = Field(domain, np.where(domain.inside_mask[None], 1.0, 0.0))
    got = lower_order_energy(spec, u)
    assert abs(got - np.pi) / np.pi <= 3.0 / np.sqrt(64)
    # u = h, g = 0 -> zero
    spec2 = ProblemSpec(make_tv(1, 2), domain,
                        np.zeros(len(domain.boundary_faces)),
                        h=u.values.copy(), lam=np.ones(domain.grid_shape))
    assert lower_order_energy(spec2, u) == 0.0


def test_energy_rejects_nan():
    spec = annulus_lg_spec(32)
    u = spec.zero_field().values.copy()
    u[0, 5, 5] = np.nan
    with pytest.raises(InvalidFieldError):
        relaxed_energy(spec, u)


@pytest.mark.parametrize("name", ["u0", "g", "h", "lambda"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_problem_spec_rejects_non_finite_data(name, value):
    domain = GridDomain(Ball(1.0), 32)
    data = {"u0": np.zeros(len(domain.boundary_faces))}
    if name == "u0":
        data["u0"][3] = value
    else:
        arr = np.zeros(domain.grid_shape)
        arr[tuple(np.argwhere(domain.inside_mask)[7])] = value
        data["lam" if name == "lambda" else name] = arr
    with pytest.raises(InvalidFieldError, match=rf"^{name} has non-finite"):
        ProblemSpec(make_tv(1, 2), domain, **data)


@pytest.mark.parametrize("name", ["g", "h", "lambda"])
def test_an_array_is_checked_whole(name):
    # a padded g, h or lambda is checked whole, like a padded u or z: a NaN
    # at an outside cell raises naming the field, while a Field built from
    # the same array zeroes its outside cells and scores like zero data
    domain = GridDomain(Ball(1.0), 32)
    tv, u0 = make_tv(1, 2), np.ones(len(domain.boundary_faces))
    key = "lam" if name == "lambda" else name
    arr = np.zeros(domain.grid_shape)
    arr[tuple(np.argwhere(~domain.inside_mask)[0])] = np.nan
    with pytest.raises(InvalidFieldError, match=rf"^{name} has non-finite"):
        ProblemSpec(tv, domain, u0, **{key: arr})
    data = {"lam": np.ones(domain.grid_shape),
            "h": np.full(domain.grid_shape, 2.0)}
    spec = ProblemSpec(tv, domain, u0,
                       **{**data, key: Field(domain, arr[None]).values[0]})
    zero = ProblemSpec(tv, domain, u0,
                       **{**data, key: np.zeros(domain.grid_shape)})
    u, _ = random_pair(domain)
    assert relaxed_energy(spec, u) == relaxed_energy(zero, u)


def test_problem_spec_checks_lambda_on_inside_cells_only():
    # a padded lambda is compressed to the inside cells; finite values
    # outside the domain never enter the problem
    domain = GridDomain(Ball(1.0), 32)
    u0 = np.zeros(len(domain.boundary_faces))
    spec = ProblemSpec(make_tv(1, 2), domain, u0,
                       lam=np.where(domain.inside_mask, 0.0, -1.0))
    assert np.all(spec.lam == 0)
    with pytest.raises(InvalidFieldError, match="nonnegative"):
        ProblemSpec(make_tv(1, 2), domain, u0,
                    lam=np.where(domain.inside_mask, -1.0, 0.0))


def test_energy_coercivity_bound():
    # relaxed energy dominates (TV + boundary L1)/C - C (|Omega| + |u0| mass)
    spec = annulus_lg_spec(48)
    C = spec.integrand.growth_constant
    bf = spec.domain.boundary_faces
    area = spec.domain.cell_volume * spec.domain.inside_mask.sum()
    u0_mass = float(np.sum(bf.weight * np.abs(spec.u0[:, 0])))
    for _ in range(10):
        u = np.where(spec.domain.inside_mask[None],
                     RNG.standard_normal((1,) + spec.domain.grid_shape), 0.0)
        tv = total_variation(spec.domain, u)
        u_adj = u[(slice(None),) + tuple(bf.cell.T)][0]
        btrace = float(np.sum(bf.weight * np.abs(u_adj)))
        lower = (tv + btrace) / C - C * (area + u0_mass)
        assert relaxed_energy(spec, u) >= lower - 1e-9


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncate_values():
    domain = GridDomain(Interval(0.0, 1.0), 64)
    vals = np.zeros((1,) + domain.grid_shape)
    vals[0, domain.inside_mask] = np.linspace(-3, 7, domain.inside_mask.sum())
    u = Field(domain, vals)
    t = truncate(u, 1.0)
    assert t.values.min() == -1.0 and t.values.max() == 1.0
    assert np.array_equal(truncate(u, 0.0).values, np.zeros_like(u.values))
    big = truncate(u, 100.0)
    assert np.array_equal(big.values, u.values)


def test_truncate_specific_triple():
    domain = GridDomain(Interval(0.0, 1.0), 16)
    vals = np.zeros((1,) + domain.grid_shape)
    idx = np.argwhere(domain.inside_mask)[:3, 0]
    vals[0, idx] = [-3.0, 0.5, 7.0]
    out = truncate(Field(domain, vals), 1.0)
    assert np.allclose(out.values[0, idx], [-1.0, 0.5, 1.0])


def test_truncate_never_increases_tv():
    domain = GridDomain(Ball(1.0), 32)
    for _ in range(20):
        u = np.where(domain.inside_mask[None],
                     RNG.standard_normal((1,) + domain.grid_shape) * 3, 0.0)
        f = Field(domain, u)
        for b in (0.1, 0.7, 2.0):
            assert (total_variation(domain, truncate(f, b).values)
                    <= total_variation(domain, u) + 1e-12)


def test_truncate_rejects_vector_field():
    domain = GridDomain(Ball(1.0), 32)
    u = Field.zeros(domain, n=2)
    with pytest.raises(ShapeMismatchError):
        truncate(u, 1.0)


# ---------------------------------------------------------------------------
# LGF1 round trip
# ---------------------------------------------------------------------------


def test_lgf_round_trip_bit_identical(tmp_path):
    values = RNG.standard_normal((3, 17, 9))
    path = tmp_path / "f.lgf"
    write_lgf(path, values, h=0.125)
    back, h = read_lgf(path)
    assert h == 0.125
    assert back.dtype == np.float64
    assert np.array_equal(back, values)  # bit-identical
    # and the file itself is stable under rewrite
    path2 = tmp_path / "g.lgf"
    write_lgf(path2, back, h=h)
    assert path.read_bytes() == path2.read_bytes()


def test_lgf_magic_guard(tmp_path):
    p = tmp_path / "bad.lgf"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(InvalidFieldError):
        read_lgf(p)


def test_field_csv_export(tmp_path):
    domain = GridDomain(Rectangle(), 16)
    u = Field.from_function(domain, lambda p: p[..., 0])
    out = tmp_path / "u.csv"
    field_to_csv(out, domain, u.values)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,channel,value"
    assert len(lines) == 1 + 16 * 16
    x, y, ch, v = lines[1].split(",")
    assert float(x) == pytest.approx(float(v))
