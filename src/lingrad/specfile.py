"""Problem-spec files: INI sections [domain], [integrand], [data], [solver].

Example::

    [domain]
    shape = annulus 0.5 1.0
    nx = 128

    [integrand]
    name = tv

    [data]
    u0 = 4/(3*r) - 4/3
    h = 4/(3*r) - 4/3
    lambda = 1

    [solver]
    gap_tol = 1e-5

Data entries are expressions over (x, y, r, theta) or ``file:<path>``
references to LGF1 fields on the same grid; vector problems separate
per-channel expressions with ``;``, sampled at the boundary faces (u0) or
at the inside-cell centres only (g, h, lambda).  Unknown sections or keys
are rejected by name, as is any [solver] value ``solve`` would reject.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import ProblemSpec
from .errors import SpecFileError
from .expr import evaluate_on_points
from .fields import read_grid_field
from .gallery import build_bad_f0
from .geometry import Annulus, Ball, GridDomain, Interval, Rectangle
from .integrands import (
    make_area,
    make_hencky,
    make_tv,
    make_vector_tv,
    make_weighted_tv,
)
from .solver import SolverConfig, _check_config

__all__ = ["parse_spec", "parse_shape", "make_integrand_from_name", "SpecBundle"]

_ALLOWED = {
    "domain": {"shape", "nx"},
    "integrand": {"name"},
    "data": {"u0", "g", "h", "lambda"},
    "solver": {"max_iters", "gap_tol", "check_every", "box_bound"},
}


@dataclass
class SpecBundle:
    spec: ProblemSpec
    solver_config: SolverConfig


def parse_shape(text: str):
    """Parse the shape grammar: disk R | annulus RIN ROUT | rect | interval A B."""
    parts = text.split()
    if not parts:
        raise SpecFileError("empty shape")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "disk" and len(args) == 1:
            return Ball(float(args[0]), 2)
        if kind == "annulus" and len(args) == 2:
            return Annulus(float(args[0]), float(args[1]))
        if kind == "rect" and not args:
            return Rectangle()
        if kind == "interval" and len(args) == 2:
            return Interval(float(args[0]), float(args[1]))
    except ValueError as exc:
        raise SpecFileError(f"bad shape parameters in {text!r}: {exc}") from exc
    raise SpecFileError(
        f"unknown shape {text!r} (expected: disk R | annulus RIN ROUT | "
        "rect | interval A B)")


def _entry(path: str, cp, section: str, key: str, parse, default=None):
    """``parse(text)`` of an entry, or of ``default`` when it is absent (None
    when that is None); a ValueError becomes a SpecFileError naming the
    file, the section and the key."""
    text = cp.get(section, key, fallback=default)
    try:
        return None if text is None else parse(text)
    except ValueError as exc:
        raise SpecFileError(f"{path}: [{section}] {key}: {exc}") from exc


def make_integrand_from_name(name: str, shape):
    """Resolve an integrand selection string."""
    name = name.strip()
    d = shape.dim
    if name == "tv":
        return make_tv(1, d)
    if name == "area":
        return make_area(d)
    if name == "hencky":
        return make_hencky(d)
    if name.startswith("weighted_tv:"):
        expr = name.split(":", 1)[1]

        def weight(pts):
            return evaluate_on_points(expr, pts)

        box = shape.bbox()
        return make_weighted_tv(weight, d, sample_box=box)
    if name.startswith("vector_tv:"):
        n = int(name.split(":", 1)[1])
        return make_vector_tv(n, d)
    if name.startswith("bad_f0:"):
        eps = float(name.split(":", 1)[1])
        return build_bad_f0(eps).integrand()
    raise SpecFileError(f"unknown integrand name {name!r}")


def _sample_data(entry: str, n: int, base_dir: str, domain: GridDomain,
                 on_cells: bool):
    """Evaluate an expression (';'-separated per channel) or load file:...

    Returns (N, n) values on the N inside cells, or (m, n) on the m
    boundary faces.  A file's values off the inside cells are not read.
    """
    entry = entry.strip()
    if entry.startswith("file:"):
        path = os.path.join(base_dir, entry[5:].strip())
        values = read_grid_field(path, domain, n, faces=not on_cells)
        return domain.cells(values) if on_cells else values.T
    exprs = [e for e in entry.split(";") if e.strip()]
    if len(exprs) == 1 and n > 1:
        exprs = exprs * n
    if len(exprs) != n:
        raise SpecFileError(
            f"need {n} ';'-separated expressions, got {len(exprs)}")
    points = (domain.points if on_cells
              else domain.boundary_faces.point)
    return np.stack([evaluate_on_points(e, points) for e in exprs], axis=1)


def parse_spec(path: str, nx: Optional[int] = None) -> SpecBundle:
    """Materialize a ProblemSpec (and solver overrides) from a spec file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise SpecFileError(f"parse error in {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _ALLOWED:
            raise SpecFileError(f"unknown section [{section}] in {path}")
        for key in cp[section]:
            if key not in _ALLOWED[section]:
                raise SpecFileError(
                    f"unknown key {key!r} in section [{section}] of {path}")

    if "domain" not in cp or "shape" not in cp["domain"]:
        raise SpecFileError(f"{path}: missing [domain] shape")
    shape = _entry(path, cp, "domain", "shape", parse_shape)
    if nx is None:
        domain = _entry(path, cp, "domain", "nx",
                        lambda text: GridDomain(shape, int(text)), "64")
    else:
        domain = GridDomain(shape, nx)
    integrand = _entry(path, cp, "integrand", "name",
                       lambda text: make_integrand_from_name(text, shape), "tv")
    n = integrand.n_rows

    base_dir = os.path.dirname(os.path.abspath(path))

    def sample(key, channels, on_cells):
        return _entry(path, cp, "data", key, lambda text: _sample_data(
            text, channels, base_dir, domain, on_cells))

    u0 = sample("u0", n, on_cells=False)
    if u0 is None:
        u0 = np.zeros((len(domain.boundary_faces), n))
    g = sample("g", n, on_cells=True)
    h = sample("h", n, on_cells=True)
    lam_arr = sample("lambda", 1, on_cells=True)
    if lam_arr is not None:
        lam_arr = lam_arr[:, 0]

    box_bound = _entry(path, cp, "solver", "box_bound", float)
    try:
        spec = ProblemSpec(integrand, domain, u0, g=g, h=h, lam=lam_arr,
                           box_bound=box_bound)
    except SpecFileError as exc:  # the box bound is the one it checks
        raise SpecFileError(f"{path}: [solver] {exc}") from exc
    kinds = {"max_iters": int, "gap_tol": float, "check_every": int}
    config = SolverConfig(**{
        key: _entry(path, cp, "solver", key, kind)
        for key, kind in kinds.items() if cp.has_option("solver", key)})
    _check_config(config, f"{path}: [solver] ")
    return SpecBundle(spec, config)
