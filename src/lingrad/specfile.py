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
per-channel expressions with ``;``.  Unknown sections or keys are
rejected by name.
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
from .solver import SolverConfig

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


def _sample_data(entry: str, points: np.ndarray, n: int, base_dir: str,
                 domain: GridDomain, on_cells: bool):
    """Evaluate an expression (';'-separated per channel) or load file:...

    Returns (n, *grid) on cells, or (m, n) on the m boundary faces.
    """
    entry = entry.strip()
    if entry.startswith("file:"):
        path = os.path.join(base_dir, entry[5:].strip())
        values = read_grid_field(path, domain, n, faces=not on_cells)
        return values if on_cells else values.T
    exprs = [e for e in entry.split(";") if e.strip()]
    if len(exprs) == 1 and n > 1:
        exprs = exprs * n
    if len(exprs) != n:
        raise SpecFileError(
            f"need {n} ';'-separated expressions, got {len(exprs)}")
    out = np.stack([evaluate_on_points(e, points) for e in exprs], axis=0)
    return out if on_cells else out.T


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
    shape = parse_shape(cp["domain"]["shape"])
    nx_val = nx if nx is not None else cp["domain"].getint("nx", fallback=64)
    domain = GridDomain(shape, nx_val)

    name = cp["integrand"]["name"] if "integrand" in cp and "name" in cp["integrand"] else "tv"
    integrand = make_integrand_from_name(name, shape)
    n = integrand.n_rows

    base_dir = os.path.dirname(os.path.abspath(path))
    data = cp["data"] if "data" in cp else {}
    bf_points = domain.boundary_faces.point
    cells = domain.cell_centers

    def sample(key, channels, on_cells):
        if key not in data:
            return None
        try:
            return _sample_data(data[key], cells if on_cells else bf_points,
                                channels, base_dir, domain, on_cells)
        except SpecFileError as exc:
            raise SpecFileError(f"[data] {key}: {exc}") from exc

    u0 = sample("u0", n, on_cells=False)
    if u0 is None:
        u0 = np.zeros((len(domain.boundary_faces), n))
    g = sample("g", n, on_cells=True)
    h = sample("h", n, on_cells=True)
    lam_arr = sample("lambda", 1, on_cells=True)
    if lam_arr is not None:
        lam_arr = lam_arr[0]

    spec = ProblemSpec(integrand, domain, u0, g=g, h=h, lam=lam_arr)

    config = SolverConfig()
    if "solver" in cp:
        sec = cp["solver"]
        if "max_iters" in sec:
            config.max_iters = sec.getint("max_iters")
        if "gap_tol" in sec:
            config.gap_tol = sec.getfloat("gap_tol")
        if "check_every" in sec:
            config.check_every = sec.getint("check_every")
        if "box_bound" in sec:
            config.box_bound = sec.getfloat("box_bound")
    return SpecBundle(spec, config)
