"""Catalog of concrete parameterised Lindbladian families.

Two families, both with bounded-strength on-site/nearest-neighbour terms:

* ``pinning`` - independent single-site reset channels.  Site j is driven at
  rate kappa0 toward the pure state cos(theta_j)|0> + sin(theta_j)|1> with
  theta_j = (pi/4)(x_j + 1).  The steady state is an exact product and every
  local expectation has a closed form at any system size and any time, which
  makes this the ground-truth oracle family.
* ``dissipative_tfim`` - transverse-field Ising Hamiltonian with per-site
  longitudinal fields x_j^(h) and per-bond couplings x_j^(J), plus uniform
  amplitude damping.  Generator is linear in the parameters; steady states are
  genuinely correlated.

Both families are constructions of this package, not imported from elsewhere;
they exist to exercise the learner and the diagnostics at desk scale.

The reference state is the all-|0> product; the ancilla menu is {none, one
ancilla qubit per open-chain boundary, initialised |0><0| and damped on site}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .lattice import PAULI, Lattice, LocalObservable, Region
from .lindblad import (
    AncillaSpec,
    DensityMatrix,
    LindbladTerm,
    ParamLindbladian,
    assemble,
    evolve,
    steady_state,
)

__all__ = [
    "CATALOG",
    "CatalogEntry",
    "Model",
    "PinningOracle",
    "build_pinning_family",
    "build_dissipative_tfim",
    "generate_state",
    "instantiate",
    "sample_parameters",
]

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def _theta(xj: float | np.ndarray) -> float | np.ndarray:
    return (math.pi / 4.0) * (xj + 1.0)


def _target_ket(theta: float) -> np.ndarray:
    return math.cos(theta) * _KET0 + math.sin(theta) * _KET1


def _reset_jumps(target: np.ndarray, rate: float) -> list[np.ndarray]:
    """Jump operators of the reset channel rho -> rate (|t><t| tr rho - rho)."""
    s = math.sqrt(rate)
    return [s * np.outer(target, _KET0.conj()), s * np.outer(target, _KET1.conj())]


def _boundary_ancillas(lattice: Lattice, rate: float) -> tuple[list[AncillaSpec], list[LindbladTerm]]:
    """One damped ancilla qubit per boundary of an open 1D chain."""
    if lattice.dim != 1 or lattice.boundary != "open":
        raise ValueError("the ancilla menu choice requires an open 1D chain")
    n = lattice.n_sites
    specs, terms = [], []
    for k, anchor in enumerate((0, n - 1)):
        slot = n + k
        specs.append(AncillaSpec(slot=slot, anchor=anchor, state=np.outer(_KET0, _KET0.conj())))
        jumps = _reset_jumps(_KET0, rate)
        terms.append(
            LindbladTerm(Region((slot,)), (), lambda _x, j=jumps: (None, list(j)),
                         label=f"ancilla{k}")
        )
    return specs, terms


def build_pinning_family(lattice: Lattice, kappa0: float = 1.0,
                         omega: int = 0) -> ParamLindbladian:
    """Single-site reset family; m = n, one parameter per site."""
    if kappa0 <= 0:
        raise ValueError("base rate kappa0 must be positive")
    terms = []
    for j in lattice.all_sites():
        def build(xs: np.ndarray, _k=kappa0) -> tuple[None, list[np.ndarray]]:
            return None, _reset_jumps(_target_ket(_theta(float(xs[0]))), _k)

        terms.append(LindbladTerm(Region((j,)), (j,), build, label=f"pin{j}"))
    ancillas: list[AncillaSpec] = []
    if omega == 1:
        ancillas, extra = _boundary_ancillas(lattice, kappa0)
        terms.extend(extra)
    elif omega != 0:
        raise ValueError(f"unknown ancilla choice {omega}")
    return ParamLindbladian(lattice, terms, ancillas, name="pinning")


def build_dissipative_tfim(lattice: Lattice, g: float = 0.5, kappa: float = 1.0,
                           omega: int = 0) -> ParamLindbladian:
    """Dissipative transverse-field Ising chain.

    Coordinates 0..n-1 are the per-site longitudinal fields, n.. the per-bond
    couplings (two parameters per site overall).  The generator is linear
    in every coordinate.
    """
    if kappa <= 0:
        raise ValueError("damping rate kappa must be positive")
    if lattice.dim != 1:
        raise ValueError("dissipative TFIM catalog entry is one-dimensional")
    n = lattice.n_sites
    Z, X = PAULI["Z"], PAULI["X"]
    ZZ = np.kron(Z, Z)
    sminus = np.array([[0, 1], [0, 0]], dtype=complex)
    sk = math.sqrt(kappa)
    terms = []
    for j in range(n):
        def build_site(xs: np.ndarray, _g=g, _sk=sk) -> tuple[np.ndarray, list[np.ndarray]]:
            return float(xs[0]) * Z + _g * X, [_sk * sminus]

        terms.append(LindbladTerm(Region((j,)), (j,), build_site, label=f"site{j}"))
    bonds = [(j, j + 1) for j in range(n - 1)]
    if lattice.boundary == "periodic" and n > 2:
        bonds.append((n - 1, 0))
    for b, (u, v) in enumerate(bonds):
        def build_bond(xs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
            return float(xs[0]) * ZZ, []

        terms.append(LindbladTerm(Region((u, v)), (n + b,), build_bond, label=f"bond{u}-{v}"))
    ancillas: list[AncillaSpec] = []
    if omega == 1:
        ancillas, extra = _boundary_ancillas(lattice, kappa)
        terms.extend(extra)
    elif omega != 0:
        raise ValueError(f"unknown ancilla choice {omega}")
    return ParamLindbladian(lattice, terms, ancillas, name="dissipative_tfim")


class PinningOracle:
    """Closed-form expectations for the pinning family at any n and any time.

    Each site evolves independently under the reset channel, so
    rho_j(tau) = eta_j + exp(-kappa0 tau) (rho*_j - eta_j) with
    eta_j = |theta_j><theta_j| and rho*_j = |0><0|.
    """

    def __init__(self, kappa0: float):
        self.kappa0 = kappa0

    def bloch_vectors(self, X: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """(N, n, 3) Bloch vectors (<X>, <Y>, <Z>) of the site states at the
        points (X[i], taus[i]): r = (1 - e)(sin 2 theta, 0, cos 2 theta) + e (0, 0, 1)
        with e = exp(-kappa0 tau), which is 0 at tau = inf."""
        theta = _theta(np.asarray(X, dtype=float))
        e = np.exp(-self.kappa0 * np.asarray(taus, dtype=float))[:, None]
        r = np.zeros(theta.shape + (3,))
        r[..., 0] = (1.0 - e) * np.sin(2.0 * theta)
        r[..., 2] = (1.0 - e) * np.cos(2.0 * theta) + e
        return r

    def site_state(self, xj: float, tau: float) -> np.ndarray:
        v = _target_ket(_theta(xj))
        eta = np.outer(v, v.conj())
        if math.isinf(tau):
            return eta
        rho0 = np.outer(_KET0, _KET0.conj())
        return eta + math.exp(-self.kappa0 * tau) * (rho0 - eta)

    def marginal(self, x: np.ndarray, tau: float, sites: Sequence[int]) -> np.ndarray:
        mats = [self.site_state(float(x[s]), tau) for s in sites]
        return reduce(np.kron, mats) if mats else np.eye(1, dtype=complex)

    def expectation(self, x: np.ndarray, tau: float, obs: LocalObservable) -> float:
        marg = self.marginal(x, tau, obs.support.sites)
        return float(np.real(np.trace(obs.matrix @ marg)))


@dataclass(frozen=True)
class CatalogEntry:
    """Named family constructor plus its structural metadata."""

    name: str
    builder: Callable[..., ParamLindbladian]
    ell_per_site: int
    default_hyper: dict
    oracle_factory: Callable[[dict], PinningOracle | None]

    def n_omega(self, lattice: Lattice) -> int:
        return 2 if (lattice.dim == 1 and lattice.boundary == "open") else 1


CATALOG: dict[str, CatalogEntry] = {
    "pinning": CatalogEntry(
        name="pinning",
        builder=build_pinning_family,
        ell_per_site=1,
        default_hyper={"kappa0": 1.0},
        oracle_factory=lambda hyper: PinningOracle(hyper["kappa0"]),
    ),
    "dissipative_tfim": CatalogEntry(
        name="dissipative_tfim",
        builder=build_dissipative_tfim,
        ell_per_site=2,
        default_hyper={"g": 0.5, "kappa": 1.0},
        oracle_factory=lambda hyper: None,
    ),
}


@dataclass
class Model:
    """An instantiated catalog entry: family, hyperparameters, ancilla choice."""

    entry: CatalogEntry
    lattice: Lattice
    hyper: dict
    omega: int
    family: ParamLindbladian = field(init=False)
    oracle: PinningOracle | None = field(init=False)

    def __post_init__(self):
        self.family = self.entry.builder(self.lattice, omega=self.omega, **self.hyper)
        self.oracle = self.entry.oracle_factory(self.hyper)

    @property
    def name(self) -> str:
        return self.entry.name

    def reference_state(self) -> DensityMatrix:
        """rho* (x) omega: the all-|0> system product with the ancilla registers."""
        mats = [np.outer(_KET0, _KET0.conj())] * self.family.n_system
        mats += [np.asarray(a.state, dtype=complex) for a in self.family.ancillas]
        return DensityMatrix(reduce(np.kron, mats), self.family.n_total)

    def structural_constants(self) -> dict:
        return {
            "J": self.family.J,
            "ell": self.entry.ell_per_site,
            "r0": self.family.r0,
            "D": self.lattice.dim,
            "n": self.lattice.n_sites,
            "m": self.family.m,
            "W": self.entry.n_omega(self.lattice),
        }


def instantiate(name: str, lattice: Lattice, omega: int = 0, **hyper) -> Model:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; have {sorted(CATALOG)}")
    entry = CATALOG[name]
    merged = dict(entry.default_hyper)
    merged.update(hyper)
    return Model(entry, lattice, merged, omega)


def generate_state(model: Model, x: np.ndarray, tau: float) -> DensityMatrix:
    """The phase state exp(tau L(x))(rho* (x) omega); tau = inf means steady state.

    Integrates the master equation, or solves for the fixed point.  Oracle
    models hand out their closed-form states through ``model.oracle`` instead.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    x = np.asarray(x, dtype=float)
    if tau == 0:
        return model.reference_state()
    gen = assemble(model.family, x)
    if math.isinf(tau):
        return steady_state(gen)
    return evolve(gen, model.reference_state(), tau)


def sample_parameters(model: Model, N: int, t_eps: float | None, seed: int,
                      lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows lo..hi-1 (by default all N) of N i.i.d. points as columns:
    X ~ U([-1,1]^m) of shape (rows, m) and taus ~ U([0, t_eps]) of shape (rows,).

    Without a horizon (t_eps None) every point is a steady state, tau = inf.
    Reproducible under ``seed``: one PCG64 stream gives the N m tags row by
    row and then the N taus, and each block of rows is read from it by
    ``bit_generator.advance``, so any split of [0, N) into blocks gives the
    same points as one draw.  Every point of a run shares the model's ancilla
    choice; each choice from the menu is learned in its own run (the menu size
    scales the planned N).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if t_eps is not None and not t_eps > 0:
        raise ValueError("the time horizon t_eps must be positive")
    hi = N if hi is None else hi
    m = model.family.m
    tags = np.random.default_rng(seed)
    tags.bit_generator.advance(lo * m)
    xs = tags.uniform(-1.0, 1.0, size=(hi - lo, m))
    if t_eps is None:
        return xs, np.full(hi - lo, np.inf)
    times = np.random.default_rng(seed)
    times.bit_generator.advance(N * m + lo)
    return xs, times.uniform(0.0, t_eps, size=hi - lo)
