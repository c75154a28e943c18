"""Configuration basis, magnetization sectors and states of the 12 qubits.

A configuration is a 12-bit integer f: bit i set means site i points down
along z, so f = sum_i (1/2 - mu_i) 2^i with mu_i = +-1/2.  The
magnetization M = sum_i mu_i = 6 - popcount(f) is conserved, and each
sector basis lists its configurations in increasing f.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import N_SITES

N_CONFIGS = 1 << N_SITES
FULL_MASK = N_CONFIGS - 1

_ALL_CONFIGS = np.arange(N_CONFIGS, dtype=np.int64)
_POPCOUNT = np.array([bin(f).count("1") for f in range(N_CONFIGS)], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SectorBasis:
    M: int
    configs: np.ndarray   # increasing f
    index_of: np.ndarray  # length 4096, -1 outside the sector

    @property
    def dim(self) -> int:
        return len(self.configs)


@lru_cache(maxsize=None)
def sector_basis(M: int) -> SectorBasis:
    if not -6 <= M <= 6:
        raise ValueError(f"magnetization M={M} out of range [-6, 6]")
    configs = _ALL_CONFIGS[_POPCOUNT == (N_SITES // 2 - M)]
    index_of = np.full(N_CONFIGS, -1, dtype=np.int64)
    index_of[configs] = np.arange(len(configs))
    configs.flags.writeable = False
    index_of.flags.writeable = False
    return SectorBasis(M=M, configs=configs, index_of=index_of)


@dataclass
class StateVector:
    """Amplitudes over the full configuration basis or over one sector.

    ``sector`` is None for a full 4096-dimensional state, otherwise the
    magnetization M whose basis (increasing f) indexes ``amps``.
    """

    amps: np.ndarray
    sector: int | None = None

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def basis_state(f: int) -> StateVector:
    if not 0 <= f < N_CONFIGS:
        raise ValueError(f"configuration index {f} out of range")
    amps = np.zeros(N_CONFIGS)
    amps[f] = 1.0
    return StateVector(amps=amps, sector=None)


@lru_cache(maxsize=None)
def _config_map(perm: tuple[int, ...]) -> np.ndarray:
    """Image of every configuration when the down set is pushed through perm."""
    out = np.zeros(N_CONFIGS, dtype=np.int64)
    for i, j in enumerate(perm):
        out |= ((_ALL_CONFIGS >> i) & 1) << j
    out.flags.writeable = False
    return out


def spin_flip(state: StateVector) -> StateVector:
    """Global spin flip f -> f XOR 4095; maps sector M to -M with no sign."""
    if state.sector is None:
        return StateVector(amps=state.amps[_ALL_CONFIGS ^ FULL_MASK], sector=None)
    src = sector_basis(state.sector)
    dst = sector_basis(-state.sector)
    new = np.empty_like(state.amps)
    new[dst.index_of[src.configs ^ FULL_MASK]] = state.amps
    return StateVector(amps=new, sector=-state.sector)


def project_sector(state: StateVector, M: int) -> tuple[StateVector, float]:
    """Sector component of a full state plus its squared norm (the weight)."""
    if state.sector is not None:
        raise ValueError("state is already restricted to a sector")
    basis = sector_basis(M)
    amps = state.amps[basis.configs].copy()
    weight = float(np.vdot(amps, amps).real)
    return StateVector(amps=amps, sector=M), weight


@dataclass(frozen=True)
class StateSpec:
    """Textual description of an initial state.

    kind is one of "xi" (all spins along +x), "chi" (outer ring along +x,
    inner ring up along z), "zeta" (independent Bloch spinors on the two
    rings, angles in radians) or "config" (a single basis configuration).
    """

    kind: str
    outer: tuple[float, float] = (0.0, 0.0)   # (theta, phi) for zeta
    inner: tuple[float, float] = (0.0, 0.0)
    config: int = 0


_ZETA_ANGLES = ("theta_out", "phi_out", "theta_in", "phi_in")


def parse_state_spec(text: str) -> StateSpec:
    head, _, rest = text.partition(":")
    if head == "xi" and not rest:
        return StateSpec(kind="xi")
    if head == "chi" and not rest:
        return StateSpec(kind="chi")
    if head == "zeta":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ValueError(f"zeta takes four angles: {','.join(_ZETA_ANGLES)}")
        t_o, p_o, t_i, p_i = angles = [float(p) for p in parts]
        bad = [f"{name}={a}" for name, a in zip(_ZETA_ANGLES, angles) if not math.isfinite(a)]
        if bad:
            raise ValueError(f"zeta angles must be finite: {', '.join(bad)}")
        return StateSpec(kind="zeta", outer=(t_o, p_o), inner=(t_i, p_i))
    if head == "config":
        f = int(rest, 0)
        if not 0 <= f < N_CONFIGS:
            raise ValueError(f"configuration index {f} out of range")
        return StateSpec(kind="config", config=f)
    raise ValueError(f"unknown state spec {text!r}")


def _spinor(theta: float, phi: float) -> tuple[complex, complex]:
    # Bloch convention: |theta, phi> = cos(theta/2)|up> + e^{i phi} sin(theta/2)|down>
    return (
        complex(math.cos(theta / 2)),
        cmath.exp(1j * phi) * math.sin(theta / 2),
    )


def product_state(outer: tuple[float, float], inner: tuple[float, float]) -> StateVector:
    """Factorized state with one spinor on the outer ring, one on the inner."""
    up = np.empty(N_SITES, dtype=complex)
    down = np.empty(N_SITES, dtype=complex)
    for i in range(N_SITES):
        up[i], down[i] = _spinor(*(outer if i < 6 else inner))
    amps = np.ones(N_CONFIGS, dtype=complex)
    for i in range(N_SITES):
        bit = (_ALL_CONFIGS >> i) & 1
        amps *= np.where(bit == 1, down[i], up[i])
    if np.abs(amps.imag).max() == 0.0:
        amps = amps.real
    return StateVector(amps=amps, sector=None)


def build_initial_state(spec: StateSpec) -> StateVector:
    half_pi = math.pi / 2
    if spec.kind == "xi":
        return product_state((half_pi, 0.0), (half_pi, 0.0))
    if spec.kind == "chi":
        return product_state((half_pi, 0.0), (0.0, 0.0))
    if spec.kind == "zeta":
        return product_state(spec.outer, spec.inner)
    if spec.kind == "config":
        return basis_state(spec.config)
    raise ValueError(f"unknown state kind {spec.kind!r}")
