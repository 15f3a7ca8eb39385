"""I.i.d. uniform samplers over each problem's interior and boundary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemSpec


@dataclass
class SampleBatch:
    points: np.ndarray          # (n, dim)
    region: str                 # "interior" or "boundary"


def sample_interior(p: ProblemSpec, n: int, rng: np.random.Generator) -> SampleBatch:
    """Uniform draw over the interior (area-uniform on the sphere)."""
    if n < 1:
        raise ValueError("need n >= 1 interior samples")
    if p.sample_interior is None:
        return SampleBatch(rng.uniform(p.lo, p.hi, size=(n, p.dim)), "interior")
    return SampleBatch(p.sample_interior(n, rng), "interior")


def sample_boundary(p: ProblemSpec, n: int, rng: np.random.Generator) -> SampleBatch:
    """Uniform draw over the boundary; fixed-point boundaries ignore n."""
    if n < 1:
        raise ValueError("need n >= 1 boundary samples")
    return SampleBatch(p.sample_boundary(n, rng), "boundary")
