"""Shared fixtures: small problem instances used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from qdelta.arch import WeightSpec, _trapezoid_box
from qdelta.qform import CongruenceDatum, ProblemInstance, QForm, form_values

HYP_CENTER = (1.25, 0.5, 0.9013878188659973)


def make_instance(
    coeffs=(1, 1, -1),
    m0=1,
    p0=5,
    h=1,
    L=1,
    lam=(0, 0, 0),
    center=HYP_CENTER,
    radius=0.6,
    profile="ball",
):
    form = QForm(*coeffs)
    weight = WeightSpec(center=center, radius=radius, profile=profile)
    return ProblemInstance(form, m0, p0, h, CongruenceDatum(L, lam), weight)


def amplitude_oracle(inst, kernel, r, nodes, yscale=1.0, box=_trapezoid_box):
    """(axes, axis weights, A) with the kernel amplitude
    A = w h(r, yscale (F - m0)) evaluated over the whole `box` grid at once:
    the full-grid oracle of arch._amplitude_grid's slab walk."""
    axes, wts = box(inst.weight, nodes)
    grid = np.ix_(*axes)
    amp = inst.weight.values(*grid)
    mask = amp > 0.0
    amp[mask] *= kernel.h_many(r, yscale * (form_values(inst.form, *grid)[mask] - inst.m0))
    return axes, wts, amp


@pytest.fixture
def hyp_instance():
    """x^2 + y^2 - z^2 = 25, no congruence condition."""
    return make_instance()


@pytest.fixture
def sphere_instance():
    """x^2 + y^2 + z^2 = 25, no congruence condition."""
    c = 1 / 3**0.5
    return make_instance(coeffs=(1, 1, 1), center=(c, c, c))


@pytest.fixture
def cong_instance():
    """Hyperboloid with L = 2, lambda = (1, 0, 0)."""
    return make_instance(L=2, lam=(1, 0, 0))


@pytest.fixture
def obstructed_instance():
    """Sphere with x = (1,1,1) mod 2: F = 3 mod 8 while m0 N = 1 mod 8."""
    c = 1 / 3**0.5
    return make_instance(coeffs=(1, 1, 1), L=2, lam=(1, 1, 1), center=(c, c, c))
