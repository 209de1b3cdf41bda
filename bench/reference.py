"""The benchmark's own references; nothing here calls into ``qsobp``.

* Heredity tensors from a construction document, by the compatible-set rule.
* Closed-form limits of the two-type and four-type cases.
* The critical-line fixed point, by bisection.
* A plain matrix-product iteration of an operator, used to screen starts.
"""

from __future__ import annotations

import itertools

import numpy as np


def heredity_tensors(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """pf[i, k, j] and pm[i, k, l] for every (mother i, father k) type pair.

    A child cell is compatible with the parents when, on every connected
    component of the graph, its alleles equal the mother's or the father's;
    its share is its weight over the total weight of the compatible cells of
    its sex.
    """
    vertices, alleles = doc["vertices"], doc["alleles"]
    root = list(range(vertices))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for a, b in doc["edges"]:
        root[find(a - 1)] = find(b - 1)
    groups: dict[int, list[int]] = {}
    for v in range(vertices):
        groups.setdefault(find(v), []).append(v)
    cells = np.array(list(itertools.product(range(alleles), repeat=vertices)))
    # One integer code per (cell, component): the component's allele pattern.
    keys = np.stack(
        [cells[:, vs] @ (alleles ** np.arange(len(vs))) for vs in groups.values()], axis=1
    )
    female_set = {c - 1 for c in doc["females"]}
    females = sorted(female_set)
    males = [c for c in range(len(cells)) if c not in female_set]
    mother = keys[females][:, None, None, :]
    father = keys[males][None, :, None, :]
    compatible = np.all((keys == mother) | (keys == father), axis=3)  # (n, nu, cells)
    wf = np.array([doc["female_weights"][str(c + 1)] for c in females])
    wm = np.array([doc["male_weights"][str(c + 1)] for c in males])
    pf = np.where(compatible[:, :, females], wf, 0.0)
    pm = np.where(compatible[:, :, males], wm, 0.0)
    return pf / pf.sum(axis=2, keepdims=True), pm / pm.sum(axis=2, keepdims=True)


def steps_to_converge(pf, pm, x: np.ndarray, y: np.ndarray, eps: float, cap: int) -> np.ndarray:
    """For each row of x (B, n) and y (B, nu): the first step whose max-norm
    move is at most ``eps``, or -1 when none is within ``cap`` steps."""
    batch, n = x.shape
    nu = y.shape[1]
    q = np.concatenate(
        [(pf - np.eye(n)[:, None, :]).reshape(n * nu, n),
         (pm - np.eye(nu)[None, :, :]).reshape(n * nu, nu)], axis=1)
    z = np.concatenate([x, y], axis=1)
    steps = np.full(batch, -1)
    for t in range(cap + 1):
        dz = (z[:, :n, None] * z[:, None, n:]).reshape(batch, n * nu) @ q
        steps[(np.abs(dz).max(axis=1) <= eps) & (steps < 0)] = t
        if (steps >= 0).all():
            break
        z = z + dz
    return steps


def two_type_limit(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """Limit of x' = x + a(1-x)y, y' = y(x + b(1-x)) from the level x/a + y/(1-b)."""
    reach = x + a * y / (1.0 - b)
    if reach < 1.0:
        return reach, 0.0
    return 1.0, (reach - 1.0) * (1.0 - b) / a


def four_type_limit(a, b, c, d, a0, c0) -> tuple[list[float], str]:
    """Corner limit (x1..x4, y1..y4) on the slice (a0, c0) and its survivor label."""
    hi1, hi2 = a + c > 1.0, b + d > 1.0
    x = [a0, 0.0] if hi1 else [0.0, a0]
    y = [c0, 0.0] if hi1 else [0.0, c0]
    x += [1.0 - a0, 0.0] if hi2 else [0.0, 1.0 - a0]
    y += [1.0 - c0, 0.0] if hi2 else [0.0, 1.0 - c0]
    f = f"f{1 if hi1 else 2},f{3 if hi2 else 4}"
    m = f"m{1 if hi1 else 2},m{3 if hi2 else 4}"
    return x + y, f"{f}|{m}"


def critical_fixed_point(a: float, a0: float, c0: float) -> float:
    """Root in [0, 1] of (2a-1)x^2 + ((1-a)(2-c0) - a a0)x + a a0 - x, by bisection.

    The gap is a*a0 > 0 at x = 0 and -c0(1-a) < 0 at x = 1.
    """
    quad, lin, const = 2.0 * a - 1.0, (1.0 - a) * (2.0 - c0) - a * a0 - 1.0, a * a0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (quad * mid + lin) * mid + const > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
