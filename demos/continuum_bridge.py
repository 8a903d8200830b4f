"""Check the bridge between binned and differential entropies numerically.

Three facts make histogram-level steering tests trustworthy, and each is
checked here on concrete densities rather than taken on faith:

  1. the windowing identity relating a density's differential entropy to
     its window distribution plus in-window entropies holds term by term,
     so what is checked is the per-cell quadrature of -p log p against an
     adaptive one,
  2. binned conditional entropy plus log window width never undershoots
     the differential conditional entropy,
  3. as windows shrink, the discrete witness margin converges to the
     continuous one from below.

Run:  python3 demos/continuum_bridge.py
"""

import math

import numpy as np

from eprsteering import (
    AxisGrid,
    GridSpec,
    Observable,
    conditional_entropy,
    connection_check,
    continuous_conditional_entropy,
    continuous_margin,
    evaluate,
)
from eprsteering.spdc import DoubleGaussianParams, discretize_state, position_covariance, momentum_covariance


def main():
    print("1. per-cell Gauss-Legendre vs adaptive quad of -p log p (nats)")
    densities = {
        "unit gaussian": lambda x: np.exp(-(x**2) / 2) / math.sqrt(2 * math.pi),
        "uniform[-1,1]": lambda x: np.where(np.abs(x) <= 1, 0.5, 0.0),
    }
    for name, pdf in densities.items():
        # the uniform support edges must sit on window edges or fixed-order
        # quadrature cannot see the jump; extent 4 puts +-1 on the grid
        points = (-1.0, 1.0) if "uniform" in name else None
        extent = 4.0 if "uniform" in name else 16.0
        for n in (4, 16, 64):
            axis = AxisGrid.centered(n, extent)
            residual = connection_check(pdf, axis, points=points)
            print(f"   {name:>14}, {n:>3} windows: {residual:+.2e}")

    print("\n2. binned bound on the differential conditional entropy")
    params = DoubleGaussianParams(1.0, 0.1)
    h_true = continuous_conditional_entropy(params, Observable.POSITION, base=math.e)
    extent = 12 * math.sqrt(position_covariance(params)[0])
    print(f"   h(x_B|x_A) = {h_true:+.4f} nat for mode ratio 10")
    for n in (4, 8, 16, 32, 64):
        ax = AxisGrid.centered(n, extent)
        grid = GridSpec(Observable.POSITION, (ax,), (ax,))
        dist, _ = discretize_state(params, grid)
        h_bound = float(conditional_entropy(dist, given="A", base=math.e)) + math.log(
            extent / n
        )
        print(f"   {n:>3} windows: H + log(dx) = {h_bound:+.4f} nat (slack {h_bound - h_true:+.1e})")

    print("\n3. discrete margin converging to the continuous one")
    target = continuous_margin(params)
    print(f"   continuous margin: {target:+.4f} bit")
    extent_k = 12 * math.sqrt(momentum_covariance(params)[0])
    for n in (6, 12, 24, 48, 96):
        gx = GridSpec(Observable.POSITION, (AxisGrid.centered(n, extent),), (AxisGrid.centered(n, extent),))
        gk = GridSpec(Observable.MOMENTUM, (AxisGrid.centered(n, extent_k),), (AxisGrid.centered(n, extent_k),))
        pos, _ = discretize_state(params, gx)
        mom, _ = discretize_state(params, gk)
        margin = evaluate(pos, mom).margin
        print(f"   {n:>3} windows: discrete margin {margin:+.4f} bit")


if __name__ == "__main__":
    main()
