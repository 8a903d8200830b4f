"""Check the bridge between binned and differential entropies numerically.

Three facts make histogram-level steering tests trustworthy, and each is
checked here on concrete densities rather than taken on faith:

  1. the windowing identity relating a density's differential entropy to
     its window distribution plus in-window entropies holds term by term,
     so what is checked is the per-window quadrature of -p log p against
     the closed form of a Gaussian window,
  2. binned conditional entropy plus log window width never undershoots
     the differential conditional entropy,
  3. as windows shrink, the discrete witness margin converges to the
     continuous one from below.

Run:  python3 demos/continuum_bridge.py
"""

import math

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
    print("1. per-window Gauss-Legendre vs closed-form -p log p of N(0, s^2) (nats)")
    for sigma in (0.3, 1.0, 2.5):
        for n in (4, 16, 64):
            residual = connection_check(sigma, AxisGrid.centered(n, 16.0))
            print(f"   s = {sigma:>3}, {n:>3} windows: {residual:.2e}")

    print("\n2. binned bound on the differential conditional entropy")
    params = DoubleGaussianParams(1.0, 0.1)
    h_true = continuous_conditional_entropy(params, Observable.POSITION, base=math.e)
    extent = 12 * math.sqrt(position_covariance(params)[0])
    print(f"   h(x_B|x_A) = {h_true:+.4f} nat for mode ratio 10")
    for n in (4, 8, 16, 32, 64):
        ax = AxisGrid.centered(n, extent)
        grid = GridSpec(Observable.POSITION, (ax,), (ax,))
        dist, _ = discretize_state(params, grid)
        h_bound = conditional_entropy(dist, given="A", base=math.e) + math.log(extent / n)
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
