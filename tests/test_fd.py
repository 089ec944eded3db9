import numpy as np

from wavepack import fd


def _richardson_loop(f, x, n, h0, levels):
    """Step-halving Richardson written out: eliminate h^2, h^4, ... in turn."""
    vals = [fd.central_difference(f, x, n, h0 * 0.5**k) for k in range(levels)]
    for j in range(1, levels):
        factor = 4.0**j
        for i in range(levels - 1, j - 1, -1):
            vals[i] = (factor * vals[i] - vals[i - 1]) / (factor - 1.0)
    return vals[-1]


def test_neville_in_h_squared_is_the_richardson_loop():
    rng = np.random.default_rng(8)
    for _ in range(300):
        alpha = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        c, x = rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
        n, levels = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        h0 = 0.05 * (n + 1) if rng.random() < 0.5 else None
        f = lambda u: np.exp(-alpha * (u - c) ** 2)
        got = fd.derivative(f, x, n, h0=h0, levels=levels)
        want = _richardson_loop(f, x, n, h0 or (2.22e-16) ** (1.0 / (n + 2.0)) * 4.0, levels)
        assert abs(got - want) <= 1e-15 * abs(want), (n, levels, h0)


def test_exact_on_a_polynomial():
    # a degree-6 polynomial: the h^2 and h^4 error terms of the second
    # difference are eliminated by three levels
    f = lambda u: u**6 - 2.0 * u**3
    assert abs(fd.derivative(f, 0.7, 2, h0=0.1, levels=3) - (30 * 0.7**4 - 12 * 0.7)) <= 1e-11
