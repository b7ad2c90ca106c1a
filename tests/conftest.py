import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def composite_simpson(f, lo: float, hi: float, panels: int = 2**20) -> float:
    """Brute-force Simpson rule; the independent quadrature oracle."""
    x = np.linspace(lo, hi, 2 * panels + 1)
    fx = f(x)
    h = (hi - lo) / (2 * panels)
    return float(h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1::2].sum() + 2.0 * fx[2:-1:2].sum()))


# Tables that parse but would decide nothing meaningful: a nan critical
# value never rejects, a repeated n lets its last row win, n = 0 breaks the
# ln(n) interpolation, n = 3 is below the TCVM minimum, and a level outside
# (0, 1) is no significance level.
MEANINGLESS_TABLES = {
    "nan_value": "n,0.1,0.05,a_n,C_n\n50,nan,nan,2.0537,534.8787\n",
    "inf_value": "n,0.1,0.05,a_n,C_n\n50,1.5,inf,2.0537,534.8787\n",
    "repeated_n": "n,0.05,a_n,C_n\n50,1.6,2.0537,534.8787\n50,1.8,2.0537,534.8787\n",
    "n_zero": "n,0.05,a_n,C_n\n0,1.0,2.0,500.0\n50,1.6,2.0537,534.8787\n",
    "n_below_four": "n,0.05,a_n,C_n\n3,0.3,0.4307,4.1\n50,1.6,2.0537,534.8787\n",
    "level_past_one": "n,1.5,a_n,C_n\n50,1.6,2.0537,534.8787\n",
    "repeated_level": "n,0.05,0.05,a_n,C_n\n50,1.6,1.7,2.0537,534.8787\n",
}
