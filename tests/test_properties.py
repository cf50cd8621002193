"""Property tests of the paper's invariants over generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decopoles.pole_models import CatalogueMatrix, Pole

_ENTRY = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_catalogues(draw):
    """(poles, equilibrium, Hermitian amplitudes, hbar) with distinct positive widths."""
    dim = draw(st.sampled_from((2, 3)))
    gammas = draw(
        st.lists(st.floats(1e-3, 1e3, allow_nan=False), min_size=1, max_size=8, unique=True)
    )
    omegas = draw(st.lists(_ENTRY, min_size=len(gammas), max_size=len(gammas)))
    raw = draw(hnp.arrays(float, (len(gammas), 2, dim, dim), elements=_ENTRY))
    amps = raw[:, 0] + 1j * raw[:, 1]
    amps = (amps + np.conj(np.swapaxes(amps, -1, -2))) / 2.0
    eq = draw(hnp.arrays(float, (dim,), elements=st.floats(0.0, 1.0)))
    hbar = draw(st.floats(0.1, 10.0))
    return [Pole(w, g) for w, g in zip(omegas, gammas)], np.diag(eq), amps, hbar


class TestCatalogueMatrixPermutationInvariance:
    @settings(deadline=None)
    @given(matrix_catalogues(), st.data(), st.floats(0.0, 50.0))
    def test_any_order_builds_the_same_catalogue(self, catalogue, data, t):
        poles, eq, amps, hbar = catalogue
        perm = data.draw(st.permutations(range(len(poles))))
        ref = CatalogueMatrix(poles, eq, amps, hbar)
        cm = CatalogueMatrix([poles[k] for k in perm], eq, amps[perm], hbar)
        assert cm.gammas == ref.gammas
        assert cm.poles == ref.poles
        assert np.array_equal(cm.amplitudes, ref.amplitudes)
        assert np.max(np.abs(cm.evaluate(t) - ref.evaluate(t))) <= 1e-15
