"""Shared fixtures: small codes built once per session, and the backends."""

import numpy as np
import pytest
from hypothesis import settings

import swldpc as sw
from swldpc import _native


# Property tests draw the same examples on every run and keep Tier-1's time bounded.
settings.register_profile("swldpc", derandomize=True, deadline=None, max_examples=300)
settings.load_profile("swldpc")


def _backend_line() -> str:
    return f"swldpc backend: {sw.backend()} (compiled kernels cached at {_native.library_path()})"


def pytest_report_header(config):
    return _backend_line()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q drops the header: name the backend at the end
        terminalreporter.write_line(_backend_line())


@pytest.fixture()
def numpy_backend(monkeypatch):
    """Run all three paths that have compiled code on their numpy code:
    the passes of a SideInfoFrame made under this fixture (so bp_decode's
    and joint_decode's), build_code and encode."""
    monkeypatch.setattr(_native, "_lib", None)


@pytest.fixture()
def c_backend():
    """The compiled kernels; skips the test where they cannot be built."""
    lib = _native.lib()
    if lib is None:
        pytest.skip("the C kernels could not be built here (no working cc), so only numpy runs")
    return lib


@pytest.fixture(params=["c", "numpy"])
def backend(request):
    """Runs a test once on each backend."""
    request.getfixturevalue(f"{request.param}_backend")
    return request.param


@pytest.fixture(scope="session")
def toy_code():
    """k=32 code, small enough for exhaustive checks."""
    spec = sw.CodeSpec(id="T32", k=32, n=48, dv_target=3.0, design_p=0.05)
    return sw.build_code(spec, seed=7)


@pytest.fixture(scope="session")
def small_code():
    """k=512 code for mid-sized statistical checks."""
    spec = sw.CodeSpec(id="T512", k=512, n=768, dv_target=3.0, design_p=0.05)
    return sw.build_code(spec, seed=1)


@pytest.fixture(scope="session")
def desk_code():
    """The registry's k=1024, rate-1/2 code."""
    return sw.build_code(sw.get_code_spec("D1"), seed=0)


@pytest.fixture(scope="session")
def d2_code():
    """The registry's k=4096, rate-1/4 code."""
    return sw.build_code(sw.get_code_spec("D2"), seed=0)


@pytest.fixture(scope="session")
def ragged_code():
    """k=240 code whose 60 rows hold 1 to 30 ones: its padded layout is
    mostly pads, and row 0 is a single parity bit."""
    rng = np.random.default_rng(77)
    k, m = 240, 60
    weights = [1] + rng.permutation(np.resize(np.arange(2, 31), m - 1)).tolist()
    rows = []
    for i, w in enumerate(weights):
        par = [k] if i == 0 else [k + i - 1, k + i]
        chosen = rng.choice(k, size=w - len(par), replace=False)
        rows.append(sorted(chosen.tolist()) + par)
    return sw.SparseParityMatrix(n_rows=m, n_cols=k + m, k=k, rows=rows, design_p=0.02)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
