"""Shared fixtures: small families with known chord structure.

The expensive executed runs (multichord, Morse demo) are session-scoped so
the whole suite pays for each of them once.  Config fixtures hand out deep
copies, so tests may mutate them freely.
"""

import copy
import json
import os
from concurrent.futures import Future

import numpy as np
import pytest

from gftrees import pipeline as pl

# One transverse chord at value 4/3: fiber critical points of
# e^3/3 + (x^2-1)e sit at e = +-sqrt(1-x^2), and the difference function
# has its only positive critical value at x = 0.
UNKNOT = {
    "mode": "gf",
    "family": {
        "n": 1, "N": 1, "label": "unknot",
        "core": "e1^3/3 + (x1^2 - 1)*e1",
        "slope": [1],
        "inner_box": [[-1.5, 1.5], [-2, 2]],
        "outer_box": [[-2.5, 2.5], [-3, 3]],
    },
}

# Same shape translated in the base; used for the deformation tests.
UNKNOT_MOVED = {
    "mode": "gf",
    "family": {
        "n": 1, "N": 1, "label": "unknot-moved",
        "core": "e1^3/3 + ((x1 - 0.1)^2 - 1)*e1",
        "slope": [1],
        "inner_box": [[-1.5, 1.5], [-2, 2]],
        "outer_box": [[-2.5, 2.5], [-3, 3]],
    },
}

# Double-well coefficient: three chords (one of grading 1, two of grading 2)
# with a nonzero differential, so the ring collapses to a single class.
MULTI = {
    "mode": "gf",
    "family": {
        "n": 1, "N": 1, "label": "multichord",
        "core": "e1^3/3 + (0.5*(x1^2 - 1)^2 - 1 + 0.1*x1)*e1",
        "slope": [1],
        "inner_box": [[-1.7, 1.7], [-2.2, 2.2]],
        "outer_box": [[-2.5, 2.5], [-3.2, 3.2]],
    },
    "seeds": {"rng": 11},
}

# Shallower double well: both wells clear the zero level, giving two chords
# of grading 2, no differential, and a rank-2 map under deformation.
TWOWELL = {
    "mode": "gf",
    "family": {
        "n": 1, "N": 1, "label": "twowell",
        "core": "e1^3/3 + (0.5*(x1^2 - 1)^2 - 0.4 + 0.05*x1)*e1",
        "slope": [1],
        "inner_box": [[-1.7, 1.7], [-2.2, 2.2]],
        "outer_box": [[-2.5, 2.5], [-3.2, 3.2]],
    },
    "seeds": {"rng": 11},
}

TWOWELL_MOVED = {
    "mode": "gf",
    "family": {
        "n": 1, "N": 1, "label": "twowell-moved",
        "core": "e1^3/3 + (0.5*((x1 - 0.1)^2 - 1)^2 - 0.4 + 0.05*(x1 - 0.1))*e1",
        "slope": [1],
        "inner_box": [[-1.7, 1.7], [-2.2, 2.2]],
        "outer_box": [[-2.5, 2.5], [-3.2, 3.2]],
    },
    "seeds": {"rng": 11},
}

# Fiber twist that is the identity outside the outer box: bump(e1) kills it
# for |e1| >= 2 and bump(x1) for |x1| >= 2, and its fiber derivative
# 1 + 0.3*bump'(e1)*bump(x1) stays positive.
FPD_COMPONENT = "e1 + 0.3*bump(e1)*bump(x1)"


def _copy(cfg):
    return json.loads(json.dumps(cfg))


def whole_hessian_frame(field, p):
    """The unstable eigenframe of the whole Hessian at p, each column's
    largest entry made positive: the chart of a scan with nothing pinned."""
    eigvals, eigvecs = np.linalg.eigh(field.hess([float(v) for v in p.coords]))
    frame = eigvecs[:, eigvals > 0]
    for j in range(frame.shape[1]):
        if frame[np.argmax(np.abs(frame[:, j])), j] < 0:
            frame[:, j] = -frame[:, j]
    return frame


@pytest.fixture
def unknot_config():
    return _copy(UNKNOT)


@pytest.fixture
def unknot_moved_config():
    return _copy(UNKNOT_MOVED)


@pytest.fixture
def multi_config():
    return _copy(MULTI)


@pytest.fixture
def twowell_config():
    return _copy(TWOWELL)


@pytest.fixture
def twowell_moved_config():
    return _copy(TWOWELL_MOVED)


@pytest.fixture(scope="session")
def unknot_run():
    return pl.gf_run(_copy(UNKNOT))


@pytest.fixture(scope="session")
def multi_run():
    return pl.gf_run(_copy(MULTI))


@pytest.fixture(scope="session")
def morse_run():
    return pl.MorseRun().execute()


@pytest.fixture
def prepare_calls(monkeypatch):
    """The class names of every GFRun/MorseRun prepare, in call order.  A
    prepare in another process (a pool worker) raises, and the pool hands
    that error back to the caller."""
    pid, calls = os.getpid(), []
    for cls in (pl.GFRun, pl.MorseRun):
        def spy(self, original=cls.prepare):
            if os.getpid() != pid:
                raise RuntimeError("a pool worker prepared its run again")
            calls.append(type(self).__name__)
            return original(self)
        monkeypatch.setattr(cls, "prepare", spy)
    return calls


@pytest.fixture
def inline_pool(monkeypatch):
    """Pools that run each unit in this process at its submit.  Returns
    {"widths": each pool's width, "units": each submitted unit's
    arguments}; a unit that raises hands its error to its future."""
    seen = {"widths": [], "units": []}

    class InlinePool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            seen["widths"].append(max_workers)
            initializer(*initargs)

        def submit(self, fn, *args):
            seen["units"].append(args)
            fut = Future()
            try:
                fut.set_result(fn(*args))
            except Exception as e:
                fut.set_exception(e)
            return fut

        def shutdown(self, wait=True, cancel_futures=False):
            pass
    monkeypatch.setattr(pl, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(pl, "_worker_unit", None)  # the fake sets it here
    return seen
