import os

import numpy as np
import pytest
from hypothesis import settings

from bmtrunc import (
    BmapModel,
    MuRule,
    build_generator,
    corollary_transform,
    find_beta_no_disaster,
    find_constants_disaster,
    lc_truncate,
    stationary,
)
from helpers import d2_blocks

REF_LEVEL = 200

# Tests that leave their example count to the profile: a small fixed set in
# every tier-1 run, many random ones under HYPOTHESIS_PROFILE=deep.
settings.register_profile("tier1", max_examples=10, derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=600, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(scope="session")
def mm1():
    """Single-phase queue with arrival rate 1 and service rate 2."""
    return BmapModel(d=1, D=(np.array([[-1.0]]), np.array([[1.0]])),
                     mu=MuRule(table=(2.0,)), psi=0.0)


@pytest.fixture(scope="session")
def d2_psi0():
    """Two-phase batch arrivals, level-dependent service, no catastrophes."""
    return BmapModel(d=2, D=d2_blocks(),
                     mu=MuRule(table=(3.0, 3.5), eventual="constant", value=3.5),
                     psi=0.0)


@pytest.fixture(scope="session")
def d2_psi05():
    """Same queue with catastrophe rate 0.5 back to the empty level."""
    return BmapModel(d=2, D=d2_blocks(),
                     mu=MuRule(table=(3.0, 3.5), eventual="constant", value=3.5),
                     psi=0.5)


@pytest.fixture(scope="session")
def pure_disaster():
    """No service at all: every departure is a catastrophe reset."""
    return BmapModel(d=2, D=d2_blocks(), mu=MuRule(table=(0.0,)), psi=1.0)


@pytest.fixture(scope="session")
def fleet(mm1, d2_psi0, d2_psi05):
    return {"mm1": mm1, "d2": d2_psi0, "d2_disaster": d2_psi05}


@pytest.fixture(scope="session")
def fleet_models(fleet):
    return {name: build_generator(B) for name, B in fleet.items()}


@pytest.fixture(scope="session")
def fleet_certs(fleet, fleet_models):
    """Level-0 drift certificate for each fleet member, computed once."""
    out = {}
    for name, B in fleet.items():
        if B.psi == 0.0:
            cert = find_beta_no_disaster(B)
        else:
            raw = find_constants_disaster(B)
            cert = raw if raw.K == 0 else corollary_transform(raw, fleet_models[name])
        out[name] = cert
    return out


@pytest.fixture(scope="session")
def fleet_refs(fleet_models):
    """Reference stationary distributions at the deep truncation level."""
    return {
        name: stationary(lc_truncate(model, REF_LEVEL).matrix, source="lc")
        for name, model in fleet_models.items()
    }
