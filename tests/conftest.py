import numpy as np
import pytest

import ltisec.model
import ltisec.subspaces
from ltisec import Tol, aircraft_path, load_scenario


@pytest.fixture(scope="session")
def tol():
    return Tol()


@pytest.fixture(scope="session")
def aircraft():
    return load_scenario(aircraft_path())


@pytest.fixture(scope="session")
def aircraft_sys(aircraft):
    return aircraft.system


@pytest.fixture(scope="session")
def aircraft_side(aircraft):
    return aircraft.side


@pytest.fixture(scope="session")
def aircraft_attack(aircraft):
    # The bundled attack: scale 10, decay base 0.9779, horizon 30.
    return aircraft.attack


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def isa_runs(monkeypatch):
    """The Tol of every run of the ISA recursion (the fixed-point iteration
    that computes the weakly unobservable iterates), in call order."""
    runs = []
    isa = ltisec.subspaces._isa

    def counted(sys, tol):
        runs.append(tol)
        return isa(sys, tol)

    monkeypatch.setattr(ltisec.subspaces, "_isa", counted)
    return runs


@pytest.fixture()
def validation_runs(monkeypatch):
    """The Tol of every run of the standing-assumption checks behind
    ``validate``, in call order."""
    runs = []
    checks = ltisec.model._validation

    def counted(sys, tol):
        runs.append(tol)
        return checks(sys, tol)

    monkeypatch.setattr(ltisec.model, "_validation", counted)
    return runs
