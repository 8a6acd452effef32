import pathlib
import sys

import pytest
from hypothesis import Phase, settings

from coexsim.scenario import load_scenario

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

# for tools/mutants.py: a failing example fails at once, unshrunk, and no
# run replays the examples another saved
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink],
                          database=None)

SCENARIO_DIR = (pathlib.Path(__file__).resolve().parent.parent
                / "src" / "coexsim" / "scenarios")


def scenario_path(name: str) -> str:
    return str(SCENARIO_DIR / f"{name}.yaml")


@pytest.fixture(scope="session")
def emulation_cfg():
    return load_scenario(scenario_path("emulation"))


@pytest.fixture(scope="session")
def conference_cfg():
    return load_scenario(scenario_path("conference_room"))


@pytest.fixture(scope="session")
def colocated_cfg():
    return load_scenario(scenario_path("colocated"))
