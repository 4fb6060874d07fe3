import runpy

import pytest

from noisescramble import EPSILON_PROXY, ExperimentConfig
from noisescramble.harness import read_json_object

from .conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


CONFIGS = sorted((REPO_ROOT / "demos" / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
def test_demo_config_loads(path):
    """Every shipped config parses under the strict reader, with canonical rates.

    An alpha-scan config is read as that command reads it, without its
    ``n_qubits_list``.
    """
    payload = read_json_object(path)
    if payload.pop("n_qubits_list", None) is None:
        config = ExperimentConfig.from_json(path)
    else:
        config = ExperimentConfig.from_dict(payload, source=str(path))
    assert 0.0 not in config.epsilons
    assert len(set(config.epsilons)) == len(config.epsilons)
    assert set(config.epsilons) == {EPSILON_PROXY if e == 0.0 else e for e in payload["epsilons"]}
