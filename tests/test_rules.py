"""Every input rule, through every entry point that accepts it.

Each rule is stated once, by the module that owns it: the cluster rules
in ``channel._check_clusters`` and the request rules in
``montecarlo._check_request``. Whichever door a bad value comes in by,
the same check raises it with the same message; the CLI adds only its
usage-error prefix and, for a config-file value, the file line. It exits
1 before any output directory exists.
"""

import numpy as np
import pytest

from prmimo import (
    ArrayGeometry,
    ClusterProfile,
    InvalidInputError,
    Scenario,
    condition_profile,
    run_campaign,
)
from prmimo.channel import ILL_MIN_CLUSTERS
from prmimo.cli import UsageError, main, parse_config
from prmimo.montecarlo import SCHEMES

GEOMETRY = ArrayGeometry(n_t=8, n_r=2)

# Valid settings, which each rule's case breaks in one value.
SETTINGS = {
    "n_cl": 10,
    "n_ray": 8,
    "angle_spread": np.deg2rad(3.0),
    "condition": "ill",
    "schemes": SCHEMES,
    "workers": 1,
}

# The library doors, each called with the settings.
LIBRARY = {
    "Scenario": lambda s: Scenario(
        GEOMETRY,
        n_cl=s["n_cl"],
        n_ray=s["n_ray"],
        condition=s["condition"],
        angle_spread=s["angle_spread"],
    ),
    "ClusterProfile": lambda s: ClusterProfile(
        s["n_cl"], s["n_ray"], np.ones(s["n_cl"]), s["angle_spread"]
    ),
    "condition_profile": lambda s: condition_profile(
        s["condition"], GEOMETRY, s["n_cl"], s["n_ray"], s["angle_spread"],
        np.random.default_rng(0),
    ),
    "run_campaign": lambda s: run_campaign(
        Scenario(GEOMETRY, trials=2), schemes=s["schemes"], workers=s["workers"]
    ),
}

CLUSTER_DOORS = ("Scenario", "ClusterProfile", "condition_profile")
REGIME_DOORS = ("Scenario", "condition_profile")  # a ClusterProfile has no regime

# One row per broken rule: its message, its owning check, the CLI key and
# text that break it, the same value as the library takes it, and the
# library doors that accept it. Both CLI doors (a flag and a config-file
# line) accept every rule.
RULES = [
    ("cluster and ray counts must be >= 1", "_check_clusters",
     "ncl", "0", {"n_cl": 0}, CLUSTER_DOORS),
    ("cluster and ray counts must be >= 1", "_check_clusters",
     "nray", "0", {"n_ray": 0}, CLUSTER_DOORS),
    ("angle spread must be finite", "_check_clusters",
     "xi_deg", "nan", {"angle_spread": np.nan}, CLUSTER_DOORS),
    ("angle spread must be finite", "_check_clusters",
     "xi_deg", "inf", {"angle_spread": np.inf}, CLUSTER_DOORS),
    ("angle spread must be nonnegative", "_check_clusters",
     "xi_deg", "-1", {"angle_spread": np.deg2rad(-1.0)}, CLUSTER_DOORS),
    ("unknown condition 'bad'", "_check_clusters",
     "condition", "bad", {"condition": "bad"}, REGIME_DOORS),
    (f"ill-conditioned profile needs n_cl >= {ILL_MIN_CLUSTERS}", "_check_clusters",
     "ncl", str(ILL_MIN_CLUSTERS - 1), {"n_cl": ILL_MIN_CLUSTERS - 1}, REGIME_DOORS),
    ("at least one scheme is required", "_check_request",
     "schemes", " , ", {"schemes": ()}, ("run_campaign",)),
    ("unknown schemes: ['psychic']", "_check_request",
     "schemes", "physical,psychic", {"schemes": ("physical", "psychic")}, ("run_campaign",)),
    ("workers must be >= 1, got 0", "_check_request",
     "workers", "0", {"workers": 0}, ("run_campaign",)),
]

CASES = [
    pytest.param(door, message, owner, key, text, value, id=f"{key}={text.strip()}-{door}")
    for message, owner, key, text, value, doors in RULES
    for door in ("flag", "config", *doors)
]


def raised_in(exc):
    # The function whose frame raised ``exc``.
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name


@pytest.mark.parametrize("door, message, owner, key, text, value", CASES)
def test_a_rule_has_one_check_and_one_message_at_every_door(
    door, message, owner, key, text, value, tmp_path, capsys
):
    if door in LIBRARY:
        with pytest.raises(InvalidInputError) as raised:
            LIBRARY[door](SETTINGS | value)
        assert str(raised.value) == message
        assert raised_in(raised.value) == owner
        return

    if door == "flag":
        argv, line = [f"--{key.replace('_', '-')}={text}"], ""
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={text}\n")
        argv, line = ["--config", str(path)], f" (from {path}:1 {key})"
    argv += ["--trials", "2"]
    with pytest.raises(UsageError) as raised:
        parse_config(argv)
    assert raised_in(raised.value.__cause__) == owner

    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"prmimo: usage error: {message}{line}\n"
    assert not out.exists()
