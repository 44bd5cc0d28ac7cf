"""Parameter containers, validation, and flat-file config round trips."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from steeplab import (BscParams, ParamError, RateReport, SweepSpec,
                      SystemParams, decode_syndrome, format_config, hexdump,
                      make_ldpc, parse_config, read_config, reconcile_plan,
                      run_digital_episode, run_oracle_suite, run_rates,
                      run_sweep, simulate_episode, theorem1_bounds, validate,
                      validate_bsc)
from steeplab.params import _integer, _real
from steeplab.seeds import subseed

finite_pos = st.floats(min_value=1e-6, max_value=1e6,
                       allow_nan=False, allow_infinity=False)


def test_defaults_validate():
    p = SystemParams()
    assert validate(p) is p
    assert p.p_A == 1.0 and p.n_E == 2 and p.m_A == 4 and p.m_B == 0


@pytest.mark.parametrize("field,bad", [
    ("p_A", 0.0), ("p_A", -1.0),
    ("sigma_B2", 0.0), ("sigma_A2", -2.0),
    ("sigma_EA2", 0.0), ("sigma_EB2", -0.5),
    ("sigma_s2", 0.0),
    ("eps_A", -1e-9), ("eps_E", -1.0),
    ("n_E", 0), ("m_A", -1), ("m_B", -3),
])
def test_rejects_nonpositive(field, bad):
    with pytest.raises(ParamError) as err:
        p = dataclasses.replace(SystemParams(), **{field: bad})
        validate(p)
    assert field in str(err.value)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.2, 0.6 + 0.9j])
def test_rejects_rho_outside_unit_disc(rho):
    with pytest.raises(ParamError, match=r"\|rho\| must be < 1"):
        validate(dataclasses.replace(SystemParams(), rho=rho))


def test_accepts_complex_rho_inside_disc():
    validate(dataclasses.replace(SystemParams(), rho=0.3 - 0.4j))


def test_rejects_nonfinite():
    with pytest.raises(ParamError):
        validate(dataclasses.replace(SystemParams(), p_A=math.inf))
    with pytest.raises(ParamError):
        validate(dataclasses.replace(SystemParams(), sigma_s2=math.nan))


@pytest.mark.parametrize("cls, field, bad", [
    (SystemParams, "p_A", 0.0), (SystemParams, "sigma_s2", math.nan),
    (SystemParams, "eps_E", -1.0), (SystemParams, "rho", 1.0),
    (SystemParams, "n_E", 0), (SystemParams, "m_A", 2.0),
    (SystemParams, "m_B", True), (SystemParams, "p_B", "1.0"),
    (BscParams, "P_BA", 0.6), (BscParams, "P_EA", -0.1),
    (BscParams, "P_EB", math.inf), (BscParams, "P_AB", True),
    (BscParams, "m_A", 0), (BscParams, "m_A", True),
])
def test_params_are_validated_when_built(cls, field, bad):
    with pytest.raises(ParamError, match=field):
        cls(**{field: bad})
    with pytest.raises(ParamError, match=field):
        dataclasses.replace(cls(), **{field: bad})


def test_both_schemas_accept_numpy_scalars():
    p = SystemParams(p_A=np.float32(2.0), m_A=np.int64(3))
    assert validate(p) is p
    bsc = BscParams(P_BA=np.float32(0.1), m_A=np.int64(8))
    assert validate_bsc(bsc) is bsc


def test_eps_zero_is_allowed_in_container():
    # the no-return-noise regime is legal for formulas, only simulation
    # of the echo rejects it
    validate(dataclasses.replace(SystemParams(), eps_A=0.0, eps_E=0.0))


# ---------------------------------------------------------------- config

def test_parse_config_basic():
    text = """
    # comment line
    p_A = 2.5
    rho = 0.25
    n_E = 3
    m_A = 16
    """
    p = parse_config(text)
    assert p.p_A == 2.5 and p.rho == 0.25 and p.n_E == 3 and p.m_A == 16
    assert p.sigma_B2 == 1.0  # untouched default


def test_parse_config_unknown_key():
    with pytest.raises(ParamError, match="unknown config key 'bogus'"):
        parse_config("bogus = 1.0")


def test_parse_config_bad_syntax():
    with pytest.raises(ParamError):
        parse_config("p_A 2.5")


def test_parse_config_rejects_repeated_key():
    with pytest.raises(ParamError,
                       match=r"'p_A' is set twice, on lines 1 and 3"):
        parse_config("p_A = 2\n# again\np_A = 3\n")


def test_read_config_rejects_non_utf8(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\xe9\np_A = 2\n".encode("latin-1"))
    with pytest.raises(ParamError, match="latin1.cfg is not UTF-8"):
        read_config(cfg)


def test_read_config_skips_utf8_byte_order_mark(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfrho = 0.7\n")
    assert read_config(cfg).rho == 0.7


@pytest.mark.parametrize("rho", ["0.5", False, True, None])
def test_rho_must_be_a_number(rho):
    with pytest.raises(ParamError, match="rho must be a real or complex number"):
        SystemParams(rho=rho)


def test_parse_config_complex_rho():
    p = parse_config("rho = 0.3-0.4j")
    assert p.rho == 0.3 - 0.4j


@given(
    p_A=finite_pos, sigma_B2=finite_pos, sigma_s2=finite_pos,
    rho=st.floats(min_value=-0.99, max_value=0.99, allow_nan=False),
    n_E=st.integers(min_value=1, max_value=8),
    m_A=st.integers(min_value=0, max_value=100),
)
def test_config_round_trip(p_A, sigma_B2, sigma_s2, rho, n_E, m_A):
    p = dataclasses.replace(SystemParams(), p_A=p_A, sigma_B2=sigma_B2,
                            sigma_s2=sigma_s2, rho=rho, n_E=n_E, m_A=m_A)
    assert parse_config(format_config(p)) == p


# ---------------------------------------------------------------- report

def test_rate_report_json_is_plain_json():
    rep = RateReport(params=SystemParams(), values={"x": 1.0},
                     stderr={}, notes=[])
    payload = json.loads(rep.to_json())
    assert payload["values"]["x"] == 1.0


def test_rate_report_check_rejects_nonfinite():
    rep = RateReport(params=SystemParams(), values={"x": math.inf},
                     stderr={}, notes=[])
    with pytest.raises(ParamError):
        rep.check()


# ---------------------------------------------------------------- schema

PINNED = SystemParams(rho=0.3 + 0.4j, m_A=7, sigma_s2=0.1)


def test_format_config_bytes_pinned():
    assert format_config(PINNED) == (
        "p_A = 1.0\np_B = 1.0\nsigma_A2 = 1.0\nsigma_B2 = 1.0\n"
        "sigma_EA2 = 1.0\nsigma_EB2 = 1.0\nsigma_s2 = 0.1\neps_A = 1.0\n"
        "eps_E = 1.0\nrho = (0.3+0.4j)\nn_E = 2\nm_A = 7\nm_B = 0\n")


def test_rate_report_to_json_bytes_pinned():
    assert RateReport(params=PINNED).to_json() == (
        '{\n  "notes": [],\n  "params": {\n    "eps_A": 1.0,\n'
        '    "eps_E": 1.0,\n    "m_A": 7,\n    "m_B": 0,\n    "n_E": 2,\n'
        '    "p_A": 1.0,\n    "p_B": 1.0,\n    "rho": "(0.3+0.4j)",\n'
        '    "sigma_A2": 1.0,\n    "sigma_B2": 1.0,\n    "sigma_EA2": 1.0,\n'
        '    "sigma_EB2": 1.0,\n    "sigma_s2": 0.1\n  },\n'
        '  "stderr": {},\n  "values": {}\n}')


# --------------------------------------------------------- argument rules

@pytest.mark.parametrize("v", [3, np.int64(3), np.uint8(3)])
def test_integer_rule_returns_an_int(v):
    got = _integer("n", v, 3)
    assert got == 3 and type(got) is int


@pytest.mark.parametrize("v", [True, np.True_, 2.0, np.float64(2.0), "2",
                               None])
def test_integer_rule_rejects_what_is_not_an_integer(v):
    with pytest.raises(ParamError) as err:
        _integer("n", v, 1)
    assert str(err.value) == f"n must be an integer, got {v!r}"


def test_integer_rule_names_its_bound():
    with pytest.raises(ParamError, match=r"^n must be >= 1, got 0$"):
        _integer("n", np.int64(0), 1)


@pytest.mark.parametrize("v", [0.5, 1, np.float32(0.5), np.int8(1)])
def test_real_rule_accepts_finite_reals(v):
    _real("x", v, "lie in (0, 1]", lambda x: 0 < x <= 1)


@pytest.mark.parametrize("v", [True, np.True_, "0.5", None, 0.5j, math.nan,
                               math.inf, np.float64(-math.inf), 0.0, 2])
def test_real_rule_rejects(v):
    with pytest.raises(ParamError) as err:
        _real("x", v, "lie in (0, 1]", lambda x: 0 < x <= 1)
    assert str(err.value) == f"x must lie in (0, 1], got {v!r}"


_CODE = make_ldpc(20, 8, 1)
_SWEEP = SweepSpec(base=SystemParams(), field_name="rho", grid=(0.3,),
                   n_draws=100)


@pytest.mark.parametrize("call, name", [
    # seeds that are not integers, which ran as the integer below them
    (lambda: theorem1_bounds(SystemParams(), 100, 2.5), "seed"),
    (lambda: subseed(2.9, "x"), "seed"),
    (lambda: run_digital_episode(BscParams(), 3.7), "seed"),
    (lambda: simulate_episode(SystemParams(), [2.5, 3]), "seed"),
    (lambda: simulate_episode(SystemParams(), 2.5), "seed"),
    (lambda: run_oracle_suite(SystemParams(), 1.5), "seed"),
    # bools and floats where a count or a real is wanted
    (lambda: reconcile_plan(BscParams(), efficiency=True), "efficiency"),
    (lambda: reconcile_plan(BscParams(), safety_margin=None),
     "safety_margin"),
    (lambda: run_oracle_suite(SystemParams(), 0, True), "n_realizations"),
    (lambda: run_sweep(_SWEEP, workers=1.5), "workers"),
    (lambda: theorem1_bounds(SystemParams(), n_draws=True), "n_draws"),
    (lambda: run_rates(SystemParams(), 2.5), "n_draws"),
    (lambda: decode_syndrome(_CODE, np.zeros(8, np.uint8), "0.1"),
     "decoder prior"),
    (lambda: hexdump(b"abc", -1), "width"),
    (lambda: hexdump(b"abc", 0), "width"),
], ids=["theorem1-seed", "subseed-seed", "digital-seed", "batch-seed",
        "episode-seed", "oracle-seed", "efficiency", "safety_margin",
        "n_realizations", "workers", "theorem1-n_draws", "rates-n_draws",
        "prior", "width-negative", "width-zero"])
def test_bad_argument_raises_param_error_naming_it(call, name):
    with pytest.raises(ParamError) as err:
        call()
    assert str(err.value).startswith(f"{name} must ")
