import copy
import math
import pickle

import pytest

from keyhop.ratemodel import (
    DEFAULT_FAMILIES,
    RateParams,
    curves_csv,
    emit_curves,
    eta,
    is_virtually_null,
    max_range,
    max_range_tf,
    parse_rate_config,
    rate_p2p,
    rate_scheme,
    rate_tf,
)

PARAMS = RateParams.calibrated()


def test_transmittance_follows_fiber_loss():
    assert eta(0, PARAMS) == 1.0
    assert eta(50, PARAMS) == pytest.approx(10 ** (-0.2 * 50 / 10))
    with pytest.raises(ValueError):
        eta(-1, PARAMS)


def test_calibration_anchor_300km():
    assert rate_tf(300, PARAMS) == pytest.approx(1000.0)
    assert PARAMS.c_tf == pytest.approx(1e6)


def test_anchor_500km():
    assert rate_tf(500, PARAMS) == pytest.approx(10.0)


def test_anchor_600km_reaches_the_floor():
    assert rate_tf(600, PARAMS) == pytest.approx(1.0)
    assert is_virtually_null(rate_tf(600, PARAMS), PARAMS)
    assert not is_virtually_null(rate_tf(599, PARAMS), PARAMS)


def test_scheme_rate_is_the_single_link_rate_of_the_subdivided_span():
    for m in (2, 3, 5):
        for d in (120.0, 400.0, 900.0):
            assert rate_scheme(d, m, PARAMS) == pytest.approx(rate_tf(2 * d / (m + 1), PARAMS))


def test_scheme_anchors():
    assert rate_scheme(600, 2, PARAMS) == pytest.approx(100.0)
    assert rate_scheme(400, 2, PARAMS) == pytest.approx(1000.0 * 10 ** (1 / 3))


def test_sqrt_scaling_beats_linear_beyond_the_crossover():
    # one relay-measured link loses half the exponent of a direct link
    assert rate_tf(400, PARAMS) / rate_tf(300, PARAMS) == pytest.approx(10 ** (-1.0))
    assert rate_p2p(400, PARAMS) / rate_p2p(300, PARAMS) == pytest.approx(10 ** (-2.0))
    # the prefactor keeps direct links ahead only out to ~16 km
    assert rate_p2p(10, PARAMS) > rate_tf(10, PARAMS)
    assert rate_tf(100, PARAMS) > rate_p2p(100, PARAMS)
    assert rate_tf(500, PARAMS) > rate_p2p(500, PARAMS)


def test_more_intermediaries_extend_reach_by_half_a_link_each():
    base = max_range_tf(PARAMS)
    assert base == pytest.approx(600.0)
    for m in range(2, 7):
        assert max_range(m, PARAMS) == pytest.approx(base * (m + 1) / 2)
    with pytest.raises(ValueError):
        max_range(1, PARAMS)
    with pytest.raises(ValueError, match="at least 2 intermediaries"):
        rate_scheme(600, 1, PARAMS)


@pytest.mark.parametrize(
    "params", [RateParams(threshold_bps=2e6), RateParams(c_tf=1e-300)], ids=["threshold", "clock"]
)
def test_reach_is_zero_when_no_link_meets_the_threshold(params):
    # the closed form goes negative once c_tf falls below the threshold
    assert max_range_tf(params) == 0.0
    assert max_range(2, params) == 0.0


def test_rates_decrease_with_distance_and_increase_with_m():
    distances = [float(d) for d in range(0, 1501, 50)]
    rows = emit_curves(distances, DEFAULT_FAMILIES, PARAMS)
    by_family = {}
    for d, fam, rate in rows:
        by_family.setdefault(fam, []).append((d, rate))
    for fam, pts in by_family.items():
        rates = [r for _, r in pts]
        assert rates == sorted(rates, reverse=True), fam
    at_900 = {fam: rate for d, fam, rate in rows if d == 900.0}
    assert at_900["scheme(m=2)"] < at_900["scheme(m=4)"] < at_900["scheme(m=6)"]


def test_emit_curves_rejects_negative_distance_and_unknown_family():
    with pytest.raises(ValueError):
        emit_curves([-10.0], ["tf"], PARAMS)
    with pytest.raises(ValueError):
        emit_curves([10.0], ["warp"], PARAMS)


def test_curves_csv_layout():
    text = curves_csv(emit_curves([0.0, 100.0], ["p2p", "tf"], PARAMS))
    lines = text.splitlines()
    assert lines[0] == "distance_km,family,rate_bps"
    assert len(lines) == 5
    assert lines[1].startswith("0,p2p,")
    # family-major: both p2p rows precede the tf rows
    assert [ln.split(",")[1] for ln in lines[1:]] == ["p2p", "p2p", "tf", "tf"]


def test_csv_rates_round_trip_exactly():
    rows = emit_curves([123.0], ["tf"], PARAMS)
    line = curves_csv(rows).splitlines()[1]
    assert float(line.split(",")[2]) == rows[0][2]


def test_config_round_trip():
    text = "alpha_db_per_km = 0.17\nc_tf = 2500000.0\nc_p2p = 1.1e6\nthreshold_bps = 0.5\n"
    assert parse_rate_config(text) == RateParams(0.17, 2.5e6, 1.1e6, 0.5)


def test_config_with_alpha_only_recalibrates():
    params = parse_rate_config("alpha_db_per_km = 0.25\n")
    assert rate_tf(300, params) == pytest.approx(1000.0)
    assert params.alpha_db_per_km == 0.25
    assert params.c_tf != PARAMS.c_tf


@pytest.mark.parametrize(
    "text, c_tf, c_p2p",
    [
        ("", 1e6, 1e6),
        ("alpha_db_per_km = 0.3\n", 10**7.5, 10**7.5),  # both clocks calibrated at 0.3
        ("alpha_db_per_km = 0.3\nc_tf = 5e5\n", 5e5, 1e6),  # c_p2p keeps the 0.2 clock
    ],
    ids=["empty", "alpha", "alpha-and-c_tf"],
)
def test_config_clock_defaults(text, c_tf, c_p2p):
    params = parse_rate_config(text)
    assert (params.c_tf, params.c_p2p) == (pytest.approx(c_tf), pytest.approx(c_p2p))


def test_params_reject_nonpositive_values():
    with pytest.raises(ValueError):
        RateParams(0.0, 1e6, 1e6, 1.0)
    with pytest.raises(ValueError):
        RateParams(0.2, -1e6, 1e6, 1.0)
    with pytest.raises(ValueError):
        RateParams(0.2, 1e6, 1e6, 0.0)


@pytest.mark.parametrize("value", [0.0, -1e6, math.inf, math.nan])
@pytest.mark.parametrize("field", ["alpha_db_per_km", "c_tf", "c_p2p", "threshold_bps"])
def test_every_construction_checks_each_field(field, value):
    # by position, by keyword and through _replace, which parse_rate_config
    # and rate --threshold build with
    message = f"^{field} must be positive and finite$"
    values = [value if name == field else got for name, got in zip(PARAMS._fields, PARAMS)]
    for build in (
        lambda: RateParams(*values),
        lambda: RateParams(**{field: value}),
        lambda: PARAMS._replace(**{field: value}),
    ):
        with pytest.raises(ValueError, match=message):
            build()


def test_params_are_an_immutable_record():
    params = RateParams(0.17, 2.5e6, 1.1e6, 0.5)
    assert params == RateParams(alpha_db_per_km=0.17, c_tf=2.5e6, c_p2p=1.1e6, threshold_bps=0.5)
    assert repr(params) == (
        "RateParams(alpha_db_per_km=0.17, c_tf=2500000.0, c_p2p=1100000.0, threshold_bps=0.5)"
    )
    for twin in (pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params)):
        assert type(twin) is RateParams and twin == params
    with pytest.raises(AttributeError):
        params.c_tf = 1.0
    assert not hasattr(params, "__dict__")


def test_calibrated_params_put_the_anchor_at_300km():
    assert RateParams.calibrated() == RateParams() == RateParams(0.2, 1e6, 1e6, 1.0)
    params = RateParams.calibrated(0.3)
    assert params.alpha_db_per_km == 0.3 and params.threshold_bps == 1.0
    assert params.c_tf == params.c_p2p == pytest.approx(10**7.5)
    assert rate_tf(300, params) == pytest.approx(1000.0)
    for alpha in (0.0, -0.2):
        with pytest.raises(ValueError, match="^alpha_db_per_km must be positive$"):
            RateParams.calibrated(alpha)
    with pytest.raises(ValueError, match="^alpha_db_per_km 100 is too lossy to calibrate"):
        RateParams.calibrated(100.0)


def test_rate_at_zero_distance_is_the_clock():
    assert rate_tf(0.0, PARAMS) == PARAMS.c_tf
    assert rate_p2p(0.0, PARAMS) == pytest.approx(1.44 * PARAMS.c_p2p)
    assert math.isfinite(rate_scheme(0.0, 2, PARAMS))
