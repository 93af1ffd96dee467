import math

import numpy as np
import pytest

from sphwhittle import ConfigError, NonFiniteValue, NonPositiveAmplitude, SearchBox
from sphwhittle._files import from_json, reading_config, write_csv, write_json


class TestReadingConfig:
    @pytest.mark.parametrize(
        "exc, message",
        [
            (KeyError("seed"), "demo config missing key 'seed'"),
            (TypeError("t"), "bad demo config: t"),
            (ValueError("v"), "bad demo config: v"),
            (ZeroDivisionError("z"), "bad demo config: z"),
            (AttributeError("a"), "bad demo config: a"),
        ],
    )
    def test_maps_to_config_error(self, exc, message):
        with pytest.raises(ConfigError) as info:
            with reading_config("demo config"):
                raise exc
        assert str(info.value) == message
        assert info.value.__cause__ is exc

    @pytest.mark.parametrize(
        "exc", [ConfigError("c"), NonPositiveAmplitude("n"), NonFiniteValue("f")]
    )
    def test_package_errors_pass_unchanged(self, exc):
        with pytest.raises(type(exc)) as info:
            with reading_config("demo config"):
                raise exc
        assert info.value is exc


def test_write_csv_formats_floats_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"], [(np.float64(0.1), 3, "ok", 2.0)])
    assert path.read_bytes() == b"a,b,c,d\n0.1,3,ok,2.0\n"


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_write_json_refuses_non_finite(tmp_path, value):
    # RFC 8259 JSON has no NaN or Infinity
    with pytest.raises(ValueError):
        write_json(tmp_path / "t.json", {"x": value})


def test_from_json_defaults():
    assert from_json(SearchBox, {}) == SearchBox()
    assert from_json(SearchBox, {"tol": 1}) == SearchBox(tol=1.0)


def test_from_json_rejects_unknown_keys():
    # a misspelt field must not run as its default
    with pytest.raises(TypeError, match="alpha_mn"):
        from_json(SearchBox, {"alpha_mn": 4.0})
    with pytest.raises(ConfigError, match="alpha_mn"):
        with reading_config("search box"):
            from_json(SearchBox, {"alpha_mn": 4.0, "tol": 1e-6})
