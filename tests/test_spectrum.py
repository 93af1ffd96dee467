import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sphwhittle import (
    AsymptoticParams,
    ExactPowerLaw,
    KappaPerturbed,
    NoiseModel,
    OutOfRange,
    Rational,
    Tabulated,
    Unsupported,
    asymptotic_params,
    model_from_dict,
    model_to_dict,
    noise_from_dict,
    noise_values,
    spectrum_values,
)
from sphwhittle._files import to_json
from sphwhittle.errors import ConfigError


class TestSpectrumValue:
    def test_power_law_at_one(self):
        assert spectrum_values(ExactPowerLaw(2.0, 3.0), 1)[0] == 2.0

    def test_power_law_at_two(self):
        assert spectrum_values(ExactPowerLaw(2.0, 3.0), 2)[1] == pytest.approx(0.25, rel=1e-14)

    def test_rational_direct(self):
        m = Rational(p=(1.0, 1.0), q=(1.0, 0.0), alpha0=3.0)
        assert spectrum_values(m, 10)[9] == pytest.approx(1.1e-3, rel=1e-12)

    def test_tabulated_lookup_and_out_of_range(self):
        m = Tabulated(values=(1.0, 0.5, 0.25))
        assert spectrum_values(m, 3)[2] == 0.25
        with pytest.raises(OutOfRange):
            spectrum_values(m, 4)

    def test_values_are_shared_read_only(self):
        # the cached arrays hold what the model's formula gives, bit for bit
        for m, l_max in ((ExactPowerLaw(2.0, 3.0), 500), (NoiseModel(1.0, 2.2), 10**5 + 1)):
            a = spectrum_values(m, l_max)
            b = spectrum_values(m, l_max)
            assert not a.flags.writeable
            assert (a is b) == (l_max <= 10**5)
            expected = m.values_at(np.arange(1, l_max + 1, dtype=float))
            assert a.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            spectrum_values(ExactPowerLaw(2.0, 3.0), 0)

    def test_values_match_scalar(self):
        for m in (
            ExactPowerLaw(2.0, 3.0),
            KappaPerturbed(2.0, 3.0, kappa=1.0),
            Rational(p=(2.0, -1.9, 0.5), q=(1.0, 0.0, 0.1), alpha0=3.0),
            Tabulated(values=tuple(1.0 / l**2.5 for l in range(1, 51))),
        ):
            vals = spectrum_values(m, 50)
            assert vals.shape == (50,)

    def test_all_values_positive(self):
        for m in (
            ExactPowerLaw(0.3, 4.0),
            KappaPerturbed(1.0, 3.0, kappa=-0.99),
            Rational(p=(2.0, -1.9, 0.5), q=(1.0, 0.0, 0.1), alpha0=3.0),
        ):
            assert (spectrum_values(m, 2000) > 0).all()


class TestModelValidation:
    def test_power_law_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            ExactPowerLaw(0.0, 3.0)
        with pytest.raises(ValueError):
            ExactPowerLaw(-1.0, 3.0)

    def test_kappa_must_exceed_minus_one(self):
        with pytest.raises(ValueError):
            KappaPerturbed(1.0, 3.0, kappa=-1.0)
        KappaPerturbed(1.0, 3.0, kappa=-0.999)

    def test_rational_leading_coefficients_positive(self):
        with pytest.raises(ValueError):
            Rational(p=(-1.0, 1.0), q=(1.0, 0.0), alpha0=3.0)
        with pytest.raises(ValueError):
            Rational(p=(1.0, 1.0), q=(0.0, 1.0), alpha0=3.0)

    def test_rational_positivity_over_range(self):
        # numerator 2l - 9 is negative for l <= 4
        with pytest.raises(ValueError):
            Rational(p=(2.0, -9.0), q=(1.0, 0.0), alpha0=3.0)

    def test_tabulated_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            Tabulated(values=(1.0, 0.0))
        with pytest.raises(ValueError):
            Tabulated(values=())


class TestAsymptoticParams:
    def test_power_law(self):
        assert asymptotic_params(ExactPowerLaw(2.0, 3.0)) == AsymptoticParams(2.0, 3.0, 0.0)

    def test_rational_kappa_one(self):
        p = asymptotic_params(Rational(p=(3.0, 6.0, 0.0), q=(1.0, 1.0, 1.0), alpha0=4.0))
        assert p.g0 == pytest.approx(3.0)
        assert p.kappa == pytest.approx(1.0)

    def test_rational_kappa_zero(self):
        p = asymptotic_params(Rational(p=(2.0, 2.0, 0.0), q=(1.0, 1.0, 0.0), alpha0=3.0))
        assert p.kappa == pytest.approx(0.0)

    def test_tabulated_unsupported(self):
        with pytest.raises(Unsupported):
            asymptotic_params(Tabulated(values=(1.0, 0.5)))


class TestNoise:
    def test_values(self):
        assert noise_values(NoiseModel(1.0, 2.5), 4)[0] == 1.0
        assert noise_values(NoiseModel(1.0, 2.5), 4)[3] == pytest.approx(0.03125, rel=1e-13)
        assert noise_values(NoiseModel(0.5, 3.0), 10)[9] == pytest.approx(5e-4, rel=1e-13)

    def test_vector_matches_scalar(self):
        vals = noise_values(NoiseModel(0.7, 2.2), 30)
        assert vals.shape == (30,)
        assert not vals.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0, 2.5)
        with pytest.raises(ValueError):
            NoiseModel(1.0, 0.0)


class TestEnvelopeAndPerturbation:
    def test_power_law_envelope(self):
        # C_l l^alpha0 stays between computable constants for each variant
        ls = np.unique(np.geomspace(1, 1e5, 200).astype(int))
        m = KappaPerturbed(2.0, 3.0, kappa=-0.5)
        ratios = spectrum_values(m, int(ls[-1]))[ls - 1] * ls.astype(float) ** 3.0
        assert (ratios >= 2.0 * 0.5 - 1e-12).all()
        assert (ratios <= 2.0 + 1e-12).all()

    def test_kappa_first_order_exact(self):
        m = KappaPerturbed(2.0, 3.0, kappa=0.7)
        for l in (1, 3, 10, 1000, 10**5):
            lhs = l * (spectrum_values(m, l)[l - 1] * float(l) ** 3.0 / 2.0 - 1.0)
            assert lhs == pytest.approx(0.7, rel=1e-9)

    def test_rational_first_order_limit(self):
        m = Rational(p=(3.0, 6.0, 0.0), q=(1.0, 1.0, 1.0), alpha0=4.0)
        kappa = asymptotic_params(m).kappa
        l = 10**6
        lhs = l * (spectrum_values(m, l)[l - 1] * float(l) ** 4.0 / 3.0 - 1.0)
        # remaining error is the second-order term, of size ~ const/l
        assert abs(lhs - kappa) < 10 * 10 / l


@given(
    g0=st.floats(0.01, 100.0),
    alpha0=st.floats(0.1, 8.0),
    l=st.integers(1, 10**5),
)
def test_power_law_scaling_property(g0, alpha0, l):
    m = ExactPowerLaw(g0, alpha0)
    expected = g0 * math.exp(-alpha0 * math.log(l))
    assert spectrum_values(m, l)[l - 1] == pytest.approx(expected, rel=1e-12)


class TestDictRoundTrip:
    @pytest.mark.parametrize(
        "model, form",
        [
            (ExactPowerLaw(2.0, 3.0), {"type": "power_law", "g0": 2.0, "alpha0": 3.0}),
            (
                KappaPerturbed(2.0, 3.0, kappa=1.0),
                {"type": "kappa", "g0": 2.0, "alpha0": 3.0, "kappa": 1.0},
            ),
            (
                Rational(p=(3.0, 6.0, 0.0), q=(1.0, 1.0, 1.0), alpha0=4.0),
                {"type": "rational", "p": [3.0, 6.0, 0.0], "q": [1.0, 1.0, 1.0], "alpha0": 4.0},
            ),
            (
                Tabulated(values=(2.0, 0.25, 2.0 * 3.0**-3.0)),
                {"type": "table", "values": [2.0, 0.25, 2.0 * 3.0**-3.0]},
            ),
        ],
        ids=["model0", "model1", "model2", "model3"],
    )
    def test_round_trip(self, model, form):
        assert model_from_dict(model_to_dict(model)) == model
        # the string comparison also fixes the key order artifacts carry
        assert json.dumps(model_to_dict(model)) == json.dumps(form)

    def test_noise_round_trip(self):
        n = NoiseModel(1.0, 2.5)
        assert noise_from_dict(to_json(n)) == n
        assert json.dumps(to_json(n)) == json.dumps({"g_n": 1.0, "gamma": 2.5})

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError):
            model_from_dict({"type": "mystery"})
        with pytest.raises(ConfigError):
            model_from_dict({"type": "power_law", "g0": 2.0})
