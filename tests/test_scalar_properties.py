"""Property tests of Scalar over coefficient dicts on all 16 divisors.

derandomize=True fixes the examples, so the suite is deterministic and
its cost is the same on every run.
"""

from hypothesis import given, settings, strategies as st

from edsx._kernel import DIVISORS
from edsx.scalar import Scalar

PROPERTY = settings(derandomize=True, database=None, max_examples=150,
                    deadline=None)

coefficients = st.fractions(min_value=-60, max_value=60, max_denominator=30)


@st.composite
def scalars(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(DIVISORS), coefficients,
                                  max_size=16))
    out = Scalar.of(0)
    for d, q in coeffs.items():
        out = out + Scalar.of(q) * (Scalar.sqrt(d) if d != 1 else 1)
    return out


nonzero_scalars = scalars().filter(bool)


@PROPERTY
@given(scalars())
def test_text_form_parses_back(s):
    assert Scalar.parse(str(s)) == s


@PROPERTY
@given(nonzero_scalars)
def test_times_inverse_is_one(s):
    assert s * s.inverse() == 1


@PROPERTY
@given(scalars(), nonzero_scalars)
def test_quotient_times_divisor(a, b):
    assert (a / b) * b == a
