import os

import lightdet

from helpers import count_defaulted_params

# A parameter that no caller passes is an option nobody uses. A change that
# needs a new defaulted parameter raises this number and names the caller.
MAX_DEFAULTED_PARAMS = 109


def test_defaulted_parameters_do_not_grow():
    n = count_defaulted_params(os.path.dirname(lightdet.__file__))
    assert n <= MAX_DEFAULTED_PARAMS, (
        f"src/lightdet has {n} defaulted parameters, above {MAX_DEFAULTED_PARAMS}")
