import platform

import numpy as np
import pytest

from seqsteer import build_table
from util import TABLE_CASES, table_key


@pytest.fixture(scope="session")
def tables():
    """All eight threshold ladders, built once for the whole run."""
    return {
        table_key(state, scenario, ineq): build_table(scenario, ineq, state)
        for state, scenario, ineq in TABLE_CASES
    }


def pytest_report_header(config):
    """The interpreter, numpy and BLAS running, beside those the bit pins
    (the goldens, FROZEN_* values and *_bits.json files) were recorded
    on; outcome_table's padding keeps the bits of that BLAS's kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas['name']} {blas['version']}; bit pins recorded on python 3.11.7, "
        "numpy 2.4.6, scipy-openblas 0.3.31.188.0"
    )
