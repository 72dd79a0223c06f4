"""Session fixtures and the report header of the test suite.

The bit pins of the suite are of three kinds, and only the last depends on the BLAS.

- Ladder rows: the golden ladders (tests/golden/*.csv and *.json),
  FROZEN_LADDERS, reference/ladder_bits.json, the ladder half of the
  seeds 1-10 benchmark digests, and the CLI's pinned threshold and
  table outputs in bench/reference/cli_stdout.json, their JSON reprs
  and their 6-decimal csv and text cells alike. A ladder's bytes follow
  from its rows, and util.exact_ladder replays every row of the
  published, pinned and seeded ladders in exact rational arithmetic,
  sharing no numpy arithmetic with build_table; the threshold's from
  its x/y/z prefix at 0.627. Every bracket decision lies at least
  3.26e-8 from its root, so these pins hold on any BLAS whose rounding
  stays well below that; test_search checks both, and that no
  6-decimal cell lies within 1.5e-8 of flipping. The shrink law that
  the replay applies is proved from the model's Kraus operators, in
  exact arithmetic at every pin of the published ladders, by
  test_analytic.
- The CLI's pinned cascade and optimize value cells: the 6-decimal
  values of their csv and text outputs in
  bench/reference/cli_stdout.json. The cascade is an x/y/z chain, so
  util.exact_chain gives each value exactly, and the optimize value is
  util.exact_optimum's single observer on its optimal directions; each
  cell is its exact value rounded, at least 1.24e-7 from flipping;
  test_search checks both.
- Full float reprs of the channel and oracle arithmetic: the cascade
  values in the CLI's JSON output (bench/reference/cli_stdout.json),
  reference/oracle_bits.json and the oracle_audit digest. These keep
  the bits of the BLAS they were recorded on, named in the header
  below. The 4- and 6-decimal values that the demos print rest on the
  same arithmetic, rounded.
"""

import os
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
    """The interpreter, numpy and BLAS running, and the BLAS thread count
    asked for, beside those the bit pins (the goldens, FROZEN_* values
    and *_bits.json files) were recorded on; outcome_table's padding
    keeps the bits of that BLAS's kernel. The package's matmuls are
    small, so the suite's wall time depends on OPENBLAS_NUM_THREADS: with
    it unset they run on OpenBLAS's thread pool."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas['name']} {blas['version']} with OPENBLAS_NUM_THREADS={threads}; "
        "bit pins recorded on python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31.188.0"
    )
