"""The deprecated ``parallel=``/``workers=`` facade knobs.

The process-pool search is gone; the facade still accepts both knobs
for API version 1 and ignores them.  Passing them must not loosen any
guarantee of the one remaining search path.
"""

import pytest

from repro import api
from repro.exceptions import OptimalityError
from repro.families.mesh import out_mesh_dag


def test_parallel_budget_still_enforced():
    with pytest.warns(DeprecationWarning, match="parallel"):
        with pytest.raises(OptimalityError, match="state budget"):
            api.verify(out_mesh_dag(10), state_budget=5, parallel=True,
                       workers=2, cache=False)
