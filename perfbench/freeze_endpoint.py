"""Regenerate the frozen input of the labyrinth_step workload.

Runs `minflux run` on prescribe_flux(catenoid, (0, 0, 4 pi)) with 16 time
samples and keeps its family_coefficients.json as stored_endpoint.json,
with the flux of the loaded t = 1 member recorded beside it.  The
benchmark loads the file through cli.load_family, as the CLI does for
initial.coefficients, so later driver changes cannot move this input.

Run from the repository root:  python3 perfbench/freeze_endpoint.py
"""

from __future__ import annotations

import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from minflux import cli  # noqa: E402

CONFIG = f"""\
[initial]
catalog = catenoid

[driver]
name = prescribe_flux
target_flux = 0 0 {4 * math.pi!r}

[run]
t_samples = 16
"""


def main():
    out = Path(tempfile.mkdtemp(dir=HERE.parent))
    try:
        config = out / "config.ini"
        config.write_text(CONFIG)
        err = io.StringIO()
        code = cli.main(["run", "--config", str(config), "--out", str(out)],
                        stderr=err)
        if code != 0:
            sys.exit(f"minflux run exited {code}: {err.getvalue()}")
        shutil.copyfile(out / "family_coefficients.json",
                        HERE / "stored_endpoint.json")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    fam = cli.load_family(HERE / "stored_endpoint.json")
    provenance = {
        "source": "minflux run, prescribe_flux(catenoid, (0, 0, 4 pi)), "
                  "t_samples 16, seed 7; member t = 1 is the input",
        "config": CONFIG,
        "flux": [float(v) for v in fam.flux_trace[-1]],
    }
    (HERE / "stored_endpoint_provenance.json").write_text(
        json.dumps(provenance, indent=1) + "\n"
    )


if __name__ == "__main__":
    main()
