"""Golden output digests: the exact bits of ic, r_hat and the sweep CSVs.

The reference values in ``golden.json`` are keyed by numpy version and CPU
architecture, since FFT rounding may differ between them. They pin ``float.hex``
of ic and r_hat for single trials and the SHA-256 of a small sweep's CSV data
rows (``#`` header lines left out), so any change that moves an output bit
fails here. To add an entry for a new environment, run this file as a script
on a commit whose outputs are trusted; it prints the entry to paste into
``golden.json``.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from ivasim import harness, scenario

HERE = Path(__file__).parent
GOLDEN = HERE / "golden.json"
DEFAULT_CFG = HERE.parent / "configs" / "default.cfg"

# (heading, speed, rho_f, seed) of each pinned trial
TRIALS = [
    (h, v, rho, seed)
    for h, v, rho in ((270.0, 30.0, 0.2), (300.0, 10.0, 0.2), (270.0, 20.0, 0.5))
    for seed in (1, 2)
] + [(270.0, 30.0, 1.0, 1)]

SWEEP = harness.SweepSpec(rho_f=(0.2,), speeds=(20.0,), headings=(270.0, 300.0), n_mc=2)
SWEEP_SEED = 1
CSV_FILES = ("ic_mean_vs_rhof.csv", "rmse_vs_rhof.csv", "trials.csv")


def env_key() -> str:
    return f"numpy-{np.__version__}-{platform.machine()}"


def trial_id(heading, speed, rho, seed) -> str:
    return f"{heading:g}/{speed:g}/{rho:g}/seed{seed}"


def trial_hex(heading, speed, rho, seed) -> list[str]:
    cfg = harness.load_run_config(
        overrides={"heading_deg": heading, "speed": speed, "rho_f": rho}
    )
    report = harness.run_trial(cfg, harness.trial_seed(seed, 0, 0))
    return [float(report.ic).hex(), float(report.centroid_range_est).hex()]


def sweep_digest(out_dir: Path, workers: int) -> str:
    harness.run_sweep(
        scenario.parse_config_file(str(DEFAULT_CFG)), SWEEP, SWEEP_SEED, str(out_dir),
        workers=workers, trials_csv=True,
    )
    h = hashlib.sha256()
    for name in CSV_FILES:
        h.update(f"{name}\n".encode())
        with open(out_dir / name, encoding="utf-8") as fh:
            for line in fh:
                if not line.startswith("#"):
                    h.update(line.encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    entries = json.loads(GOLDEN.read_text())
    if env_key() not in entries:
        pytest.fail(
            f"no golden digests for numpy {np.__version__} on {platform.machine()} "
            f"(key {env_key()!r}); generate them with 'python tests/test_golden.py' "
            "on a trusted commit"
        )
    return entries[env_key()]


@pytest.mark.parametrize("point", TRIALS, ids=[trial_id(*p) for p in TRIALS])
def test_trial_bits(golden, point):
    assert trial_hex(*point) == golden["trials"][trial_id(*point)]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_csv_rows(golden, tmp_path, workers):
    assert sweep_digest(tmp_path, workers) == golden["sweep_csv_sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {sweep_digest(Path(tmp) / f"w{w}", w) for w in (1, 2)}
    if len(digests) != 1:
        raise SystemExit("sweep CSVs differ between 1 and 2 workers")
    entry = {
        "trials": {trial_id(*p): trial_hex(*p) for p in TRIALS},
        "sweep_csv_sha256": digests.pop(),
    }
    print(json.dumps({env_key(): entry}, indent=2))
