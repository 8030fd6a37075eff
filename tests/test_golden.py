"""Golden output digests: the exact bits of ic, r_hat and the sweep CSVs.

The reference values in ``golden.json`` are keyed by numpy version and CPU
architecture, since FFT rounding may differ between them. They pin ``float.hex``
of ic and r_hat for single trials in both image modes, the SHA-256 of a small
sweep's CSV data rows (``#`` header lines left out) and the SHA-256 of the
image files of one ``--export-image`` run, the same in both image modes, so
any change that moves an output bit fails here. To add an entry for a new environment, run this file as a script
on a commit whose outputs are trusted; it prints the entry to paste into
``golden.json``, and on stderr, for each pinned ic or r_hat that differs from
the entry already there, the old hex, the new hex and their distance in ulp.
"""

import contextlib
import hashlib
import io
import json
import platform
import struct
import sys
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
FULL_TRIALS = [(270.0, 30.0, 1.0, 1), (300.0, 10.0, 0.2, 1), (270.0, 20.0, 0.5, 2)]

SWEEP = harness.SweepSpec(rho_f=(0.2,), speeds=(20.0,), headings=(270.0, 300.0), n_mc=2)
SWEEP_SEED = 1
CSV_FILES = ("ic_mean_vs_rhof.csv", "rmse_vs_rhof.csv", "trials.csv")
EXPORT_CONFIG = "heading_deg = 300\nspeed = 10\nrho_f = 0.2\n"
EXPORT_FILES = ("image.pgm", "image.csv")


def env_key() -> str:
    return f"numpy-{np.__version__}-{platform.machine()}"


def trial_id(heading, speed, rho, seed) -> str:
    return f"{heading:g}/{speed:g}/{rho:g}/seed{seed}"


def trial_hex(heading, speed, rho, seed, mode="windowed") -> list[str]:
    cfg = harness.load_run_config(
        overrides={"heading_deg": heading, "speed": speed, "rho_f": rho, "image_mode": mode}
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


def export_digests(out_dir: Path, mode: str = "windowed") -> dict:
    """SHA-256 of the files written by one single-trial --export-image run."""
    cfg = out_dir / "export.cfg"
    cfg.write_text(EXPORT_CONFIG)
    argv = ["--config", str(cfg), "--seed", "1", "--out", str(out_dir), "--export-image",
            "--image-mode", mode]
    with contextlib.redirect_stdout(io.StringIO()):
        assert harness.main(argv) == 0
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in EXPORT_FILES}


def ulp_distance(old: str, new: str) -> int:
    """Number of representable doubles between two float.hex strings."""

    def ordered(h):
        bits = struct.unpack("<q", struct.pack("<d", float.fromhex(h)))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordered(new) - ordered(old))


def report_moved(old: dict, new: dict, out=sys.stderr) -> None:
    """One line per pinned ic or r_hat of ``new`` that differs from ``old``."""
    for kind in ("trials", "full_trials"):
        for key, hexes in new[kind].items():
            before = old.get(kind, {}).get(key)
            for name, a, b in zip(("ic", "r_hat"), before or (), hexes):
                if a != b:
                    print(f"{kind} {key} {name}: {a} -> {b} ({ulp_distance(a, b)} ulp)",
                          file=out)


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


@pytest.mark.parametrize("point", FULL_TRIALS, ids=[trial_id(*p) for p in FULL_TRIALS])
def test_full_mode_trial_bits(golden, point):
    assert trial_hex(*point, mode="full") == golden["full_trials"][trial_id(*point)]


@pytest.mark.parametrize("mode", ["windowed", "full"])
def test_export_files(golden, tmp_path, mode):
    """Both image modes hold every crop row, so they export the same bytes."""
    assert export_digests(tmp_path, mode) == golden["export_sha256"]


def test_ulp_distance():
    one_up = np.nextafter(1.0, 2.0)
    assert ulp_distance((1.0).hex(), float(one_up).hex()) == 1
    assert ulp_distance(float(np.nextafter(one_up, 2.0)).hex(), (1.0).hex()) == 2
    assert ulp_distance((-0.0).hex(), (5e-324).hex()) == 1
    assert ulp_distance((-5e-324).hex(), (5e-324).hex()) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_csv_rows(golden, tmp_path, workers):
    assert sweep_digest(tmp_path, workers) == golden["sweep_csv_sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {sweep_digest(Path(tmp) / f"w{w}", w) for w in (1, 2)}
        exports = export_digests(Path(tmp))
    if len(digests) != 1:
        raise SystemExit("sweep CSVs differ between 1 and 2 workers")
    entry = {
        "trials": {trial_id(*p): trial_hex(*p) for p in TRIALS},
        "full_trials": {trial_id(*p): trial_hex(*p, mode="full") for p in FULL_TRIALS},
        "sweep_csv_sha256": digests.pop(),
        "export_sha256": exports,
    }
    report_moved(json.loads(GOLDEN.read_text()).get(env_key(), {}), entry)
    print(json.dumps({env_key(): entry}, indent=2))
