"""Golden outputs: sha256 digests of what a light `widthlab width` run
writes for both sweepout fixtures, and of the seed-0 reports of three
certificate suites.

The digests pin the bytes that numpy 2.4.x, as installed with the package,
gives; another numpy may round differently and fail here without any fault
in the code.  A change that is meant to keep every output, such as a speed
change, must pass as it is.  A change that alters outputs on purpose updates
the digests here and says so, with the reason, in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from widthlab import certlab, cli

LIGHT_CONFIG = "dmap.n = 65\nsweepout.n_slices = 8\nsweepout.max_iters = 1\n"
WIDTH_FILES = ("width-iterations.csv", "solves.csv", "width-summary.json",
               "tightened.sweepout")

# fixture -> (exit code, digest of each of WIDTH_FILES); the perturbed
# fixture is still 5% over 4 pi after one iteration, so its run exits 2
WIDTH_DIGESTS = {
    "latitude-s3": (0, (
        "ca380234fe8ca8d51f2267e67b77e13efa0767301d9d3a3fe394e26051ce348c",
        "eb8f4e368323a1bbad0239a83d91dc93460f014cb2b58549f0528ffbd5f93fd4",
        "4a6c7e2f605986eaafe79921eecfe3bce5aae97d59a8b724f21004b29175f7c8",
        "aa43a96af8fd21706df232adeacb44aca5c03a6d5c16b590e6c1f473a73f7825")),
    "perturbed-latitude-s3": (2, (
        "2fe8fe104f1d2db6aed5fa28aa920be11d3d4498e909286af1716e772a547aca",
        "20fa4a1e6770f9b2b87566548aa2b5738b424a608fe86cb9a1e0488cb1758210",
        "2a5d3156bd3bdc09a6aa349f77f3466c06dfeb9f0743f2849adf3f74dbca720e",
        "f8e87e8457641b51038f9d26a170712bdd0d245c5f471a068002c5ee2ea3ca3c")),
}

# suite -> digest of its seed-0 `CertificateReport.to_json()`
SUITE_DIGESTS = {
    "convexity": "9c25b82dce1178ed6d98d553933460238d5da177c8592b37f6c36f6998be27fe",
    "harmonic-hardy": "5e3f03977d69b1efe86ccec4b637d24a1b93477413cc2aaf4992fa7b396f434e",
    "theta-decay": "d912218d8e4408ceed15a50cbbdf30ed8f7e113cccf1e55c7e3a694b31305e22",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_the_digests_are_for_the_installed_numpy():
    assert np.__version__.startswith("2.4."), np.__version__


@pytest.mark.parametrize("fixture", sorted(WIDTH_DIGESTS))
def test_light_width_run_writes_the_golden_bytes(tmp_path, fixture):
    cfgfile = tmp_path / "light.cfg"
    cfgfile.write_text(LIGHT_CONFIG)
    out = tmp_path / "w"
    code = cli.main(["width", "--fixture", fixture, "--config", str(cfgfile),
                     "--out", str(out)])
    got = tuple(_sha256((out / name).read_bytes()) for name in WIDTH_FILES)
    assert (code, dict(zip(WIDTH_FILES, got))) == \
        (WIDTH_DIGESTS[fixture][0], dict(zip(WIDTH_FILES, WIDTH_DIGESTS[fixture][1])))


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_suite_report_is_the_golden_report(suite):
    report = certlab.SUITES[suite](seed=0)
    assert _sha256(report.to_json().encode()) == SUITE_DIGESTS[suite]
