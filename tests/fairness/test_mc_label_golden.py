"""Cross-commit pins for Monte-Carlo label bytes.

The backend tests compare ``vectorized`` and remote labels with
``serial`` in the same run, so a change to a kernel the backends share
(score accumulation, top-k membership, tie-breaking) moves every side
together and passes.  These sha256 digests of ``render_json`` were
recorded before the per-attribute kernel stopped sorting and must not
move: a change that alters them changes the published label.
``test_fair_star_golden.py`` pins the non-MC labels the same way.
"""

import hashlib

import pytest

from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.worker import make_worker
from repro.datasets.compas import compas
from repro.datasets.csdepts import cs_departments
from repro.engine.backends import SerialTrialBackend, VectorizedTrialBackend
from repro.engine.jobs import LabelDesign
from repro.label.render_json import render_json

# (weights, k, seed, sha256 of the rendered label JSON): COMPAS MC30,
# sensitive sex, vectorized backend
COMPAS_MC = [
    ({"priors_count": 0.5, "decile_score": 0.3, "age": 0.2}, 25, 11,
     "b8a0aa23d405306b4be6e2e7a306e21d69edef73b17ffb65246eac93823f902f"),
    ({"priors_count": 0.2, "decile_score": 0.6, "age": 0.2}, 50, 22,
     "dfbdd0682aa7785a5791403992c44a9e3c038e37cc1c2528eeb28b81a3aa5b91"),
    ({"priors_count": 0.35, "decile_score": 0.25, "age": 0.4}, 100, 33,
     "6082dcb327bdcc13dddec334cc1bc49078190ebe2c2c87bf5ad303dd43165d27"),
]

# the Figure-1 cs-departments recipe with MC30, recorded on ``serial``
DEPTS_MC = LabelDesign.create(
    weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    sensitive=["DeptSizeBin"],
    diversity=["DeptSizeBin", "Region"],
    id_column="DeptName",
    k=10,
    monte_carlo_trials=30,
    seed=44,
)
DEPTS_MC_DIGEST = "6fc73797e7c52c1ec7b2511768f3238b0a7096f84f3fafb05d776f770be0fa89"


def _digest(design, table, dataset_name, backend) -> str:
    builder = design.builder_for(table, dataset_name=dataset_name)
    label = builder.with_trial_backend(backend).build().label
    return hashlib.sha256(render_json(label).encode()).hexdigest()


@pytest.mark.parametrize(
    "weights,k,seed,digest", COMPAS_MC, ids=["k25", "k50", "k100"]
)
def test_compas_mc_label_bytes_are_pinned(weights, k, seed, digest):
    design = LabelDesign.create(
        weights=weights,
        sensitive=["sex"],
        diversity=["race", "sex"],
        id_column="defendant_id",
        k=k,
        monte_carlo_trials=30,
        seed=seed,
    )
    assert _digest(design, compas(), "COMPAS", VectorizedTrialBackend()) == digest


@pytest.mark.parametrize("backend_name", ["serial", "vectorized"])
def test_cs_departments_mc_label_bytes_are_pinned(backend_name):
    backend = {
        "serial": SerialTrialBackend,
        "vectorized": VectorizedTrialBackend,
    }[backend_name]()
    digest = _digest(DEPTS_MC, cs_departments(), "CS departments", backend)
    assert digest == DEPTS_MC_DIGEST


def test_cs_departments_mc_label_bytes_are_pinned_on_remote_workers():
    with make_worker() as one, make_worker() as two:
        backend = RemoteTrialBackend([one.address, two.address])
        try:
            digest = _digest(DEPTS_MC, cs_departments(), "CS departments", backend)
            stats = backend.stats()
        finally:
            backend.shutdown()
    assert stats["chunks_remote"] > 0
    assert digest == DEPTS_MC_DIGEST
