"""Golden firing programs: the acceptance gate for "same firings".

Every mappable committed 4x4 artifact is lowered (``lower_mapping``) and
folded onto every M <= pages_used (``retarget_firings`` — the 67 folds of
the ``fold_exec`` benchmark workload), then executed; a SHA-256 over the
``repr`` of the firing list and of the ``SimResult`` is compared with the
digest the parent of the schedule-template rewrite (commit 2503f71)
produced.  Any change to a firing's cycle, PE, label, operand, address or
global slot, to the order of the list, or to a simulator counter shows up
here as a digest mismatch.

``PYTHONPATH=src python tests/test_firing_golden.py`` prints the table
(regenerate only when a change is *meant* to alter firings).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.compiler.constraints import paged_bus_key
from repro.core.pagemaster import PageMaster
from repro.kernels import bind_memory, get_kernel, kernel_names
from repro.pipeline.compile import CompileJob, job_key
from repro.pipeline.store import ArtifactStore
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.retarget import required_batches, retarget_firings

REPO_STORE = Path(__file__).resolve().parents[1] / ".repro_artifacts"
TRIP = 32
SEED = 7


def digest(firings, result) -> str:
    h = hashlib.sha256(repr(firings).encode())
    h.update(repr(result).encode())
    return h.hexdigest()


def load_items():
    """(label, paged mapping, pages_used, arrays) of every mappable
    committed 4x4 artifact, in ``fold_exec`` order."""
    store = ArtifactStore(REPO_STORE)
    items = []
    for kernel in kernel_names():
        for page_size in (2, 4):
            artifact = store.get(job_key(CompileJob(kernel, 4, page_size)))
            if artifact is None or artifact.unmappable:
                continue
            dfg, arrays, _ = get_kernel(kernel).fresh(seed=SEED, trip=TRIP)
            items.append(
                (f"{kernel}/ps{page_size}", artifact.materialize(dfg),
                 artifact.pages_used, arrays)
            )
    return items


def fold(paged, m, memory, trip=TRIP, **keywords):
    placement = PageMaster(
        paged.layout.num_pages, paged.ii, m, wrap_used=paged.wrap_used
    ).place(batches=required_batches(paged.mapping, trip))
    return retarget_firings(
        paged, placement, list(range(m)), memory, trip, **keywords
    )


def run(paged, firings, memory):
    return simulate(
        firings, paged.mapping.cgra, memory, bus_key=paged_bus_key(paged.layout)
    )


def compute_digests() -> dict[str, str]:
    out = {}
    for label, paged, pages, arrays in load_items():
        memory = bind_memory(arrays)
        firings = lower_mapping(paged.mapping, memory, TRIP)
        out[f"{label}/lower"] = digest(firings, run(paged, firings, memory))
        for m in range(pages, 0, -1):
            memory = bind_memory(arrays)
            firings = fold(paged, m, memory)
            out[f"{label}@{m}"] = digest(firings, run(paged, firings, memory))
    out.update(keyword_digests())
    return out


def keyword_digests() -> dict[str, str]:
    """One kernel through every non-default keyword at once: arrays bound
    under a prefix, a late start, a resumed iteration stream (arrays sized
    for ``first + trip`` iterations keep every address in bounds), an
    rf_limit of 1 that forces the global-storage fallback, tagged slots."""
    first, trip = 5, 11
    spec = get_kernel("laplace")
    artifact = ArtifactStore(REPO_STORE).get(job_key(CompileJob("laplace", 4, 2)))
    dfg, arrays, _ = spec.fresh(seed=SEED, trip=first + trip)
    paged = artifact.materialize(dfg)
    prefixed = {"t1/" + name: a for name, a in arrays.items()}
    out = {}
    memory = bind_memory(prefixed)
    firings = lower_mapping(
        paged.mapping, memory, trip,
        array_prefix="t1/", start_cycle=37, first_iteration=first,
    )
    out["keywords/lower"] = digest(firings, run(paged, firings, memory))
    for m in range(artifact.pages_used, 0, -1):
        memory = bind_memory(prefixed)
        firings = fold(
            paged, m, memory, trip,
            rf_limit=1, array_prefix="t1/", start_cycle=37,
            first_iteration=first, firing_tag="t1",
        )
        out[f"keywords@{m}"] = digest(firings, run(paged, firings, memory))
    return out


#: digests computed at the parent commit (2503f71), before the rewrite; the
#: fft, gsr, sor and yuv2rgb ps2 entries re-pinned when the page plan was
#: anchored at page 0 (their artifacts moved on purpose), and the 22
#: multi-column folds whose pages change orientation re-pinned when a
#: page's orientation became relative to the tile it lands on
GOLDEN = {
    "mpeg/ps2/lower": "82b8b4fc3b0e03424f6077de4eac6dafcb4d0a4d14f09ec2bf52208a340220ca",
    "mpeg/ps2@8": "82b8b4fc3b0e03424f6077de4eac6dafcb4d0a4d14f09ec2bf52208a340220ca",
    "mpeg/ps2@7": "a0d1b6f42e6f36443fe97345a00216fc0c5fe0b6dd2601e3b6e7c1267efee11a",
    "mpeg/ps2@6": "1fc39d7b875c1fc42429a01fb2c70418bda2b57047990834d4a9cfa2f6365a84",
    "mpeg/ps2@5": "1963ec7c80fad8871f3aab22c8b82b43da6e31e406557c83d3c23b805c66018c",
    "mpeg/ps2@4": "aa1a475c3a764f366f768eda4393d3adcdc108694eeae05ca6d08f13749a277f",
    "mpeg/ps2@3": "44c2e41c1802d025bf3fc0cb14ef10e59d95ea6272e083c372421d3450c7547d",
    "mpeg/ps2@2": "dc2a9dc88af3f7099b60801861f3fd587c8ed2e7c466aba0aa38ce24955a2c48",
    "mpeg/ps2@1": "a36d6c1e279f3d4d76f589fe5ca7b29387052504c78eb1856835000bc2917f07",
    "mpeg/ps4/lower": "8bd74fce7b75417f6d1728b76dc92833f7c00d405b154343d9b975b8363b5566",
    "mpeg/ps4@3": "8bd74fce7b75417f6d1728b76dc92833f7c00d405b154343d9b975b8363b5566",
    "mpeg/ps4@2": "6c1f415c0514c03f70ca278999a902006bdd34fce3efee9c1d870b38de54a3bf",
    "mpeg/ps4@1": "5ab55fef91cf8fca6503abec12a1e35db4bdcac4ccdb371d797bb1564a442292",
    "yuv2rgb/ps2/lower": "065f60f2b4d182792bab2492643c24a0060128f7b6739b4fdbe3d9b1f2306175",
    "yuv2rgb/ps2@6": "065f60f2b4d182792bab2492643c24a0060128f7b6739b4fdbe3d9b1f2306175",
    "yuv2rgb/ps2@5": "763954167f7a935081dcced70e2f2ae95e25838428cddf3047e8c8673cd842a9",
    "yuv2rgb/ps2@4": "7fbc9b1627aadb27d413024d25349f336dbfbf9c84adbf561b0a63bd1cc9dc5b",
    "yuv2rgb/ps2@3": "70687cc27d83153eded14f550b9b8348b63c5f37bb6b2352157dc8355adb0452",
    "yuv2rgb/ps2@2": "64a3bb141b0ce35651c99692c8f980412186e9d48e4668c17c58f66b171dfe60",
    "yuv2rgb/ps2@1": "9b12cb948113ba3cdf5fe53cba35d03e3e279f500ef7d409ed812a074079eece",
    "yuv2rgb/ps4/lower": "e5c781457b92e06b900f28c482c7f5bf37712648c733fe36af3a651aa52a9f86",
    "yuv2rgb/ps4@2": "e5c781457b92e06b900f28c482c7f5bf37712648c733fe36af3a651aa52a9f86",
    "yuv2rgb/ps4@1": "eb0fb234694974a452b36c290a4f4f46503c286f798465cc997f02a947d2725e",
    "sor/ps2/lower": "449868292752afecb79acba37d7a23876907cb7e9e2d3632846dfba2e1ea453e",
    "sor/ps2@3": "449868292752afecb79acba37d7a23876907cb7e9e2d3632846dfba2e1ea453e",
    "sor/ps2@2": "a97b63e98058e4066a4ae4bea860df8877f5ab4aedea104355f30b34e7e225d8",
    "sor/ps2@1": "b6d84c69896d59231421f90f37e854a7773cb781a4e2edd4164c39d45d3affb2",
    "sor/ps4/lower": "450a480f0d9cf4f41a4e0a030fe622ff4dafb9f5a56e38375f5afc4c2c391881",
    "sor/ps4@1": "450a480f0d9cf4f41a4e0a030fe622ff4dafb9f5a56e38375f5afc4c2c391881",
    "compress/ps2/lower": "b9c41949557b8603dc5fc7e35f54413cc83b2aa0c71cb790b2ed7303936a8b5e",
    "compress/ps2@3": "b9c41949557b8603dc5fc7e35f54413cc83b2aa0c71cb790b2ed7303936a8b5e",
    "compress/ps2@2": "f472636d621a75c4fb3682b66a7f5805938341f834be9b0bd90a283f885bb3ab",
    "compress/ps2@1": "360d9c8f8ed115adf7418e96b7f642195fd357e83cb8c142695ff71526e2c01f",
    "compress/ps4/lower": "1e990b070467832b2e8e9c64ff84552b10b5f9393ac2bde4fd19dc57fcbbeb5a",
    "compress/ps4@1": "1e990b070467832b2e8e9c64ff84552b10b5f9393ac2bde4fd19dc57fcbbeb5a",
    "gsr/ps2/lower": "314c253f6b51689caed3f14a6318da85e3b2c0b70452d54f7e4a7bf6c86ce74f",
    "gsr/ps2@4": "314c253f6b51689caed3f14a6318da85e3b2c0b70452d54f7e4a7bf6c86ce74f",
    "gsr/ps2@3": "a5a17e7339c7323e611857a53e9af7613e6c4b96fff418b7cbbc44530084d0ea",
    "gsr/ps2@2": "4befa22777de86041739570cbcc8f62082136ce265397a7f8fee2c043b195a25",
    "gsr/ps2@1": "20cfa99d7a58487a2877f2f02f61086ac4be8179f4a7817299332bba86c6da94",
    "gsr/ps4/lower": "b90232ae893a03754e91f44ac45d0ae8f8d1d78e0e79a3144b826cd99b32595d",
    "gsr/ps4@1": "b90232ae893a03754e91f44ac45d0ae8f8d1d78e0e79a3144b826cd99b32595d",
    "laplace/ps2/lower": "f86c3fb1dd480947b0de3a4f702d8988cec7bedb69f88e97d04fe16901dc5591",
    "laplace/ps2@3": "f86c3fb1dd480947b0de3a4f702d8988cec7bedb69f88e97d04fe16901dc5591",
    "laplace/ps2@2": "b6acdcbf4db1ecabebef28f9fd7f25cd381db632478ee9806dbd7a29a02da847",
    "laplace/ps2@1": "2704609cd61474488c3050148c3cc7ae2376fc29ef23e333b9ff44f266dc754f",
    "laplace/ps4/lower": "20702a93e76ac6becd36f1cc43e03e3e1ccc9ad6e26fac4a87af8688563c001f",
    "laplace/ps4@3": "20702a93e76ac6becd36f1cc43e03e3e1ccc9ad6e26fac4a87af8688563c001f",
    "laplace/ps4@2": "c081256dd2383d8e43eaa2ca242817b368a3e7f5ef198333c2644f74f225ad7b",
    "laplace/ps4@1": "451a907b083c2999599fcb0fbbbf9e673dd6e4f94ee1f324a16cddc1ea593ec3",
    "lowpass/ps2/lower": "b215cfe38134bb43c68d61a828d2825e4ef254f7d4d49a99764ed610d4139ae7",
    "lowpass/ps2@6": "b215cfe38134bb43c68d61a828d2825e4ef254f7d4d49a99764ed610d4139ae7",
    "lowpass/ps2@5": "ca79bf6dbbb988804d27a6894d5cfb5727429895cf2a3723dac49b77e457b34c",
    "lowpass/ps2@4": "f61bb1a32ba1fced114303f1e73ecefba11e4d8fc10ac726f166ef0a08d7de67",
    "lowpass/ps2@3": "6d751bdf688102d5b5cc69ed7be1153d4007bc78b202ec31ccbbbd028a339142",
    "lowpass/ps2@2": "8ad060044a4034dd346e78ea3a53b85534c496fff8ad121e8c18560880a18499",
    "lowpass/ps2@1": "225e03d30d414015db87992cafa071a238315c5034139e1991012a009649c274",
    "lowpass/ps4/lower": "f282a282ecf7eea3034a1aafa9fc9cbc4c0327e6540fea09532f5be409be2790",
    "lowpass/ps4@2": "f282a282ecf7eea3034a1aafa9fc9cbc4c0327e6540fea09532f5be409be2790",
    "lowpass/ps4@1": "af5aba72a722e3fdd06a84fb92123fac982b519bfb0337c1965011dfe671a525",
    "swim/ps2/lower": "9e529ca925537361485955a19af2b89e47e169fe02c5fc894c3d9377d29e6e6a",
    "swim/ps2@3": "9e529ca925537361485955a19af2b89e47e169fe02c5fc894c3d9377d29e6e6a",
    "swim/ps2@2": "ce198ece3c954e9486937502bc093a78b2db5b31cdeba0ba06fcf87a89d42010",
    "swim/ps2@1": "bc5bc6618519e65e11ae9910deef66e7aad25ee6b3232b137d825743ee74e09c",
    "swim/ps4/lower": "ca3cf4d8799a6d2dc61bbb7490232ddfae6c7f975fd4801673fd2cff85290fc8",
    "swim/ps4@4": "ca3cf4d8799a6d2dc61bbb7490232ddfae6c7f975fd4801673fd2cff85290fc8",
    "swim/ps4@3": "5f5ef9398aabf0a47fcdeb72fa0a2052c09e282026c1fde38057ad0678bb8eeb",
    "swim/ps4@2": "af523bab5f1ed6c264f96146874f96717500445382972cda493487a82168c158",
    "swim/ps4@1": "aaff38735d0e25de2d653e9d1186cd26609508319ec8658056eaf73ca62f59fc",
    "sobel/ps4/lower": "d9ddb791c057fb41c8f11605d5d24c8331a174cfb9b006815af5ae4f59ab5ccd",
    "sobel/ps4@4": "d9ddb791c057fb41c8f11605d5d24c8331a174cfb9b006815af5ae4f59ab5ccd",
    "sobel/ps4@3": "a17782008fac78e691cf9522c37926ef16e9e2eb9c049785a4e8d9d9aa5fd401",
    "sobel/ps4@2": "40125a6ec2601b8d4808eee663d252da65902b0875608d44f5af4b3f9e6d9f2c",
    "sobel/ps4@1": "abaf393e77f8c9af816d4c9d072764930f494ba7a5808fa2b99a82e33250b9a5",
    "wavelet/ps2/lower": "b223706aa1d055ea1724bb894b974bf968ec570c3295c6bd316b5ab0b57fbe4d",
    "wavelet/ps2@2": "b223706aa1d055ea1724bb894b974bf968ec570c3295c6bd316b5ab0b57fbe4d",
    "wavelet/ps2@1": "99194624f28da52e306473a03f2786ea2f9dc16f513554f1916dc1ae3e303546",
    "wavelet/ps4/lower": "71def0de7fbbd5146180c80c50f45f2c25653c894913bc50699912ac10d419b3",
    "wavelet/ps4@1": "71def0de7fbbd5146180c80c50f45f2c25653c894913bc50699912ac10d419b3",
    "fft/ps2/lower": "f337d935e7c13976bcb0da41b9e2087f8ab05afabb30f13d4f61b6292a2f15ed",
    "fft/ps2@4": "f337d935e7c13976bcb0da41b9e2087f8ab05afabb30f13d4f61b6292a2f15ed",
    "fft/ps2@3": "7cb5c8188c73dbfcaf72af15388d115593551d1fa6fefd85de579bc13d73fc9e",
    "fft/ps2@2": "71b07c4e19e7584a3001bb73e41284541f9ed5db675df55a772f8844cdc88195",
    "fft/ps2@1": "6122d2aebaa3bb0c73ad911e9a77a7270d9bd043e1094d08ee78ec5962c0eb47",
    "fft/ps4/lower": "34ab86919bfc9805626d42555cef59f9ed7b4d85671c77c1d099bae1a5135405",
    "fft/ps4@3": "34ab86919bfc9805626d42555cef59f9ed7b4d85671c77c1d099bae1a5135405",
    "fft/ps4@2": "60ea3e3b5828ddd38c09b1c0381ab2b11193a6fff093327679bb5a8ae251ef7c",
    "fft/ps4@1": "3dbe538736a2df24bfdda982893218c827a438eaa374bd8ef1347d9a30141323",
    "keywords/lower": "4072efcfd248af35695a21d7b507a9912759f7d5252d8976ff98ec5ac74b3584",
    "keywords@3": "4072efcfd248af35695a21d7b507a9912759f7d5252d8976ff98ec5ac74b3584",
    "keywords@2": "f4b641be54322e9a16c5681614c71364fc8dffd4a3f1b2f28ccd2b5981870d3d",
    "keywords@1": "44544e751347980962e7e8c59043c0dec0a1a1efd9a9599d611dabd7d0e8a24e",
}


@pytest.fixture(scope="module")
def digests():
    if not REPO_STORE.exists():
        pytest.skip("committed artifact store not present")
    return compute_digests()


def test_golden_covers_the_fold_exec_set(digests):
    folds = [k for k in digests if "@" in k and not k.startswith("keywords")]
    lowered = [k for k in digests if k.endswith("/lower") and not k.startswith("keywords")]
    assert (len(folds), len(lowered)) == (67, 21)


def test_firing_programs_match_the_parent_commit(digests):
    assert sorted(digests) == sorted(GOLDEN)
    changed = sorted(k for k in GOLDEN if digests[k] != GOLDEN[k])
    assert not changed, f"firing list or SimResult changed for {changed}"


def test_keyword_run_exercises_the_global_fallback():
    """rf_limit=1 must actually push transfers through global storage, or
    the tagged-slot path of the golden run is vacuous."""
    spec = get_kernel("laplace")
    artifact = ArtifactStore(REPO_STORE).get(job_key(CompileJob("laplace", 4, 2)))
    dfg, arrays, _ = spec.fresh(seed=SEED, trip=8)
    paged = artifact.materialize(dfg)
    memory = bind_memory(arrays)
    firings = fold(paged, 1, memory, 8, rf_limit=1, firing_tag="t1")
    slots = [s for f in firings for s in f.global_writes]
    assert slots and all(s.edge_id[0] == "t1" for s in slots)
    assert run(paged, firings, memory).global_reads >= len(slots)


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, value in compute_digests().items():
        print(f'    "{key}": "{value}",')
    print("}")
