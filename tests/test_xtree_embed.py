"""Theorem 1 construction: feasibility, quality, invariants, edge cases."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import embed_binary_tree, theorem1_embedding
from repro.core.xtree_embed import EmbedConfig
from repro.trees import FAMILIES, make_tree, theorem1_guest_size


class TestTheorem1Exact:
    @pytest.mark.parametrize("r", [0, 1, 2, 3, 5, 6])
    def test_all_families_meet_bounds(self, family, r):
        n = theorem1_guest_size(r)
        tree = make_tree(family, n, seed=42)
        result = theorem1_embedding(tree, validate=True)
        rep = result.embedding.report()
        assert rep.dilation <= 3, (family, r, rep)
        assert rep.load_factor == 16
        # optimal expansion: every host slot used
        assert rep.n_host * 16 == rep.n_guest

    def test_r4_random(self):
        tree = make_tree("random", theorem1_guest_size(4), seed=7)
        result = theorem1_embedding(tree, validate=True)
        assert result.embedding.dilation() <= 3
        assert result.embedding.load_factor() == 16

    def test_wrong_size_rejected(self):
        tree = make_tree("random", 100, seed=0)
        with pytest.raises(ValueError, match="16"):
            theorem1_embedding(tree)

    def test_every_node_placed_once(self):
        tree = make_tree("remy", theorem1_guest_size(3), seed=9)
        result = theorem1_embedding(tree)
        assert sorted(result.embedding.phi) == list(tree.nodes())

    def test_loads_exactly_16_everywhere(self):
        tree = make_tree("caterpillar", theorem1_guest_size(3), seed=0)
        result = theorem1_embedding(tree)
        loads = result.embedding.loads()
        assert set(loads.values()) == {16}
        assert len(loads) == result.embedding.host.n_nodes


class TestImbalanceHistory:
    def test_history_recorded_per_round(self):
        r = 4
        tree = make_tree("random", theorem1_guest_size(r), seed=1)
        result = theorem1_embedding(tree)
        assert len(result.history) == r
        # after the final round every sibling pair is perfectly balanced on
        # the levels the paper proves converge (j <= r-2)
        final = result.history[-1]
        for j in range(r - 1):
            assert final[j] <= 24, (j, final)

    def test_imbalance_shrinks_over_rounds(self):
        """The paper's Delta(j, i) <= 2^{r+j+1-2i}: doubling i must crush
        the imbalance at fixed j.  We check the qualitative shape."""
        r = 6
        tree = make_tree("remy", theorem1_guest_size(r), seed=3)
        result = theorem1_embedding(tree)
        # level-0 imbalance at the end is far below its first-round value
        first = max(result.history[0].get(0, 0), 1)
        last = result.history[-1].get(0, 0)
        assert last <= first


class TestGeneralSizes:
    """embed_binary_tree pads arbitrary sizes to the next valid guest."""

    @pytest.mark.parametrize("n", [1, 2, 15, 17, 100, 300])
    def test_padding_path(self, n):
        tree = make_tree("random", n, seed=4)
        result = embed_binary_tree(tree)
        assert result.embedding.guest.n >= n
        assert result.embedding.load_factor() == 16
        assert result.embedding.dilation() <= 4

    def test_explicit_height(self):
        tree = make_tree("path", 100, seed=0)
        result = embed_binary_tree(tree, height=3)
        assert result.embedding.host.height == 3
        assert result.embedding.guest.n == theorem1_guest_size(3)

    def test_too_small_host_rejected(self):
        tree = make_tree("random", 300, seed=0)
        with pytest.raises(ValueError, match="cannot fit"):
            embed_binary_tree(tree, height=1)

    def test_capacity_parameter(self):
        tree = make_tree("random", 28, seed=0)
        result = embed_binary_tree(tree, capacity=4, height=2)
        assert result.embedding.load_factor() == 4

    def test_capacity_must_be_sane(self):
        tree = make_tree("random", 28, seed=0)
        with pytest.raises(ValueError):
            embed_binary_tree(tree, capacity=1)


class TestStatsAndFallbacks:
    def test_stats_mostly_zero(self):
        tree = make_tree("random", theorem1_guest_size(4), seed=5)
        result = theorem1_embedding(tree)
        stats = result.stats.as_dict()
        assert stats["sigma_conflicts"] == 0
        assert stats["overflow_placements"] == 0
        # final spill is allowed but tiny
        assert stats["final_spill_distance"] <= 2

    def test_dilation_three_is_tight_somewhere(self):
        """The construction genuinely uses distance-3 hops (cross-boundary
        separator placements) — at moderate depth the bound is attained."""
        seen3 = False
        for fam in ("path", "remy", "zigzag", "caterpillar"):
            for r in (5, 6):
                tree = make_tree(fam, theorem1_guest_size(r), seed=1)
                if theorem1_embedding(tree).embedding.dilation() == 3:
                    seen3 = True
                    break
            if seen3:
                break
        assert seen3


class TestEmbedConfig:
    def test_default_is_exact_reproduction(self):
        from repro.core import condition_3prime_defects

        tree = make_tree("zigzag", theorem1_guest_size(5), seed=2)
        res = theorem1_embedding(tree, config=EmbedConfig())
        assert res.embedding.dilation() <= 3
        assert condition_3prime_defects(res.embedding) == []

    def test_no_balance_degrades(self):
        tree = make_tree("path", theorem1_guest_size(6), seed=0)
        good = theorem1_embedding(tree)
        bad = theorem1_embedding(tree, config=EmbedConfig(balance_children=False))
        assert bad.stats.final_spill_count > good.stats.final_spill_count
        # feasibility still guaranteed even without balancing
        assert bad.embedding.load_factor() == 16

    def test_config_is_frozen(self):
        import dataclasses

        cfg = EmbedConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.neighbor_fill = True  # type: ignore[misc]

    def test_neighbor_fill_reduces_spills(self):
        tree = make_tree("caterpillar", theorem1_guest_size(6), seed=0)
        base = theorem1_embedding(tree)
        nf = theorem1_embedding(tree, config=EmbedConfig(neighbor_fill=True))
        assert nf.stats.final_spill_count <= base.stats.final_spill_count
        assert nf.embedding.load_factor() == 16


class TestPropertyBased:
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_contract(self, family, r, seed):
        n = theorem1_guest_size(r)
        tree = make_tree(family, n, seed=seed)
        result = theorem1_embedding(tree, validate=True)
        assert result.embedding.load_factor() == 16
        assert result.embedding.dilation() <= 3
        assert len(result.embedding.phi) == n


def _digest(result) -> str:
    """sha256 of one construction's whole output: the sorted placement, the
    non-zero ``LayoutStats`` counters and the imbalance ``history``.

    Zero counters are left out, so adding or deleting a counter that never
    fires does not move the digest; a counter that does fire is covered.
    """
    stats = sorted((k, v) for k, v in result.stats.as_dict().items() if v)
    doc = [sorted(result.embedding.phi.items()), stats, result.history]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _tree(family, r):
    return make_tree(family, theorem1_guest_size(r), seed=r)


# Digests of the construction on ``_tree(family, r)``, recorded once and
# never regenerated: a change that moves one of them changes what the
# Theorem 1 construction computes, not just how fast it computes it.
DEFAULT_DIGESTS = {
    ("broom", 4): "2b15ec4a20773439ecc67f156f07d8d1cd3d08cd193fbaa6d25cfa01dd6994b9",
    ("broom", 5): "709cd0ec7a4b942ddaced7e0a4c125073f9372eeee7e48334df342dfc21b63a3",
    ("broom", 6): "9153e739044c59503671d112362eceaf481fc1999271771f21fc67d428f58408",
    ("broom", 7): "ce1355744a105ed86be7d277c5c717408f79d66ad757db8636e5034fd135f93e",
    ("caterpillar", 4): "0f594576bdf8ca9d2077d78ffb61adac8f931d1cdbcb8f0fb55f02feadfe6d85",
    ("caterpillar", 5): "d8087fcafeda4dc315b4cfd8cd5827b2ad4da1a2f15ef93b9eed81bc7a708adf",
    ("caterpillar", 6): "282c61b7c75e4359e847825a4ffa22a8ebc48447b26e0effec5f29180bd1c889",
    ("caterpillar", 7): "9948fb6206ae50011e66ec5fbcf1fb3e66c4df5635c1ef4f863fe5074937ac79",
    ("complete", 4): "a4f0cef8c2da1d22d677fd548a79aea082332ebf1814c891e804bbe4e2a49b73",
    ("complete", 5): "2e756479077e3cfb297d294c54b72fdcbde760d999d3a7b28b8740e60e016767",
    ("complete", 6): "d25e45e0df46a972c8a787caed4bcf56e2dabfce6cc694df28ea8dbc91402a9b",
    ("complete", 7): "6a19bfd05c31d340d18e1797beeb129fe52d3d7d94d047f602992f65c3aa1617",
    ("fibonacci", 4): "b78d75a6bb95046397ef78923a86ea261a20c54ba07c627032d6a93896305983",
    ("fibonacci", 5): "e678ff7eabade23250419a48cffc7ac20faace775a5c61917dbd1b5a9c6f3954",
    ("fibonacci", 6): "7fa6af43851606114cbb1bbd77389c21ef1a3feb1bb6d1d7dfa3a01c8ae1f1ed",
    ("fibonacci", 7): "4021c22a3d9ca93e4951c112fac66f0a5667250cb23c881f54a67609a217fdbb",
    ("path", 4): "c9b49e704348d6755846f7c490bb579f92ed8480f5a969dd30291e007b0307aa",
    ("path", 5): "c1d3ec64470d6729c0f7a5c6088b9dfb3cacf8510094aee7c93ad21cdb6a9ad3",
    ("path", 6): "3327015b0554efe24d0b1d931a519fa1893969557008597e0cac395ed5fe0c0c",
    ("path", 7): "0b13b9fd27458267384b95498d2fef027bfa63123925327a016bc9a6ebd163d0",
    ("random", 4): "303196938738f8c072394e674c978a7eca96a0ee82f4c4652fc13cff7836dd70",
    ("random", 5): "8ffd456d4a782abbf943035ca9453db9067c0174e83c12af30147413b0261f1b",
    ("random", 6): "1cb580c9acefbd57b65a73ec3118da85f0881ad137f6a7c164bcdff1d9902bb6",
    ("random", 7): "adb93ac50fbad9dec63e122dd52066d756372639933277b1bfcc49ab2fc67b35",
    ("random_split", 4): "e0403496f2208a10bf142bfe716a3574115c20abd32d710f724aaa99b32da78f",
    ("random_split", 5): "a500646e2ccfe3cfa9650f155f953e82d80a4f796296015ecea16319de8a4bc6",
    ("random_split", 6): "c9f24336b2b84eaa8aaed8808d13ddf78b64413dbfdb50bd47c8b4830c0f3608",
    ("random_split", 7): "b51d549f58aae7d6fece4ba8cb7cdff609affc2033661ef07dc5151990aa1b21",
    ("remy", 4): "246716e154f258e955ad20b4252243863ec4ca3f8aa3af01f688c7c6c3f83b33",
    ("remy", 5): "b3f7eec833b170ba533d8334c70f0da0099475fd877be0388b3bff77c1669945",
    ("remy", 6): "9bc61c55ade7fbd1985cb95bce279f90c2a029806ed889207ff8e57316146d7b",
    ("remy", 7): "05a3922386a2dfcd6043c500ba18ab126d288b8c45fe8f65f74bbaf457fa76e5",
    ("skewed", 4): "2b62e99166189ee18b68733168794c412b4e9753703eff96b21ab69614f7f0ac",
    ("skewed", 5): "1467d47ca25a334602d6fc08bfafb169324f731b286ae45f226335e15e77117f",
    ("skewed", 6): "f5d6751c64d24b7044b2460bc43cf767886bd993745ea11b3ac4324a85b02da3",
    ("skewed", 7): "b6c348a8c71daea02c2a39e471685312b2db7baf985abf0bf7b4721591b06625",
    ("zigzag", 4): "74de646c51a3329427b18a51b6e85fd7d8616673d7bd5ad624ba3a6bbe9cde0b",
    ("zigzag", 5): "d708f2c4e6736026782c741ed97c4edefc36144820676d3052c734d74de20986",
    ("zigzag", 6): "e9757841f501c54defb4b654e08186fabf540a00cb5f2726b736a695acadd410",
    ("zigzag", 7): "8aac093b6d57a183931ef520e2058c2532103a095fcd6e66db6ac8002b0d1766",
}
FLOW_DIGESTS = {
    "path": "4dd344053f67bb3dc263318453c4cb82bdf00d65699f972b2ba0f52fcc9a9599",
    "random": "76132908ff3eb9773c7c3a0a0de109929afb9307e8b5ea8a6b010f4d964dc841",
    "remy": "24f97d578f27aa61a62e2b4ca14de3a2aa58afc12836e2321af7ac2e235f25c5",
}
KNOB_DIGESTS = {
    "adjust_sigma_filter": "d8087fcafeda4dc315b4cfd8cd5827b2ad4da1a2f15ef93b9eed81bc7a708adf",
    "sideways_balance_moves": "86bd710663fcd69f6269e2d26c228b3a23042f952238f0e073ecb526cab2da15",
    "neighbor_fill": "df1086f7d94d31271fe65682d905a769b165967d34e38d0f59efb5009701cc41",
    "balance_children": "8a6abe92ccaf3af9522c41887b3cf4b2c56c8c444e9ddd88784ae6f7b8d03b12",
}


class TestPlacementIdentity:
    """Placements, stats and history stay bit-identical to the recorded
    digests (default config, the flow separator, and each non-default
    ``EmbedConfig`` knob)."""

    @pytest.mark.parametrize(("family", "r"), sorted(DEFAULT_DIGESTS))
    def test_default_config(self, family, r):
        result = theorem1_embedding(_tree(family, r))
        assert _digest(result) == DEFAULT_DIGESTS[family, r]

    @pytest.mark.parametrize("family", sorted(FLOW_DIGESTS))
    def test_flow_separator(self, family):
        result = theorem1_embedding(_tree(family, 3), separator="flow")
        assert _digest(result) == FLOW_DIGESTS[family]

    @pytest.mark.parametrize("knob", sorted(KNOB_DIGESTS))
    def test_config_knob(self, knob):
        config = EmbedConfig(**{knob: not getattr(EmbedConfig(), knob)})
        result = theorem1_embedding(_tree("caterpillar", 5), config=config)
        assert _digest(result) == KNOB_DIGESTS[knob]

    def test_digests_cover_every_family_and_knob(self):
        assert {f for f, _ in DEFAULT_DIGESTS} == set(FAMILIES)
        assert set(KNOB_DIGESTS) == set(vars(EmbedConfig()))
