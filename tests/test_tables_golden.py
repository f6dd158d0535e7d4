"""Golden digests of every reproduced table.

The sha256 of ``to_markdown()`` and ``to_csv()`` for tables 1-25, recorded
from the hand-written per-table functions that preceded the declarative
table spec in ``planner.py``.  Any change to a cell, label, caption or note
shows up here.
"""

import hashlib

import pytest

from stochtaylor.planner import TABLE_IDS, reproduce_table

# table id -> (markdown sha256, CSV sha256)
DIGESTS = {
    1: ("735aa9a7c7b4ae741cbb6649ee015a67565f3fca98274d1ec77f4890b8518475",
        "0a3d512833330cf2d5e615d7e4719b2d27abaffa504a53efe045747bbed2fbd7"),
    2: ("7dbb34bb1e805feb92da532cc4acdaf8c23ad6fbc3e649ab509055a0162b606c",
        "7ef8221e3c42fadb62476bb78b1810a5427cd4755d06952fa9d90500f9eacc9e"),
    3: ("fa973a68b580786d07620b4e40c2eb8786460fb43b3ffd7be6344100e17a7672",
        "e3c2741e8d70e39bf3fc9e9c66b6de789f745de4fe1ede0ba19ae0d496b06411"),
    4: ("d73f44198df3a3d82b92a931195583f26140ef480f910cecb4c559349bb96442",
        "7ed433bb059cc45fcf24cf94582de9de5a5c291bd640f38ce5292b867ee42e9b"),
    5: ("5d0d3200237207e5e13a1de5c0158ad771f199443eaa1282bcff1efcfd99940e",
        "86e1d6512df149a4bd4ab38473fcde22427080b77f69f5a0d3bbbb3a1bfe4245"),
    6: ("1a9f78d68f97162b8b3180d7269f5168e805cf3af360c1cf8ff7ca0f5abbe316",
        "80c1e050074d7eeffa35bf9d8b37294a3ab6fab0f675e952a8aad4168cb236e4"),
    7: ("6bc89f38dc54a8c29981fb13e29b56482afeec806cffc3b0f30a024798d04961",
        "38507cf2379115c490f3d4a721fa40ac778489b23fb070ddbc5bc8eb06bc10b2"),
    8: ("6adad2eca33129b22f73f5bea67b155b941c0a66c6b0d63c546064937f2b561d",
        "b1a2b3a6f878f81ca4481ba702b14a98971a0032d83ea2848a3184055d9fce6a"),
    9: ("7dedad54c57ba8239f5e815636b80a1ef3d67d62257825cac39aa0fc4e08832a",
        "3c731948fd1a4e2872fba47d64a4f3140ebb4346d24572c40b970ed5e9170a4f"),
    10: ("c0b877f3b692841edbb12a5fcde8071391ad8273c4e8907712521e8e4c3bb303",
         "28a6aa893654ec0271d0c435668ca9f96bc981d8d4d060be7f8d78cb706461ec"),
    11: ("9626d0883e7be07a7052f00329b425a209c8afe078a8aeb0791151ad542ef927",
         "a797ee046099ff2a25f0bbb997a9303fd13f2cb1d36c679d30d5ea3eededb5b0"),
    12: ("7e82dcf92a302991dc2cc2d931478acfc9619efa6109a4d6b653fb0350abd5c3",
         "0e78458dedf5b797e76df42a20bb52300724992f496ce52cb495305ae740db37"),
    13: ("ffb43382430f22055915a0fce4affb0fdf16fe3a2e3c1bec5086745bb0af9d67",
         "a438495d2a3bb48e6e693e979f7c9adf257436f0a9cd892d45651247d4d0494f"),
    14: ("fcde3af87abf6857bd19f2984f061e57196c3cb7fcd0d15626b125c5fba51243",
         "68f3090c7d8d8c285e3781998d3ff2e620e14a892dbadb63fef348da526d7ead"),
    15: ("11c7fa2cefe82f45b70a95b926c3785a5f303c9062dd94865deb881d9643fb8d",
         "a6872462d7ed92c3353c3d6150af10470f6366d17cb9240fa2ca44e33c61ebc7"),
    16: ("3af07716167352f5450e11e90bbedba17f3ac0d57dd39eff68c906c295fb8dc3",
         "e10568a4746f0825fc3e5e9583cfd5f07f729fbc819cde4395214fc703617917"),
    17: ("ff5480fe4e747b4dfdba15ef29b32bad8d417a4cd51cc06369930203914e3335",
         "d72dbfb6331cc9cb0c2238d3d878c06ba2e3a0ad197935593598f872cbc9bc59"),
    18: ("1ccaac7f3a0d8b3a8674da836520460efb97cb7dae18380daf1aca0183939289",
         "d7a0638afcf65b63a7364dab993ae6151e955157cf2e01ca1a94b35b60073b4b"),
    19: ("369e9e2792184d24f00701940cbf18c72b74d162a2f08f0dd4d39b658f3a8a38",
         "d9aee91f601084d7cca34e37f2d5957ca43d33e731009930e0c6ab204c0502c8"),
    20: ("6ce0f9c8afb0befaa27b28c52578b3130f98d852bb561099e49d359fd0213b29",
         "37ae6dce3bee53357caff7026cc543b588af5ca8e36df5c1a8e0a6ed223d844f"),
    21: ("b763cbf00c8c15e80f694c3ab0f92941d6d9eabc8d8c247710f4e003f97544bc",
         "1d0f6f3f0a419622d44f2892ab22e2cd203d4a151c52a5a5a49c8f89b8519a03"),
    22: ("36e3a712e8e644e5a51b1de24f2e91f1487e7fde02c1a97a4a19fc8e4b58c76c",
         "db0d0ffb0083ed54009c3751bd6241c04b9a30f7b5376d6c91226437dfa554b9"),
    23: ("5bb2ecc3056a8941fae3a0829c7b6eb045182416351a5afdceb60d0c453c9352",
         "509094245444b84efcd4098143a23693b4ab272054489271a5c01ea9ff1debf5"),
    24: ("a5fb1ff640948c5b3d1238d855e05fd3e5a8b9c0347bddfd2f74f9e7cf05c0be",
         "19e0a7b7d225e4be1ce8004f7753c59c3400ad4d03d12b9d5707c4c724afcfe3"),
    25: ("1bcad710c1670dca21051da642d5c7db0eb055ee098f9c76200d556ae86231a0",
         "2c4f4d93001b7891b952dae121163a9090a5eccdff2abd8f0e9dc74ca1bc4edb"),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_table_is_pinned():
    assert tuple(sorted(DIGESTS)) == TABLE_IDS


@pytest.mark.parametrize("table_id", sorted(DIGESTS))
def test_table_bytes(table_id):
    table = reproduce_table(table_id)
    assert (_sha256(table.to_markdown()), _sha256(table.to_csv())) == DIGESTS[table_id]
