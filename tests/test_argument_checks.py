"""Counts, sizes, seeds and operators are each checked by one rule.

Every count, size and seed goes through ``errors._require_int``, and every
operator through ``linalg.require_operator``: a float or bool count, text in
place of an operator, or a non-finite operator raises a ``ValidationError``,
never a ``TypeError``, ``ValueError`` or ``LinAlgError``, and never passes.
"""

import numpy as np
import pytest

from equirep.decompose import block_diagonal_part, isotypic_decompose, schur_weyl_check
from equirep.equivariant import check_equivariance, equivariant_generators, equivariant_measurement
from equirep.errors import InvalidParameterError, ToolkitError, ValidationError
from equirep.groups import make_cyclic, make_dihedral, make_symmetric, sample_lie_group_element
from equirep.linalg import exp_unitary, herm_eig, partial_trace
from equirep.representations import (
    bitflip_rep,
    finite_rep_from_images,
    perm_rep_tensor,
    su2_fundamental,
    swap_rep,
    tensor_power,
    translation_rep,
    trivial_rep,
    unitary_algebra_rep,
    verify_homomorphism,
)
from equirep.tasks import (
    TrainConfig,
    default_task_model,
    eigenspace_invariance_check,
    gen_bitflip1d,
    gen_ferro,
    gen_purity,
    gen_swap2d,
    heisenberg_xxx,
    label_invariance_check,
    make_dataset,
    model_eval,
    symmetry_test,
)
from equirep.twirl import choi_matrix

SU2 = su2_fundamental()
SWAP = swap_rep()
DS = make_dataset("swap2d", 4, 0)
MODEL = default_task_model(DS)
GENS = equivariant_generators(SWAP)
DEC = isotypic_decompose(SWAP)
NAN = np.full((4, 4), np.nan)
INF = np.full((4, 4), np.inf)

COUNTS = {
    "gen_purity(2.5)": lambda: gen_purity(2.5),
    "gen_purity(True)": lambda: gen_purity(True),
    "gen_swap2d(3.0)": lambda: gen_swap2d(3.0),
    "gen_bitflip1d(2.5)": lambda: gen_bitflip1d(2.5),
    "gen_ferro(2.0)": lambda: gen_ferro(2.0),
    "tensor_power(su2, 2.0)": lambda: tensor_power(SU2, 2.0),
    "tensor_power(su2, True)": lambda: tensor_power(SU2, True),
    "bitflip_rep(2.0)": lambda: bitflip_rep(2.0),
    "perm_rep_tensor(3.0, 2)": lambda: perm_rep_tensor(3.0, 2),
    "perm_rep_tensor(3, 2.0)": lambda: perm_rep_tensor(3, 2.0),
    "unitary_algebra_rep(2.0)": lambda: unitary_algebra_rep(2.0),
    "make_cyclic(3.0)": lambda: make_cyclic(3.0),
    "make_symmetric(3.0)": lambda: make_symmetric(3.0),
    "make_dihedral(3.5)": lambda: make_dihedral(3.5),
    "translation_rep(3.0)": lambda: translation_rep(3.0),
    "trivial_rep(Z_2, 2.0)": lambda: trivial_rep(make_cyclic(2), 2.0),
    "heisenberg_xxx(3.0)": lambda: heisenberg_xxx(3.0),
    "TrainConfig(epochs=2.5)": lambda: TrainConfig(epochs=2.5),
    "TrainConfig(epochs=True)": lambda: TrainConfig(epochs=True),
    "default_task_model(n_layer_passes=1.5)": lambda: default_task_model(DS, n_layer_passes=1.5),
    "sample_elements(0, 2.0)": lambda: SWAP.sample_elements(0, 2.0),
    "label_invariance_check(n_samples=2.5)":
        lambda: label_invariance_check(lambda rho: 0.0, DS.rep, DS, n_samples=2.5),
    "sample_lie_group_element(depth=1.5)": lambda: sample_lie_group_element(SU2.algebra, 0, 1.5),
    "schur_weyl_check(2, 10**12)": lambda: schur_weyl_check(2, 10 ** 12),
}

TEXT_OPERATORS = {
    "check_equivariance": lambda: check_equivariance("abc", SWAP),
    "symmetry_test": lambda: symmetry_test("abc", SWAP),
    "project": lambda: GENS.project("abc"),
    "partial_trace": lambda: partial_trace("abc", [2, 2], keep=[0]),
    "herm_eig": lambda: herm_eig("abc"),
    "model_eval": lambda: model_eval(MODEL, "abc"),
    "block_diagonal_part": lambda: block_diagonal_part(DEC, "abc"),
    "equivariant_measurement": lambda: equivariant_measurement(SWAP, [1.0], basis="abc"),
    "choi_matrix": lambda: choi_matrix([["a", "b", "c", "d"]] * 4, 2, 2),
}

NON_FINITE_OPERATORS = {}
for _label, _o in (("nan", NAN), ("inf", INF)):
    NON_FINITE_OPERATORS.update({
        f"check_equivariance {_label}": lambda o=_o: check_equivariance(o, SWAP),
        f"symmetry_test {_label}": lambda o=_o: symmetry_test(o, SWAP),
        f"project {_label}": lambda o=_o: GENS.project(o),
        f"partial_trace {_label}": lambda o=_o: partial_trace(o, [2, 2], keep=[0]),
        f"model_eval {_label}": lambda o=_o: model_eval(MODEL, o),
        f"herm_eig {_label}": lambda o=_o: herm_eig(o),
        f"exp_unitary {_label}": lambda o=_o: exp_unitary(o, 0.3),
        f"eigenspace_invariance_check {_label}":
            lambda o=_o: eigenspace_invariance_check(o, SWAP),
    })
NON_FINITE_OPERATORS["verify_homomorphism of a NaN image"] = lambda: verify_homomorphism(
    finite_rep_from_images(make_cyclic(2), [np.full((2, 2), np.nan)], "nan"))

CASES = {**COUNTS, **TEXT_OPERATORS, **NON_FINITE_OPERATORS}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", list(CASES))
def test_bad_count_or_operator_raises_a_validation_error(case):
    with pytest.raises(ToolkitError) as info:
        CASES[case]()
    assert isinstance(info.value, ValidationError)


def test_valid_counts_and_operators_still_pass():
    assert tensor_power(SU2, np.int64(2)).dim == 4
    assert symmetry_test(np.eye(4), SWAP).commutes
    assert check_equivariance(np.eye(4)[None].repeat(3, axis=0), SWAP) == 0.0
    assert len(SWAP.sample_elements(0, 0)) == 0


@pytest.mark.parametrize("name", ["bitflip1d", "purity"])
def test_make_dataset_refuses_a_parameter_its_generator_does_not_take(name):
    with pytest.raises(InvalidParameterError, match="s0"):
        make_dataset(name, 4, 0, s0=1)


def test_make_dataset_passes_the_parameters_a_generator_takes():
    assert make_dataset("swap2d", 4, 0, s0=1.0).params == {"s0": 1.0}
    assert make_dataset("purity", 4, 0, mixed_shell=(0.3, 0.6)).params == {"shell": (0.3, 0.6)}
