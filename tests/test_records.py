"""Value semantics of the record classes: construction, equality, hashing,
immutability, repr and validation, and what importing the CLI loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import statindex
from statindex import pairings
from statindex.bundles import RootModel
from statindex.cli import RunConfig
from statindex.genera import GenusSpec, generating_series
from statindex.manifolds import CohomologyModel, TangentData
from statindex.pairings import IndexReport, VerifyReport, _RootFactor, pairing_index
from statindex.series import TruncatedSeries
from statindex.spectral import SpectralPairReport, SpectrumSpec, build_spectral_report
from statindex.statmech import CorrespondenceReport, EnsembleReport, LevelSystem
from statindex.symmetric import ChernPolynomial

_H = TruncatedSeries.variable(("h",), 2, "h")
_SYSTEM = "LevelSystem(levels=(1.0,), mu=0.0, beta=1.0, statistics='BE', kB=1.0)"
_SPEC = "SpectrumSpec(form='finite', eigenvalues=(1.0, 2.0), a=0.0, c=0.0, graded=False)"

# (class, positional arguments, repr); every field is given
CASES = [
    (RunConfig, (3, "json", 1e-09), "RunConfig(degree=3, fmt='json', tolerance=1e-09)"),
    (GenusSpec, ("todd", generating_series("todd", 3), True),
     "GenusSpec(kind='todd', generating_series=TruncatedSeries(('x',), D=3, "
     "1 + 1/2*x + 1/12*x^2), normalized=True)"),
    (CohomologyModel, ("cp2", ("h",), (3,), 2, (2,), Fraction(1), (("cp", 2),)),
     "CohomologyModel(name='cp2', generators=('h',), nilpotency=(3,), complex_dim=2, "
     "top_exponents=(2,), top_integral=Fraction(1, 1), factors=(('cp', 2),))"),
    (TangentData, ((_H,),), "TangentData(chern=(TruncatedSeries(('h',), D=2, h),))"),
    (RootModel, (("h",), 2, ((_H, 1),)),
     "RootModel(variables=('h',), truncation=2, roots=((TruncatedSeries(('h',), D=2, h), 1),))"),
    (_RootFactor, (1, Fraction(1, 2), -1, 2),
     "_RootFactor(power=1, exp_coeff=Fraction(1, 2), bose=-1, fermi=2)"),
    (IndexReport, ("cp2", "fb", "exact", Fraction(1), 2),
     "IndexReport(manifold='cp2', pairing='fb', mode='exact', index_value=Fraction(1, 1), "
     "roots=2)"),
    (VerifyReport, ("ff", 1, 6, True, "x1", ("product: prod_i x_i",), None, None),
     "VerifyReport(kind='ff', l=1, truncation=6, ok=True, canonical_form='x1', "
     "chain=('product: prod_i x_i',), first_mismatch=None, literal_ok=None)"),
    (SpectrumSpec, ("finite", (1.0, 2.0), 0.0, 0.0, False), _SPEC),
    (SpectralPairReport, (SpectrumSpec("finite", (1.0, 2.0)), 0.5, 0.25, 0.125, 2.0, 2.0, None),
     f"SpectralPairReport(spec={_SPEC}, chern_character=0.5, log_xi_be=0.25, "
     "log_xi_fd=0.125, determinant=2.0, euler_class=2.0, pairings=None)"),
    (LevelSystem, ((1.0,), 0.0, 1.0, "BE", 1.0), _SYSTEM),
    (EnsembleReport,
     (LevelSystem((1.0,), 0.0, 1.0, "BE"), (1.0,), (2.0,), (1.0,), 0.5, 1.5, -0.5, 1.0),
     f"EnsembleReport(system={_SYSTEM}, arguments=(1.0,), per_level_xi=(2.0,), "
     "per_level_occupation=(1.0,), log_xi=0.5, xi=1.5, omega=-0.5, mean_particle_number=1.0)"),
    (CorrespondenceReport,
     (LevelSystem((1.0,), 0.0, 1.0, "BE"), (1.5,), (1.5,), (1.5,), 0.0, 1e-12, True),
     f"CorrespondenceReport(system={_SYSTEM}, character_values=(1.5,), series_values=(1.5,), "
     "ensemble_values=(1.5,), max_relative_deviation=0.0, tolerance=1e-12, ok=True)"),
    (ChernPolynomial, ("chern", 1, 2, {(1,): 1}),
     "ChernPolynomial(basis='chern', rank=1, truncation=2, terms={(1,): Fraction(1, 1)})"),
]
MUTABLE = (RunConfig,)
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_construction_equality_and_repr(cls, args, text):
    record = cls(*args)
    assert repr(record) == text
    by_keyword = cls(**dict(zip(cls.__match_args__, args)))
    assert by_keyword == record and not by_keyword != record
    assert repr(by_keyword) == text
    assert copy.copy(record) == record
    if cls not in (GenusSpec, TangentData, RootModel):  # a TruncatedSeries does not pickle
        assert pickle.loads(pickle.dumps(record)) == record
    assert record != object() and record != tuple(args)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_frozen_records_hash_and_refuse_changes(cls, args, text):
    record = cls(*args)
    name = cls.__match_args__[0]
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, name, getattr(record, name))
        assert record == cls(*args)
        return
    assert hash(record) == hash(cls(*args))
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == text


def test_records_differ_field_by_field():
    assert LevelSystem((1.0,), 0.0, 1.0, "BE") != LevelSystem((1.0,), 0.0, 2.0, "BE")
    assert _RootFactor(1) != _RootFactor(1, Fraction(1, 2))
    assert RunConfig(fmt="json") != RunConfig()


def test_defaults():
    assert RunConfig() == RunConfig(None, "text", 1e-12)
    assert _RootFactor() == _RootFactor(0, Fraction(0), 0, 0) != _RootFactor(1)
    assert CohomologyModel("pt", (), (), 0, None, Fraction(1)).factors == ()
    assert SpectrumSpec("affine", a=1.0, c=0.5) == SpectrumSpec("affine", (), 1.0, 0.5, False)
    assert LevelSystem((1.0,), 0.0, 1.0, "FD").kB == 1.0
    assert ChernPolynomial("chern", 2, 3).terms == {}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RunConfig(degree=-1), "degree must be >= 0"),
        (lambda: RunConfig(degree=True), "degree must be an integer, got True"),
        (lambda: RunConfig(tolerance=0.0), "tolerance must be positive"),
        (lambda: RunConfig(tolerance=float("inf")), "tolerance must be finite"),
        (lambda: RunConfig(fmt="xml"), "unknown format 'xml'"),
        (lambda: ChernPolynomial("todd", 1, 1), "unknown basis 'todd'"),
        (lambda: ChernPolynomial("chern", 2, 2, {(1,): 1}), "exponent tuple (1,) has wrong arity"),
        (lambda: RootModel(("h",), 2, ((_H * _H, 1),)),
         "root term with exponents (2,): roots must be pure degree-1 combinations of the "
         "generators"),
        (lambda: SpectrumSpec("finite"), "finite spectrum needs at least one eigenvalue"),
        (lambda: SpectrumSpec("finite", (1.0, -1.0)),
         "finite spectrum eigenvalues must be positive and finite"),
        (lambda: SpectrumSpec("affine", a=1.0), "affine spectrum needs finite a > 0 and c > 0"),
        (lambda: SpectrumSpec("cyclic"), "unknown spectrum form 'cyclic'"),
        (lambda: LevelSystem((1.0,), 0.0, 0.0, "FD"), "beta must be positive and finite, got 0.0"),
        (lambda: LevelSystem((1.0,), 0.0, 1.0, "FD", kB=-1.0),
         "kB must be positive and finite, got -1.0"),
        (lambda: LevelSystem((1.0,), float("nan"), 1.0, "FD"), "mu must be finite, got nan"),
        (lambda: LevelSystem((1.0, float("inf")), 0.0, 1.0, "FD"),
         "levels must be finite; level 1 is inf"),
        (lambda: LevelSystem((2.0, 0.5), 1.0, 1.0, "BE"),
         "level 1 (eps = 0.5) does not satisfy eps > mu = 1.0; the bosonic occupation sum "
         "diverges"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_chern_polynomial_hash_agrees_with_equality():
    low = ChernPolynomial("chern", 1, 2, {(1,): 1})
    high = ChernPolynomial("chern", 1, 5, {(1,): Fraction(1)})
    assert low == high and hash(low) == hash(high)
    assert len({low, high}) == 1 and high in {low}
    assert ChernPolynomial("pontryagin", 1, 2, {(1,): 1}) not in {low}


def test_spectral_report_hash_agrees_with_equality():
    spec = SpectrumSpec.finite([1.0, 2.0])
    report, again = build_spectral_report(spec), build_spectral_report(spec)
    assert report == again and hash(report) == hash(again)
    assert len({report, again}) == 1 and again in {report}
    assert build_spectral_report(SpectrumSpec.finite([1.0, 3.0])) not in {report}
    # the pairings in another key order are equal, and hash equal
    fields = [getattr(report, name) for name in SpectralPairReport.__match_args__[:-1]]
    reordered = {kind: dict(reversed(modes.items()))
                 for kind, modes in reversed(report.pairings.items())}
    assert SpectralPairReport(*fields, reordered) in {report}
    affine = build_spectral_report(SpectrumSpec.affine(1.0, 0.5))
    assert affine.pairings is None
    assert hash(affine) == hash(build_spectral_report(SpectrumSpec.affine(1.0, 0.5)))


def test_index_report_density_is_built_once(monkeypatch):
    calls = []
    original = pairings.multiplicative_sequence

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pairings, "multiplicative_sequence", counting)
    report = pairing_index("fb", "cp2")
    assert calls == []
    density = report.density
    assert report.density is density and report.to_json_dict()["density_chern_basis"]
    assert len(calls) == 1


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(statindex.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # modules that site or the environment already imported are not counted
    code = ("import sys; before = set(sys.modules); import statindex.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True, timeout=60).stdout.split()
    assert "statindex.cli" in added
    assert "dataclasses" not in added and "inspect" not in added
