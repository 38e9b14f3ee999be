"""
Classifying sampled soliton data
================================

Samples (s, Ricci eigenvalues, f', R, |W|^2) from each canonical family are
matched against the four local types.  Each test the classifier takes is
printed as its ratio to the sample set's own curvature scale, which a
homothety of the metric leaves as it is; the label holds where the ratios of
its tests are at most tol.  Noise is then injected to show how the verdict
degrades gracefully to Unknown, and a synthetic pairwise-distinct spectrum
demonstrates the exclusion note.
"""

import numpy as np

from solitonlab import (classify, cylinder_family, gaussian_family, product_family,
                        singular_steady_family, sphere_family)
from solitonlab.classify import SAMPLE, sample_family, signature_labels

S = np.linspace(0.5, 2.0, 64)

print("eigen-signature of the singular steady spectrum at s = 1:",
      signature_labels([(2 / 3, -2 / 9, -4 / 9, -4 / 9)], 1e-8)[0])
print()

def ratios(verdict):
    """Each test's ratio to its scale, and the pair-signature fraction."""
    return ", ".join([f"{name} {ev.ratio:.1e}" for name, ev in verdict.evidence.items()]
                     + [f"pair fraction {verdict.pair_signature_fraction:.2f}"])


for fam in (sphere_family(), product_family(-1.0), singular_steady_family(),
            gaussian_family(1.0), cylinder_family(2.0)):
    samples = sample_family(fam, fam.soliton, S)
    verdict = classify(samples, tol=1e-8)
    print(f"{fam.name:16s} -> {verdict.label:20s} {ratios(verdict)}")

print("\nthe singular steady metric on s in [100, 1000], and on [0.5, 2] with s")
print("measured from another origin: no test reads s")
steady = singular_steady_family()
far = sample_family(steady, steady.soliton, np.linspace(100.0, 1000.0, 64))
shifted = sample_family(steady, steady.soliton, S)
shifted["s"] += 3.0
for samples in (far, shifted):
    verdict = classify(samples, tol=1e-8)
    print(f"  -> {verdict.label:20s} {ratios(verdict)}")

print("\nnoise sweep on the product family:")
product = product_family(-1.0)
base = sample_family(product, product.soliton, S)
rng = np.random.default_rng(0)
for eps in (1e-10, 1e-9, 1e-7, 1e-5):
    noisy = base.copy()
    noisy["eigenvalues"] += eps * rng.choice([-1, 1], size=noisy["eigenvalues"].shape)
    for key in ("fprime", "scalar", "weyl_sq"):
        noisy[key] += eps
    print(f"  noise {eps:.0e}: {classify(noisy, tol=1e-8).label}")

print("\nsynthetic pairwise-distinct spectrum:")
fake = np.array([(s, (1.0, 0.5, 0.2, -0.1), 1.0, 1.6, 1.0)
                 for s in np.linspace(1.0, 2.0, 8)], SAMPLE)
verdict = classify(fake, tol=1e-8)
print(f"  label = {verdict.label}; notes = {verdict.notes}")
