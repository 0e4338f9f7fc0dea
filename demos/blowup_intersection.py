"""Intersection theory on blow-ups: products, Euler characteristics,
speciality defects, Cremona reduction, and (-1)-class searches.

Divisor classes on the blow-up of projective space at general points
are written [d; m1, m2, ...].  Numerical intersection products plus
Riemann-Roch reproduce the naive dimension counts, and a defect
computation explains exactly how far a splitting with a fixed divisor
pushes the actual dimension above the expected one.
"""

from __future__ import annotations

from fatpoints import (
    DivisorClass,
    canonical,
    chi_rr,
    cremona_reduce,
    derive_search_bounds,
    enumerate_neg_curves,
    format_class,
    genus_planar,
    hh_predict_special,
    intersect3,
    parse_class,
    speciality_defect,
    vdim_rr,
)


def main() -> None:
    big = parse_class("[9;6,4^8]", 3)
    quadric = parse_class("[2;1,1^8]", 3)
    mobile = parse_class("[7;5,3^8]", 3)

    print(f"chi of {format_class(mobile)}: {chi_rr(mobile)}")
    print(f"vdim via Riemann-Roch: {vdim_rr(mobile)}")

    lk = big - canonical(3, 9)
    triple = intersect3(quadric, mobile, lk)
    print(f"triple product Q.M.(L-K) = {triple}")
    print(f"speciality defect of the splitting: {speciality_defect(quadric, mobile)}")

    dbl = parse_class("[4;2^9]", 3)
    print(
        f"defect when {format_class(dbl)} is all fixed part: "
        f"{speciality_defect(dbl, DivisorClass(3, 0, (0,) * 9))}"
    )

    print()
    image = parse_class("[12;3^2,4^8]", 2)
    std, stripped = cremona_reduce(image)
    print(f"{format_class(image)} is already standard: {format_class(std)}, strips {stripped}")
    bounds = derive_search_bounds(image)
    hits = enumerate_neg_curves(bounds, image, -1)
    for hit in hits:
        print(f"(-1)-class {format_class(hit.cls)} pairs to {hit.pairing}")

    curve = parse_class("[9;2^2,3^8]", 2)
    print(f"genus of {format_class(curve)}: {genus_planar(curve)}")

    verdict = hh_predict_special(parse_class("[2;2^2]", 2))
    print(
        f"predictor on [2;2^2]: special={verdict.special}, "
        f"witnesses {[format_class(w) for w in verdict.witnesses]}"
    )


if __name__ == "__main__":
    main()
