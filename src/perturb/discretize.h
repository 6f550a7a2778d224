// Value-class membership (paper §2.1): instead of adding noise, a provider
// discloses only which of a fixed set of disjoint intervals its value falls
// in. Implemented as replacing the value by its interval midpoint; privacy
// at 100% confidence is then exactly the interval width.

#ifndef PPDM_PERTURB_DISCRETIZE_H_
#define PPDM_PERTURB_DISCRETIZE_H_

#include <cstddef>

#include "data/dataset.h"

namespace ppdm::perturb {

/// Returns a copy of `dataset` where every attribute value is replaced by
/// the midpoint of its value class, one of `classes` equi-width classes
/// over the schema range.
data::Dataset DiscretizeValues(const data::Dataset& dataset,
                               std::size_t classes);

/// Privacy (interval width, at 100% confidence) of `classes`-way
/// discretization of an attribute with the given range, as a fraction of
/// that range (i.e. simply 1 / classes).
double DiscretizationPrivacyFraction(std::size_t classes);

}  // namespace ppdm::perturb

#endif  // PPDM_PERTURB_DISCRETIZE_H_
