#include "perturb/discretize.h"

#include "common/check.h"
#include "stats/partition.h"

namespace ppdm::perturb {

data::Dataset DiscretizeValues(const data::Dataset& dataset,
                               std::size_t classes) {
  PPDM_CHECK_GT(classes, 0u);
  data::Dataset out = dataset;
  for (std::size_t c = 0; c < out.NumCols(); ++c) {
    const data::FieldSpec& field = out.schema().Field(c);
    const stats::Partition partition(field.lo, field.hi, classes);
    std::vector<double>* column = out.MutableColumn(c);
    for (double& v : *column) v = partition.Mid(partition.IntervalOf(v));
  }
  return out;
}

double DiscretizationPrivacyFraction(std::size_t classes) {
  PPDM_CHECK_GT(classes, 0u);
  return 1.0 / static_cast<double>(classes);
}

}  // namespace ppdm::perturb
