// The production overall-CATE estimate for tests that check one number:
// the `overall` slot of CateEstimator::EstimateSubgroups (no protected
// split), or the call's own error when it fails outright (an empty or
// invalid intervention).

#ifndef FAIRCAP_TESTS_OVERALL_CATE_H_
#define FAIRCAP_TESTS_OVERALL_CATE_H_

#include <utility>

#include "causal/estimator.h"

namespace faircap {

inline Result<CateEstimate> OverallCate(const CateEstimator& est,
                                        const Pattern& intervention,
                                        const Bitmap& group) {
  Result<CateSubgroupEstimates> estimates =
      est.EstimateSubgroups(intervention, group, /*protected_mask=*/nullptr);
  if (!estimates.ok()) return estimates.status();
  return std::move(estimates->overall);
}

}  // namespace faircap

#endif  // FAIRCAP_TESTS_OVERALL_CATE_H_
