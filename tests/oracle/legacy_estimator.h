// The legacy per-call CATE estimator, kept as a test-only reference. Each
// call rebuilds the full design matrix (regression, IPW) or stratum table
// (stratified) over the group's rows, with no shared state between calls.
// The production path is CateEstimator::EstimateSubgroups; the pinning
// tests compare its estimates against this oracle, bit for bit where the
// arithmetic is the same and within the documented FP tolerance where
// only the summation order differs.

#ifndef FAIRCAP_TESTS_ORACLE_LEGACY_ESTIMATOR_H_
#define FAIRCAP_TESTS_ORACLE_LEGACY_ESTIMATOR_H_

#include <cstddef>

#include "causal/estimator.h"
#include "dataframe/bitmap.h"
#include "mining/pattern.h"
#include "util/result.h"

namespace faircap {
namespace oracle {

/// Estimates the effect of `intervention` (T=1 iff the pattern matches)
/// on `est`'s outcome within the rows selected by `group`, with `est`'s
/// method, options, adjustment sets and treated masks. Fails
/// (FailedPrecondition) when either arm is smaller than `min_group_size`
/// or no stratum has overlap; `min_group_size` == 0 falls back to the
/// configured floor.
Result<CateEstimate> LegacyEstimate(const CateEstimator& est,
                                    const Pattern& intervention,
                                    const Bitmap& group,
                                    size_t min_group_size = 0);

}  // namespace oracle
}  // namespace faircap

#endif  // FAIRCAP_TESTS_ORACLE_LEGACY_ESTIMATOR_H_
