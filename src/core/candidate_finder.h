#ifndef BIOPERF_CORE_CANDIDATE_FINDER_H_
#define BIOPERF_CORE_CANDIDATE_FINDER_H_

#include <cstddef>
#include <vector>

#include "core/simulator.h"

namespace bioperf::core {

/** Minimum share of dynamic loads for a load to be "frequent". */
constexpr double kCandidateMinFrequency = 0.005;
/** Next-branch misprediction rate at which that branch is "hard". */
constexpr double kCandidateMinBranchMissRate = 0.05;
/** How many of the hottest loads are considered. */
constexpr size_t kCandidatePool = 512;
/** The most candidates returned. */
constexpr size_t kMaxCandidates = 32;

/**
 * The Section 3 candidate-identification methodology, operationalized
 * over a characterization's per-load table (@a loads, most executed
 * first): among the kCandidatePool hottest loads, the frequent ones
 * whose next branch is hard to predict, ordered by frequency x
 * misprediction product — the loads whose L1 hit latency is worth
 * hiding by source-level scheduling.
 */
std::vector<LoadProfile>
findCandidates(const std::vector<LoadProfile> &loads);

} // namespace bioperf::core

#endif // BIOPERF_CORE_CANDIDATE_FINDER_H_
