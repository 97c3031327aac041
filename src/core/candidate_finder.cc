#include "core/candidate_finder.h"

#include <algorithm>

namespace bioperf::core {

std::vector<LoadProfile>
findCandidates(const std::vector<LoadProfile> &loads)
{
    std::vector<LoadProfile> out;
    for (size_t i = 0; i < loads.size() && i < kCandidatePool; i++) {
        const LoadProfile &e = loads[i];
        if (e.frequency >= kCandidateMinFrequency &&
            e.nextBranchMissRate() >= kCandidateMinBranchMissRate)
            out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const LoadProfile &a, const LoadProfile &b) {
                  return a.frequency * a.nextBranchMissRate() >
                         b.frequency * b.nextBranchMissRate();
              });
    if (out.size() > kMaxCandidates)
        out.resize(kMaxCandidates);
    return out;
}

} // namespace bioperf::core
